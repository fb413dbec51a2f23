"""Micro-benchmarks of the optimization substrate.

Unlike the experiment harnesses (single solver runs), these measure the
library machinery itself with repeated rounds: model construction,
product linearization, presolve, LP export, and small-model solves on
each backend.
"""

import random

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.core.builder import SynthesisModelBuilder
from repro.core.synthesizer import build_catalog
from repro.opt import Model, model_to_lp, presolve, quicksum
from repro.opt.compile import CompiledModel


def _quadratic_model(n=40, seed=3):
    rng = random.Random(seed)
    m = Model("micro")
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    for i in range(0, n - 1, 2):
        m.add_constr(xs[i] * xs[i + 1] <= 1)
    m.add_constr(quicksum(xs) >= n // 3)
    m.set_objective(
        quicksum(rng.randint(1, 5) * a * b
                 for a, b in zip(xs, xs[1:])) + quicksum(xs),
        "min",
    )
    return m


def test_micro_model_construction(benchmark):
    def build():
        return _quadratic_model()

    model = benchmark(build)
    assert model.num_vars == 40


def test_micro_linearization(benchmark):
    model = _quadratic_model()
    # CompiledModel itself, not the cached model.compiled(): every round
    # flattens the model and linearizes its products afresh.
    form = benchmark(CompiledModel, model)
    assert len(form.products) == 39  # consecutive pairs


def test_micro_presolve(benchmark):
    base = Model("pres")
    xs = [base.add_integer(f"x{i}", 0, 10) for i in range(60)]
    for i, x in enumerate(xs[:30]):
        base.add_constr(x == i % 5)
    for a, b in zip(xs[30:], xs[31:]):
        base.add_constr(a + b <= 12)

    def run():
        return presolve(base)

    result = benchmark(run)
    assert len(result.fixed) == 30


def test_micro_lp_export(benchmark):
    model = _quadratic_model()
    text = benchmark(model_to_lp, model)
    assert text.endswith("End\n")


def test_micro_synthesis_model_build(benchmark):
    spec = generate_case(seed=9, switch_size=12, n_flows=4, n_inlets=2,
                         n_conflicts=2, binding=BindingPolicy.UNFIXED)
    catalog = build_catalog(spec, SynthesisOptions())

    def build():
        return SynthesisModelBuilder(spec, catalog).build()

    built = benchmark(build)
    assert built.model.num_vars > 100


@pytest.mark.parametrize("backend", ["highs", "branch_bound"])
def test_micro_small_solve(benchmark, backend):
    def solve():
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(8)]
        m.add_constr(quicksum(xs) >= 3)
        for a, b in zip(xs, xs[1:]):
            m.add_constr(a + b <= 1)
        m.set_objective(quicksum((i + 1) * x for i, x in enumerate(xs)), "min")
        return m.solve(backend=backend)

    sol = benchmark(solve)
    assert sol.is_optimal
    # alternating pattern: cheapest 3 non-adjacent vars are x0, x2, x4
    assert sol.objective == pytest.approx(1 + 3 + 5)
