"""Differential oracle, tier-1 subset: exact backends and LP engines agree.

Every input is solved by the HiGHS MILP backend, by ``branch_bound`` on
each available LP engine, by ``parallel_bb`` with 1 and 2 workers, and
by the model-free enumerator :func:`repro.testing.brute_force`, which
never builds the model. All must report the same status and, when
optimal, the same objective within 1e-6 relative, and every optimum
must pass ``verify_result``. The backends all solve one model, so only
the enumerator column catches a wrong model row.

Inputs: the seven application cases under fixed binding, plus six 8-pin
2-flow artificial cases: clockwise binding with crossing and with
non-crossing flows (which decides how hard the search is), and unfixed
binding. ``example_4_2`` is too large to enumerate.

The ``slow``-marked inputs (``pytest -m slow``; the default selection
leaves them out) add a ``parallel_bb:4`` column. They are a fixed
sample of ``suite_90`` whose columns all prove their verdict well
within the 120 s limit of each solve, and 3-flow 8-pin specs under
clockwise and unfixed binding, which the enumerator solves too.
"""

from __future__ import annotations

import ast
import functools
import inspect

import pytest

from repro.cases import CASE_REGISTRY, generate_case, suite_90
from repro.core import BindingPolicy, SynthesisOptions, synthesize
from repro.core.solution import SynthesisStatus
from repro.core.verify import verify_result
from repro.errors import SpecError
from repro.opt import incremental
from repro.testing import MAX_CANDIDATES, brute_force, oracle

#: Artificial inputs: name -> (seed, conflict pairs, policy). The seeds
#: were picked so each kind appears twice (see the coverage test).
SEARCH_CASES = {
    "cw_cross_0": (0, 0, BindingPolicy.CLOCKWISE),
    "cw_cross_1": (1, 1, BindingPolicy.CLOCKWISE),
    "cw_apart_2": (2, 0, BindingPolicy.CLOCKWISE),
    "cw_apart_7": (7, 1, BindingPolicy.CLOCKWISE),
    "unfixed_1": (1, 1, BindingPolicy.UNFIXED),
    "unfixed_2": (2, 0, BindingPolicy.UNFIXED),
}

#: Slow inputs from ``suite_90()``, by index (size x flows x policy x
#: seed, 5 seeds per block): 8-pin 3-, 4- and 5-flow specs under each
#: policy, and 12-pin specs with 3 to 5 flows; three have no solution.
#: ``suite_25`` (the linprog column did not prove its optimum in 60 s)
#: and ``suite_51`` (branch-and-bound did not prove infeasibility in
#: 60 s) are left out. The slowest column here, ``suite_20`` on
#: ``parallel_bb:1``, took 20 s on a 2-core x86-64 host.
SLOW_SUITE = (0, 1, 5, 6, 10, 11, 15, 16, 20, 30, 31, 46, 56, 61, 76)

#: Slow 8-pin 3-flow inputs, as ``SEARCH_CASES``. ``cw3_3_1`` has no
#: solution; the enumerator takes about 6 s to show it.
SLOW_SEARCH = {
    "cw3_0_0": (0, 0, BindingPolicy.CLOCKWISE),
    "cw3_1_1": (1, 1, BindingPolicy.CLOCKWISE),
    "cw3_3_0": (3, 0, BindingPolicy.CLOCKWISE),
    "cw3_3_1": (3, 1, BindingPolicy.CLOCKWISE),
    "unfixed3_0_0": (0, 0, BindingPolicy.UNFIXED),
    "unfixed3_1_1": (1, 1, BindingPolicy.UNFIXED),
    "unfixed3_2_0": (2, 0, BindingPolicy.UNFIXED),
    "unfixed3_3_1": (3, 1, BindingPolicy.UNFIXED),
}

#: Inputs with more than MAX_CANDIDATES candidates to enumerate.
OVER_CAP = {"example_4_2", "suite_56"}

#: LP engines ``branch_bound`` runs on; the HiGHS one needs the binding.
LP_ENGINES = ("highs", "linprog") if incremental._HIGHS is not None \
    else ("linprog",)


@functools.lru_cache(maxsize=None)
def _suite():
    return suite_90()


def _spec(name: str):
    if name in CASE_REGISTRY:
        return CASE_REGISTRY[name](BindingPolicy.FIXED)
    if name.startswith("suite_"):
        return _suite()[int(name[len("suite_"):])]
    n_flows = 3 if name in SLOW_SEARCH else 2
    seed, conflicts, policy = {**SEARCH_CASES, **SLOW_SEARCH}[name]
    return generate_case(seed, switch_size=8, n_flows=n_flows, n_inlets=2,
                         n_conflicts=conflicts, binding=policy,
                         name=f"diff_{name}")


def _flows_cross(spec) -> bool:
    position = {m: i for i, m in enumerate(spec.module_order)}
    (a, b), (c, d) = [sorted((position[f.source], position[f.target]))
                      for f in spec.flows]
    return (a < c < b) != (a < d < b)


def _solve(spec, backend: str):
    # The test verifies every optimum itself, after the agreement check,
    # so a wrong model row fails as a disagreement with the enumerator
    # rather than as a verifier error inside the first solve.
    options = SynthesisOptions(backend=backend, time_limit=120.0,
                               mip_gap=1e-9, on_error="raise", verify=False)
    return synthesize(spec, options)


def test_search_inputs_cover_crossing_and_non_crossing_flows():
    crossing = {name: _flows_cross(_spec(name))
                for name, (_, _, policy) in SEARCH_CASES.items()
                if policy is BindingPolicy.CLOCKWISE}
    assert crossing == {"cw_cross_0": True, "cw_cross_1": True,
                        "cw_apart_2": False, "cw_apart_7": False}


def _check_columns_agree(name, monkeypatch, parallel) -> None:
    """Every column proves the HiGHS column's verdict and objective."""
    spec = _spec(name)
    reference = _solve(spec, "highs")
    assert reference.status in (SynthesisStatus.OPTIMAL,
                                SynthesisStatus.NO_SOLUTION)

    results = {}
    for engine in LP_ENGINES:
        with monkeypatch.context() as patch:
            patch.setattr(incremental, "LP_ENGINE", engine)
            results[f"branch_bound[{engine}]"] = _solve(spec, "branch_bound")
    for backend in parallel:
        results[backend] = _solve(spec, backend)
    if name not in OVER_CAP:
        results["brute_force"] = brute_force(spec)

    for label, result in sorted(results.items()):
        assert result.status is reference.status, label
        if result.status is SynthesisStatus.OPTIMAL:
            assert result.objective == pytest.approx(
                reference.objective, rel=1e-6), label
    for result in [reference, *results.values()]:
        if result.status is SynthesisStatus.OPTIMAL:
            verify_result(result)


@pytest.mark.parametrize("name", sorted(CASE_REGISTRY) + list(SEARCH_CASES))
def test_backends_and_engines_agree(name, monkeypatch):
    _check_columns_agree(name, monkeypatch, ("parallel_bb:1", "parallel_bb:2"))


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", [f"suite_{i}" for i in SLOW_SUITE] + list(SLOW_SEARCH))
def test_backends_and_engines_agree_on_slow_inputs(name, monkeypatch):
    _check_columns_agree(name, monkeypatch,
                         ("parallel_bb:1", "parallel_bb:2", "parallel_bb:4"))


def test_brute_force_refuses_a_spec_over_the_cap():
    with pytest.raises(SpecError, match=str(MAX_CANDIDATES)):
        brute_force(_spec("example_4_2"))


def test_brute_force_shares_no_code_with_the_model_or_solvers():
    tree = ast.parse(inspect.getsource(oracle))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    forbidden = ("repro.core.builder", "repro.core.synthesizer",
                 "repro.opt.model", "repro.opt.solvers")
    assert not [m for m in imported if m.startswith(forbidden)]
