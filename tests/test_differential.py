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
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.cases import CASE_REGISTRY, generate_case
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

#: Inputs with more than MAX_CANDIDATES candidates to enumerate.
OVER_CAP = {"example_4_2"}

#: LP engines ``branch_bound`` runs on; the HiGHS one needs the binding.
LP_ENGINES = ("highs", "linprog") if incremental._HIGHS is not None \
    else ("linprog",)


def _spec(name: str):
    if name in CASE_REGISTRY:
        return CASE_REGISTRY[name](BindingPolicy.FIXED)
    seed, conflicts, policy = SEARCH_CASES[name]
    return generate_case(seed, switch_size=8, n_flows=2, n_inlets=2,
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


@pytest.mark.parametrize("name", sorted(CASE_REGISTRY) + list(SEARCH_CASES))
def test_backends_and_engines_agree(name, monkeypatch):
    spec = _spec(name)
    reference = _solve(spec, "highs")
    assert reference.status in (SynthesisStatus.OPTIMAL,
                                SynthesisStatus.NO_SOLUTION)

    results = {}
    for engine in LP_ENGINES:
        with monkeypatch.context() as patch:
            patch.setattr(incremental, "LP_ENGINE", engine)
            results[f"branch_bound[{engine}]"] = _solve(spec, "branch_bound")
    for backend in ("parallel_bb:1", "parallel_bb:2"):
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
