"""Differential oracle, tier-1 subset: exact backends and LP engines agree.

Every input is solved by the HiGHS MILP backend, by ``branch_bound`` on
each available LP engine, and by ``parallel_bb`` with 1 and 2 workers.
All must report the same status and, when optimal, the same objective
within 1e-6 relative, and every optimum must pass ``verify_result``.

Inputs: the seven application cases under fixed binding, plus six 8-pin
2-flow artificial cases: clockwise binding with crossing and with
non-crossing flows (which decides how hard the search is), and unfixed
binding.
"""

from __future__ import annotations

import pytest

from repro.cases import CASE_REGISTRY, generate_case
from repro.core import BindingPolicy, SynthesisOptions, synthesize
from repro.core.solution import SynthesisStatus
from repro.core.verify import verify_result
from repro.opt import incremental

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
    options = SynthesisOptions(backend=backend, time_limit=120.0,
                               mip_gap=1e-9, on_error="raise")
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

    for label, result in [("highs", reference)] + sorted(results.items()):
        assert result.status is reference.status, label
        if result.status is SynthesisStatus.OPTIMAL:
            assert result.objective == pytest.approx(
                reference.objective, rel=1e-6), label
            verify_result(result)
