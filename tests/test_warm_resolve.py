"""Warm starts, re-solve contexts and the model result memo.

The contract under test: none of the incremental-solve machinery may
change any reported status or objective — a context-reused or
warm-started solve must be indistinguishable (modulo runtime) from a
cold one.
"""

from __future__ import annotations

import time

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions, synthesize
from repro.core.builder import SynthesisModelBuilder
from repro.core.heuristic import model_assignment, synthesize_greedy
from repro.core.synthesizer import build_catalog
from repro.analysis.sensitivity import weight_sweep
from repro.opt import Model, SolveContext, SolveStatus, WarmStart
from repro.opt.solvers.branch_bound import BranchBoundBackend
from repro.opt.solvers.parallel_bb import ParallelBranchBoundBackend

ALL_POLICIES = [BindingPolicy.FIXED, BindingPolicy.CLOCKWISE,
                BindingPolicy.UNFIXED]


def _case(policy: BindingPolicy, seed: int = 11):
    return generate_case(seed=seed, switch_size=8, n_flows=3, binding=policy)


def _fingerprint(result):
    """Everything the paper reports, excluding wall-clock noise."""
    return (
        result.status,
        result.objective,
        result.binding,
        {fid: (p.source_pin, p.target_pin, tuple(sorted(p.segments)))
         for fid, p in result.flow_paths.items()},
        [tuple(group) for group in result.flow_sets],
        tuple(sorted(result.used_segments)),
    )


@pytest.mark.parametrize("policy", ALL_POLICIES,
                         ids=[p.value for p in ALL_POLICIES])
def test_context_reuse_is_identical_to_cold_solve(policy):
    options = SynthesisOptions(time_limit=120)
    cold = synthesize(_case(policy), options)
    context = SolveContext()
    first = synthesize(_case(policy), options, context=context)
    second = synthesize(_case(policy), options, context=context)
    assert _fingerprint(first) == _fingerprint(cold)
    assert _fingerprint(second) == _fingerprint(cold)
    assert context.stats["model_hits"] == 1
    # The unchanged model + backend re-solve comes from the result memo.
    assert second.counters.get("resolve_cache_hit") == 1


def test_weight_sweep_with_context_matches_cold_sweep():
    spec = _case(BindingPolicy.FIXED, seed=3)
    weights = ((1.0, 100.0), (1.0, 1.0), (100.0, 1.0))
    options = SynthesisOptions(time_limit=120)
    context = SolveContext()
    shared = weight_sweep(spec, weights, options, context=context)
    # Cold reference: every point solved from scratch, no sharing.
    from repro.analysis.sensitivity import _respec
    cold_points = [synthesize(_respec(spec, a, b), options) for a, b in weights]
    assert [(p.alpha, p.beta, p.num_sets,
             None if p.length_mm is None else round(p.length_mm, 6))
            for p in shared.points] == \
        [(a, b, r.num_flow_sets, round(r.flow_channel_length, 6))
         for (a, b), r in zip(weights, cold_points)]
    # Later points reused the structurally identical model.
    assert context.stats["model_hits"] == len(weights) - 1


def test_model_result_memo_hits_on_unchanged_resolve():
    spec = _case(BindingPolicy.FIXED, seed=11)
    catalog = build_catalog(spec, SynthesisOptions())
    built = SynthesisModelBuilder(spec, catalog).build()
    first = built.model.solve(time_limit=60)
    second = built.model.solve(time_limit=60)
    assert first.status is SolveStatus.OPTIMAL
    assert second.status is SolveStatus.OPTIMAL
    assert second.counters.get("resolve_cache_hit") == 1
    assert second.objective == first.objective
    assert {v.name: val for v, val in second.values.items()} == \
        {v.name: val for v, val in first.values.items()}
    # The memo is invalidated by any structural change.
    built.model.set_objective(2 * built.n_sets_expr + built.length_expr, "min")
    third = built.model.solve(time_limit=60)
    assert "resolve_cache_hit" not in third.counters


def test_heuristic_incumbent_does_not_change_branch_bound_optimum():
    spec = _case(BindingPolicy.FIXED, seed=11)
    options_warm = SynthesisOptions(time_limit=120, backend="branch_bound",
                                    heuristic_incumbent=True)
    options_cold = SynthesisOptions(time_limit=120, backend="branch_bound",
                                    heuristic_incumbent=False)
    warm = synthesize(spec, options_warm)
    cold = synthesize(spec, options_cold)
    assert warm.status.solved and cold.status.solved
    assert warm.objective == pytest.approx(cold.objective)
    assert "incumbent_seeded" not in cold.counters


def test_model_assignment_maps_greedy_onto_built_model():
    spec = _case(BindingPolicy.FIXED, seed=11)
    catalog = build_catalog(spec, SynthesisOptions())
    built = SynthesisModelBuilder(spec, catalog).build()
    greedy = synthesize_greedy(spec, verify=False, pressure_sharing=False)
    assert greedy.status.solved
    assignment = model_assignment(built, greedy)
    if assignment is None:
        pytest.skip("greedy route not present in the path catalog")
    assert set(assignment) == set(built.model.variables)
    assert built.model.check_assignment(assignment, tol=1e-6) == []


@pytest.mark.parametrize("binding", [BindingPolicy.CLOCKWISE,
                                     BindingPolicy.UNFIXED])
@pytest.mark.parametrize("seed", range(6))
def test_greedy_incumbent_survives_rotation_symmetry(seed, binding):
    """The greedy binding is rotated so the first module lands in the
    arc the rotation symmetry row allows; otherwise the row rejects the
    incumbent and branch-and-bound starts cold."""
    spec = generate_case(seed, switch_size=8, n_flows=2, n_inlets=2,
                         binding=binding)
    greedy = synthesize_greedy(spec, verify=False, pressure_sharing=False)
    arc = spec.switch.n_pins // spec.switch.rotation_order
    assert spec.switch.pin_index(greedy.binding[spec.modules[0]]) <= arc
    result = synthesize(spec, SynthesisOptions(time_limit=60,
                                               backend="branch_bound"))
    assert result.status.solved
    assert result.counters.get("incumbent_seeded") == 1


def test_warm_start_rejected_when_infeasible_or_incomplete():
    m = Model("guard")
    x = m.add_binary("x")
    y = m.add_binary("y")
    m.add_constr(x + y == 1)
    m.set_objective(x, "min")
    # Violates the equality: silently dropped.
    assert m._build_warm_start({x: 1.0, y: 1.0}, None) is None
    # Incomplete: silently dropped.
    assert m._build_warm_start({x: 1.0}, None) is None
    ws = m._build_warm_start({x: 0.0, y: 1.0}, None)
    assert isinstance(ws, WarmStart)
    assert ws.objective == 0.0


def test_branch_bound_seeds_warm_incumbent():
    m = Model("seeded")
    xs = [m.add_binary(f"x{i}") for i in range(6)]
    for a, b in zip(xs, xs[1:]):
        m.add_constr(a + b <= 1)
    m.set_objective(sum(x * 1.0 for x in xs), "max")
    greedy = {x: (1.0 if i % 2 == 0 else 0.0) for i, x in enumerate(xs)}
    sol = m.solve(backend="branch_bound", warm_start=greedy,
                  warm_source="heuristic")
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.counters.get("incumbent_seeded") == 1
    assert "heuristic" in sol.message


@pytest.mark.parametrize("backend_cls", [BranchBoundBackend,
                                         ParallelBranchBoundBackend])
def test_time_limit_clock_covers_presolve(backend_cls):
    """The deadline starts before presolve, so a nearly-expired limit
    must come back as TIME_LIMIT quickly instead of running a full
    search after presolve already overspent the budget."""
    m = Model("deadline")
    xs = [m.add_binary(f"x{i}") for i in range(40)]
    for i, a in enumerate(xs):
        for b in xs[i + 1:i + 4]:
            m.add_constr(a + b <= 1)
    m.set_objective(sum(x * (1.0 + 0.01 * i) for i, x in enumerate(xs)), "max")
    start = time.perf_counter()
    sol = backend_cls().solve(m, time_limit=1e-6)
    elapsed = time.perf_counter() - start
    assert sol.status in (SolveStatus.TIME_LIMIT, SolveStatus.FEASIBLE)
    assert elapsed < 5.0
