"""Parallel branch-and-bound: determinism, faults, integration.

The determinism contract under test (see :mod:`repro.opt.parallel`):
the same model solved with 1, 2 and 4 workers must return the identical
objective, variable assignment, ``nodes``/``lp_calls`` counters and
``node_order_hash`` — parallelism changes wall-clock only. A SIGKILLed
worker must not change any of that either: its in-flight subtree is
re-queued and re-run, and re-running a task is deterministic.
"""

import math
import multiprocessing as mp
import os
import random
import signal
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import BindingPolicy, SynthesisOptions, synthesize
from repro.cases import chip_sw1, generate_case
from repro.errors import SolverError
from repro.obs import Tracer, use_tracer
from repro.opt import Model, SolveStatus, WarmStart, quicksum
from repro.opt import parallel
from repro.opt.parallel import (
    SubtreeExplorer,
    WorkerPool,
    most_fractional,
    path_tie,
)
from repro.opt.solvers import (
    available_backends,
    get_backend,
    parse_backend_spec,
    register_backend,
)
from repro.opt.solvers.branch_bound import BranchBoundBackend
from repro.opt.solvers.parallel_bb import ParallelBranchBoundBackend
from repro.testing import FaultPlan

#: Counters that must be identical across worker counts.
DETERMINISTIC_COUNTERS = ("nodes", "lp_calls", "lp_iterations",
                          "node_order_hash", "bb_rounds")


def knapsack_hard(seed=2, n=18, rows=4, tightness=0.45):
    """A multi-dimensional knapsack whose LP relaxation is fractional —
    the search genuinely opens a tree (unlike the scheduling-style
    models, whose relaxations are often integral at the root)."""
    rng = random.Random(seed)
    m = Model(f"mkp{seed}_{n}")
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = [[rng.randint(3, 30) for _ in range(n)] for _ in range(rows)]
    for r in range(rows):
        m.add_constr(quicksum(weights[r][i] * xs[i] for i in range(n))
                     <= int(tightness * sum(weights[r])))
    values = [rng.randint(5, 40) for _ in range(n)]
    m.set_objective(quicksum(values[i] * xs[i] for i in range(n)), "max")
    return m


def signature(sol):
    values = tuple(sorted((v.name, round(val))
                          for v, val in sol.values.items()))
    counters = tuple(sol.counters.get(k) for k in DETERMINISTIC_COUNTERS)
    return (sol.objective, values, counters)


# ----------------------------------------------------------------------
# Determinism + correctness
# ----------------------------------------------------------------------

def test_identical_results_across_worker_counts():
    reference = knapsack_hard().solve(backend="highs")
    signatures = {}
    for workers in (1, 2, 4):
        sol = knapsack_hard().solve(backend=f"parallel_bb:{workers}")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(reference.objective)
        signatures[workers] = signature(sol)
    assert signatures[1] == signatures[2] == signatures[4]
    # the search actually ran in rounds (tree was not trivial)
    sol = knapsack_hard().solve(backend="parallel_bb:1")
    assert sol.counters["bb_rounds"] >= 1
    assert sol.counters["node_order_hash"] != 0


def test_repeated_runs_bit_identical():
    a = knapsack_hard(seed=4, n=16).solve(backend="parallel_bb:2")
    b = knapsack_hard(seed=4, n=16).solve(backend="parallel_bb:2")
    assert signature(a) == signature(b)


@pytest.mark.parametrize("seed", range(6))
def test_agrees_with_highs_on_random_models(seed):
    rng = random.Random(seed)
    m = Model(f"xcheck{seed}")
    n = rng.randint(3, 6)
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    z = m.add_integer("z", 0, 4)
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        m.add_constr(quicksum(c * x for c, x in zip(coeffs, xs))
                     + rng.choice([0, 1]) * z <= rng.randint(-1, 4))
    m.set_objective(
        quicksum(rng.randint(-3, 3) * x for x in xs) + z, "min")
    ref = m.solve(backend="highs")
    sol = m.solve(backend="parallel_bb:2")
    assert sol.status is ref.status
    if ref.status is SolveStatus.OPTIMAL:
        assert sol.objective == pytest.approx(ref.objective)


def test_infeasible_detected():
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x >= 1)
    m.add_constr(x <= 0)
    assert m.solve(backend="parallel_bb:2").status is SolveStatus.INFEASIBLE


def test_continuous_lp_and_equalities():
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(x + y == 7)
    m.add_constr(x - y == 1)
    m.set_objective(x, "min")
    sol = m.solve(backend="parallel_bb")
    assert sol.int_value(x) == 4 and sol.int_value(y) == 3


def test_time_limit_zero_returns_time_limit():
    sol = knapsack_hard().solve(backend="parallel_bb:2", time_limit=0.0)
    assert sol.status is SolveStatus.TIME_LIMIT


def _zero_warm_start(model):
    """The all-zero assignment: feasible for every knapsack, objective 0."""
    return WarmStart({v.name: 0.0 for v in model.variables}, 0.0, "zero")


def _stopped_early(name, stop):
    """One search stopped before it explored anything, two ways."""
    max_nodes = 0 if stop == "node_limit" else 200_000
    if name == "branch_bound":
        backend = BranchBoundBackend(max_nodes=max_nodes)
    else:
        backend = ParallelBranchBoundBackend(1, max_nodes=max_nodes)
    m = knapsack_hard()
    time_limit = 1e-6 if stop == "deadline" else None
    return backend.solve(m, time_limit=time_limit,
                         warm_start=_zero_warm_start(m)), max_nodes


@pytest.mark.parametrize("stop", ["deadline", "node_limit"])
@pytest.mark.parametrize("name", ["branch_bound", "parallel_bb:1"])
def test_search_stopped_on_its_last_open_node_is_not_optimal(name, stop):
    """A stop on the only open node leaves that node unexplored.

    The optimum is 307, so the warm incumbent (0) is unproven: the
    search must say so instead of returning it as OPTIMAL.
    """
    sol, max_nodes = _stopped_early(name, stop)
    assert sol.status in (SolveStatus.TIME_LIMIT, SolveStatus.FEASIBLE)
    # the serial root expansion honours max_nodes too
    assert sol.counters["nodes"] <= max_nodes


def test_warm_start_seeds_incumbent():
    m = knapsack_hard(seed=9, n=14)
    ref = m.solve(backend="highs")
    warm = {v: ref.values[v] for v in m.variables}
    m2 = knapsack_hard(seed=9, n=14)
    by_name = {v.name: val for v, val in warm.items()}
    warm2 = {v: by_name[v.name] for v in m2.variables}
    sol = m2.solve(backend="parallel_bb:2", warm_start=warm2)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(ref.objective)
    assert sol.counters.get("incumbent_seeded") == 1


@pytest.mark.parametrize("backend", ["branch_bound", "parallel_bb:1"])
def test_traced_search_announces_each_incumbent_once(backend):
    """Tasks announce their own incumbents and the driver does not
    repeat them; only a run with rounds opens the coordinator span."""
    tracer = Tracer("bb")
    with use_tracer(tracer):
        sol = knapsack_hard(seed=2, n=16).solve(backend=backend)
    records = tracer.records()
    announced = [r["attrs"]["objective"] for r in records
                 if r["type"] == "event" and r["name"] == "incumbent"]
    # a maximization: every announcement strictly improves the last
    assert len(announced) >= 2 and announced == sorted(set(announced))
    assert announced[-1] == pytest.approx(sol.objective)
    spans = {r["name"] for r in records if r["type"] == "span_begin"}
    metrics = {r["name"] for r in records if r["type"] == "metric"}
    has_rounds = backend != "branch_bound"
    assert ("parallel_bb" in spans) is has_rounds
    assert ("bb_workers" in metrics) is has_rounds


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------

def test_sigkilled_worker_is_requeued_and_result_unchanged():
    baseline = knapsack_hard().solve(backend="parallel_bb:2")
    if baseline.counters["bb_workers"] < 2:  # pragma: no cover
        pytest.skip("worker pool unavailable in this environment")
    assert baseline.counters["bb_rounds"] >= 1

    chaotic = ParallelBranchBoundBackend(
        2, fault_plan=FaultPlan(schedule=["kill"]))
    sol = chaotic.solve(knapsack_hard())
    assert sol.status is SolveStatus.OPTIMAL
    # the kill actually happened and was recovered
    assert sol.counters["bb_worker_restarts"] >= 1
    # ... and changed nothing about the search outcome
    assert signature(sol) == signature(baseline)


def _dispatch(chain, path, budget=16):
    return {"chain": chain, "path": path, "incumbent": math.inf,
            "budget": budget, "mip_gap": 1e-9, "deadline": None,
            "home": 0, "corr": None}


def _round_essentials(results):
    return sorted((r["path"], r["nodes"], r["lp_calls"], r["lp_iterations"],
                   r["order"], r["best_val"], tuple(r["leftovers"]))
                  for r in results)


def test_worker_that_dies_idle_is_replaced():
    """A worker killed between rounds, after its last result was read,
    is respawned at the next dispatch instead of silently dropped."""
    form = knapsack_hard().compiled()
    tracer = Tracer("pool")
    pool = WorkerPool(form, 2, tracer=tracer)
    clean = WorkerPool(form, 2)
    try:
        if not (pool.start() and clean.start()):  # pragma: no cover
            pytest.skip("worker pool unavailable in this environment")
        # One task: seat 0 takes it, seat 1 idles the whole round.
        (root,) = pool.run_round([_dispatch((), (), budget=4)])
        tasks = [_dispatch(chain, path)
                 for _, path, chain in root["leftovers"]]
        assert len(tasks) >= 2
        victim = pool._seats[1].proc
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        assert not victim.is_alive()

        second = pool.run_round(tasks)
        assert pool.restarts == 1
        assert pool.alive_workers == 2
        downs = [r for r in tracer.records(with_metrics=False)
                 if r["type"] == "event" and r["name"] == "worker_down"]
        assert [d["attrs"] for d in downs] == [{"worker": 1,
                                                "had_task": False}]
        assert _round_essentials(second) == \
            _round_essentials(clean.run_round(tasks))
    finally:
        pool.stop()
        clean.stop()


# ----------------------------------------------------------------------
# Registry / spec strings
# ----------------------------------------------------------------------

def test_backend_registry_and_spec_strings():
    assert available_backends()["parallel_bb"]
    assert get_backend("parallel_bb:3").workers == 3
    assert parse_backend_spec("parallel_bb:4") == ("parallel_bb", 4)
    assert parse_backend_spec("branch_bound") == ("branch_bound", None)
    with pytest.raises(SolverError):
        parse_backend_spec("parallel_bb:zero")
    with pytest.raises(SolverError):
        parse_backend_spec("parallel_bb:0")
    with pytest.raises(SolverError):
        register_backend("parallel_bb:2", ParallelBranchBoundBackend)


# ----------------------------------------------------------------------
# Engine internals
# ----------------------------------------------------------------------

def test_path_tie_is_pure_function_of_identity():
    assert path_tie((1, 2, 3)) == path_tie((1, 2, 3))
    assert path_tie((1, 2)) != path_tie((2, 1))
    # the hashed bytes are a leading 0 and the path, as they always were,
    # so node_order_hash values stay comparable across versions
    data = np.asarray((0, 1, 2, 3), dtype=np.int64).tobytes()
    assert path_tie((1, 2, 3)) == zlib.crc32(data)


def test_most_fractional_branching():
    branch_idx = np.array([0, 1, 2])
    # the variable farthest from integrality wins
    assert most_fractional(np.array([0.2, 0.49, 0.0]), branch_idx) == 1
    # integral vector: nothing to branch on
    assert most_fractional(np.array([1.0, 0.0, 1.0]), branch_idx) is None
    # a tie goes to the lowest index
    assert most_fractional(np.array([0.0, 0.5, 0.5]), branch_idx) == 1
    # only the branch set is considered
    assert most_fractional(np.array([0.5, 0.0, 1.0]),
                           np.array([1, 2])) is None


def test_subtree_explorer_task_is_deterministic():
    form = knapsack_hard().compiled()
    a = SubtreeExplorer(form).run_task((), (), node_budget=40)
    b = SubtreeExplorer(form).run_task((), (), node_budget=40)
    assert a["nodes"] == b["nodes"] > 0
    assert a["order"] == b["order"]
    assert a["lp_calls"] == b["lp_calls"]
    assert [l[:2] for l in a["leftovers"]] == [l[:2] for l in b["leftovers"]]


# ----------------------------------------------------------------------
# Synthesis integration
# ----------------------------------------------------------------------

def test_synthesize_with_parallel_backend():
    spec = chip_sw1(BindingPolicy.FIXED)
    result = synthesize(
        spec, SynthesisOptions(backend="parallel_bb:2", time_limit=120.0))
    assert result.status.solved
    reference = synthesize(
        spec, SynthesisOptions(backend="branch_bound", time_limit=120.0))
    assert result.objective == pytest.approx(reference.objective)


@pytest.mark.parametrize("install", ["options", "use_tracer"])
def test_traced_synthesis_keeps_forked_worker_telemetry(monkeypatch, install):
    """Workers forked inside a traced ``synthesize`` record into their
    own tracers, and the caller's tracer absorbs their ``bb_task``
    spans, whether it came in as ``SynthesisOptions(trace=)`` or
    through ``use_tracer``."""
    if "fork" not in mp.get_all_start_methods():  # pragma: no cover
        pytest.skip("fork start method unavailable")
    monkeypatch.setattr(parallel, "pick_context",
                        lambda: mp.get_context("fork"))
    # 8 pins, 3 flows, clockwise: the search runs rounds on the pool
    spec = generate_case(seed=3, switch_size=8, n_flows=3, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.CLOCKWISE)
    options = SynthesisOptions(backend="parallel_bb:2", time_limit=120.0,
                               cache=False)
    tracer = Tracer("caller")
    if install == "options":
        result = synthesize(spec, replace(options, trace=tracer))
    else:
        with use_tracer(tracer):
            result = synthesize(spec, options)
    if result.counters["bb_workers"] < 2:  # pragma: no cover
        pytest.skip("worker pool unavailable in this environment")
    assert result.counters["bb_rounds"] >= 1
    tasks = {r["src"] for r in tracer.records()
             if r["type"] == "span_begin" and r["name"] == "bb_task"}
    assert tasks and all(src.startswith("bb-worker-") for src in tasks)
