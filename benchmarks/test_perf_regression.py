"""Per-phase performance regression guard.

Runs a small fixed set of representative workloads, records their phase
breakdown (catalog/build/linearize/presolve/solve/extract/...) to
``BENCH_opt.json`` at the repo root, and compares against the previous
snapshot if one exists. A phase only counts as a regression when it is
both **3× slower** than the recorded value *and* slower by more than an
absolute guard (0.2 s) — otherwise a fast phase jittering from 2 ms to
7 ms would fail the build. Timed workloads run ``REPEATS`` times and the
snapshot keeps the per-phase minimum. Shared machines are noisy; the
assert is a smoke alarm for algorithmic regressions (a presolve round
going quadratic, a cache stopping to hit), not a timer.

Run with ``pytest benchmarks/test_perf_regression.py -q``; the CI
micro-benchmark job runs exactly this file.
"""

from __future__ import annotations

import os
import platform
import random
import time
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.cases import chip_sw1, generate_case
from repro.core import BindingPolicy, SynthesisOptions, synthesize
from repro.opt import Model, presolve, quicksum
from repro.perf import PhaseTimings, emit_bench_json, load_bench_json
from repro.switches import clear_path_cache

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_opt.json"

#: Regression thresholds: both must be exceeded for a phase to count.
RATIO_LIMIT = 3.0
ABS_GUARD_S = 0.2

#: Each timed workload runs this many times and the snapshot keeps the
#: per-phase minimum — best-of-N measures the algorithm rather than the
#: scheduler (the shared single-core container jitters by 30%+).
REPEATS = 8


def _row(name: str, timings: PhaseTimings,
         counters: Optional[Dict[str, int]] = None) -> Dict[str, object]:
    """One BENCH_opt.json record: phases in canonical order, their total,
    and the counters (sorted) when there are any."""
    row: Dict[str, object] = {
        "name": name,
        "phases": {p: round(timings[p], 6) for p in timings.ordered()},
        "total_s": round(timings.total, 6),
    }
    if counters:
        row["counters"] = dict(sorted(counters.items()))
    return row


def _best_phases(rows: List[Dict[str, object]]) -> Dict[str, float]:
    best: Dict[str, float] = {}
    for row in rows:
        for phase, seconds in row["phases"].items():
            if phase not in best or seconds < best[phase]:
                best[phase] = seconds
    return best


def _synthesis_record(name: str, spec_factory) -> Dict[str, object]:
    rows = []
    for _ in range(REPEATS):
        clear_path_cache()
        result = synthesize(spec_factory(), SynthesisOptions(time_limit=60))
        # nodes, lp_calls, cuts, ...
        row = _row(name, result.timings, result.counters)
        row["status"] = result.status.value
        rows.append(row)
    best = rows[-1]
    best["phases"] = _best_phases(rows)
    best["total_s"] = round(sum(best["phases"].values()), 6)
    return best


def _presolve_micro_record() -> Dict[str, object]:
    """Vectorized presolve on a chained-equality ladder (pure machinery)."""
    timings = PhaseTimings()
    m = Model("ladder")
    xs = [m.add_integer(f"x{i}", 0, 50) for i in range(400)]
    m.add_constr(xs[0] == 7)
    for a, b in zip(xs, xs[1:]):
        m.add_constr(a + b == 20)
    m.set_objective(quicksum(xs), "min")
    with timings.phase("presolve"):
        res = presolve(m)
    assert res.form.n == 0  # the ladder collapses entirely
    return _row("presolve_micro", timings)


def _compile_cache_record() -> Dict[str, object]:
    """Repeated solves of one model: later solves reuse the compilation."""
    from repro.core.builder import SynthesisModelBuilder
    from repro.core.synthesizer import build_catalog

    rows = []
    for _ in range(REPEATS):
        timings = PhaseTimings()
        counters: Dict[str, int] = {}
        spec = generate_case(seed=11, switch_size=8, n_flows=3)
        catalog = build_catalog(spec, SynthesisOptions())
        # A fresh model per repetition: the first solve must be cold
        # (the result memo would otherwise serve it instantly).
        built = SynthesisModelBuilder(spec, catalog).build()
        with timings.phase("solve"):
            first = built.model.solve(time_limit=60)
        counters.update(first.counters)
        with timings.phase("resolve"):  # compiled arrays + result memo hit now
            second = built.model.solve(time_limit=60)
        counters.update(
            {f"resolve_{k}": v for k, v in second.counters.items()})
        rows.append(_row("compile_cache", timings, counters))
    best = rows[-1]
    best["phases"] = _best_phases(rows)
    best["total_s"] = round(sum(best["phases"].values()), 6)
    return best


#: Worker counts for the parallel branch-and-bound speedup curve.
SPEEDUP_WORKER_COUNTS = (1, 2, 4)
SPEEDUP_REPEATS = 3
#: Minimum 4-worker speedup gated in CI (only on machines with >=4 cores).
SPEEDUP_FLOOR = 2.0

_SPEEDUP_RECORD: Optional[Dict[str, object]] = None


def _mkp_model(seed: int, n: int = 18, rows: int = 4,
               tightness: float = 0.45) -> Model:
    """Multi-dimensional knapsack with a fractional LP relaxation.

    The synthesis cases warm-start to the optimum and close at the root
    (``nodes: 1`` in the snapshot), so they cannot exercise the round
    loop; these instances open real trees of a few hundred nodes.
    """
    rng = random.Random(seed)
    m = Model(f"mkp{seed}_{n}")
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    for _ in range(rows):
        w = [rng.randint(3, 30) for _ in range(n)]
        m.add_constr(quicksum(wi * x for wi, x in zip(w, xs))
                     <= int(tightness * sum(w)))
    m.set_objective(
        quicksum(rng.randint(5, 40) * x for x in xs), "max")
    return m


def _parallel_speedup_record() -> Dict[str, object]:
    """1->N worker speedup curve for the ``parallel_bb`` backend.

    ``phases`` stays empty on purpose: wall-clock here scales with the
    runner's core count, so the 3x phase-ratio guard must never compare
    it across machines. The only gate is the conditional test below.
    The per-worker-count node totals double as a determinism proof in
    the committed artifact — they must be identical down the column.
    """
    global _SPEEDUP_RECORD
    # Chosen to open trees of a few hundred nodes each (506 and 311
    # under parallel_bb at the time of writing) so the round phase
    # dominates the serial root expansion — small trees would only
    # measure Amdahl's law.
    instances = [(3, 30, 5, 0.45), (9, 30, 5, 0.44)]
    walls: Dict[int, float] = {}
    counters: Dict[str, object] = {"cpu_count": os.cpu_count() or 1}
    for workers in SPEEDUP_WORKER_COUNTS:
        best_wall = float("inf")
        nodes = lp_calls = 0
        for _ in range(SPEEDUP_REPEATS):
            nodes = lp_calls = 0
            start = time.perf_counter()
            for seed, n, rows, tight in instances:
                sol = _mkp_model(seed, n, rows, tight).solve(
                    backend=f"parallel_bb:{workers}")
                assert sol.status.value == "optimal"
                nodes += sol.counters["nodes"]
                lp_calls += sol.counters["lp_calls"]
            best_wall = min(best_wall, time.perf_counter() - start)
        walls[workers] = best_wall
        counters[f"wall_{workers}w_s"] = round(best_wall, 6)
        counters[f"nodes_{workers}w"] = nodes
        counters[f"lp_calls_{workers}w"] = lp_calls
    for workers in SPEEDUP_WORKER_COUNTS[1:]:
        counters[f"speedup_{workers}w"] = round(
            walls[1] / walls[workers], 3)
    _SPEEDUP_RECORD = {
        "name": "parallel_speedup",
        "phases": {},
        "total_s": 0,
        "counters": counters,
    }
    return _SPEEDUP_RECORD


#: Seeds of the cold-vs-warm store sweep (8-pin, 3-flow cases that
#: solve in a few hundred ms each — big enough that the warm pass's
#: re-verification cost is negligible against the cold solve).
STORE_SWEEP_SEEDS = (42, 7, 19)
#: Minimum cold/warm wall-clock ratio gated by test_store_warm_speedup.
STORE_WARM_FLOOR = 5.0

_STORE_WARM_RECORD: Optional[Dict[str, object]] = None


def _store_warm_record() -> Dict[str, object]:
    """Cold-vs-warm synthesis sweep against a fresh persistent store.

    The cold pass solves every case and fills the store (Tier A); the
    warm pass repeats the identical sweep after clearing the in-process
    path cache, so every answer must come from disk and survive the
    independent re-verification. ``phases`` stays empty on purpose:
    cold wall-clock is machine-dependent MILP time, which the 3x
    phase-ratio guard must never compare across machines. The gates
    live in :func:`test_store_warm_speedup` instead: a 100% Tier-A hit
    rate, results identical field-for-field, and a cold/warm ratio of
    at least :data:`STORE_WARM_FLOOR`.
    """
    global _STORE_WARM_RECORD
    import json
    import shutil
    import tempfile

    from repro.io.result_json import result_to_dict
    from repro.store import Store

    def sweep_specs():
        return [generate_case(seed=s, switch_size=8, n_flows=3)
                for s in STORE_SWEEP_SEEDS]

    def identity(result):
        # Everything except the measurement fields must match exactly:
        # objective, binding, routes, flow sets, valves, pressure.
        row = result_to_dict(result)
        for volatile in ("runtime_s", "timings_s", "counters"):
            row.pop(volatile, None)
        return json.dumps(row, sort_keys=True)

    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = Store(root)
        options = SynthesisOptions(time_limit=60, store=store)
        clear_path_cache()
        start = time.perf_counter()
        cold = [synthesize(spec, options) for spec in sweep_specs()]
        cold_wall = time.perf_counter() - start
        clear_path_cache()  # the warm pass simulates a fresh process
        start = time.perf_counter()
        warm = [synthesize(spec, options) for spec in sweep_specs()]
        warm_wall = time.perf_counter() - start
        counters: Dict[str, object] = {
            "cases": len(cold),
            "cold_wall_s": round(cold_wall, 6),
            "warm_wall_s": round(warm_wall, 6),
            "speedup": round(cold_wall / warm_wall, 3),
            "warm_tier_a_hits": sum(
                r.counters.get("store_hit", 0) for r in warm),
            "identical_results": int(
                [identity(r) for r in cold] == [identity(r) for r in warm]),
            "store_entries": store.stats()["entries"],
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    _STORE_WARM_RECORD = {
        "name": "store_warm_sweep",
        "phases": {},
        "total_s": 0,
        "counters": counters,
    }
    return _STORE_WARM_RECORD


def collect_records() -> List[Dict[str, object]]:
    return [
        _synthesis_record("chip_sw1_fixed",
                          lambda: chip_sw1(BindingPolicy.FIXED)),
        _synthesis_record("artificial_8pin",
                          lambda: generate_case(seed=42, switch_size=8, n_flows=3)),
        _presolve_micro_record(),
        _compile_cache_record(),
        _parallel_speedup_record(),
        _store_warm_record(),
    ]


def _regressions(previous: Dict[str, object],
                 records: List[Dict[str, object]]) -> List[str]:
    old_by_name = {r["name"]: r for r in previous.get("records", [])
                   if isinstance(r, dict) and "name" in r}
    problems = []
    for record in records:
        old = old_by_name.get(record["name"])
        if not old:
            continue  # new workload: nothing to compare
        old_phases = old.get("phases", {})
        for phase, seconds in record["phases"].items():
            before = old_phases.get(phase)
            if before is None or before <= 0:
                continue
            if seconds > RATIO_LIMIT * before and seconds - before > ABS_GUARD_S:
                problems.append(
                    f"{record['name']}/{phase}: {before:.4f}s -> {seconds:.4f}s "
                    f"({seconds / before:.1f}x)"
                )
    return problems


def test_bench_row_format():
    timings = PhaseTimings({"solve": 0.25, "build": 0.5})
    row = _row("case_x", timings, {"nodes": 3, "cuts": 1})
    assert row == {"name": "case_x",
                   "phases": {"build": 0.5, "solve": 0.25},
                   "total_s": 0.75,
                   "counters": {"cuts": 1, "nodes": 3}}
    assert "counters" not in _row("case_y", timings)


def test_phase_timings_regression():
    previous = load_bench_json(BENCH_PATH)
    records = collect_records()
    problems = _regressions(previous, records) if previous else []
    emit_bench_json(BENCH_PATH, records, meta={
        "python": platform.python_version(),
        "machine": platform.machine(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "ratio_limit": RATIO_LIMIT,
        "abs_guard_s": ABS_GUARD_S,
        "repeats": REPEATS,
    })
    assert not problems, "phase regressions vs BENCH_opt.json: " + "; ".join(problems)


def test_parallel_worker_speedup():
    """Determinism always; the >=2x speedup floor only on real cores.

    The curve reuses the record collected by the phase-timing test when
    that ran first (one measurement per session); under ``-k speedup``
    it measures fresh. Single- and dual-core runners (including the
    local dev container) cannot exhibit a 4-worker speedup, so the
    floor applies only when the machine has at least 4 CPUs — matching
    the standard GitHub-hosted runner.
    """
    record = _SPEEDUP_RECORD
    if record is None:
        record = _parallel_speedup_record()
        # Measured standalone (the phase-timing test did not run), so
        # fold the fresh curve into the snapshot ourselves — CI uploads
        # BENCH_opt.json as the speedup artifact.
        previous = load_bench_json(BENCH_PATH) or {"records": []}
        records = [r for r in previous["records"]
                   if r.get("name") != record["name"]] + [record]
        emit_bench_json(BENCH_PATH, records, meta=previous.get("meta"))
    counters = record["counters"]
    assert counters["nodes_1w"] == counters["nodes_2w"] == counters["nodes_4w"]
    assert (counters["lp_calls_1w"] == counters["lp_calls_2w"]
            == counters["lp_calls_4w"])
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(f"speedup floor needs >=4 cores (machine has {cpus})")
    assert counters["speedup_4w"] >= SPEEDUP_FLOOR, (
        f"4-worker speedup {counters['speedup_4w']}x below the "
        f"{SPEEDUP_FLOOR}x floor (walls: "
        f"{counters['wall_1w_s']}s -> {counters['wall_4w_s']}s)")


def test_store_warm_speedup():
    """Warm store sweep: all hits, identical results, >=5x faster.

    Unlike the worker-speedup floor this gate is unconditional — a
    disk read plus re-verification beating a cold MILP solve by 5x
    does not depend on core count, and the margin measured on a
    single-core container is two orders of magnitude.
    """
    record = _STORE_WARM_RECORD
    if record is None:
        record = _store_warm_record()
        # Measured standalone (the phase-timing test did not run), so
        # fold the fresh record into the snapshot ourselves — the CI
        # cache-smoke job uploads BENCH_opt.json as its artifact.
        previous = load_bench_json(BENCH_PATH) or {"records": []}
        records = [r for r in previous["records"]
                   if r.get("name") != record["name"]] + [record]
        emit_bench_json(BENCH_PATH, records, meta=previous.get("meta"))
    counters = record["counters"]
    assert counters["warm_tier_a_hits"] == counters["cases"], (
        f"warm pass answered only {counters['warm_tier_a_hits']} of "
        f"{counters['cases']} cases from the store")
    assert counters["identical_results"] == 1, \
        "warm results differ from the cold pass"
    assert counters["speedup"] >= STORE_WARM_FLOOR, (
        f"warm sweep speedup {counters['speedup']}x below the "
        f"{STORE_WARM_FLOOR}x floor (walls: {counters['cold_wall_s']}s "
        f"-> {counters['warm_wall_s']}s)")
