"""In-process workloads: fixed_sweep, exact_search and bb_search.

One closed-loop caller works through the workload's seeded stream with
``repro.core.synthesize`` until ``seconds`` of synthesis wall time are
spent. Time the benchmark spends checking outputs is kept out of that
wall.
"""

from __future__ import annotations

import dataclasses
import resource
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from repro.core import SynthesisOptions, synthesize
from repro.core.solution import SynthesisResult, SynthesisStatus
from repro.core.spec import SwitchSpec
from repro.core.verify import verify_result
from repro.errors import ReproError
from repro.obs import Tracer
from repro.switches.paths import path_cache_info

import tracing
import workloads

#: Per-input limit. Every input of these workloads reaches a proven
#: verdict in about a second or less on a 2-core host.
TIME_LIMIT_S = 30.0
PROVEN = (SynthesisStatus.OPTIMAL, SynthesisStatus.NO_SOLUTION)
COUNTERS = ("nodes", "lp_calls", "lp_iterations", "cuts", "presolve_fixed",
            "presolve_dropped_rows", "incumbent_seeded")
#: Per-layer metrics only the platform workload exercises; reported as 0
#: by the in-process workloads.
SERVICE_ONLY = ("store.hit_ratio", "store.get_s", "store.put_s",
                "service.submit_s", "service.queue_wait_s", "service.run_s",
                "service.finish_s", "service.wait_overhead_s",
                "service.journal_bytes_per_job", "service.attempts_per_job",
                "service.hit_latency_p50_s", "service.miss_latency_p50_s")


def options_for(workload: str) -> SynthesisOptions:
    backend = "branch_bound" if workload == "bb_search" else "auto"
    return SynthesisOptions(backend=backend, time_limit=TIME_LIMIT_S)


def setup(workload: str, seed: int) -> Tuple[Iterator[SwitchSpec],
                                             SynthesisOptions]:
    """Input stream plus warm-up: everything before the first timed input."""
    specs = workloads.stream(workload, seed)
    options = options_for(workload)
    for spec in workloads.warmup_specs(workload):
        synthesize(spec, options)
    return specs, options


def failure_of(result: SynthesisResult, reference) -> Optional[str]:
    """Why ``result`` counts as a failed operation (None if it passes)."""
    spec = result.spec
    if result.status not in PROVEN:
        return f"{spec.name}: unproven status {result.status.value!r}"
    if result.counters.get("degraded") or result.error:
        return f"{spec.name}: degraded result ({result.error})"
    if result.status is SynthesisStatus.OPTIMAL:
        try:
            verify_result(result)
        except ReproError as exc:
            return f"{spec.name}: verify_result failed: {exc}"
    return workloads.verdict_mismatch(reference, spec, result.status.value,
                                      result.objective)


def timed_synthesize(spec: SwitchSpec, options: SynthesisOptions
                     ) -> Tuple[Optional[SynthesisResult], float, str]:
    start = time.perf_counter()
    try:
        result = synthesize(spec, options)
    except Exception as exc:  # a crash is one failed operation
        return None, time.perf_counter() - start, \
            f"{spec.name}: {type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, ""


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0 for no values).

    A Beta-weighted mean of all order statistics: far steadier than a
    single order statistic on the few dozen latencies of a search run,
    whose distribution has gaps between its strata.
    """
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        return 0.0
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted / failed operations and the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            self.reasons.append(reason)


def run_untraced(workload: str, seed: int, seconds: float, reference,
                 setup_done) -> Tuple[Tally, Dict[str, float]]:
    specs, options = setup(workload, seed)
    setup_s = setup_done()
    tally = Tally()
    latencies: List[float] = []
    busy = 0.0
    cycle = workloads.CYCLE[workload]
    while busy < seconds or len(latencies) % cycle:
        result, elapsed, crash = timed_synthesize(next(specs), options)
        busy += elapsed
        latencies.append(elapsed)
        tally.record(crash or failure_of(result, reference))
    return tally, {
        "setup_s": setup_s,
        "throughput_per_s": len(latencies) / busy,
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(workload: str, seed: int, seconds: float, reference,
               setup_done) -> Tuple[Tally, Dict[str, float]]:
    """Each input runs twice, untraced and traced; whole cycles alternate
    which goes first, and the run ends after an even number of cycles
    once ``seconds`` of traced wall time are spent. Layer figures come
    from the traced-first cycles, which see the same cache state as an
    untraced run and hold every cell of the grid; the overhead ratio
    uses every pair, so the order effect cancels."""
    specs, options = setup(workload, seed)
    setup_done()
    tally = Tally()
    clock = tracing.LayerClock()
    rows: Dict[str, float] = {}
    sums: Dict[str, float] = {}
    traced_wall = untraced_wall = layer_wall = 0.0
    layer_inputs = memo_hits = memo_lookups = dropped = 0
    index = 0
    cycle = workloads.CYCLE[workload]
    while traced_wall < seconds or index % (2 * cycle):
        spec = next(specs)
        traced_first = (index // cycle) % 2 == 0
        index += 1
        reasons: List[str] = []
        for traced in ((True, False) if traced_first else (False, True)):
            if not traced:
                result, elapsed, crash = timed_synthesize(spec, options)
                untraced_wall += elapsed
            else:
                tracer = Tracer(f"perfbench-{workload}")
                clock.reset()
                memo_before = path_cache_info()
                with tracing.instrumented(clock):
                    result, elapsed, crash = timed_synthesize(
                        spec, dataclasses.replace(options, trace=tracer))
                memo_after = path_cache_info()
                traced_wall += elapsed
                dropped += tracer.dropped
                if traced_first and result is not None:
                    layer_inputs += 1
                    layer_wall += elapsed
                    hits = memo_after["hits"] - memo_before["hits"]
                    memo_hits += hits
                    memo_lookups += hits + memo_after["misses"] \
                        - memo_before["misses"]
                    timings = result.timings
                    clock.rows["core.extract_analyze"] = \
                        timings.get("extract", 0.0) + timings.get("analyze", 0.0)
                    for name, seconds_ in clock.rows.items():
                        rows[name] = rows.get(name, 0.0) + seconds_
                    for name, value in clock.values.items():
                        sums[name] = sums.get(name, 0.0) + value
                    for name in COUNTERS:
                        sums[name] = sums.get(name, 0.0) \
                            + result.counters.get(name, 0)
            reason = crash or failure_of(result, reference)
            if reason:
                reasons.append(reason)
        tally.record("; ".join(reasons))

    n = max(layer_inputs, 1)
    share = tracing.print_waterfall(workload, rows, layer_wall,
                                    tracing.INPROC_ROWS, layer_inputs)
    nodes = sums.get("nodes", 0.0)
    solve_s = rows.get("opt.solve", 0.0)
    metrics = {name: 0.0 for name in SERVICE_ONLY}
    metrics.update({
        "switches.catalog_s": rows.get("switches.catalog", 0.0) / n,
        "switches.paths": sums.get("paths", 0.0) / n,
        "switches.memo_hit_ratio": memo_hits / memo_lookups
        if memo_lookups else 0.0,
        "core.build_s": rows.get("core.build", 0.0) / n,
        "core.extract_analyze_s": rows.get("core.extract_analyze", 0.0) / n,
        "core.pressure_s": rows.get("core.pressure", 0.0) / n,
        "core.verify_s": rows.get("core.verify", 0.0) / n,
        "core.model_vars": sums.get("model_vars", 0.0) / n,
        "core.model_rows": sums.get("model_rows", 0.0) / n,
        "core.heuristic_s": rows.get("core.heuristic", 0.0) / n,
        "core.warm_start_ratio": sums.get("incumbent_seeded", 0.0) / n,
        "opt.linearize_s": rows.get("opt.linearize", 0.0) / n,
        "opt.presolve_s": rows.get("opt.presolve", 0.0) / n,
        "opt.check_s": rows.get("opt.check", 0.0) / n,
        "opt.solve_s": solve_s / n,
        "opt.presolve_dropped_rows": sums.get("presolve_dropped_rows", 0.0) / n,
        "opt.presolve_fixed": sums.get("presolve_fixed", 0.0) / n,
        "opt.nodes": nodes / n,
        "opt.lp_calls": sums.get("lp_calls", 0.0) / n,
        "opt.lp_iterations": sums.get("lp_iterations", 0.0) / n,
        "opt.lp_iterations_per_node": sums.get("lp_iterations", 0.0) / nodes
        if nodes else 0.0,
        "opt.nodes_per_s": nodes / solve_s if solve_s else 0.0,
        "opt.cuts": sums.get("cuts", 0.0) / n,
        "obs.trace_overhead_ratio": traced_wall / untraced_wall
        if untraced_wall else 0.0,
        "obs.telemetry_dropped": float(dropped),
        "obs.attributed_share": share,
    })
    return tally, metrics
