"""Phase timings and the BENCH_opt.json snapshot format.

Every synthesis result carries a :class:`PhaseTimings` ledger: the wall
clock of each pipeline phase (catalog / build / linearize / presolve /
solve / extract / verify, ...), timed by :meth:`PhaseTimings.phase`,
which is also the span of that phase when a tracer is installed. The
CLI prints the ledger behind ``--profile`` with
:func:`format_phase_table`, and the benchmark harness writes it to
``BENCH_opt.json`` so the perf trajectory is diffable across commits.
"""

from repro.perf.record import (
    PhaseTimings,
    emit_bench_json,
    format_phase_table,
    load_bench_json,
)

__all__ = [
    "PhaseTimings",
    "emit_bench_json",
    "load_bench_json",
    "format_phase_table",
]
