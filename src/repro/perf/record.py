"""The phase ledger, its report table, and the BENCH_opt.json reader/writer.

:class:`PhaseTimings` is a dict of phase -> seconds filled through its
:meth:`~PhaseTimings.phase` context manager, the one timer of the
pipeline: each phase it times is also a span when a tracer is installed
(:mod:`repro.obs`). Ledgers nest by merging: ``Model.solve`` returns
its sub-phases in ``solution.timings`` and the synthesizer folds them
into the run's ledger.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.trace import current_tracer

#: Canonical phase order used when formatting reports; phases not listed
#: here are appended alphabetically. Mirrors the pipeline: degradation
#: ("degrade") runs after a failed exact attempt and pressure sharing
#: ("pressure") after analysis, so both sort in pipeline position
#: instead of the alphabetical tail ("check" is Model.solve's
#: post-backend assignment validation).
PHASE_ORDER = [
    "catalog", "build", "heuristic", "linearize", "presolve", "solve",
    "check", "extract", "analyze", "pressure", "verify", "degrade",
]


class PhaseTimings(Dict[str, float]):
    """A ``phase name -> seconds`` mapping with merge/total helpers."""

    @property
    def total(self) -> float:
        return sum(self.values())

    def add(self, phase: str, seconds: float) -> None:
        self[phase] = self.get(phase, 0.0) + seconds

    def merge(self, other: Dict[str, float], prefix: str = "") -> None:
        for phase, seconds in other.items():
            self.add(f"{prefix}{phase}", seconds)

    def ordered(self) -> List[str]:
        known = [p for p in PHASE_ORDER if p in self]
        extra = sorted(p for p in self if p not in PHASE_ORDER)
        return known + extra

    @contextmanager
    def phase(self, name: str, **attrs: Any) -> Iterator[None]:
        """Add the block's wall time to phase ``name``.

        With a tracer installed the block is also a span named ``name``
        with ``kind="phase"`` and ``attrs``; without one, the cost beyond
        the clock reads is a module-global None check and a null
        context. The time is recorded when the block raises, too.
        """
        tracer = current_tracer()
        with (tracer.span(name, kind="phase", **attrs) if tracer is not None
              else nullcontext()):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - start)


def format_phase_table(timings: Dict[str, float], indent: str = "  ") -> str:
    """Human-readable phase breakdown, widest phase first column."""
    if not timings:
        return f"{indent}(no phases recorded)"
    ordered = (timings.ordered() if isinstance(timings, PhaseTimings)
               else list(timings))
    width = max(len(p) for p in ordered)
    total = sum(timings.values())
    lines = []
    for phase in ordered:
        seconds = timings[phase]
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"{indent}{phase.ljust(width)}  {seconds:9.4f}s  {share:5.1f}%")
    lines.append(f"{indent}{'total'.ljust(width)}  {total:9.4f}s")
    return "\n".join(lines)


def emit_bench_json(path: Union[str, Path],
                    records: List[Dict[str, object]],
                    meta: Optional[Dict[str, object]] = None) -> Path:
    """Write a BENCH_opt.json perf snapshot (one record per workload)."""
    path = Path(path)
    payload: Dict[str, object] = {
        "schema": "repro-bench-v1",
        "records": records,
    }
    if meta:
        payload["meta"] = meta
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return path


def load_bench_json(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Read a BENCH_opt.json snapshot; None when absent or unreadable."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or "records" not in data:
        return None
    return data
