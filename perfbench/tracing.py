"""Spans recorded from the benchmark's own files around program layers.

:class:`LayerClock` wraps public entry points of the library for the
duration of one traced call and sums its spans in memory by layer; the
run prints them as a waterfall at the end. A span's
self time is its duration minus the wrapped calls nested inside it; an
*inclusive* span (pressure sharing, the greedy warm start) keeps its
nested calls, so their solver work stays with the layer that asked for
it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Waterfall rows in pipeline order; ``unattributed`` is appended.
INPROC_ROWS = ("switches.catalog", "core.build", "core.heuristic",
               "opt.linearize", "opt.presolve", "opt.solve", "opt.check",
               "core.extract_analyze", "core.pressure", "core.verify")
SERVICE_ROWS = ("service.submit", "service.queue_wait", "service.dispatch",
                "switches.catalog", "core.build", "opt.linearize",
                "opt.solve", "opt.check", "core.extract_analyze",
                "core.pressure", "core.verify", "store.phase",
                "core.synthesize_other", "service.finish",
                "service.wait_overhead")


class LayerClock:
    """Per-call span recorder for the in-process pipeline."""

    def __init__(self) -> None:
        self.rows: Dict[str, float] = {}
        self.values: Dict[str, float] = {}
        self._stack: List[float] = []
        self._inclusive = 0

    def reset(self) -> None:
        """Start a new call: per-call rows and values restart at zero."""
        self.rows = {}
        self.values = {}

    def _add(self, row: str, seconds: float) -> None:
        self.rows[row] = self.rows.get(row, 0.0) + seconds

    def wrap(self, row: str, fn: Callable, inclusive: bool = False,
             on_return: Optional[Callable[..., float]] = None) -> Callable:
        """``fn`` timed as ``row``. ``on_return(clock, value, self_s)``
        may split the self time into sub-rows and returns what is left
        for ``row``."""

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._inclusive:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            self._stack.append(0.0)
            self._inclusive += inclusive
            try:
                value = fn(*args, **kwargs)
            finally:
                self._inclusive -= inclusive
                nested = self._stack.pop()
                duration = time.perf_counter() - start
                if self._stack:
                    self._stack[-1] += duration
            own = duration - nested
            if on_return is not None:
                own = on_return(self, value, own)
            self._add(row, own)
            return value

        return timed


def _catalog_returned(clock: LayerClock, catalog: Any, own: float) -> float:
    clock.values["paths"] = clock.values.get("paths", 0) + len(catalog)
    return own


def _build_returned(clock: LayerClock, built: Any, own: float) -> float:
    clock.values["model_vars"] = built.model.num_vars
    clock.values["model_rows"] = built.model.num_constraints
    return own


def _solve_returned(clock: LayerClock, solution: Any, own: float) -> float:
    """Split ``Model.solve`` into the sub-phases it reports itself."""
    for phase in ("linearize", "presolve", "check"):
        seconds = solution.timings.get(phase, 0.0)
        clock._add(f"opt.{phase}", seconds)
        own -= seconds
    return own


@contextmanager
def instrumented(clock: LayerClock) -> Iterator[LayerClock]:
    """Install the span wrappers for one call and remove them after."""
    import repro.core.heuristic as heuristic
    import repro.core.synthesizer as synthesizer
    from repro.core.builder import SynthesisModelBuilder
    from repro.opt.model import Model

    patches = [
        (synthesizer, "build_catalog",
         clock.wrap("switches.catalog", synthesizer.build_catalog,
                    on_return=_catalog_returned)),
        (SynthesisModelBuilder, "build",
         clock.wrap("core.build", SynthesisModelBuilder.build,
                    on_return=_build_returned)),
        (Model, "solve",
         clock.wrap("opt.solve", Model.solve, on_return=_solve_returned)),
        (heuristic, "synthesize_greedy",
         clock.wrap("core.heuristic", heuristic.synthesize_greedy,
                    inclusive=True)),
        (synthesizer, "share_pressure",
         clock.wrap("core.pressure", synthesizer.share_pressure,
                    inclusive=True)),
        (synthesizer, "verify_result",
         clock.wrap("core.verify", synthesizer.verify_result)),
    ]
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield clock
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def print_waterfall(title: str, rows: Dict[str, float], wall: float,
                    order: Tuple[str, ...], n: int) -> float:
    """Print mean self time per input by layer; returns the attributed
    share of ``wall`` (both are totals over ``n`` inputs)."""
    attributed = sum(rows.get(name, 0.0) for name in order)
    n = max(n, 1)
    print(f"waterfall {title}: mean self time per input over {n} input(s)")
    for name in order + ("unattributed",):
        seconds = rows.get(name, 0.0) if name != "unattributed" \
            else wall - attributed
        share = seconds / wall if wall > 0 else 0.0
        print(f"  {name:<24} {seconds / n * 1e3:10.3f} ms  {share:7.1%}")
    print(f"  {'total (measured wall)':<24} {wall / n * 1e3:10.3f} ms")
    return attributed / wall if wall > 0 else 0.0
