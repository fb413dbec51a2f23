"""Hierarchical spans and a structured event stream (the `repro.obs` core).

A :class:`Tracer` records two kinds of telemetry into one bounded,
append-only buffer:

* **spans** — hierarchical wall-clock intervals with ids, parent links
  and attributes (``span_begin``/``span_end`` record pairs). Every
  :meth:`repro.perf.PhaseTimings.phase` opens a span on the installed
  tracer while it times its phase, so the synthesis pipeline
  (catalog → build → … → verify), the ``Model.solve`` sub-phases
  (linearize, solve with the backend's presolve inside it, check) and
  the ``parallel_bb`` worker spans all appear in one tree.
* **events** — typed point-in-time records from the search internals:
  ``incumbent`` (objective + wall time), ``bound``, ``cut_round``,
  ``progress``, ``deadline``, ``degrade``, ``fault_injected``,
  ``cache_hit``, …  Producers attach arbitrary JSON-compatible
  attributes.

**Cost model.** With no tracer installed (the default), every
instrumentation site reduces to one module-global ``is None`` check —
there is no buffering, no clock read, no allocation. With a tracer
installed, each record is one dict append under a lock; the buffer is
bounded (``max_events``) and silently drops *events* past the cap
(counted in :attr:`Tracer.dropped`) so a runaway solver cannot exhaust
memory. ``span_end`` records are never dropped — a truncated stream
still closes every span it opened.

Timestamps are seconds since tracer creation from
``time.perf_counter`` (monotonic); every record additionally carries a
process-wide sequence number so equal-clock records keep their order.

Threading: the span stack is thread-local, so concurrent producers
(service worker threads) nest correctly within their own thread; a span
can link to another thread's span, or to a coordinator span it did not
open, via an explicit ``parent=`` id. The installed tracer itself is a
plain module global — visible from worker threads, never inherited by
worker *processes* (each batch worker installs its own).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Version tag stamped into every exported artifact (JSONL header,
#: Chrome trace metadata, manifests). Bump on any incompatible change
#: to the record shapes documented in docs/observability.md.
OBS_SCHEMA = "repro-obs-v1"

#: Event names with a defined meaning (producers may add more; the
#: schema treats the name as an open vocabulary).
KNOWN_EVENTS = (
    "incumbent",        # objective, source, nodes — incumbent improved
    "bound",            # bound — best known lower bound changed
    "cut_round",        # cuts — cutting planes appended to the LP
    "progress",         # nodes, open, lp_calls — periodic search heartbeat
    "deadline",         # where — a wall-clock budget ran out
    "degrade",          # reason — the degradation ladder stepped down
    "fault_injected",   # kind, solve — repro.testing fired a planned fault
    "cache_hit",        # kind — a memoized artifact was reused
    "solve_result",     # status, objective — one Model.solve finished
    # -- repro.service job lifecycle ------------------------------------
    "job_submitted",    # job (+dedup/replayed) — a job entered the service
    "job_started",      # job, attempt, backend — a worker picked it up
    "job_retry",        # job, attempt, delay — failed, re-queued w/ backoff
    "job_done",         # job, state, attempts — terminal done/degraded
    "job_failed",       # job, attempts, error — retries exhausted
    "shed",             # job, queue_depth — admission control refused it
    "breaker_open",     # backend, failures — circuit breaker tripped
    "breaker_half_open",  # backend — cooldown over, one probe admitted
    "breaker_close",    # backend — probe succeeded, backend readmitted
    "worker_crashed",   # worker, error — supervisor replaced a worker
    "drain",            # pending, completed — graceful shutdown summary
    "interrupt",        # where — SIGINT/KeyboardInterrupt acknowledged
    "batch_row",        # index, case, status — one run_batch row finished
)

_seq_counter = itertools.count()
_ids = itertools.count(1)


class Tracer:
    """A bounded in-memory recorder for spans, events and metrics."""

    def __init__(self, name: str = "", max_events: int = 200_000) -> None:
        self.name = name
        self.max_events = max_events
        self.metrics = MetricsRegistry()
        self.dropped = 0
        #: Lamport-style logical clock: every record gets the next tick,
        #: and :meth:`witness` advances past any remote clock seen over
        #: an RPC — so a deterministic cross-process merge can order
        #: causally-related records without trusting wall clocks.
        self.clock = 0
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}
        # Telemetry batches absorbed from child processes (shards, B&B
        # workers, spawn batch workers); merged in at snapshot time.
        self._foreign: List[Dict[str, Any]] = []
        # Spans begun but not yet ended (any thread); lets a snapshot
        # taken mid-run close them synthetically so every exported
        # stream is balanced (another thread may still be inside its
        # span when the trace is written).
        self._open: Dict[int, Dict[str, Any]] = {}

    # -- internals -----------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        """A small stable id for the calling thread (0 = first seen)."""
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids)
        return tid

    def _append(self, record: Dict[str, Any], *, droppable: bool = True) -> None:
        corr = getattr(self._local, "corr", None)
        if corr is not None and "corr" not in record:
            record["corr"] = corr
        # seq is assigned under the same lock that orders the append, so
        # buffer order and seq order always agree across threads; the
        # logical clock ticks under the same lock for the same reason.
        with self._lock:
            if droppable and len(self._records) >= self.max_events:
                self.dropped += 1
                return
            record["seq"] = next(_seq_counter)
            self.clock += 1
            record["clock"] = self.clock
            self._records.append(record)

    # -- cross-process plumbing ------------------------------------------
    def witness(self, remote_clock: int) -> int:
        """Advance the logical clock past a remote one (RPC receipt)."""
        with self._lock:
            self.clock = max(self.clock, int(remote_clock)) + 1
            return self.clock

    @contextmanager
    def correlate(self, corr: Optional[str]) -> Iterator[Optional[str]]:
        """Stamp every record this thread appends with ``corr``.

        The correlation ID attributes spans/events/metric samples to one
        accepted job submission across process boundaries; ``None``
        leaves the current context untouched.
        """
        if corr is None:
            yield None
            return
        previous = getattr(self._local, "corr", None)
        self._local.corr = corr
        try:
            yield corr
        finally:
            self._local.corr = previous

    def current_correlation(self) -> Optional[str]:
        """This thread's active correlation ID, or None."""
        return getattr(self._local, "corr", None)

    def absorb_batch(self, batch: Dict[str, Any]) -> bool:
        """Adopt a telemetry batch shipped by a child process.

        The batch's records are merged into :meth:`records` snapshots
        (deterministically, via :mod:`repro.obs.telemetry`); its metric
        snapshot is *not* folded into this registry — callers that want
        aggregated metrics use a `TelemetryCollector`. Torn batches are
        rejected (returns False) and counted as ``telemetry_rejected``.
        """
        from repro.obs.telemetry import validate_batch
        if not validate_batch(batch):
            self.metrics.counter("telemetry_rejected").inc()
            return False
        with self._lock:
            self._foreign.append(batch)
            self.clock = max(self.clock, int(batch.get("clock", 0))) + 1
        return True

    # -- spans ---------------------------------------------------------
    def current_span_id(self) -> Optional[int]:
        """The innermost open span of *this thread* (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             **attrs: Any) -> Iterator[int]:
        """Open a span; yields its id for explicit cross-thread linking.

        ``parent`` overrides the implicit thread-local parent —
        ``parallel_bb`` uses this to hang its ``bb_worker:<i>`` spans on
        its coordinator span.
        """
        span_id = next(_ids)
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record: Dict[str, Any] = {
            "type": "span_begin",
            "t": round(self._now(), 7),
            "span": span_id,
            "name": name,
            "tid": self._tid(),
        }
        if parent is not None:
            record["parent"] = parent
        if attrs:
            record["attrs"] = attrs
        self._append(record, droppable=False)
        with self._lock:
            self._open[span_id] = record
        stack.append(span_id)
        start = self._now()
        try:
            yield span_id
        finally:
            end = self._now()
            if stack and stack[-1] == span_id:
                stack.pop()
            with self._lock:
                self._open.pop(span_id, None)
            self._append({
                "type": "span_end",
                "t": round(end, 7),
                "span": span_id,
                "name": name,
                "dur": round(end - start, 7),
                "tid": self._tid(),
            }, droppable=False)

    # -- events ----------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        """Record one typed point-in-time event under the current span."""
        record: Dict[str, Any] = {
            "type": "event",
            "t": round(self._now(), 7),
            "name": name,
            "tid": self._tid(),
        }
        span = self.current_span_id()
        if span is not None:
            record["span"] = span
        if attrs:
            record["attrs"] = attrs
        self._append(record)

    # -- export -----------------------------------------------------------
    def records(self, with_metrics: bool = True) -> List[Dict[str, Any]]:
        """A snapshot of the buffer, closed and ready for export.

        Spans still open at snapshot time (e.g. a job still running on
        another thread) get a synthetic ``span_end`` marked
        ``truncated`` — innermost first — so the stream is always
        balanced. With ``with_metrics`` one trailing ``metric`` record
        per registered instrument is appended.
        """
        now = round(self._now(), 7)
        with self._lock:
            out = list(self._records)
            still_open = sorted(self._open.items(), reverse=True)
            foreign = list(self._foreign)
            clock = self.clock
        for span_id, begin in still_open:
            clock += 1
            out.append({
                "type": "span_end",
                "t": now,
                "seq": next(_seq_counter),
                "clock": clock,
                "span": span_id,
                "name": begin["name"],
                "dur": round(now - begin["t"], 7),
                "tid": begin.get("tid", 0),
                "truncated": True,
            })
        if with_metrics:
            if self.dropped:
                # Surface buffer overflow in the stream itself so a
                # truncated trace never silently looks complete.
                self.metrics.counter("trace_dropped").value = self.dropped
            for record in self.metrics.records():
                clock += 1
                record.update(t=now, seq=next(_seq_counter), clock=clock)
                out.append(record)
        if foreign:
            from repro.obs.telemetry import merge_streams
            streams: Dict[Any, List[Dict[str, Any]]] = {}
            streams[(self.name or "main", os.getpid())] = out
            for batch in foreign:
                key = (batch["source"], batch["pid"])
                streams.setdefault(key, []).extend(batch["records"])
            return merge_streams(
                [(name, pid, recs) for (name, pid), recs in streams.items()])
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:
        return (f"Tracer({self.name!r}, records={len(self)}, "
                f"dropped={self.dropped})")


# ---------------------------------------------------------------------------
# The installed tracer: one module global, checked by every producer.
# ---------------------------------------------------------------------------
_current: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _current


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` for the duration of a block (None = disable).

    Installation is process-global (worker threads see it; worker
    processes do not) and restores the previous tracer on exit, so
    nested traced regions compose.
    """
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous


def obs_event(name: str, **attrs: Any) -> None:
    """Emit an event on the installed tracer; no-op when disabled."""
    tracer = _current
    if tracer is not None:
        tracer.event(name, **attrs)


@contextmanager
def obs_span(name: str, **attrs: Any) -> Iterator[Optional[int]]:
    """Open a span on the installed tracer; no-op when disabled."""
    tracer = _current
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span_id:
        yield span_id


@contextmanager
def correlate(corr: Optional[str]) -> Iterator[Optional[str]]:
    """Correlation context on the installed tracer; no-op when disabled."""
    tracer = _current
    if tracer is None or corr is None:
        yield corr
        return
    with tracer.correlate(corr):
        yield corr


def current_correlation() -> Optional[str]:
    """The installed tracer's active correlation ID, or None."""
    tracer = _current
    return tracer.current_correlation() if tracer is not None else None


__all__ = [
    "OBS_SCHEMA",
    "KNOWN_EVENTS",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "obs_event",
    "obs_span",
    "correlate",
    "current_correlation",
]
