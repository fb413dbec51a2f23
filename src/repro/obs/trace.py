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
instrumentation site reduces to one context-variable read and one
module-global ``is None`` check — there is no buffering, no clock read,
no allocation. With a tracer installed, each record is one dict append
under a lock; the buffer is bounded (``max_events``) and silently drops
*events* past the cap (counted in :attr:`Tracer.dropped`) so a runaway
solver cannot exhaust memory. ``span_end`` records are never dropped —
a truncated stream still closes every span it opened.

Timestamps are seconds since tracer creation from
``time.perf_counter`` (monotonic); every record additionally carries a
process-wide sequence number so equal-clock records keep their order.

Threading: the span stack is thread-local, so concurrent producers
(service worker threads) nest correctly within their own thread; a span
can link to another thread's span, or to a coordinator span it did not
open, via an explicit ``parent=`` id. :func:`use_tracer` installs a
tracer process-wide: worker threads see it, worker *processes* never
inherit it, not even through ``fork`` (each records its own and ships
it back through :mod:`repro.obs.telemetry`, and the parent's
:meth:`Tracer.absorb_batch` takes it in).
``synthesize(spec, SynthesisOptions(trace=T))`` installs ``T`` for the
calling thread only, ahead of the process-wide tracer, so concurrent
traced calls each record into their own tracer.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, snapshot_records

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

#: One absorbed record and the ``(source, pid)`` stream it came from.
_Absorbed = Tuple[Tuple[str, int], Dict[str, Any]]


class Tracer:
    """A bounded in-memory recorder for spans, events and metrics."""

    def __init__(self, name: str = "", max_events: int = 200_000) -> None:
        self.name = name
        self.max_events = max_events
        self.metrics = MetricsRegistry()
        self.dropped = 0
        #: Torn child batches :meth:`absorb_batch` refused.
        self.rejected = 0
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
        # Telemetry absorbed from child processes (shards, B&B workers),
        # one stream per (source, pid): the metric snapshot, drop count
        # and clock of its latest batch, and how many of its records the
        # store below evicted.
        self._streams: Dict[Tuple[str, int], Dict[str, Any]] = {}
        # Every stream's absorbed records in arrival order, as
        # (stream, record) pairs, at most ``max_events`` of them.
        self._absorbed: Deque[_Absorbed] = deque()
        # The correlated pairs of that store again, by job id and then
        # correlation ID (each in order of first arrival), so one job's
        # trace is a lookup rather than a scan of the store.
        self._by_job: Dict[str, Dict[str, Deque[_Absorbed]]] = {}
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

    def absorb_batch(self, batch: Any) -> bool:
        """Adopt a telemetry batch shipped by a child process.

        The batch's records join one store shared by every absorbed
        stream and bounded by :attr:`max_events`: past the bound the
        oldest records go first, each counted in its own stream's
        ``dropped``. The store's correlated records are also kept by
        correlation ID, so
        :func:`~repro.obs.telemetry.correlated_trace` reads one job's
        records without a scan. :meth:`records` merges the store in per
        ``(source, pid)`` stream (via :mod:`repro.obs.telemetry`). The
        batch's metric snapshot and drop count are cumulative, so they
        replace the stream's previous ones, and :meth:`streams` always
        holds each child's latest totals. A respawned child reports
        under a new pid, so it starts a new stream. Batches it relays
        (``foreign``) are absorbed in turn as their own streams. A torn
        batch is refused whole and counted in :attr:`rejected`.

        Returns False when the batch is torn.
        """
        from repro.obs.telemetry import correlation_job, validate_batch
        if not validate_batch(batch):
            with self._lock:
                self.rejected += 1
            return False
        key = (batch["source"], batch["pid"])
        with self._lock:
            stream = self._streams.setdefault(key, {"evicted": 0})
            stream["metrics"] = batch["metrics"]
            stream["dropped"] = batch.get("dropped", 0)
            stream["clock"] = int(batch.get("clock", 0))
            self.clock = max(self.clock, stream["clock"]) + 1
            for record in batch["records"]:
                entry = (key, record)
                self._absorbed.append(entry)
                corr = record.get("corr")
                if corr:
                    self._by_job.setdefault(correlation_job(corr), {}) \
                        .setdefault(corr, deque()).append(entry)
            while len(self._absorbed) > self.max_events:
                stream_key, record = self._absorbed.popleft()
                self._streams[stream_key]["evicted"] += 1
                corr = record.get("corr")
                if corr:
                    # The store evicts oldest first, so the record is
                    # also the oldest of its correlation ID.
                    job = correlation_job(corr)
                    corrs = self._by_job[job]
                    corrs[corr].popleft()
                    if not corrs[corr]:
                        del corrs[corr]
                        if not corrs:
                            del self._by_job[job]
        for sub in batch.get("foreign") or ():
            self.absorb_batch(sub)
        return True

    def streams(self) -> Dict[Tuple[str, int], Dict[str, Any]]:
        """Each absorbed stream's latest ``metrics`` snapshot and its
        ``dropped`` count (the child's own plus the store's evictions),
        keyed ``(source, pid)`` in arrival order."""
        with self._lock:
            return {key: {"metrics": s["metrics"],
                          "dropped": s["dropped"] + s["evicted"]}
                    for key, s in self._streams.items()}

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
        per registered instrument is appended. The absorbed store is
        merged in per child stream, each closed by the ``metric``
        records of its latest snapshot.
        """
        now = round(self._now(), 7)
        with self._lock:
            out = list(self._records)
            still_open = sorted(self._open.items(), reverse=True)
            absorbed = list(self._absorbed)
            foreign = [(key, s["metrics"], s["clock"])
                       for key, s in self._streams.items()]
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
        if not foreign:
            return out
        from repro.obs.telemetry import merge_streams
        streams: Dict[Tuple[str, int], List[Dict[str, Any]]] = {
            (self.name or "main", os.getpid()): out}
        for key, record in absorbed:
            streams.setdefault(key, []).append(record)
        if with_metrics:
            for key, metrics, last_clock in foreign:
                records = streams.setdefault(key, [])
                last = records[-1] if records else {}
                for i, record in enumerate(snapshot_records(metrics), 1):
                    record.update(t=last.get("t", 0.0),
                                  seq=last.get("seq", 0) + i,
                                  clock=last_clock)
                    records.append(record)
        return merge_streams(
            [(name, pid, recs) for (name, pid), recs in streams.items()])

    def correlated(self, corr: str, since: int = 0) -> List[Dict[str, Any]]:
        """The buffered records stamped with ``corr``, scanning from
        buffer position ``since`` on (``len(tracer)`` taken before the
        correlated work began), so a cut costs the records appended
        since then, not the whole buffer."""
        with self._lock:
            tail = self._records[since:]
        return [r for r in tail if r.get("corr") == corr]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:
        return (f"Tracer({self.name!r}, records={len(self)}, "
                f"dropped={self.dropped})")


# ---------------------------------------------------------------------------
# The installed tracer: the calling context's own, else the process-wide
# one; every producer reads both.
# ---------------------------------------------------------------------------
_current: Optional[Tracer] = None
_scoped: ContextVar[Optional[Tracer]] = ContextVar("repro_obs_tracer",
                                                   default=None)


def current_tracer() -> Optional[Tracer]:
    """The tracer in effect here, or None when tracing is disabled.

    That is the calling thread's own (``SynthesisOptions(trace=)``) if
    it has one, else the process-wide one (:func:`use_tracer`).
    """
    tracer = _scoped.get()
    return _current if tracer is None else tracer


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` process-wide for a block (None = disable).

    Worker threads see it; worker processes do not. The previous tracer
    comes back on exit, so nested traced regions compose; regions that
    overlap on two threads do not.
    """
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous


@contextmanager
def _use_context_tracer(tracer: Optional[Tracer]
                        ) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` for the calling context only, for a block:
    ahead of the process-wide tracer in this thread, invisible to every
    other. ``synthesize`` installs ``SynthesisOptions.trace`` with it."""
    token = _scoped.set(tracer)
    try:
        yield tracer
    finally:
        _scoped.reset(token)


def _forget_inherited_tracers() -> None:
    """A forked child starts untraced: the tracers it copied from its
    parent are the parent's, and a worker installs its own."""
    global _current
    _current = None
    _scoped.set(None)


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_inherited_tracers)


def obs_event(name: str, **attrs: Any) -> None:
    """Emit an event on the installed tracer; no-op when disabled."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.event(name, **attrs)


@contextmanager
def obs_span(name: str, **attrs: Any) -> Iterator[Optional[int]]:
    """Open a span on the installed tracer; no-op when disabled."""
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span_id:
        yield span_id


@contextmanager
def correlate(corr: Optional[str]) -> Iterator[Optional[str]]:
    """Correlation context on the installed tracer; no-op when disabled."""
    tracer = current_tracer()
    if tracer is None or corr is None:
        yield corr
        return
    with tracer.correlate(corr):
        yield corr


def current_correlation() -> Optional[str]:
    """The installed tracer's active correlation ID, or None."""
    tracer = current_tracer()
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
