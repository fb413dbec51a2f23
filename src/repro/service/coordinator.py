"""Shard coordinator: routes jobs to worker processes, survives their death.

The coordinator owns N :mod:`~repro.service.shard` processes and is the
single in-process façade the HTTP front-end and CLI talk to. Three
responsibilities:

**Routing.** A submission's identity is computed *before* it leaves the
coordinator — ``job_id_for(spec, options)``, the same case⊕config
fingerprint the shard's service would compute — and hashed
(``crc32(job_id) % shards``) to pick a shard. The hash is stable across
restarts and processes, so a resubmission of the same work always lands
on the shard already holding its journal entry, and the per-shard
idempotent-submission logic keeps doing its job unchanged. (Changing
the shard *count* remaps jobs; that is safe too, because every shard
shares one content-addressed store — the remapped shard's admission
check hits the store and journals the job straight to ``done``.)

**Recovery.** A monitor thread watches the shard processes. When one
dies — SIGKILL, OOM, a native crash in a solver — the coordinator
respawns it *on the same journal file*: replay re-journals every
non-terminal job, retries recompute their backoff ready-times from the
persisted attempt count (no thundering herd), and nothing is lost or
run twice. In-flight RPCs against a dead shard fail over to the fresh
incarnation and are retried once; submissions are idempotent, so the
retry is safe.

**Aggregation.** ``stats()``/``health()`` merge per-shard views and add
coordinator-level facts (pids, restart counts, routing table), which is
what ``GET /stats`` and ``GET /health`` serve.

**Telemetry.** The monitor thread doubles as the telemetry pump: about
once a second it pulls an incremental batch (``telemetry`` verb) from
every live shard and hands it to
:meth:`~repro.obs.trace.Tracer.absorb_batch` on :attr:`tracer` — the
tracer installed when the coordinator starts, else its own — just as
``parallel_bb`` does with its workers' batches. A shard hands over what
it ships and keeps none of it; the tracer keeps each record once, in a
store bounded by its ``max_events``. So that tracer's
:meth:`~repro.obs.trace.Tracer.records` is the platform's one merged
stream, its per-stream metric snapshots back ``GET /metrics``, and
``GET /jobs/<id>/trace`` reads one job's records out of its store; both
endpoints pull on demand first, and the merged stream is written as a
trace artifact on :meth:`stop`. Logical clocks piggyback on every RPC
in both directions (``_clock`` in payload and reply), so the
deterministic merge orders causally-related records consistently.

**Completion.** Each shard pushes the line of every job a worker
finishes down a one-way notify pipe. A dedicated listener thread
blocks on all of them with :func:`multiprocessing.connection.wait` and
hands each line to the :meth:`wait` callers blocked on that job, so a
waiter wakes when its job finishes instead of re-reading it over RPC
on a timer. The monitor thread cannot do this: it blocks for seconds
in a respawn or a telemetry pull, and a shard whose notify pipe fills
up blocks the worker that sends. A respawn wakes every waiter to
re-read once, since the old incarnation may have journaled a job
without pushing it.

Pipes are not thread-safe, so every shard has its own lock serializing
request/response pairs; the HTTP tier's many threads contend only when
they target the same shard.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import threading
import time
import zlib
from multiprocessing import connection
from typing import Any, Dict, List, Optional

from repro.errors import AdmissionError, ServiceError
from repro.obs.telemetry import _merge_histogram, correlated_trace
from repro.obs.trace import Tracer, current_tracer, use_tracer
from repro.service.journal import TERMINAL_STATES
from repro.service.shard import ShardConfig, shard_main

#: How long to wait for a freshly spawned shard's "up" handshake.
SPAWN_DEADLINE = 60.0
#: Poll slice while waiting on an RPC reply; liveness is checked
#: between slices so a killed shard fails the call quickly.
RPC_SLICE = 0.1
#: How often the monitor thread pulls telemetry batches from shards.
TELEMETRY_INTERVAL = 1.0
#: How long a waiter blocks before a safety re-read of its job, in case
#: a push went missing; a pushed line normally wakes it long before.
WAIT_REREAD = 5.0


class ShardError(ServiceError):
    """A shard RPC failed (dead shard, handler error, protocol break)."""


class _Shard:
    """Coordinator-side handle: process + pipes + lock + lifecycle stats."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn: Any = None
        #: Read end of the current incarnation's notify pipe, read by
        #: the listener thread only.
        self.notify: Any = None
        self.lock = threading.Lock()
        self.restarts = 0
        self.pid: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ShardCoordinator:
    """N shard processes behind one submit/job/stats/health interface."""

    def __init__(
        self,
        journal_dir: str,
        *,
        shards: int = 2,
        workers: int = 2,
        queue_size: int = 256,
        options: Optional[Dict[str, Any]] = None,
        backends: Optional[List[str]] = None,
        max_attempts: int = 3,
        store: Optional[Any] = None,
        tenant_quota: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"shards must be >= 1, got {shards}")
        from pathlib import Path

        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        #: Where every shard batch and coordinator event lands: the
        #: tracer installed when :meth:`start` runs, else this one.
        self.tracer = Tracer("coordinator")
        if store is not None and not hasattr(store, "get"):
            from repro.store import Store

            store = Store(store)
        self.store = store
        # Always spawn: shards are respawned from the monitor *thread*,
        # and forking a multithreaded process is undefined behaviour.
        self._ctx = mp.get_context("spawn")
        self._shards = [_Shard(ShardConfig(
            index=index,
            journal=str(self.journal_dir / f"shard-{index}.jsonl"),
            workers=workers,
            queue_size=queue_size,
            options=dict(options or {}),
            backends=list(backends) if backends else None,
            max_attempts=max_attempts,
            store=store,
            tenant_quota=tenant_quota,
        )) for index in range(shards)]
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        #: Set once ``stop`` has stopped every shard; ends the listener.
        self._stopped = threading.Event()
        self._listener: Optional[threading.Thread] = None
        #: Guards the waiter state below and wakes blocked waiters.
        self._wake = threading.Condition()
        #: job id -> number of ``wait`` calls blocked on it.
        self._waiters: Dict[str, int] = {}
        #: job id -> pushed terminal line, kept only for waited-on jobs.
        self._pushed: Dict[str, Dict[str, Any]] = {}
        #: Shard respawns so far; a waiter re-reads when it changes.
        self._respawns = 0
        self._started = False
        self._tracer_ctx: Optional[Any] = None

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ShardCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def shards(self) -> int:
        return len(self._shards)

    def start(self) -> None:
        if self._started:
            return
        ambient = current_tracer()
        if ambient is not None:
            self.tracer = ambient
        else:
            # No ambient tracer (e.g. embedded use without --trace):
            # install our own, so shard batches and coordinator-side
            # events (shard_up, restarts) still land in one record.
            self._tracer_ctx = use_tracer(self.tracer)
            self._tracer_ctx.__enter__()
        for shard in self._shards:
            self._spawn(shard, reason="start")
        self._listener = threading.Thread(
            target=self._listen, name="shard-listener", daemon=True)
        self._listener.start()
        self._monitor = threading.Thread(
            target=self._watch, name="shard-monitor", daemon=True)
        self._monitor.start()
        self._started = True

    def _spawn(self, shard: _Shard, reason: str) -> None:
        """(Re)start one shard and wait for its journal replay to finish.

        Called with ``shard.lock`` held (or before any other thread can
        reach the shard). The "up" handshake doubles as a barrier: once
        it arrives, the shard has replayed its journal and is accepting
        RPCs, so a failed-over call retried against the new process
        sees all pre-crash state.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        notify, child_notify = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=shard_main, args=(shard.config, child_conn, child_notify),
            name=f"repro-shard-{shard.config.index}", daemon=True)
        process.start()
        child_conn.close()
        child_notify.close()
        deadline = time.monotonic() + SPAWN_DEADLINE
        while not parent_conn.poll(RPC_SLICE):
            if time.monotonic() > deadline or not process.is_alive():
                with contextlib.suppress(Exception):
                    process.terminate()
                raise ShardError(
                    f"shard {shard.config.index} failed to come up "
                    f"({reason}); journal {shard.config.journal}")
        try:
            hello = parent_conn.recv()
        except (EOFError, OSError) as exc:
            with contextlib.suppress(Exception):
                process.terminate()
            raise ShardError(
                f"shard {shard.config.index} died during startup "
                f"({reason}); journal {shard.config.journal}") from exc
        shard.process = process
        shard.conn = parent_conn
        shard.notify = notify
        shard.pid = hello.get("pid")
        self.tracer.event("shard_up", shard=shard.config.index,
                          pid=shard.pid, reason=reason,
                          replayed=hello.get("replayed", 0))

    def _watch(self) -> None:
        """Monitor thread: respawn dead shards, pump telemetry batches."""
        last_pull = time.monotonic()
        while not self._stopping.is_set():
            for shard in self._shards:
                if self._stopping.is_set():
                    break
                if shard.process is not None and not shard.alive:
                    # A concurrent RPC holding the lock will discover
                    # the death itself and fail over; don't fight it.
                    if shard.lock.acquire(timeout=0.05):
                        try:
                            if not shard.alive and not self._stopping.is_set():
                                self._recover(shard)
                        finally:
                            shard.lock.release()
            if time.monotonic() - last_pull >= TELEMETRY_INTERVAL:
                last_pull = time.monotonic()
                self.pull_telemetry()
            self._stopping.wait(0.2)

    def _listen(self) -> None:
        """Listener thread: hand pushed terminal lines to their waiters.

        Owns every notify pipe it has seen. A respawned shard's new pipe
        joins within one timeout slice; EOF (that incarnation died)
        retires the old one. Runs until :meth:`stop` has stopped every
        shard, so a draining shard never blocks on a full pipe.
        """
        watched: set = set()
        try:
            while not self._stopped.is_set():
                watched.update(shard.notify for shard in self._shards
                               if not shard.notify.closed)
                for conn in connection.wait(list(watched), timeout=0.2):
                    try:
                        line = conn.recv()
                    except (EOFError, OSError):
                        watched.discard(conn)
                        conn.close()
                        continue
                    with self._wake:
                        if line["id"] in self._waiters:
                            self._pushed[line["id"]] = line
                            self._wake.notify_all()
        finally:
            for conn in watched:
                conn.close()

    def pull_telemetry(self) -> int:
        """Pull one incremental telemetry batch from every live shard.

        Returns the number of batches absorbed. Normally driven by the
        monitor thread; callable directly (tests, chaos harnesses) to
        flush without waiting an interval.
        """
        absorbed = 0
        for shard in self._shards:
            if self._stopping.is_set() or not shard.alive:
                continue
            try:
                reply = self._call(shard.config.index, "telemetry", {})
            except (ShardError, AdmissionError):
                continue  # dead/respawning shard: its final batch is lost
            batch = reply.get("batch")
            if batch is not None and self.tracer.absorb_batch(batch):
                absorbed += 1
        return absorbed

    def _recover(self, shard: _Shard) -> None:
        """Respawn a dead shard on its journal. Caller holds the lock."""
        if shard.process is not None and shard.process.is_alive():
            # Pipe broke but the process lingers: make sure the old
            # incarnation is dead before a new one opens its journal.
            with contextlib.suppress(Exception):
                shard.process.terminate()
                shard.process.join(timeout=5.0)
        exitcode = shard.process.exitcode if shard.process else None
        shard.restarts += 1
        self.tracer.event("shard_crashed", shard=shard.config.index,
                          pid=shard.pid, exitcode=exitcode)
        if shard.conn is not None:
            with contextlib.suppress(Exception):
                shard.conn.close()
        self._spawn(shard, reason="crash")
        self.tracer.event("shard_restarted", shard=shard.config.index,
                          pid=shard.pid, restarts=shard.restarts)
        # The journal replay is done: every waiter re-reads once, since
        # the dead incarnation may have finished a job it never pushed.
        with self._wake:
            self._respawns += 1
            self._wake.notify_all()

    def stop(self, drain: Any = True,
             deadline: Optional[float] = None) -> Dict[str, Any]:
        """Stop every shard (RPC first, escalating to terminate)."""
        was_started = self._started
        self._stopping.set()
        with self._wake:
            self._wake.notify_all()  # each waiter raises ShardError
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        summaries: Dict[str, Any] = {"shards": {}, "stopped": True}
        for shard in self._shards:
            with shard.lock:
                summary = None
                if shard.alive:
                    try:
                        shard.conn.send(("stop", {"drain": drain,
                                                  "deadline": deadline}))
                        wait_until = time.monotonic() + (
                            (deadline or 30.0) + 10.0)
                        while not shard.conn.poll(RPC_SLICE):
                            if (time.monotonic() > wait_until
                                    or not shard.alive):
                                break
                        else:
                            reply = shard.conn.recv()
                            if reply.get("ok"):
                                summary = reply.get("summary")
                                if reply.get("batch") is not None:
                                    # The shard's final increment rides
                                    # on its last message.
                                    self.tracer.absorb_batch(reply["batch"])
                    except (BrokenPipeError, EOFError, OSError):
                        pass
                if shard.process is not None:
                    shard.process.join(timeout=10.0)
                    if shard.process.is_alive():
                        shard.process.terminate()
                        shard.process.join(timeout=5.0)
                if shard.conn is not None:
                    with contextlib.suppress(Exception):
                        shard.conn.close()
                summaries["shards"][str(shard.config.index)] = summary
        self._stopped.set()
        if self._listener is not None:
            self._listener.join(timeout=5.0)
        for shard in self._shards:
            if shard.notify is not None:
                shard.notify.close()  # pipes the listener never saw
        if self.trace_dir is not None and was_started:
            # The whole platform's record stream as a single valid
            # trace, its header counting what the streams lost.
            # (Guarded on was_started so a second stop() — e.g. the
            # context manager exiting after an explicit stop — does not
            # rewrite it.)
            from repro.obs import write_trace_jsonl

            with contextlib.suppress(Exception):
                self.trace_dir.mkdir(parents=True, exist_ok=True)
                write_trace_jsonl(
                    self.tracer, str(self.trace_dir / "merged-trace.jsonl"))
        if self._tracer_ctx is not None:
            self._tracer_ctx.__exit__(None, None, None)
            self._tracer_ctx = None
        self._started = False
        return summaries

    # -- chaos -----------------------------------------------------------
    def kill_shard(self, index: int) -> Optional[int]:
        """SIGKILL one shard process (fault injection; monitor recovers).

        Returns the killed pid, or None if the shard was not running.
        """
        shard = self._shards[index]
        pid = shard.pid if shard.alive else None
        if pid is not None:
            with contextlib.suppress(ProcessLookupError, OSError):
                os.kill(pid, signal.SIGKILL)
        return pid

    # -- routing & RPC ---------------------------------------------------
    def route(self, job_id: str) -> int:
        """Stable shard index for a job id."""
        return zlib.crc32(job_id.encode("utf-8")) % len(self._shards)

    def _call(self, index: int, verb: str,
              payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response against a shard, failing over once.

        If the shard dies mid-call (killed between send and reply), the
        call respawns it and retries: every verb is either read-only or
        an idempotent submission, so at-least-once delivery is sound.
        """
        shard = self._shards[index]
        tracer = self.tracer
        reply: Optional[Dict[str, Any]] = None
        with shard.lock:
            for attempt in (0, 1):
                if not shard.alive:
                    if self._stopping.is_set():
                        raise ShardError(
                            f"shard {index} unavailable (stopping)")
                    self._recover(shard)
                try:
                    payload["_clock"] = tracer.clock
                    shard.conn.send((verb, payload))
                    while not shard.conn.poll(RPC_SLICE):
                        if not shard.alive:
                            raise BrokenPipeError(
                                f"shard {index} died mid-call")
                    reply = shard.conn.recv()
                    break
                except (BrokenPipeError, EOFError, OSError):
                    if attempt == 0 and not self._stopping.is_set():
                        # A freshly SIGKILLed process can report alive
                        # until the OS reaps it — wait out the death so
                        # the retry path sees it and respawns.
                        if shard.process is not None:
                            shard.process.join(timeout=5.0)
                        continue
                    raise ShardError(
                        f"shard {index} died during {verb!r} and "
                        f"failover failed") from None
        if reply is None:  # pragma: no cover - loop always breaks/raises
            raise ShardError(f"shard {index} unreachable")
        if "_clock" in reply:
            tracer.witness(reply.pop("_clock"))
        if reply.get("ok"):
            return reply
        if reply.get("error") == "AdmissionError":
            raise AdmissionError(reply.get("message", "admission refused"))
        raise ShardError(
            f"shard {index} {verb!r} failed: "
            f"{reply.get('error')}: {reply.get('message')}")

    # -- the service-shaped surface --------------------------------------
    def submit(self, spec_dict: Dict[str, Any],
               options_dict: Optional[Dict[str, Any]] = None, *,
               tenant: Optional[str] = None,
               priority: int = 0,
               corr: Optional[str] = None) -> Dict[str, Any]:
        """Route a submission to its shard; returns the job line."""
        from repro.core.synthesizer import SynthesisOptions
        from repro.io.spec_json import spec_from_dict
        from repro.service.service import job_id_for, options_from_dict

        spec = spec_from_dict(spec_dict)  # validates before routing
        if options_dict:
            effective = options_from_dict(options_dict)
        elif self._shards[0].config.options:
            effective = options_from_dict(self._shards[0].config.options)
        else:
            effective = SynthesisOptions()
        job_id = job_id_for(spec, effective)
        index = self.route(job_id)
        payload: Dict[str, Any] = {"spec": spec_dict, "priority": priority}
        if options_dict:
            payload["options"] = options_dict
        if tenant is not None:
            payload["tenant"] = tenant
        if corr is not None:
            payload["corr"] = corr
        reply = self._call(index, "submit", payload)
        job = dict(reply["job"])
        job["shard"] = index
        return job

    def submit_repair(self, job_id: str, faults) -> Dict[str, Any]:
        """Turn observed faults on a completed job into a repair job.

        Coordinator-side on purpose: the original job line (spec,
        options, corr) is fetched from its owning shard, the spec is
        masked here, and the degraded spec goes through the normal
        :meth:`submit` — so the repair job hashes to its *own* id and
        lands on whichever shard the crc32 ring assigns it, keeping the
        routing invariant (resubmissions and journal replays find the
        same shard). ``faults`` is anything
        :func:`~repro.repair.engine.mask_spec` takes:
        :class:`~repro.sim.faults.ValveFault`s, ``(a, b, kind)``
        triples, or a :class:`~repro.switches.health.HealthMask`. The
        repair inherits the original's correlation ID, tenant and
        priority.
        """
        from repro.io.spec_json import spec_from_dict, switch_to_dict
        from repro.repair.engine import mask_spec

        original = self.job(job_id)
        spec = mask_spec(spec_from_dict(original["spec"]), faults)
        spec_dict = dict(original["spec"])
        spec_dict["switch"] = switch_to_dict(spec.switch)
        return self.submit(
            spec_dict,
            original.get("options") or None,
            tenant=original.get("tenant"),
            priority=int(original.get("priority") or 0),
            corr=original.get("corr"),
        )

    def job(self, job_id: str) -> Dict[str, Any]:
        """The job line from its owning shard (KeyError if unknown)."""
        index = self.route(job_id)
        try:
            reply = self._call(index, "job", {"id": job_id})
        except ShardError as exc:
            if "unknown job" in str(exc):
                raise KeyError(job_id) from None
            raise
        job = dict(reply["job"])
        job["shard"] = index
        return job

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until a job is terminal; returns its final line.

        Reads the job once over RPC, then sleeps on a condition until
        the listener hands over the line its shard pushed. A shard
        respawn, the ``timeout`` deadline and a safety interval
        (``WAIT_REREAD``) each end the sleep with a re-read over RPC
        instead, because the journal stays the ground truth; past the
        deadline that read is returned as it stands. Long-polling lives
        here, coordinator-side, so the shard RPC loop never blocks on
        one caller's patience. :meth:`stop` ends every wait with
        :class:`ShardError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            self._waiters[job_id] = self._waiters.get(job_id, 0) + 1
        try:
            while True:
                respawns = self._respawns
                job = self.job(job_id)
                now = time.monotonic()
                if job["state"] in TERMINAL_STATES or (
                        deadline is not None and now >= deadline):
                    return job
                wake_by = now + WAIT_REREAD
                if deadline is not None:
                    wake_by = min(wake_by, deadline)
                with self._wake:
                    self._wake.wait_for(
                        lambda: (job_id in self._pushed
                                 or self._respawns != respawns
                                 or self._stopping.is_set()),
                        timeout=wake_by - time.monotonic())
                    line = self._pushed.get(job_id)
                if line is not None:
                    return {**line, "shard": job["shard"]}
                if self._stopping.is_set():
                    raise ShardError(
                        f"shard {job['shard']} unavailable (stopping)")
        finally:
            with self._wake:
                self._waiters[job_id] -= 1
                if not self._waiters[job_id]:
                    del self._waiters[job_id]
                    self._pushed.pop(job_id, None)

    #: Numeric per-shard stats that are meaningful summed.
    _SUMMED = ("queue_depth", "in_flight", "shed", "worker_crashes")

    def stats(self) -> Dict[str, Any]:
        """Aggregate per-shard stats plus coordinator-level facts."""
        per_shard: Dict[str, Any] = {}
        totals: Dict[str, int] = {name: 0 for name in self._SUMMED}
        states: Dict[str, int] = {}
        tenants: Dict[str, Dict[str, int]] = {}
        depth_high_water = 0
        latency: Dict[str, Dict[str, Any]] = {}
        for shard in self._shards:
            key = str(shard.config.index)
            try:
                reply = self._call(shard.config.index, "stats", {})
            except ShardError as exc:
                per_shard[key] = {"error": str(exc),
                                  "restarts": shard.restarts}
                continue
            stats = reply["stats"]
            per_shard[key] = {
                "pid": reply.get("pid"),
                "restarts": shard.restarts,
                **stats,
            }
            for name in self._SUMMED:
                totals[name] += int(stats.get(name, 0))
            depth_high_water = max(depth_high_water,
                                   int(stats.get("queue_depth_max", 0)))
            for name, snap in (stats.get("latency") or {}).items():
                merged = latency.get(name)
                if merged is None:
                    latency[name] = dict(snap)
                else:
                    _merge_histogram(merged, snap)
            for state, count in stats.get("jobs", {}).items():
                states[state] = states.get(state, 0) + int(count)
            for tenant, per in stats.get("tenants", {}).items():
                merged = tenants.setdefault(tenant, {})
                for state, count in per.items():
                    merged[state] = merged.get(state, 0) + int(count)
        out = {
            "shards": per_shard,
            "jobs": states,
            "tenants": tenants,
            "restarts": sum(s.restarts for s in self._shards),
            "queue_depth_max": depth_high_water,
            **totals,
        }
        if latency:
            out["latency"] = latency
        streams = self.tracer.streams()
        out["telemetry"] = {
            "sources": len(streams),
            "dropped": sum(s["dropped"] for s in streams.values()),
            "rejected": self.tracer.rejected,
        }
        return out

    # -- telemetry surface ------------------------------------------------
    def telemetry_records(self) -> List[Dict[str, Any]]:
        """:attr:`tracer`'s records: one merged ``repro-obs-v1`` stream
        of the coordinator's own records and every shard batch."""
        return self.tracer.records()

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Latest per-stream metric snapshots, keyed ``source@pid`` in
        arrival order.

        :attr:`tracer`'s own registry appears as one more stream, so
        ``/metrics`` exposes parent-side counters next to shard-side
        ones; :func:`~repro.obs.telemetry.series_from_sources` folds the
        incarnations of a respawned shard into one series. Pulls a
        fresh batch first so a scrape always reflects the shards'
        current totals rather than the last monitor-interval snapshot.
        """
        self.pull_telemetry()
        tracer = self.tracer
        sources = {f"{name}@{pid}": stream["metrics"]
                   for (name, pid), stream in tracer.streams().items()}
        name = tracer.name or "coordinator"
        sources[f"{name}@{os.getpid()}"] = tracer.metrics.snapshot()
        return sources

    def job_trace(self, job_id: str) -> List[Dict[str, Any]]:
        """One job's records from :attr:`tracer`'s store (KeyError if
        it holds none).

        ``job_id`` may be a bare job id or a full correlation ID. Pulls
        a fresh batch first so a job that just finished is visible
        without waiting out the telemetry interval.
        """
        self.pull_telemetry()
        records = correlated_trace(self.tracer, job_id)
        if records is None:
            raise KeyError(job_id)
        return records

    def health(self) -> Dict[str, Any]:
        """Rolled-up liveness: ok iff every shard is live and ready."""
        shard_health: Dict[str, Any] = {}
        ok = True
        for shard in self._shards:
            key = str(shard.config.index)
            try:
                reply = self._call(shard.config.index, "health", {})
            except ShardError as exc:
                shard_health[key] = {"live": False, "ready": False,
                                     "reason": str(exc)}
                ok = False
                continue
            info = dict(reply["health"])
            info["pid"] = reply.get("pid")
            info["restarts"] = shard.restarts
            shard_health[key] = info
            ok = ok and bool(info.get("live")) and bool(info.get("ready"))
        return {"ok": ok, "shards": shard_health}


__all__ = ["ShardCoordinator", "ShardError", "SPAWN_DEADLINE",
           "TELEMETRY_INTERVAL"]
