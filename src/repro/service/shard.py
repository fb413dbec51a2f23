"""One shard of the synthesis platform: a service in its own process.

A shard is a whole :class:`~repro.service.service.SynthesisService` —
journal, queue, breakers, worker threads — running in a child process
and driven over a :mod:`multiprocessing` pipe by the
:class:`~repro.service.coordinator.ShardCoordinator`. The process
boundary is the point: a shard can be SIGKILLed (by chaos tests, the
OOM killer, or a deploy) without taking the coordinator or its
siblings down, and its own write-ahead journal replays every
non-terminal job when the coordinator respawns it.

The wire protocol is deliberately tiny — request/response tuples
``(verb, payload)`` answered by one dict each, handled strictly in
order by the shard's main thread (the service's worker threads do the
actual solving, so the RPC loop stays responsive while jobs run):

=========  =======================================================
verb       payload → reply
=========  =======================================================
submit     ``{"spec", "options"?, "tenant"?, "priority"?, "corr"?}``
           → ``{"ok": True, "job": <job line>}``
job        ``{"id"}`` → ``{"ok": True, "job": <job line>}``
stats      ``{}`` → ``{"ok": True, "stats", "pid"}``
health     ``{}`` → ``{"ok": True, "health", "pid"}``
telemetry  ``{}`` → ``{"ok": True, "batch": <telemetry batch>}``
           (incremental: the records since the previous pull, which
           leave the shard with the batch)
stop       ``{"drain", "deadline"?}`` → ``{"ok": True, "summary",
           "batch"}`` (the reply is the shard's last message,
           carrying its final telemetry batch; it then exits)
=========  =======================================================

=========  =======================================================
notify     shard → coordinator, one-way, on its own pipe: one
           ``<job line>`` per job a worker finishes, never replied to
=========  =======================================================

Every payload may carry a ``_clock`` key — the coordinator's logical
clock, witnessed by the shard's tracer so merged cross-process traces
order causally-related records consistently (see
:mod:`repro.obs.telemetry`).

Only the ``telemetry`` reply and the final ``stop`` reply carry a
telemetry batch; every other reply carries just ``_clock``. A batch
takes its records out of the shard's tracer, so the shard holds at most
one pull's worth of telemetry however long it runs, and the coordinator
keeps the only copy.

Beside the RPC pipe, each shard gets a one-way **notify pipe**. When a
worker finishes a job, the shard sends the job's terminal line — the
same dict the ``job`` verb returns — down it, after the journal write
and after the ``job_done``/``job_failed`` and ``repair_*`` events, so
a trace read as soon as the line arrives already holds them. Store
hits answered inside ``submit`` are not sent: their ``submit`` reply
is already terminal. The coordinator's listener thread reads the
notify pipe. Pushes get their own pipe because the RPC pipe is strict
request/response: only the caller holding the shard's lock reads it,
so a push sent there would need a reader thread to sort every reply
from every push.

Failures inside a handler never kill the loop: they come back as
``{"ok": False, "error": <type name>, "message": ...}`` and the
coordinator re-raises the matching exception. A shard that loses its
pipe (the coordinator died) drains in-flight work and exits — the
journal keeps the rest.

Spawn-safety: :func:`shard_main` is a module-level entry point and
:class:`ShardConfig` is a plain picklable dataclass, so shards start
under the ``spawn`` context (respawning from the coordinator's monitor
thread must not fork a threaded process).
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError


@dataclass
class ShardConfig:
    """Everything a shard process needs to build its service.

    Must stay picklable under the ``spawn`` start method: plain
    values, dicts (the ``options_to_dict`` form, not the dataclass)
    and a :class:`repro.store.Store` (which pickles by configuration,
    so every shard shares the same on-disk cache).
    """

    index: int
    journal: str
    workers: int = 2
    queue_size: int = 256
    #: ``options_to_dict`` form of the shard's default options.
    options: Dict[str, Any] = field(default_factory=dict)
    backends: Optional[List[str]] = None
    max_attempts: int = 3
    store: Optional[Any] = None
    tenant_quota: Optional[int] = None


def build_service(config: ShardConfig):
    """The shard's :class:`SynthesisService`, built from its config."""
    from repro.service.service import SynthesisService, options_from_dict

    return SynthesisService(
        config.journal,
        workers=config.workers,
        queue_size=config.queue_size,
        options=options_from_dict(config.options) if config.options else None,
        backends=config.backends,
        max_attempts=config.max_attempts,
        store=config.store,
        tenant_quota=config.tenant_quota,
        instance=f"shard-{config.index}",
    )


def _handle(service, verb: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.synthesizer import SynthesisOptions
    from repro.io.spec_json import spec_from_dict
    from repro.service.service import options_from_dict

    if verb == "submit":
        spec = spec_from_dict(payload["spec"])
        options: Optional[SynthesisOptions] = None
        if payload.get("options"):
            options = options_from_dict(payload["options"])
        job_id = service.submit(spec, options,
                                tenant=payload.get("tenant"),
                                priority=int(payload.get("priority", 0)),
                                corr=payload.get("corr"))
        return {"ok": True, "job": service.job(job_id).to_line()}
    if verb == "job":
        return {"ok": True, "job": service.job(payload["id"]).to_line()}
    if verb == "stats":
        return {"ok": True, "stats": service.stats(), "pid": os.getpid()}
    if verb == "health":
        return {"ok": True, "health": service.health(), "pid": os.getpid()}
    raise ReproError(f"unknown shard RPC verb {verb!r}")


def _pusher(notify):
    """The service's terminal hook: send each finished job's line."""
    lock = threading.Lock()  # the worker threads share the pipe

    def push(job) -> None:
        with lock, contextlib.suppress(OSError):  # coordinator gone
            notify.send(job.to_line())

    return push


def shard_main(config: ShardConfig, conn, notify) -> None:
    """Child-process entry point: serve RPCs until ``stop`` or EOF.

    ``conn`` is the RPC pipe; ``notify`` is the write end of the notify
    pipe that carries each terminal job line.
    """
    # The coordinator owns signal-driven shutdown and talks to shards
    # over the pipe; a terminal Ctrl-C is delivered to the whole
    # foreground process group, and a shard that died on it would turn
    # every interactive interrupt into a (recoverable, but noisy)
    # crash-and-replay instead of a graceful drain.
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    # The coordinator starts shards daemonic so an abandoned platform
    # can't outlive its parent — but daemonic processes are forbidden
    # from having children, which would silently knock out every
    # multi-process solver backend (parallel_bb's worker pool would
    # fail to start and degrade to in-process). Clearing the inherited
    # flag restores spawning; grandchildren still can't leak, because
    # B&B workers exit on pipe EOF when their shard dies.
    with contextlib.suppress(Exception):
        mp.current_process()._config["daemon"] = False

    from repro.obs.telemetry import TelemetryShipper
    from repro.obs.trace import Tracer, use_tracer

    # The shard's spans, events and metrics leave with each batch it
    # ships to the coordinator, so the tracer holds one pull's worth.
    tracer = Tracer(f"shard-{config.index}")
    shipper = TelemetryShipper(tracer, source=f"shard-{config.index}")

    with use_tracer(tracer):
        service = build_service(config)
        service.on_terminal = _pusher(notify)
        service.start()
        conn.send({"ok": True, "up": True, "pid": os.getpid(),
                   "index": config.index,
                   "replayed": sum(1 for j in service.jobs.values()
                                   if not j.terminal)})
        stopped = False
        try:
            while True:
                try:
                    if not conn.poll(0.2):
                        continue
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # coordinator died; drain and exit
                verb, payload = message
                if isinstance(payload, dict) and "_clock" in payload:
                    tracer.witness(payload.pop("_clock"))
                if verb == "telemetry":
                    reply: Dict[str, Any] = {"ok": True,
                                             "batch": shipper.collect()}
                    try:
                        conn.send(reply)
                    except (BrokenPipeError, OSError):
                        break
                    continue
                if verb == "stop":
                    summary = service.stop(
                        drain=payload.get("drain", True),
                        deadline=payload.get("deadline"))
                    stopped = True
                    # Final incremental batch: spans/events emitted
                    # since the last periodic pull (drain included).
                    reply = {"ok": True, "summary": summary,
                             "batch": shipper.collect()}
                    with contextlib.suppress(OSError):
                        conn.send(reply)
                    break
                try:
                    reply = _handle(service, verb, payload)
                except Exception as exc:
                    reply = {"ok": False, "error": type(exc).__name__,
                             "message": str(exc)}
                reply["_clock"] = tracer.clock
                try:
                    conn.send(reply)
                except (BrokenPipeError, OSError):
                    break
        finally:
            if not stopped:
                # Orphaned (coordinator gone): finish what is on a
                # worker, journal the rest for the next incarnation.
                with contextlib.suppress(Exception):
                    service.stop(drain="inflight", deadline=10.0)


__all__ = ["ShardConfig", "build_service", "shard_main"]
