"""The supervised synthesis job service (`repro.service` facade).

:class:`SynthesisService` turns the library's one-shot ``synthesize``
into a system that survives synthesize failing:

* **Idempotent submission** — a job's identity is the
  :mod:`repro.obs.manifest` fingerprint pair (case ⊕ config);
  re-submitting the same work returns the same job, and a job whose
  completion is already journaled is never executed again.
* **Write-ahead journal** — every payload and state transition hits
  the :class:`~repro.service.journal.Journal` before memory, so a
  killed process restarts into the exact surviving state: terminal
  jobs stay terminal, queued and in-flight jobs come back as pending.
* **Supervised workers** — a pool of
  :class:`~repro.service.supervisor.Supervisor` threads; a crashed
  worker is replaced, its job retried.
* **Retry with backoff** — failed attempts re-queue with
  :class:`~repro.service.backoff.Backoff` delays until
  ``max_attempts``, then the job fails terminally with an error row.
* **Circuit breakers + backend ladder** — consecutive
  ``SolverError``/timeout failures open the failing backend's
  :class:`~repro.service.breaker.CircuitBreaker`; execution falls
  through to the next backend in ``backends`` until the breaker's
  half-open probe readmits the first.
* **Admission control** — a bounded queue sheds new submissions with
  :class:`~repro.errors.AdmissionError` (``shed`` event) instead of
  buffering without limit; retries of admitted jobs are exempt.
* **Graceful shutdown** — :func:`install_signal_handlers` maps
  SIGINT/SIGTERM onto a drain: in-flight jobs finish under a deadline,
  the rest stay journaled as pending for the next start.

Everything observable goes through ``repro.obs``: ``job_submitted`` /
``job_started`` / ``job_retry`` / ``job_done`` / ``job_failed`` /
``breaker_open`` / ``shed`` / ``drain`` events plus
``service_queue_depth`` / ``service_in_flight`` gauges and per-outcome
counters on the installed tracer.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.spec import SwitchSpec
from repro.core.synthesizer import SynthesisOptions, synthesize
from repro.errors import AdmissionError, ServiceError
from repro.io.spec_json import spec_from_dict, spec_to_dict
from repro.obs.manifest import case_fingerprint, config_fingerprint
from repro.obs.telemetry import correlation_id
from repro.obs.trace import correlate, current_tracer, obs_event
from repro.service.backoff import Backoff
from repro.service.breaker import BreakerBoard
from repro.service.journal import (
    TERMINAL_STATES,
    Journal,
    JobRecord,
    error_row,
    spec_row,
)
from repro.service.queue import JobQueue
from repro.service.supervisor import Supervisor


def options_to_dict(options: SynthesisOptions) -> Dict[str, Any]:
    """JSON form of the options (the journaled job payload half).

    Journals exactly the ``compare=True`` fields — the same set the
    config fingerprint hashes — so the journal payload and the job
    identity can never disagree. Runtime attachments (tracer, store
    handle, cache toggle) are per-process and never serialized.
    """
    return {
        f.name: getattr(options, f.name)
        for f in dataclasses.fields(options)
        if f.compare
    }


def options_from_dict(data: Dict[str, Any]) -> SynthesisOptions:
    """Rebuild options from their journaled form (unknown keys dropped)."""
    known = {f.name for f in dataclasses.fields(SynthesisOptions) if f.compare}
    return SynthesisOptions(**{k: v for k, v in data.items() if k in known})


def is_repair_job(record: "JobRecord") -> bool:
    """A job is a repair when its journaled switch carries a fault mask.

    Recognized from the serialized spec (not a schema flag), so repair
    jobs replay from any ``repro-service-v1`` journal unchanged and the
    ``repair_*`` metrics survive restarts.
    """
    switch = (record.spec or {}).get("switch") or {}
    return bool(switch.get("faults"))


def job_id_for(spec: SwitchSpec, options: SynthesisOptions) -> str:
    """The idempotency key: case fingerprint ⊕ config fingerprint."""
    return f"{case_fingerprint(spec)}-{config_fingerprint(options)}"


class SynthesisService:
    """A restartable, journaled, supervised queue of synthesis jobs."""

    def __init__(
        self,
        journal: Optional[Union[str, Path, Journal]] = None,
        *,
        workers: int = 2,
        queue_size: int = 256,
        options: Optional[SynthesisOptions] = None,
        backends: Optional[Sequence[str]] = None,
        max_attempts: int = 3,
        backoff: Optional[Backoff] = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 5.0,
        store: Optional[Any] = None,
        tenant_quota: Optional[int] = None,
        instance: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        #: Optional persistent solve cache shared by every worker: a
        #: :class:`repro.store.Store` or a path to open one. Submissions
        #: whose proven-optimal result the store already holds complete
        #: at admission time (re-verified, journaled as done) without
        #: ever occupying a worker; everything else executes with the
        #: store attached, so a proven-optimal outcome is written
        #: through for the next tenant.
        if store is not None and not hasattr(store, "get"):
            from repro.store import Store

            store = Store(store)
        self.store = store
        self.default_options = options or SynthesisOptions()
        #: The backend degradation ladder, tried in order per attempt.
        self.backends: List[str] = list(
            backends or [self.default_options.backend])
        self.max_attempts = max_attempts
        self.backoff = backoff or Backoff()
        self.breakers = BreakerBoard(breaker_threshold, breaker_reset)
        self.queue = JobQueue(queue_size, tenant_quota=tenant_quota)
        self._supervisor = Supervisor(workers, self._work)
        if journal is None or isinstance(journal, Journal):
            self._journal = journal
        else:
            self._journal = Journal(journal)
        #: job id -> record; *is* the journal's map once opened, so the
        #: WAL and the in-memory view can never disagree.
        self.jobs: Dict[str, JobRecord] = {}
        #: Parsed specs of non-terminal jobs; ``_finish`` evicts.
        self._specs: Dict[str, SwitchSpec] = {}
        self._lock = threading.RLock()
        self._terminal = threading.Condition(self._lock)
        self._in_flight = 0
        self._state = "created"
        self._shutdown_requested = threading.Event()
        self.shutdown_signal: Optional[int] = None
        #: Telemetry namespace: with several services (or stores) in one
        #: process — every shard test, any embedded deployment — each
        #: instance keeps its own ``service_*`` instruments instead of
        #: overwriting a process-global gauge. None = plain flat names.
        self.instance = instance
        #: Submission ordinal; with the job fingerprint it forms the
        #: correlation ID stamped on everything the job produces.
        self._submissions = 0
        #: Internal hook, called with the record once a worker finishes
        #: a job: after the journal write and the ``job_done`` /
        #: ``job_failed`` and ``repair_*`` events, never under the
        #: service lock. A shard sets it to push the line to its
        #: coordinator.
        self.on_terminal: Optional[Callable[[JobRecord], None]] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SynthesisService":
        """Open (and replay) the journal, then start the worker pool.

        Replayed non-terminal jobs — queued or in-flight when the last
        process died — are re-enqueued immediately; journaled terminal
        jobs are *not* re-executed (exactly-once completion).
        """
        with self._lock:
            if self._state == "running":
                return self
            if self._state == "stopped":
                raise ServiceError("service cannot be restarted; "
                                   "create a new one on the same journal")
            if self._journal is not None:
                self._journal.open()
                self.jobs = self._journal.jobs
                replayed = self._journal.pending()
                for job in replayed:
                    # A job journaled pending mid-backoff re-enters at
                    # the ready-time its *persisted* attempt count
                    # implies — keyed jitter, so the schedule survives
                    # the restart instead of releasing every replayed
                    # retry at attempt-0 delays all at once.
                    delay = 0.0
                    if job.state == "pending" and job.attempts > 0:
                        delay = self.backoff.delay_for(job.attempts, job.id)
                    self.queue.push(job.id, delay=delay,
                                    priority=job.priority,
                                    tenant=job.tenant, force=True)
                    obs_event("job_submitted", job=job.id, replayed=True,
                              state=job.state)
                if replayed:
                    self._counter("service_jobs_replayed", len(replayed))
            self._state = "running"
        self._supervisor.start()
        self._sync_gauges()
        return self

    def __enter__(self) -> "SynthesisService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission ------------------------------------------------------
    def submit(self, spec: SwitchSpec,
               options: Optional[SynthesisOptions] = None, *,
               tenant: Optional[str] = None, priority: int = 0,
               corr: Optional[str] = None) -> str:
        """Accept one job; returns its id (idempotent on re-submission).

        ``tenant`` labels the submission for quota accounting and
        per-tenant observability; ``priority`` orders ready jobs in the
        queue (higher pops first, FIFO within a band); ``corr``
        overrides the generated correlation ID (the coordinator passes
        one threaded down from ``POST /jobs``). Raises
        :class:`~repro.errors.SpecError` for a malformed spec, and
        :class:`AdmissionError` when the bounded queue is full or the
        tenant is at quota (the submission is *shed*: nothing is
        journaled, the caller owns the retry) or the service is
        shutting down.
        """
        # A spec edited after construction can be malformed; refused
        # here, it never reaches a worker, where every attempt would
        # fail and count against the backend's circuit breaker.
        spec.validate()
        opts = options or self.default_options
        job_id = job_id_for(spec, opts)
        with self._lock:
            if self._state == "created":
                raise ServiceError(
                    "service not started; call start() or use it as a "
                    "context manager")
            if self._state == "stopped" or self.queue.closed:
                raise AdmissionError("service is not accepting jobs")
            existing = self.jobs.get(job_id)
            if existing is not None:
                self._counter("service_dedup_hits")
                obs_event("job_submitted", job=job_id, dedup=True,
                          state=existing.state,
                          **({"tenant": tenant} if tenant else {}))
                return job_id
            self._submissions += 1
            corr = corr or correlation_id(job_id, self._submissions)
            with correlate(corr):
                row = self._store_row(spec, opts)
                if row is not None:
                    # Tier A at admission: the persistent store already
                    # holds this exact job's proven-optimal result
                    # (re-verified just now). Journal it straight to
                    # done — it never takes a queue slot or a worker,
                    # and a restart replays it as terminal like any
                    # other completion.
                    record = JobRecord(job_id, spec_to_dict(spec),
                                       options_to_dict(opts), tenant=tenant,
                                       priority=priority, corr=corr)
                    if self._journal is not None:
                        self._journal.record_job(record)
                    else:
                        self.jobs[job_id] = record
                    self._counter("service_store_dedup")
                    obs_event("job_submitted", job=job_id, case=spec.name,
                              store=True,
                              **({"tenant": tenant} if tenant else {}))
                    if is_repair_job(record):
                        self._note_repair_submitted(record, spec)
                    # No push: the submitter gets this terminal line as
                    # the reply, and nobody can be waiting on a job id
                    # that did not exist until now.
                    self._finish(record, 0, "done", row, None, push=False)
                    return job_id
                reason = self.queue.shed_reason(tenant)
                if reason is not None:
                    self.queue.shed += 1
                    self._counter("service_shed")
                    obs_event("shed", job=job_id, reason=reason,
                              queue_depth=len(self.queue),
                              **({"tenant": tenant} if tenant else {}))
                    if reason == "tenant-quota":
                        raise AdmissionError(
                            f"tenant {tenant!r} at quota "
                            f"({self.queue.tenant_quota} queued jobs); "
                            f"job {job_id} shed")
                    raise AdmissionError(
                        f"queue full ({self.queue.maxsize} jobs); "
                        f"job {job_id} shed")
                record = JobRecord(job_id, spec_to_dict(spec),
                                   options_to_dict(opts), tenant=tenant,
                                   priority=priority, corr=corr)
                # WAL order: journal first, then memory/queue — a crash
                # between the two re-creates the queue entry from the
                # journal on restart.
                if self._journal is not None:
                    self._journal.record_job(record)
                else:
                    self.jobs[job_id] = record
                self._specs[job_id] = spec
                self.queue.push(job_id, priority=priority, tenant=tenant,
                                force=True)
                self._counter("service_jobs_submitted")
                obs_event("job_submitted", job=job_id, case=spec.name,
                          **({"tenant": tenant} if tenant else {}))
                if is_repair_job(record):
                    self._note_repair_submitted(record, spec)
        self._sync_gauges()
        return job_id

    def submit_repair(self, original_id: str, faults, *,
                      tenant: Optional[str] = None,
                      priority: Optional[int] = None) -> str:
        """Turn observed faults on a completed job into a repair job.

        Builds the degraded spec from the original job's journaled spec
        plus ``faults`` (:class:`~repro.sim.faults.ValveFault`s,
        ``(a, b, kind)`` triples or a
        :class:`~repro.switches.health.HealthMask`) and submits it under
        the original job's correlation ID, so the repair's whole
        lifecycle lands in the original campaign's job trace. The
        repair job's id is a pure function of the masked spec and
        options — resubmitting the same fault set dedups onto the same
        journaled job (exactly-once), and a restart replays it
        like any other.
        """
        from repro.repair.engine import mask_spec

        original = self.job(original_id)
        spec = mask_spec(self._spec_of(original), faults)
        opts = (options_from_dict(original.options)
                if original.options else None)
        return self.submit(
            spec, opts,
            tenant=original.tenant if tenant is None else tenant,
            priority=original.priority if priority is None else priority,
            corr=original.corr)

    def _note_repair_submitted(self, record: JobRecord, spec: SwitchSpec) -> None:
        # Fires on every admission path (queued, store-dedup, and
        # coordinator-forwarded), so repair_* counters and per-fault
        # fault_detected events always reach this shard's stream.
        mask = spec.switch.health
        self._counter("repair_submitted")
        obs_event("repair_submitted", job=record.id, case=spec.name,
                  masked=len(mask.dead_segments))
        for a, b, kind in mask.triples():
            self._counter("repair_faults_detected")
            obs_event("fault_detected", job=record.id,
                      segment=f"{a}-{b}", kind=kind)

    def job(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self.jobs.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job {job_id}")
        return record

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> JobRecord:
        """Block until one job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._terminal:
            while True:
                record = self.jobs.get(job_id)
                if record is None:
                    raise ServiceError(f"unknown job {job_id}")
                if record.terminal:
                    return record
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServiceError(
                        f"timed out waiting for job {job_id} "
                        f"(state {record.state!r})")
                self._terminal.wait(remaining)

    def outstanding(self) -> int:
        """Jobs not yet terminal (queued, backing off, or in flight)."""
        with self._lock:
            return sum(1 for job in self.jobs.values() if not job.terminal)

    def run_until_complete(self, timeout: Optional[float] = None) -> str:
        """Process until every job is terminal or shutdown is requested.

        Returns ``"complete"``, ``"interrupted"`` (a signal or
        :meth:`request_shutdown` arrived) or ``"timeout"``. Sleeps on
        the terminal condition, which every terminal transition, every
        finished attempt and :meth:`request_shutdown` notify. A signal
        handled between a check and the wait is seen at the next of
        those notifications, at the latest when the attempt in flight
        ends.
        """
        end = None if timeout is None else time.monotonic() + timeout
        self._wait_until(lambda: self._shutdown_requested.is_set()
                         or self.outstanding() == 0, end)
        if self._shutdown_requested.is_set():
            return "interrupted"
        return "complete" if self.outstanding() == 0 else "timeout"

    # -- shutdown --------------------------------------------------------
    def request_shutdown(self, signum: Optional[int] = None) -> None:
        """Signal-safe: flag the shutdown; the control loop drains.

        A signal handler runs on the main thread, possibly while that
        thread holds the service lock; the lock is re-entrant, so the
        notification below cannot deadlock there.
        """
        self.shutdown_signal = signum
        self._shutdown_requested.set()
        with self._terminal:
            self._terminal.notify_all()

    def stop(self, drain: Union[bool, str] = True,
             deadline: Optional[float] = None) -> Dict[str, int]:
        """Stop the service; returns ``{"completed": ..., "pending": ...}``.

        ``drain`` picks the shutdown discipline:

        * ``True`` / ``"all"`` — keep working until every accepted job
          is terminal or ``deadline`` seconds pass (the orderly exit).
        * ``"inflight"`` — the signal-driven graceful shutdown: close
          the queue immediately, let only the jobs *already on a
          worker* finish under the deadline; everything still queued
          stays journaled as pending for the next start.
        * ``False`` — stop as fast as the workers can be joined.

        Whatever remains is never lost and never silently re-executed
        once completed — the journal carries it across restarts.
        """
        if drain not in (True, False, "all", "inflight"):
            raise ServiceError(
                f"drain must be True/'all', 'inflight' or False, "
                f"got {drain!r}")
        with self._lock:
            if self._state == "stopped":
                return {"completed": 0, "pending": self.outstanding()}
            self._state = "draining" if drain else "stopping"
        end = None if deadline is None else time.monotonic() + deadline
        if drain in (True, "all"):
            self._wait_until(lambda: self.outstanding() == 0, end)
        self.queue.close()
        leftovers = self.queue.drain()
        if drain == "inflight":
            self._wait_until(lambda: self._in_flight == 0, end)
        join_timeout = 5.0 if end is None \
            else max(0.1, end - time.monotonic())
        self._supervisor.stop(timeout=join_timeout)
        with self._lock:
            pending = self.outstanding()
            completed = sum(1 for j in self.jobs.values() if j.terminal)
            self._state = "stopped"
        obs_event("drain", pending=pending, completed=completed,
                  requeued=len(leftovers))
        if self._journal is not None:
            self._journal.close()
        self._sync_gauges()
        return {"completed": completed, "pending": pending}

    def _wait_until(self, done: Callable[[], bool],
                    end: Optional[float]) -> None:
        """Sleep on the terminal condition until ``done()`` holds or the
        monotonic time ``end`` (None = no limit) passes."""
        with self._terminal:
            while not done():
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return
                self._terminal.wait(remaining)

    # -- worker body -----------------------------------------------------
    def _work(self, worker_id: int) -> bool:
        job_id = self.queue.pop(timeout=0.1)
        if job_id is None:
            # Closed-and-empty means orderly exit; a plain timeout means
            # keep polling (retry delays may still be maturing).
            return not (self.queue.closed and len(self.queue) == 0)
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None or job.terminal:
                return True  # replay/dedup already settled it
            self._in_flight += 1
        self._sync_gauges()
        try:
            self._execute(job, worker_id)
        except BaseException as exc:
            # The worker thread is crashing (the supervisor will log it
            # and respawn). Without this rescue the job would be
            # stranded "running" in memory until the next *process*
            # restart replayed it — requeue it through the normal retry
            # accounting instead, so a thread crash costs one attempt,
            # not the rest of the session.
            self._rescue_crashed(job, exc)
            raise
        finally:
            with self._terminal:
                self._in_flight -= 1
                self._terminal.notify_all()
            self._sync_gauges()
        return True

    def _rescue_crashed(self, job: JobRecord, exc: BaseException) -> None:
        try:
            with self._lock:
                stranded = not job.terminal and job.state == "running"
            if stranded:
                self._fail_attempt(job, max(1, job.attempts), None,
                                   f"worker crashed: "
                                   f"{type(exc).__name__}: {exc}")
        except Exception:
            # Journaling itself is broken; the WAL still holds the job
            # as running, so the next start replays it.
            pass

    def _store_row(self, spec: SwitchSpec,
                   opts: SynthesisOptions) -> Optional[Dict[str, Any]]:
        """Tier A admission check: a completed row from the store, or None.

        Never raises — a broken store degrades to normal execution.
        """
        if self.store is None or not opts.cache:
            return None
        try:
            from repro.store import load_result, result_key

            result = load_result(self.store, result_key(spec, opts), spec)
        except Exception:
            return None
        if result is None:
            return None
        return spec_row(spec, result)

    def _spec_of(self, job: JobRecord) -> SwitchSpec:
        spec = self._specs.get(job.id)
        if spec is None:
            spec = spec_from_dict(job.spec)
            if not job.terminal:  # a finished job's spec is not kept
                self._specs[job.id] = spec
        return spec

    def _pick_backend(self) -> Optional[str]:
        """First rung of the ladder whose breaker admits a call."""
        for backend in self.backends:
            if self.breakers.get(backend).allow():
                return backend
        return None

    def _execute(self, job: JobRecord, worker_id: int) -> None:
        # Everything the attempt records — the solve's spans, solver
        # events, store events, even B&B worker telemetry shipped back
        # across process boundaries — carries the job's correlation ID.
        with correlate(job.corr):
            self._execute_attempt(job, worker_id)

    def _execute_attempt(self, job: JobRecord, worker_id: int) -> None:
        attempt = job.attempts + 1
        backend = self._pick_backend()
        if backend is None:
            self._fail_attempt(
                job, attempt, None,
                "no backend available: every circuit breaker is open")
            return
        breaker = self.breakers.get(backend)
        try:
            self._transition(job, "running", attempt)
            self._observe("service_queue_wait",
                          max(0.0, time.time() - job.submitted_at))
            obs_event("job_started", job=job.id, attempt=attempt,
                      backend=backend, worker=worker_id)
            spec = self._spec_of(job)
            opts = replace(options_from_dict(job.options),
                           backend=backend, trace=None, store=self.store)
        except BaseException:
            # Crash between the breaker's allow() and any verdict: the
            # half-open probe slot must not leak with the worker, or
            # the breaker stays stuck half-open refusing every later
            # probe. A vanished probe counts as a failed one.
            breaker.release_probe()
            raise
        try:
            result = synthesize(spec, opts)
        except Exception as exc:
            breaker.record_failure()
            self._fail_attempt(job, attempt, backend,
                               f"{type(exc).__name__}: {exc}")
            return
        except BaseException:
            breaker.release_probe()
            raise
        try:
            status = result.status.value
            if result.status.solved or status == "no solution":
                # Conclusive answers (infeasible included) are terminal.
                degraded = bool(result.counters.get("degraded"))
                if degraded or result.error:
                    breaker.record_failure()  # the exact backend did fail
                else:
                    breaker.record_success()
                row = spec_row(spec, result)
                state = "degraded" if degraded else "done"
                self._finish(job, attempt, state, row, result.error)
            else:
                # TIMEOUT without a solution, or a captured ERROR:
                # retryable.
                breaker.record_failure()
                self._fail_attempt(job, attempt, backend,
                                   result.error or f"solve ended {status}")
        except BaseException:
            breaker.release_probe()  # no-op once a verdict was recorded
            raise

    def _fail_attempt(self, job: JobRecord, attempt: int,
                      backend: Optional[str], message: str) -> None:
        if attempt >= self.max_attempts:
            row = error_row(self._spec_of(job), message)
            self._finish(job, attempt, "failed", row, message)
            return
        # Keyed jitter: the delay is a pure function of (policy seed,
        # job id, attempt), so a restart that replays this job pending
        # recomputes the same ready-time instead of resetting the herd.
        delay = self.backoff.delay_for(attempt, job.id)
        self._transition(job, "pending", attempt, error=message)
        self._counter("service_retries")
        obs_event("job_retry", job=job.id, attempt=attempt,
                  backend=backend, delay=round(delay, 4), error=message)
        # Retries of admitted work are exempt from admission control —
        # shedding them would silently drop an accepted job. A queue
        # already closed by shutdown refuses even forced pushes; the job
        # is journaled pending, so the next start replays it.
        try:
            self.queue.push(job.id, delay=delay, priority=job.priority,
                            tenant=job.tenant, force=True)
        except AdmissionError:
            pass

    def _finish(self, job: JobRecord, attempt: int, state: str,
                row: Dict[str, Any], error: Optional[str], *,
                push: bool = True) -> None:
        self._transition(job, state, attempt, row=row, error=error)
        self._specs.pop(job.id, None)
        self._counter(f"service_jobs_{state}")
        self._observe("service_job_latency",
                      max(0.0, time.time() - job.submitted_at))
        event = "job_failed" if state == "failed" else "job_done"
        obs_event(event, job=job.id, state=state, attempts=attempt,
                  status=row.get("status"), error=error)
        if is_repair_job(job):
            if state == "failed":
                self._counter("repair_failed")
                obs_event("repair_failed", job=job.id, attempts=attempt,
                          error=error)
            else:
                self._counter("repair_completed")
                obs_event("repair_done", job=job.id, state=state,
                          status=row.get("status"))
        if push and self.on_terminal is not None:
            self.on_terminal(job)

    def _transition(self, job: JobRecord, state: str, attempts: int,
                    row: Optional[Dict[str, Any]] = None,
                    error: Optional[str] = None) -> None:
        with self._terminal:
            if self._journal is not None:
                self._journal.record_state(job.id, state, attempts,
                                           row=row, error=error)
            else:
                job.state = state
                job.attempts = attempts
                if row is not None:
                    job.row = row
                if error is not None:
                    job.error = error
            if state in TERMINAL_STATES:
                self._terminal.notify_all()

    # -- observability ---------------------------------------------------
    def _counter(self, name: str, amount: int = 1) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.counter(name, instance=self.instance).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.histogram(
                name, instance=self.instance).observe(value)

    def _sync_gauges(self) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.gauge(
                "service_queue_depth",
                instance=self.instance).set(len(self.queue))
            tracer.metrics.gauge(
                "service_in_flight",
                instance=self.instance).set(self._in_flight)

    def stats(self) -> Dict[str, Any]:
        """Queue/retry/breaker counters for dashboards and tests."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            tenants: Dict[str, Dict[str, int]] = {}
            for job in self.jobs.values():
                if job.tenant is None:
                    continue
                per = tenants.setdefault(job.tenant, {})
                per[job.state] = per.get(job.state, 0) + 1
            out = {
                "state": self._state,
                "queue_depth": len(self.queue),
                "in_flight": self._in_flight,
                "shed": self.queue.shed,
                "worker_crashes": self._supervisor.crashes,
                "jobs": states,
                "tenants": tenants,
                "tenant_queue_depths": self.queue.tenant_depths(),
                "queue_depth_max": self.queue.depth_high_water,
                "breakers": self.breakers.snapshot(),
            }
        tracer = current_tracer()
        if tracer is not None:
            out["latency"] = {
                name: tracer.metrics.histogram(
                    name, instance=self.instance).snapshot()
                for name in ("service_queue_wait", "service_job_latency")
            }
        return out

    def health(self) -> Dict[str, Any]:
        """Liveness/readiness in one dict (the ``/healthz`` shape)."""
        with self._lock:
            running = self._state == "running"
            ready = running and not self.queue.closed \
                and len(self.queue) < self.queue.maxsize
            return {
                "status": self._state,
                "live": running or self._state == "draining",
                "ready": ready,
                "workers_alive": self._supervisor.alive(),
                "queue_depth": len(self.queue),
                "outstanding": sum(1 for j in self.jobs.values()
                                   if not j.terminal),
            }


def install_signal_handlers(
        service: SynthesisService,
        signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)):
    """Route SIGINT/SIGTERM to ``service.request_shutdown``.

    The handler only sets an event — everything else (drain, journal
    flush) happens in the normal control flow, which is the only way to
    stay async-signal-safe in Python. Returns the previous handlers so
    callers can restore them.
    """
    previous = {}
    for signum in signals:
        previous[signum] = signal.signal(
            signum, lambda s, frame: service.request_shutdown(s))
    return previous


__all__ = [
    "SynthesisService",
    "install_signal_handlers",
    "is_repair_job",
    "job_id_for",
    "options_to_dict",
    "options_from_dict",
]
