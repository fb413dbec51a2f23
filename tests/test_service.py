"""Tests for the resilient synthesis service (repro.service).

Covers every component in isolation — backoff schedule, circuit
breaker state machine (with an injected clock, no sleeping), bounded
queue with shedding, supervised workers, write-ahead journal replay —
and the assembled :class:`SynthesisService` end to end: idempotent
submission, retry with backoff, the backend degradation ladder,
graceful shutdown modes and restart-from-journal.
"""

import json
import threading
import time

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.errors import (
    AdmissionError,
    JournalError,
    ReproError,
    ServiceError,
    SpecError,
)
from repro.obs import Tracer, use_tracer
from repro.obs.export import validate_trace_records
from repro.service import (
    Backoff,
    BreakerBoard,
    CircuitBreaker,
    JobQueue,
    JobRecord,
    Journal,
    Supervisor,
    SynthesisService,
    job_id_for,
    options_from_dict,
    options_to_dict,
    replay_journal,
    validate_journal,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.testing import FaultPlan, install_faulty_backend


def small_spec(seed=0):
    return generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


OPTS = SynthesisOptions(time_limit=30)


# ----------------------------------------------------------------------
# backoff
# ----------------------------------------------------------------------
def test_backoff_caps_grow_exponentially_then_saturate():
    b = Backoff(base=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
    assert [b.cap(n) for n in (1, 2, 3, 4, 5)] == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_backoff_equal_jitter_stays_in_band():
    b = Backoff(base=0.2, factor=2.0, max_delay=10.0, jitter=0.5, seed=7)
    for attempt in range(1, 8):
        cap = b.cap(attempt)
        d = b.delay(attempt)
        assert cap * 0.5 <= d <= cap  # never immediate, never above cap


def test_backoff_is_seed_deterministic():
    a = [Backoff(seed=42).delay(n) for n in (1, 2, 3)]
    b = [Backoff(seed=42).delay(n) for n in (1, 2, 3)]
    assert a == b


def test_backoff_rejects_bad_parameters():
    with pytest.raises(ReproError):
        Backoff(base=-1)
    with pytest.raises(ReproError):
        Backoff(factor=0.5)
    with pytest.raises(ReproError):
        Backoff(jitter=2.0)
    with pytest.raises(ReproError):
        Backoff().cap(0)


# ----------------------------------------------------------------------
# circuit breaker (driven by a fake clock — no sleeping)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_breaker_opens_after_threshold_and_refuses():
    clock = FakeClock()
    b = CircuitBreaker("cbc", failure_threshold=3, reset_timeout=10,
                       clock=clock)
    assert b.state == CLOSED
    b.record_failure()
    b.record_failure()
    assert b.state == CLOSED and b.allow()
    b.record_failure()
    assert b.state == OPEN
    assert not b.allow()
    assert b.opens == 1 and b.refusals == 1


def test_breaker_success_resets_consecutive_count():
    b = CircuitBreaker("cbc", failure_threshold=2, reset_timeout=10,
                       clock=FakeClock())
    b.record_failure()
    b.record_success()
    b.record_failure()
    assert b.state == CLOSED  # failures were not consecutive


def test_breaker_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    b = CircuitBreaker("cbc", failure_threshold=1, reset_timeout=5,
                       clock=clock)
    b.record_failure()
    assert not b.allow()
    clock.t = 5.0  # cooldown elapsed
    assert b.state == HALF_OPEN
    assert b.allow()       # the probe
    assert not b.allow()   # concurrent caller refused while probing
    b.record_success()
    assert b.state == CLOSED
    assert b.allow()


def test_breaker_failed_probe_reopens_and_restarts_cooldown():
    clock = FakeClock()
    b = CircuitBreaker("cbc", failure_threshold=1, reset_timeout=5,
                       clock=clock)
    b.record_failure()
    clock.t = 5.0
    assert b.allow()
    b.record_failure()  # probe failed
    assert b.state == OPEN
    clock.t = 9.0  # cooldown restarted at t=5, not elapsed yet
    assert not b.allow()
    clock.t = 10.0
    assert b.allow()
    b.record_success()
    assert b.state == CLOSED


def test_breaker_emits_transition_events():
    clock = FakeClock()
    tracer = Tracer("breaker")
    with use_tracer(tracer):
        b = CircuitBreaker("cbc", failure_threshold=1, reset_timeout=1,
                           clock=clock)
        b.record_failure()
        clock.t = 1.0
        b.allow()
        b.record_success()
    names = [r["name"] for r in tracer.records() if r["type"] == "event"]
    assert names == ["breaker_open", "breaker_half_open", "breaker_close"]


def test_breaker_rejects_bad_parameters():
    with pytest.raises(ReproError):
        CircuitBreaker("x", failure_threshold=0)
    with pytest.raises(ReproError):
        CircuitBreaker("x", reset_timeout=-1)


def test_breaker_board_is_per_backend():
    board = BreakerBoard(failure_threshold=1, reset_timeout=99,
                         clock=FakeClock())
    board.get("a").record_failure()
    assert board.get("a").state == OPEN
    assert board.get("b").state == CLOSED
    snap = board.snapshot()
    assert snap["a"]["opens"] == 1 and snap["b"]["opens"] == 0


# ----------------------------------------------------------------------
# bounded queue
# ----------------------------------------------------------------------
def test_queue_is_fifo_among_ready_items():
    q = JobQueue(maxsize=8)
    for item in ("a", "b", "c"):
        q.push(item)
    assert [q.pop(0.1) for _ in range(3)] == ["a", "b", "c"]


def test_queue_delayed_item_is_invisible_until_ready():
    q = JobQueue(maxsize=8)
    q.push("later", delay=0.15)
    q.push("now")
    assert q.pop(0.05) == "now"
    assert q.pop(0.01) is None  # "later" not ready yet
    assert q.pop(1.0) == "later"  # pop blocks until the delay matures


def test_queue_sheds_when_full_and_force_bypasses():
    q = JobQueue(maxsize=2)
    q.push("a")
    q.push("b")
    with pytest.raises(AdmissionError):
        q.push("c")
    assert q.shed == 1
    q.push("retry", force=True)  # retries of admitted work never shed
    assert len(q) == 3


def test_queue_close_refuses_even_forced_pushes_and_wakes_poppers():
    q = JobQueue(maxsize=2)
    q.close()
    with pytest.raises(AdmissionError):
        q.push("a", force=True)
    assert q.pop(5.0) is None  # returns immediately: closed and empty


def test_queue_drain_returns_everything_in_order():
    q = JobQueue(maxsize=8)
    q.push("b", delay=9.0)
    q.push("a")
    assert q.drain() == ["a", "b"]
    assert len(q) == 0


def test_queue_rejects_bad_maxsize():
    with pytest.raises(ReproError):
        JobQueue(maxsize=0)


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------
def test_supervisor_respawns_crashed_workers():
    done = threading.Event()
    calls = []

    def body(worker_id):
        calls.append(worker_id)
        if len(calls) == 1:
            raise RuntimeError("injected worker crash")
        done.set()
        return False

    sup = Supervisor(1, body)
    tracer = Tracer("sup")
    with use_tracer(tracer):
        sup.start()
        assert done.wait(5.0), "replacement worker never ran"
        sup.stop(timeout=5.0)
    assert sup.crashes == 1
    events = [r for r in tracer.records() if r["type"] == "event"]
    assert any(e["name"] == "worker_crashed" for e in events)


def test_supervisor_does_not_respawn_while_stopping():
    started = threading.Event()
    release = threading.Event()

    def body(worker_id):
        started.set()
        release.wait(5.0)
        raise RuntimeError("crash during shutdown")

    sup = Supervisor(1, body)
    sup.start()
    assert started.wait(5.0)
    sup._stopping = True  # stop() sets this before joining
    release.set()
    sup.stop(timeout=5.0)
    assert sup.alive() == 0
    assert sup.crashes == 1


# ----------------------------------------------------------------------
# write-ahead journal
# ----------------------------------------------------------------------
def make_record(job_id="job-1", state="submitted"):
    return JobRecord(job_id, {"name": "case"}, {"backend": "auto"},
                     state=state)


def test_journal_roundtrip_and_replay(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.record_job(make_record("a"))
        journal.record_job(make_record("b"))
        journal.record_state("a", "running", 1)
        journal.record_state("a", "done", 1, row={"status": "optimal"})
    replay = replay_journal(path)
    assert set(replay.jobs) == {"a", "b"}
    assert replay.jobs["a"].state == "done"
    assert replay.jobs["a"].row == {"status": "optimal"}
    assert replay.jobs["b"].state == "submitted"
    assert not replay.truncated


def test_journal_survives_torn_trailing_line(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.record_job(make_record("a"))
        journal.record_state("a", "done", 1)
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"type": "state", "id": "a", "sta')  # killed mid-append
    journal2 = Journal(path).open()
    assert journal2.recovered_truncation
    assert journal2.jobs["a"].state == "done"
    # The torn bytes were physically cut before appending, so the next
    # replay sees a clean segment again.
    journal2.record_state("a", "done", 2)
    journal2.close()
    final = replay_journal(path)
    assert not final.truncated
    assert final.jobs["a"].attempts == 2


def test_journal_repairs_missing_final_newline(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.record_job(make_record("a"))
    raw = path.read_bytes()
    path.write_bytes(raw.rstrip(b"\n"))  # killed between payload and \n
    with Journal(path) as journal2:
        assert journal2.jobs["a"].state == "submitted"
        journal2.record_state("a", "running", 1)
    assert replay_journal(path).jobs["a"].state == "running"


def test_journal_mid_file_corruption_is_an_error(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.record_job(make_record("a"))
    raw = path.read_text().splitlines()
    raw.insert(1, "not json at all")
    path.write_text("\n".join(raw) + "\n")
    with pytest.raises(JournalError):
        replay_journal(path)


def test_journal_rejects_bogus_records(tmp_path):
    path = tmp_path / "j.jsonl"
    for line, message in [
        ('{"type": "header", "schema": "repro-service-v99"}',
         "unsupported journal schema"),
        ('{"type": "state", "id": "ghost", "state": "done", "attempts": 1}',
         "undeclared job"),
        ('{"type": "mystery"}', "unknown record type"),
    ]:
        path.write_text(line + "\n")
        with pytest.raises(JournalError, match=message):
            replay_journal(path)


def test_journal_rejects_unknown_states(tmp_path):
    with Journal(tmp_path / "j.jsonl") as journal:
        journal.record_job(make_record("a"))
        with pytest.raises(JournalError):
            journal.record_state("a", "sideways", 1)
        with pytest.raises(JournalError):
            journal.record_state("ghost", "done", 1)


def test_journal_rotation_compacts_but_preserves_state(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.record_job(make_record("a"))
        journal.record_job(make_record("b"))
        for attempt in range(1, 20):
            journal.record_state("a", "pending", attempt)
        journal.record_state("a", "done", 20)
        lines_before = len(path.read_text().splitlines())
        journal.rotate()
        journal.record_state("b", "running", 1)  # still appendable after
    lines_after = len(path.read_text().splitlines())
    assert lines_after < lines_before
    replay = replay_journal(path)
    assert replay.jobs["a"].state == "done"
    assert replay.jobs["a"].attempts == 20
    assert replay.jobs["b"].state == "running"


def test_journal_auto_rotates_past_threshold(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, rotate_after=10) as journal:
        journal.record_job(make_record("a"))
        for attempt in range(1, 30):
            journal.record_state("a", "pending", attempt)
    assert len(path.read_text().splitlines()) < 30
    assert replay_journal(path).jobs["a"].attempts == 29


def test_validate_journal_catches_double_completion(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.record_job(make_record("a"))
        journal.record_state("a", "done", 1)
        journal.record_state("a", "done", 2)  # the bug class under test
    with pytest.raises(JournalError, match="completed twice"):
        validate_journal(path)


def test_validate_journal_reports_state_counts(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.record_job(make_record("a"))
        journal.record_job(make_record("b"))
        journal.record_state("a", "done", 1)
    assert validate_journal(path) == {"done": 1, "submitted": 1}


# ----------------------------------------------------------------------
# options round-trip / job identity
# ----------------------------------------------------------------------
def test_options_roundtrip_drops_trace_and_unknown_keys():
    opts = SynthesisOptions(time_limit=12.5, backend="auto",
                            on_error="capture")
    data = options_to_dict(opts)
    assert "trace" not in data
    data["future_field"] = True  # a newer writer's key must not break us
    back = options_from_dict(data)
    assert back.time_limit == 12.5 and back.on_error == "capture"


def test_job_id_keyed_by_spec_and_config():
    spec_a, spec_b = small_spec(0), small_spec(1)
    assert job_id_for(spec_a, OPTS) == job_id_for(spec_a, OPTS)
    assert job_id_for(spec_a, OPTS) != job_id_for(spec_b, OPTS)
    assert job_id_for(spec_a, OPTS) != \
        job_id_for(spec_a, SynthesisOptions(time_limit=1))


# ----------------------------------------------------------------------
# the assembled service
# ----------------------------------------------------------------------
def test_service_runs_jobs_to_done(tmp_path):
    spec = small_spec()
    with SynthesisService(tmp_path / "j.jsonl", workers=2,
                          options=OPTS) as service:
        job_id = service.submit(spec)
        record = service.wait(job_id, timeout=60)
    assert record.state == "done"
    assert record.row["status"] in ("optimal", "feasible")
    assert record.row["case"] == spec.name
    assert validate_journal(tmp_path / "j.jsonl") == {"done": 1}


def test_service_submission_is_idempotent(tmp_path):
    spec = small_spec()
    with SynthesisService(tmp_path / "j.jsonl", options=OPTS) as service:
        first = service.submit(spec)
        service.wait(first, timeout=60)
        attempts = service.job(first).attempts
        again = service.submit(spec)  # dedup: same id, no re-execution
        assert again == first
        assert service.job(first).attempts == attempts
        assert service.outstanding() == 0
    validate_journal(tmp_path / "j.jsonl")


def test_service_requires_start():
    service = SynthesisService(workers=1)
    with pytest.raises(ServiceError, match="not started"):
        service.submit(small_spec())


def test_service_rejects_bad_configuration():
    with pytest.raises(ServiceError):
        SynthesisService(workers=0)
    with pytest.raises(ServiceError):
        SynthesisService(max_attempts=0)
    service = SynthesisService(workers=1).start()
    with pytest.raises(ServiceError):
        service.stop(drain="sideways")
    service.stop()


def test_service_cannot_be_restarted_after_stop():
    service = SynthesisService(workers=1).start()
    service.stop()
    with pytest.raises(ServiceError, match="cannot be restarted"):
        service.start()
    with pytest.raises(AdmissionError):
        service.submit(small_spec())


def test_service_retries_transient_faults_with_backoff(tmp_path):
    """First solve crashes; the retry succeeds. on_error='capture'
    surfaces the crash as a retryable error result."""
    spec = small_spec()
    opts = SynthesisOptions(time_limit=30, on_error="capture")
    tracer = Tracer("retry")
    with install_faulty_backend("flaky", plan=FaultPlan(schedule=["crash"])):
        with use_tracer(tracer):
            with SynthesisService(tmp_path / "j.jsonl", workers=1,
                                  options=opts, backends=["flaky"],
                                  max_attempts=3,
                                  backoff=Backoff(base=0.01, max_delay=0.05),
                                  breaker_threshold=10) as service:
                job_id = service.submit(spec)
                record = service.wait(job_id, timeout=60)
    assert record.state == "done"
    assert record.attempts == 2
    events = [r["name"] for r in tracer.records() if r["type"] == "event"]
    assert "job_retry" in events
    counters = {r["name"]: r["value"] for r in tracer.records()
                if r["type"] == "metric" and r.get("kind") == "counter"}
    assert counters["service_retries"] == 1
    assert counters["service_jobs_done"] == 1


def test_service_exhausted_retries_fail_terminally_with_error_row(tmp_path):
    spec = small_spec()
    opts = SynthesisOptions(time_limit=30, on_error="capture")
    with install_faulty_backend("doomed", plan=FaultPlan(crash=1.0)):
        with SynthesisService(tmp_path / "j.jsonl", workers=1,
                              options=opts, backends=["doomed"],
                              max_attempts=2,
                              backoff=Backoff(base=0.01, max_delay=0.02),
                              breaker_threshold=10) as service:
            job_id = service.submit(spec)
            record = service.wait(job_id, timeout=60)
    assert record.state == "failed"
    assert record.attempts == 2
    assert record.row["status"] == "error"
    assert record.error
    assert validate_journal(tmp_path / "j.jsonl") == {"failed": 1}


def test_service_breaker_falls_through_backend_ladder(tmp_path):
    """A permanently broken first rung opens its breaker; jobs complete
    on the next rung instead of burning every retry."""
    specs = [small_spec(s) for s in range(3)]
    opts = SynthesisOptions(time_limit=30, on_error="capture")
    tracer = Tracer("ladder")
    with install_faulty_backend("broken", plan=FaultPlan(crash=1.0)):
        with use_tracer(tracer):
            with SynthesisService(tmp_path / "j.jsonl", workers=1,
                                  options=opts,
                                  backends=["broken", "auto"],
                                  max_attempts=4,
                                  backoff=Backoff(base=0.01, max_delay=0.02),
                                  breaker_threshold=1,
                                  breaker_reset=3600) as service:
                ids = [service.submit(s) for s in specs]
                records = [service.wait(i, timeout=120) for i in ids]
                stats = service.stats()
    assert all(r.state == "done" for r in records)
    assert stats["breakers"]["broken"]["state"] == "open"
    assert stats["breakers"]["broken"]["opens"] == 1
    assert stats["breakers"].get("auto", {}).get("state") == "closed"
    events = [r["name"] for r in tracer.records() if r["type"] == "event"]
    assert "breaker_open" in events
    validate_trace_records(tracer.records())


def test_service_fails_when_every_breaker_is_open(tmp_path):
    spec = small_spec()
    opts = SynthesisOptions(time_limit=30, on_error="capture")
    with install_faulty_backend("broken", plan=FaultPlan(crash=1.0)):
        with SynthesisService(tmp_path / "j.jsonl", workers=1,
                              options=opts, backends=["broken"],
                              max_attempts=2,
                              backoff=Backoff(base=0.01, max_delay=0.02),
                              breaker_threshold=1,
                              breaker_reset=3600) as service:
            record = service.wait(service.submit(spec), timeout=60)
    assert record.state == "failed"
    assert "circuit breaker" in record.error


def test_service_sheds_past_queue_bound(tmp_path):
    """With no workers draining it, the bounded queue refuses the
    overflow submission and journals nothing for it."""
    specs = [small_spec(s) for s in range(3)]
    tracer = Tracer("shed")
    service = SynthesisService(tmp_path / "j.jsonl", workers=1,
                               queue_size=2, options=OPTS)
    # Keep workers off the queue so depth is deterministic.
    service._supervisor.start = lambda: None
    with use_tracer(tracer):
        service.start()
        service.submit(specs[0])
        service.submit(specs[1])
        with pytest.raises(AdmissionError, match="shed"):
            service.submit(specs[2])
        shed_id = job_id_for(specs[2], OPTS)
        assert shed_id not in service.jobs  # nothing journaled
        assert service.stats()["shed"] == 1
        assert not service.health()["ready"]
        service.stop(drain=False)
    events = [r["name"] for r in tracer.records() if r["type"] == "event"]
    assert "shed" in events
    counts = validate_journal(tmp_path / "j.jsonl")
    assert sum(counts.values()) == 2


def test_service_restart_replays_pending_work(tmp_path):
    """Jobs journaled but not finished (the crash shape) are executed
    by the next service on the same journal; completed ones are not."""
    path = tmp_path / "j.jsonl"
    spec_done, spec_queued, spec_running = (small_spec(s) for s in range(3))
    with Journal(path) as journal:
        done = JobRecord(job_id_for(spec_done, OPTS),
                         json.loads(json.dumps(_spec_dict(spec_done))),
                         options_to_dict(OPTS))
        journal.record_job(done)
        journal.record_state(done.id, "done", 1,
                             row={"status": "optimal", "case": spec_done.name})
        journal.record_job(JobRecord(job_id_for(spec_queued, OPTS),
                                     _spec_dict(spec_queued),
                                     options_to_dict(OPTS)))
        running = JobRecord(job_id_for(spec_running, OPTS),
                            _spec_dict(spec_running), options_to_dict(OPTS))
        journal.record_job(running)
        journal.record_state(running.id, "running", 1)

    tracer = Tracer("replay")
    with use_tracer(tracer):
        with SynthesisService(path, workers=2, options=OPTS) as service:
            assert service.run_until_complete(timeout=120) == "complete"
            jobs = dict(service.jobs)
    assert jobs[done.id].attempts == 1  # untouched: journaled terminal
    assert jobs[job_id_for(spec_queued, OPTS)].state == "done"
    assert jobs[running.id].state == "done"
    replays = [r for r in tracer.records() if r["type"] == "event"
               and r["name"] == "job_submitted"
               and r.get("attrs", {}).get("replayed")]
    assert len(replays) == 2
    validate_journal(path)


def test_service_without_journal_still_works():
    with SynthesisService(workers=1, options=OPTS) as service:
        record = service.wait(service.submit(small_spec()), timeout=60)
    assert record.state == "done"


def test_service_wait_times_out_cleanly(tmp_path):
    service = SynthesisService(workers=1, options=OPTS)
    service._supervisor.start = lambda: None  # nothing will run the job
    service.start()
    job_id = service.submit(small_spec())
    with pytest.raises(ServiceError, match="timed out"):
        service.wait(job_id, timeout=0.05)
    with pytest.raises(ServiceError, match="unknown job"):
        service.wait("nope", timeout=0.05)
    service.stop(drain=False)


def test_service_inflight_drain_leaves_queue_journaled(tmp_path):
    """The graceful-shutdown discipline: stop(drain='inflight') finishes
    what a worker already holds and leaves the queue for the next run."""
    path = tmp_path / "j.jsonl"
    gate = threading.Event()
    started = threading.Event()

    from repro.opt.solvers import get_backend, register_backend, \
        unregister_backend
    from repro.opt.solvers.base import SolverBackend

    class GateBackend(SolverBackend):
        name = "gate"

        def solve(self, model, **kwargs):
            started.set()
            assert gate.wait(30.0)
            return get_backend("auto").solve(model, **kwargs)

    register_backend("gate", GateBackend, replace=True)
    try:
        opts = SynthesisOptions(time_limit=30, backend="gate")
        specs = [small_spec(s) for s in range(4)]
        service = SynthesisService(path, workers=1, options=opts).start()
        ids = [service.submit(s) for s in specs]
        assert started.wait(10.0), "no job reached a worker"
        releaser = threading.Timer(0.2, gate.set)
        releaser.start()
        summary = service.stop(drain="inflight", deadline=20.0)
        releaser.cancel()
        gate.set()
        # Exactly the in-flight job finished; the queued three survived
        # as journaled pending work.
        assert summary["completed"] == 1
        assert summary["pending"] == 3
        counts = validate_journal(path)
        assert counts["done"] == 1
        assert counts["submitted"] == 3

        # A fresh service on the same journal replays and completes them.
        with SynthesisService(path, workers=2, options=opts) as service2:
            assert service2.run_until_complete(timeout=120) == "complete"
    finally:
        unregister_backend("gate")
    final = validate_journal(path)
    assert final == {"done": 4}
    # ... and the ids line up with the original submissions.
    assert {j.id for j in replay_journal(path).jobs.values()} == set(ids)


def test_waits_sleep_until_notified(monkeypatch):
    """run_until_complete and stop(drain=True) sleep on the terminal
    condition: across a job of about 1 s each checks for completion a
    handful of times, once per notification, not on a timer."""
    from repro.opt.solvers import get_backend, register_backend, \
        unregister_backend
    from repro.opt.solvers.base import SolverBackend

    class SleepyBackend(SolverBackend):
        name = "sleepy"

        def solve(self, model, **kwargs):
            time.sleep(1.0)
            return get_backend("auto").solve(model, **kwargs)

    register_backend("sleepy", SleepyBackend, replace=True)
    try:
        opts = SynthesisOptions(time_limit=30, backend="sleepy",
                                pressure_sharing=False)
        service = SynthesisService(workers=1, options=opts).start()
        checks = []
        outstanding = service.outstanding

        def counted():
            checks.append(time.monotonic())
            return outstanding()

        monkeypatch.setattr(service, "outstanding", counted)
        service.submit(small_spec(0))
        assert service.run_until_complete(timeout=60) == "complete"
        assert checks[-1] - checks[0] >= 0.5
        assert len(checks) <= 5, len(checks)

        checks.clear()
        service.submit(small_spec(1))
        assert service.stop(drain=True, deadline=60.0) == \
            {"completed": 2, "pending": 0}
        assert checks[-1] - checks[0] >= 0.5
        assert len(checks) <= 6, len(checks)
    finally:
        unregister_backend("sleepy")


def test_service_health_and_stats_shapes(tmp_path):
    with SynthesisService(tmp_path / "j.jsonl", workers=1,
                          options=OPTS) as service:
        health = service.health()
        assert health["live"] and health["ready"]
        assert health["workers_alive"] == 1
        stats = service.stats()
        assert stats["state"] == "running"
        assert stats["jobs"] == {}
    assert service.health()["status"] == "stopped"


def malformed_spec(seed=0):
    """A spec whose fixed binding was edited after construction (and so
    after validation) to name a pin the switch does not have."""
    spec = small_spec(seed)
    spec.fixed_binding[next(iter(spec.fixed_binding))] = "no_such_pin"
    return spec


def test_submit_refuses_a_malformed_spec_and_the_breaker_stays_closed(
        tmp_path):
    with SynthesisService(tmp_path / "j.jsonl", workers=1,
                          options=OPTS) as service:
        with pytest.raises(SpecError):
            service.submit(malformed_spec())
        assert service.jobs == {}  # nothing journaled
        record = service.wait(service.submit(small_spec(1)), timeout=60)
        assert record.state == "done"
        assert service.breakers.snapshot()["auto"]["state"] == CLOSED
    assert validate_journal(tmp_path / "j.jsonl") == {"done": 1}


def _spec_dict(spec):
    from repro.io import spec_to_dict

    return spec_to_dict(spec)


# ----------------------------------------------------------------------
# keyed backoff (replay-stable jitter)
# ----------------------------------------------------------------------
def test_backoff_delay_for_is_key_deterministic():
    b = Backoff(base=0.2, factor=2.0, max_delay=10.0, jitter=0.5, seed=7)
    for attempt in (1, 2, 5):
        first = b.delay_for(attempt, "job-a")
        assert first == b.delay_for(attempt, "job-a")  # replay-stable
        cap = b.cap(attempt)
        assert cap * 0.5 <= first <= cap  # inside the equal-jitter band
    # different jobs decorrelate
    assert b.delay_for(3, "job-a") != b.delay_for(3, "job-b")


def test_backoff_delay_for_matches_across_instances():
    """Two processes (here: two instances) with the same policy must
    compute the same ready-time for the same (job, attempt) — that is
    what makes journal replay reproduce the original schedule."""
    a = Backoff(base=0.1, factor=2.0, max_delay=5.0, jitter=0.5, seed=3)
    b = Backoff(base=0.1, factor=2.0, max_delay=5.0, jitter=0.5, seed=3)
    assert [a.delay_for(n, "j") for n in range(1, 6)] \
        == [b.delay_for(n, "j") for n in range(1, 6)]


def test_replay_recomputes_backoff_from_persisted_attempts(tmp_path):
    """A replayed pending job re-enters the queue with the delay of its
    *recorded* attempt count, not attempt zero — restart must not turn
    a backed-off herd into a stampede."""
    spec = small_spec()
    opts = SynthesisOptions(time_limit=30, on_error="capture")
    backoff = Backoff(base=30.0, factor=2.0, max_delay=120.0,
                      jitter=0.5, seed=11)
    with install_faulty_backend("doomed", plan=FaultPlan(crash=1.0)):
        service = SynthesisService(tmp_path / "j.jsonl", workers=1,
                                   options=opts, backends=["doomed"],
                                   max_attempts=5, backoff=backoff,
                                   breaker_threshold=100)
        service.start()
        job_id = service.submit(spec)
        deadline = time.monotonic() + 60
        while service.job(job_id).attempts < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        service.stop(drain=False)
    attempts = service.job(job_id).attempts
    assert attempts >= 1

    restarted = SynthesisService(tmp_path / "j.jsonl", workers=1,
                                 options=opts, backends=["doomed"],
                                 max_attempts=5, backoff=backoff,
                                 breaker_threshold=100)
    restarted._supervisor.start = lambda: None  # freeze the queue
    restarted.start()
    entry = restarted.queue._delayed[0]
    remaining = entry[0] - time.monotonic()
    expected = backoff.delay_for(attempts, job_id)
    # the keyed draw reproduces the exact delay (minus test elapsed)
    assert expected - 2.0 <= remaining <= expected + 0.1
    restarted.stop(drain=False)


# ----------------------------------------------------------------------
# breaker probe-crash accounting
# ----------------------------------------------------------------------
def test_breaker_probe_crash_releases_slot_and_reopens():
    """A half-open probe whose worker dies never reports back; the
    crash path must release the probe slot as a *failed* probe or the
    breaker wedges half-open with the slot consumed forever."""
    clock = FakeClock()
    b = CircuitBreaker("cbc", failure_threshold=1, reset_timeout=5,
                       clock=clock)
    b.record_failure()
    clock.t = 5.0
    assert b.allow()          # the probe is dispatched...
    b.release_probe()         # ...and its worker crashes
    assert b.state == OPEN    # counted as a failed probe
    clock.t = 9.9             # cooldown restarted at t=5
    assert not b.allow()
    clock.t = 10.0
    assert b.allow()          # next probe admitted normally
    b.record_success()
    assert b.state == CLOSED


def test_breaker_release_probe_is_noop_outside_half_open():
    clock = FakeClock()
    b = CircuitBreaker("cbc", failure_threshold=2, reset_timeout=5,
                       clock=clock)
    b.release_probe()                  # closed: nothing to release
    assert b.state == CLOSED and b.opens == 0
    b.record_failure()
    b.record_failure()
    b.release_probe()                  # open, no probe outstanding
    assert b.state == OPEN and b.opens == 1
    clock.t = 5.0
    assert b.allow()
    b.record_success()                 # probe reported before any crash
    b.release_probe()                  # late release after verdict
    assert b.state == CLOSED and b.opens == 1


def test_breaker_probe_crash_emits_probe_crashed_event():
    clock = FakeClock()
    tracer = Tracer("probe")
    with use_tracer(tracer):
        b = CircuitBreaker("cbc", failure_threshold=1, reset_timeout=1,
                           clock=clock)
        b.record_failure()
        clock.t = 1.0
        assert b.allow()
        b.release_probe()
    opens = [r for r in tracer.records()
             if r["type"] == "event" and r["name"] == "breaker_open"]
    assert opens[-1]["attrs"]["probe_crashed"] is True


def test_service_probe_crash_does_not_wedge_breaker(tmp_path):
    """End to end: attempt 1 fails (opens the breaker), the half-open
    probe crashes its *worker thread*, and the job still completes —
    the crash path re-opened the breaker instead of leaking the slot."""
    from repro.opt.model import Model
    from repro.opt.solvers import (SolverBackend, get_backend,
                                   register_backend, unregister_backend)

    class WorkerDeath(BaseException):
        """Escapes the retry path's `except Exception` like a real
        thread-killing defect would."""

    class ProbeCrashBackend(SolverBackend):
        name = "probecrash"

        def __init__(self):
            self.inner = get_backend("auto")
            self.calls = 0

        def solve(self, model, **kwargs):
            self.calls += 1
            if self.calls == 1:
                raise ReproError("planned failure: open the breaker")
            if self.calls == 2:
                raise WorkerDeath("probe worker dies")
            return self.inner.solve(model, **kwargs)

    backend = ProbeCrashBackend()
    register_backend("probecrash", lambda: backend, replace=True)
    tracer = Tracer("probecrash")
    try:
        with use_tracer(tracer):
            with SynthesisService(
                    tmp_path / "j.jsonl", workers=1,
                    options=SynthesisOptions(time_limit=30,
                                             on_error="capture"),
                    backends=["probecrash"], max_attempts=6,
                    backoff=Backoff(base=0.4, factor=1.5, max_delay=1.0,
                                    jitter=0.0),
                    breaker_threshold=1, breaker_reset=0.1) as service:
                job_id = service.submit(small_spec())
                record = service.wait(job_id, timeout=120)
    finally:
        unregister_backend("probecrash")
    assert record.state == "done"
    assert backend.calls >= 3
    snapshot = {r["name"]: r for r in tracer.records()
                if r["type"] == "event"}
    assert "worker_crashed" in snapshot          # the supervisor saw it
    opens = [r["attrs"] for r in tracer.records()
             if r["type"] == "event" and r["name"] == "breaker_open"]
    assert any(a.get("probe_crashed") for a in opens)
    assert validate_journal(tmp_path / "j.jsonl") == {"done": 1}


# ----------------------------------------------------------------------
# priorities and tenant quotas
# ----------------------------------------------------------------------
def test_queue_priority_orders_ready_items_fifo_within_band():
    q = JobQueue(maxsize=8)
    q.push("low-1", priority=0)
    q.push("high", priority=5)
    q.push("low-2", priority=0)
    q.push("mid", priority=2)
    assert [q.pop(0.1) for _ in range(4)] == ["high", "mid",
                                              "low-1", "low-2"]


def test_queue_full_of_low_priority_cannot_starve_exempt_retry():
    """Satellite regression: a queue at its bound with low-priority
    work must neither shed nor delay an exempt (forced) retry."""
    q = JobQueue(maxsize=4)
    for i in range(4):
        q.push(f"bulk-{i}", priority=0)
    assert q.shed_reason() == "full"
    # the retry is exempt from the bound...
    q.push("retry", delay=0.05, priority=3, force=True)
    assert len(q) == 5
    # ...and once its backoff matures it pops before the entire backlog
    time.sleep(0.08)
    assert q.pop(0.5) == "retry"
    assert q.shed == 0


def test_queue_tenant_quota_caps_one_tenant_not_the_queue():
    q = JobQueue(maxsize=8, tenant_quota=2)
    q.push("a1", tenant="alice")
    q.push("a2", tenant="alice")
    assert q.shed_reason("alice") == "tenant-quota"
    assert q.shed_reason("bob") is None
    with pytest.raises(AdmissionError, match="tenant"):
        q.push("a3", tenant="alice")
    q.push("b1", tenant="bob")               # other tenants unaffected
    q.push("a3-retry", tenant="alice", force=True)  # retries exempt
    assert q.tenant_depths() == {"alice": 3, "bob": 1}
    q.pop(0.1)
    assert q.tenant_depths()["alice"] == 2   # pop releases the slot


def test_service_tenant_quota_shed_event_carries_tenant(tmp_path):
    """Satellite regression: a per-tenant rejection must be observable
    as a `shed` event labelled with the tenant, not an anonymous one."""
    specs = [small_spec(s) for s in range(3)]
    tracer = Tracer("quota")
    service = SynthesisService(tmp_path / "j.jsonl", workers=1,
                               queue_size=8, options=OPTS,
                               tenant_quota=1)
    service._supervisor.start = lambda: None  # keep depth deterministic
    with use_tracer(tracer):
        service.start()
        service.submit(specs[0], tenant="alice")
        with pytest.raises(AdmissionError, match="tenant"):
            service.submit(specs[1], tenant="alice")
        service.submit(specs[2], tenant="bob")  # bob is not throttled
        service.stop(drain=False)
    sheds = [r["attrs"] for r in tracer.records()
             if r["type"] == "event" and r["name"] == "shed"]
    assert len(sheds) == 1
    assert sheds[0]["tenant"] == "alice"
    assert sheds[0]["reason"] == "tenant-quota"
    # nothing journaled for the shed job; the others were accepted
    assert validate_journal(tmp_path / "j.jsonl") == {"submitted": 2}


def test_service_stats_break_down_tenants(tmp_path):
    specs = [small_spec(s) for s in range(2)]
    with SynthesisService(tmp_path / "j.jsonl", workers=1,
                          options=OPTS) as service:
        ids = [service.submit(specs[0], tenant="alice"),
               service.submit(specs[1], tenant="bob", priority=1)]
        for job_id in ids:
            service.wait(job_id, timeout=120)
        stats = service.stats()
    assert stats["tenants"]["alice"] == {"done": 1}
    assert stats["tenants"]["bob"] == {"done": 1}
    replayed = replay_journal(tmp_path / "j.jsonl").jobs
    assert replayed[ids[0]].tenant == "alice"
    assert replayed[ids[1]].priority == 1


def test_service_evicts_parsed_specs_of_terminal_jobs(tmp_path):
    """The parsed-spec cache holds only jobs still to run: queued jobs,
    a store hit at admission and a job that fails every attempt all
    leave it, and a finished job's spec is re-parsed on demand."""
    from repro.sim.faults import stuck_closed

    specs = [small_spec(s) for s in range(3)]
    store = tmp_path / "store"
    with SynthesisService(tmp_path / "warm.jsonl", workers=1, options=OPTS,
                          store=str(store)) as warm:
        warm.wait(warm.submit(specs[0]), timeout=60)
    doomed = SynthesisOptions(time_limit=31, on_error="capture")
    with install_faulty_backend(
            "doomed", plan=FaultPlan(schedule=["crash", "crash"])):
        with SynthesisService(tmp_path / "j.jsonl", workers=1, options=OPTS,
                              backends=["doomed"], max_attempts=2,
                              backoff=Backoff(base=0.01, max_delay=0.02),
                              breaker_threshold=10,
                              store=str(store)) as service:
            # runs alone first, so both scripted crashes hit it; its
            # own options keep its id apart from the queued specs[1]
            failed = service.wait(service.submit(specs[1], doomed),
                                  timeout=60)
            hit = service.submit(specs[0])
            queued = [service.submit(spec) for spec in specs[1:]]
            records = [service.wait(job_id, timeout=60)
                       for job_id in [hit] + queued]
            assert failed.state == "failed"
            assert records[0].attempts == 0  # answered at admission
            assert [r.state for r in records] == ["done"] * 3
            assert service._specs == {}
            seg = next(k for k in sorted(specs[1].switch.segments)
                       if not specs[1].switch.is_pin(k[0])
                       and not specs[1].switch.is_pin(k[1]))
            repair = service.submit_repair(queued[0], [stuck_closed(*seg)])
            assert service.wait(repair, timeout=60).state == "done"
            assert service._specs == {}
