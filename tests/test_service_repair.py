"""Tests for journaled, exactly-once repair jobs through the service.

Mid-campaign fault injection closed loop at the service tier: faults
become repair jobs correlated to the original job, deduplicated through
the fault-salted fingerprint, visible as ``repair_*`` counters and
``fault_detected``/``repair_*`` events, and durable across both a
journal replay and a SIGKILLed shard.
"""

import time

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.errors import RepairError, ServiceError
from repro.io import spec_to_dict
from repro.obs import Tracer, use_tracer
from repro.service import (
    HTTPServiceError,
    ServiceHTTPServer,
    ShardCoordinator,
    SynthesisService,
    fetch_metrics,
    is_repair_job,
    submit_job,
    submit_repair,
    validate_journal,
    wait_job,
)
from repro.sim.faults import stuck_closed

OPTS = SynthesisOptions(time_limit=30)
OPTS_DICT = {"time_limit": 30}


def small_spec(seed=0):
    return generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def internal_segment(spec):
    """First junction-junction segment: masking it keeps pins alive."""
    return next(k for k in sorted(spec.switch.segments)
                if not spec.switch.is_pin(k[0])
                and not spec.switch.is_pin(k[1]))


# ----------------------------------------------------------------------
# in-process service
# ----------------------------------------------------------------------
def test_submit_repair_is_exactly_once_and_correlated(tmp_path):
    spec = small_spec()
    seg = internal_segment(spec)
    tracer = Tracer("repair")
    with use_tracer(tracer):
        with SynthesisService(tmp_path / "j.jsonl", workers=1,
                              options=OPTS) as svc:
            original_id = svc.submit(spec)
            original = svc.wait(original_id, timeout=120)
            assert original.state == "done"
            assert not is_repair_job(original)

            repair_id = svc.submit_repair(
                original_id, [stuck_closed(*seg)])
            # the fault-salted fingerprint dedups the retry
            assert svc.submit_repair(
                original_id, [stuck_closed(*seg)]) == repair_id
            assert repair_id != original_id

            record = svc.wait(repair_id, timeout=120)
            assert record.state == "done"
            assert record.row["status"] == "optimal"
            assert is_repair_job(record)
            # the repair rides the original campaign's correlation ID
            assert record.corr == original.corr
            counters = {
                name: tracer.metrics.counter(
                    name, instance=svc.instance).value
                for name in ("repair_submitted", "repair_completed",
                             "repair_faults_detected")
            }
    assert counters["repair_submitted"] == 1
    assert counters["repair_completed"] == 1
    assert counters["repair_faults_detected"] >= 1
    events = [r for r in tracer.records() if r["type"] == "event"]
    names = [r["name"] for r in events]
    for expected in ("fault_detected", "repair_submitted", "repair_done"):
        assert expected in names
    repair_events = [r for r in events
                     if r["name"] in ("repair_submitted", "repair_done")]
    assert all(r.get("corr") == original.corr for r in repair_events)
    # exactly-once on the journal: one original + one repair, both done
    assert validate_journal(tmp_path / "j.jsonl") == {"done": 2}


def test_submit_repair_validates_inputs(tmp_path):
    spec = small_spec()
    with SynthesisService(tmp_path / "j.jsonl", workers=1,
                          options=OPTS) as svc:
        job_id = svc.submit(spec)
        svc.wait(job_id, timeout=120)
        with pytest.raises(ServiceError, match="unknown job"):
            svc.submit_repair("no-such-job", [stuck_closed("A", "B")])
        with pytest.raises(RepairError):
            svc.submit_repair(job_id, [])


def test_repair_that_strands_a_bound_pin_is_no_solution(tmp_path):
    """A mask that strands a fixed-binding flow is a conclusive answer:
    one attempt, every breaker stays closed, and the next job runs."""
    spec = generate_case(seed=0, switch_size=8, n_flows=3, n_inlets=2,
                         n_conflicts=1, binding=BindingPolicy.FIXED)
    assert spec.fixed_binding["out3"] == "B1"
    with SynthesisService(tmp_path / "j.jsonl", workers=1,
                          options=OPTS) as svc:
        original_id = svc.submit(spec)
        assert svc.wait(original_id, timeout=120).state == "done"
        repair_id = svc.submit_repair(original_id,
                                      [stuck_closed("B1", "BL")])
        record = svc.wait(repair_id, timeout=120)
        assert (record.state, record.attempts) == ("done", 1)
        assert record.row["status"] == "no solution"
        assert record.error is None
        breakers = svc.stats()["breakers"]
        assert breakers and all(
            b["state"] == "closed" and b["consecutive_failures"] == 0
            for b in breakers.values())
        next_id = svc.submit(small_spec(seed=1))
        assert svc.wait(next_id, timeout=120).state == "done"


def test_repair_job_replays_from_the_journal(tmp_path):
    """A journaled-but-unfinished repair job survives a service death
    and is executed exactly once by the next service."""
    spec = small_spec()
    seg = internal_segment(spec)
    path = tmp_path / "j.jsonl"
    with SynthesisService(path, workers=1, options=OPTS) as svc:
        original_id = svc.submit(spec)
        svc.wait(original_id, timeout=120)

    # journal the repair with workers held off, then "crash"
    service = SynthesisService(path, workers=1, options=OPTS)
    service._supervisor.start = lambda: None
    service.start()
    repair_id = service.submit_repair(original_id, [stuck_closed(*seg)])
    assert not service.job(repair_id).terminal
    service.stop(drain=False)

    tracer = Tracer("replay")
    with use_tracer(tracer):
        with SynthesisService(path, workers=1, options=OPTS) as svc2:
            assert svc2.run_until_complete(timeout=120) == "complete"
            record = svc2.job(repair_id)
            assert record.state == "done"
            assert is_repair_job(record)
    assert validate_journal(path) == {"done": 2}


# ----------------------------------------------------------------------
# sharded platform + HTTP
# ----------------------------------------------------------------------
def test_coordinator_repair_survives_shard_sigkill(tmp_path):
    spec = small_spec()
    seg = internal_segment(spec)
    with ShardCoordinator(str(tmp_path / "platform"), shards=2, workers=1,
                          options=OPTS_DICT) as coord:
        job = coord.submit(spec_to_dict(spec))
        done = coord.wait(job["id"], timeout=180)
        assert done["state"] == "done"

        triples = [(seg[0], seg[1], "stuck_closed")]
        first = coord.submit_repair(job["id"], triples)
        again = coord.submit_repair(job["id"], triples)
        assert again["id"] == first["id"]
        assert first["id"] != job["id"]
        assert first["corr"] == done["corr"]
        # routing invariant: the repair job lives on its fingerprint's
        # shard, wherever that is
        assert coord.route(first["id"]) == first["shard"]

        coord.kill_shard(first["shard"])
        final = coord.wait(first["id"], timeout=240)
        assert final["state"] == "done"
    totals = {}
    for index in range(2):
        path = tmp_path / "platform" / f"shard-{index}.jsonl"
        if path.exists():
            for state, count in validate_journal(path).items():
                totals[state] = totals.get(state, 0) + count
    assert totals == {"done": 2}


def test_http_repair_endpoint_round_trip(tmp_path):
    spec = small_spec()
    seg = internal_segment(spec)
    with ShardCoordinator(str(tmp_path / "platform"), shards=1, workers=1,
                          options=OPTS_DICT) as coord:
        with ServiceHTTPServer(coord) as server:
            job = submit_job(server.url, spec_to_dict(spec))
            assert wait_job(server.url, job["id"],
                            timeout=180)["state"] == "done"

            triples = [[seg[0], seg[1], "stuck_closed"]]
            repair_job = submit_repair(server.url, job["id"], triples)
            assert repair_job["id"] != job["id"]
            final = wait_job(server.url, repair_job["id"], timeout=180)
            assert final["state"] == "done"

            # repair counters surface on /metrics (streamed; poll a bit)
            deadline = time.monotonic() + 10.0
            text = ""
            while time.monotonic() < deadline:
                text = fetch_metrics(server.url)
                if "repair_completed" in text:
                    break
                time.sleep(0.2)
            assert "repair_submitted" in text
            assert "repair_completed" in text

            with pytest.raises(HTTPServiceError) as exc:
                submit_repair(server.url, "no-such-job", triples)
            assert exc.value.status == 404
            with pytest.raises(HTTPServiceError) as exc:
                submit_repair(server.url, job["id"], [])
            assert exc.value.status == 400
            with pytest.raises(HTTPServiceError) as exc:
                submit_repair(server.url, job["id"],
                              [["NO", "PE", "stuck_closed"]])
            assert exc.value.status == 400
    assert validate_journal(
        tmp_path / "platform" / "shard-0.jsonl") == {"done": 2}
