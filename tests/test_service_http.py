"""Tests for the sharded HTTP synthesis platform (coordinator + API).

Everything here crosses real process boundaries: shard processes are
spawned, SIGKILLed and respawned, and the HTTP tier is driven through
actual sockets with the stdlib client helpers. Specs stay tiny so the
suite's cost is process startup, not solving.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy
from repro.errors import AdmissionError
from repro.io import spec_to_dict
from repro.service import (
    HTTPServiceError,
    ServiceHTTPServer,
    ShardCoordinator,
    ShardError,
    fetch_job,
    replay_journal,
    submit_job,
    validate_journal,
    wait_job,
)
from repro.service.journal import TERMINAL_STATES

OPTS = {"time_limit": 30}


def small_spec(seed=0):
    return generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def blocker_spec():
    """A deliberately heavier case that keeps one worker busy for the
    whole solve time limit."""
    return generate_case(seed=9, switch_size=12, n_flows=6, n_inlets=4,
                         n_conflicts=2, binding=BindingPolicy.UNFIXED)


def platform(tmp_path, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("options", OPTS)
    return ShardCoordinator(str(tmp_path / "platform"), **kwargs)


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


# ----------------------------------------------------------------------
# round trip, routing, dedup
# ----------------------------------------------------------------------
def test_platform_http_round_trip_across_shards(tmp_path):
    specs = [small_spec(s) for s in range(4)]
    with platform(tmp_path) as coord:
        with ServiceHTTPServer(coord) as server:
            jobs = [submit_job(server.url, spec_to_dict(s)) for s in specs]
            # the fingerprint hash spreads jobs over both shards
            assert {j["shard"] for j in jobs} == {0, 1}
            # resubmission routes to the same shard and dedups there
            again = submit_job(server.url, spec_to_dict(specs[0]))
            assert (again["id"], again["shard"]) == (jobs[0]["id"],
                                                     jobs[0]["shard"])
            finals = [wait_job(server.url, j["id"], timeout=180)
                      for j in jobs]
            assert all(f["state"] == "done" for f in finals)
            status, health = get_json(server.url + "/health")
            assert status == 200 and health["ok"]
            status, stats = get_json(server.url + "/stats")
            assert stats["jobs"] == {"done": 4}
            assert stats["restarts"] == 0
            assert set(stats["shards"]) == {"0", "1"}
    for index in range(2):
        counts = validate_journal(tmp_path / "platform"
                                  / f"shard-{index}.jsonl")
        assert set(counts) == {"done"}


def test_platform_routing_is_stable(tmp_path):
    with platform(tmp_path) as coord:
        job = coord.submit(spec_to_dict(small_spec()))
        assert coord.route(job["id"]) == job["shard"]
        # the same id maps to the same shard forever
        assert coord.route(job["id"]) == coord.route(job["id"])
        coord.wait(job["id"], timeout=180)


# ----------------------------------------------------------------------
# crash recovery: SIGKILL a whole shard mid-run
# ----------------------------------------------------------------------
def test_platform_survives_shard_sigkill_exactly_once(tmp_path):
    specs = [small_spec(s) for s in range(6)]
    with platform(tmp_path) as coord:
        ids = [coord.submit(spec_to_dict(s))["id"] for s in specs]
        assert len({coord.route(i) for i in ids}) == 2  # both shards hit
        time.sleep(0.3)  # let some work start
        killed_pid = coord.kill_shard(0)
        assert killed_pid is not None
        finals = {i: coord.wait(i, timeout=240)["state"] for i in ids}
        assert all(state == "done" for state in finals.values()), finals
        stats = coord.stats()
        assert stats["restarts"] >= 1
        assert stats["shards"]["0"]["pid"] != killed_pid  # fresh process
    # exactly-once completion survives the kill: validate_journal raises
    # on any double terminal transition.
    totals = {}
    for index in range(2):
        for state, count in validate_journal(
                tmp_path / "platform" / f"shard-{index}.jsonl").items():
            totals[state] = totals.get(state, 0) + count
    assert totals == {"done": 6}


def test_platform_query_fails_over_during_kill(tmp_path):
    """A job RPC caught mid-crash retries against the respawned shard
    instead of surfacing a broken pipe."""
    spec = small_spec()
    with platform(tmp_path) as coord:
        job = coord.submit(spec_to_dict(spec))
        coord.kill_shard(job["shard"])
        # immediately query the killed shard: must fail over, not raise
        seen = coord.job(job["id"])
        assert seen["id"] == job["id"]
        assert coord.wait(job["id"], timeout=180)["state"] == "done"


# ----------------------------------------------------------------------
# cross-shard store dedup (and resharding)
# ----------------------------------------------------------------------
def test_platform_store_dedup_across_resharding(tmp_path):
    """A result solved under one shard layout completes at admission
    under another: the shared store is the cross-shard memory."""
    spec = small_spec()
    store = tmp_path / "store"
    with ShardCoordinator(str(tmp_path / "one"), shards=1, workers=1,
                          options=OPTS, store=str(store)) as coord:
        job = coord.submit(spec_to_dict(spec))
        done = coord.wait(job["id"], timeout=180)
        assert done["state"] == "done"
        assert done["attempts"] == 1

    with ShardCoordinator(str(tmp_path / "three"), shards=3, workers=1,
                          options=OPTS, store=str(store)) as coord:
        with ServiceHTTPServer(coord) as server:
            hit = submit_job(server.url, spec_to_dict(spec))
            # Tier-A admission hit: journaled straight to done on the
            # (possibly different) owning shard — no queue, no worker.
            assert hit["id"] == job["id"]
            assert hit["state"] == "done"
            assert hit["attempts"] == 0
    owning = None
    for index in range(3):
        path = tmp_path / "three" / f"shard-{index}.jsonl"
        if path.exists() and replay_journal(path).jobs:
            owning = validate_journal(path)
    assert owning == {"done": 1}


# ----------------------------------------------------------------------
# HTTP error mapping, quotas, long-poll
# ----------------------------------------------------------------------
def test_http_rejects_malformed_submissions(tmp_path):
    with platform(tmp_path, shards=1) as coord:
        with ServiceHTTPServer(coord) as server:
            for body in (b"not json", b"[1,2]",
                         json.dumps({"options": {}}).encode(),
                         json.dumps({"spec": "nope"}).encode()):
                request = urllib.request.Request(
                    server.url + "/jobs", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request)
                assert err.value.code == 400
            with pytest.raises(HTTPServiceError) as exc:
                submit_job(server.url, {"name": "x", "garbage": True})
            assert exc.value.status == 400


def test_http_unknown_job_and_route_are_404(tmp_path):
    with platform(tmp_path, shards=1) as coord:
        with ServiceHTTPServer(coord) as server:
            with pytest.raises(HTTPServiceError) as exc:
                fetch_job(server.url, "deadbeef-deadbeef")
            assert exc.value.status == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope")
            assert err.value.code == 404


def test_http_tenant_quota_sheds_with_429(tmp_path):
    """One tenant at quota gets 429; the shed job is never journaled."""
    # the blocker keeps the single worker busy while the backlog
    # builds up behind it
    blocker = blocker_spec()
    queued = [small_spec(s) for s in range(2)]
    with platform(tmp_path, shards=1, workers=1,
                  options={"time_limit": 8},
                  tenant_quota=1) as coord:
        with ServiceHTTPServer(coord) as server:
            submit_job(server.url, spec_to_dict(blocker))  # occupies worker
            time.sleep(0.5)
            first = submit_job(server.url, spec_to_dict(queued[0]),
                               tenant="alice")
            with pytest.raises(HTTPServiceError) as exc:
                submit_job(server.url, spec_to_dict(queued[1]),
                           tenant="alice")
            assert exc.value.status == 429
            assert "quota" in str(exc.value)
            # bob is not throttled by alice's backlog
            other = submit_job(server.url, spec_to_dict(queued[1]),
                               tenant="bob")
            for job in (first, other):
                assert wait_job(server.url, job["id"],
                                timeout=180)["state"] in ("done", "degraded")
    jobs = replay_journal(tmp_path / "platform" / "shard-0.jsonl").jobs
    # the shed submission was refused before journaling (WAL order)
    assert len(jobs) == 3


def test_http_long_poll_returns_terminal_state(tmp_path):
    spec = small_spec()
    with platform(tmp_path, shards=1) as coord:
        with ServiceHTTPServer(coord) as server:
            job = submit_job(server.url, spec_to_dict(spec))
            # one server-side long-poll observes the terminal state
            final = fetch_job(server.url, job["id"], wait=30)
            assert final["state"] == "done"
            assert final["row"]["case"] == spec.name


def test_coordinator_surfaces_admission_error_directly(tmp_path):
    """Library callers (no HTTP) get the same AdmissionError a local
    service would raise, propagated across the process boundary."""
    blocker = blocker_spec()
    with platform(tmp_path, shards=1, workers=1,
                  options={"time_limit": 8}, tenant_quota=1) as coord:
        coord.submit(spec_to_dict(blocker))
        time.sleep(0.5)
        coord.submit(spec_to_dict(small_spec(0)), tenant="alice")
        with pytest.raises(AdmissionError, match="quota"):
            coord.submit(spec_to_dict(small_spec(1)), tenant="alice")


# ----------------------------------------------------------------------
# pushed completion: wait sleeps until the shard pushes the job's line
# ----------------------------------------------------------------------
def same_line(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_wait_sleeps_on_the_push_instead_of_polling(tmp_path):
    with platform(tmp_path, shards=1, options={"time_limit": 2}) as coord:
        job = coord.submit(spec_to_dict(blocker_spec()))
        verbs = []
        call = coord._call

        def counting_call(index, verb, payload):
            verbs.append(verb)
            return call(index, verb, payload)

        coord._call = counting_call
        final = coord.wait(job["id"], timeout=120)
        assert final["state"] in TERMINAL_STATES
        # one read before sleeping; a 50 ms poll would make dozens
        assert verbs.count("job") <= 3, verbs.count("job")


def test_wait_returns_the_journaled_line_with_a_complete_trace(tmp_path):
    specs = [small_spec(s) for s in range(4)]
    with platform(tmp_path) as coord:
        with ServiceHTTPServer(coord) as server:
            ids = []
            for index, spec in enumerate(specs):
                # every wait starts right after its submission, so it
                # sleeps until the push rather than reading a done job
                if index % 2:
                    job_id = submit_job(server.url, spec_to_dict(spec))["id"]
                    final = wait_job(server.url, job_id, timeout=180)
                    assert final == fetch_job(server.url, job_id)
                else:
                    job_id = coord.submit(spec_to_dict(spec))["id"]
                    final = coord.wait(job_id, timeout=180)
                assert final["state"] == "done"
                assert same_line(final, coord.job(job_id))
                # the push follows the shard's job_done event, so the
                # trace read straight after the wait already holds it
                events = {r["name"] for r in coord.job_trace(job_id)
                          if r["type"] == "event"}
                assert "job_done" in events
                ids.append(job_id)
            assert {coord.route(i) for i in ids} == {0, 1}


def test_wait_survives_shard_sigkill_with_one_terminal_line(tmp_path):
    with platform(tmp_path, shards=1, options={"time_limit": 2}) as coord:
        job_id = coord.submit(spec_to_dict(blocker_spec()))["id"]
        lines, errors = [], []

        def waiter():
            try:
                lines.append(coord.wait(job_id, timeout=180))
            except Exception as exc:  # fails the assertion below
                errors.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.5)
        assert coord.kill_shard(0) is not None
        thread.join(timeout=200)
        assert not thread.is_alive()
        assert errors == []
        assert len(lines) == 1
        assert lines[0]["state"] in TERMINAL_STATES
        assert same_line(lines[0], coord.job(job_id))
        assert coord.stats()["restarts"] >= 1
    counts = validate_journal(tmp_path / "platform" / "shard-0.jsonl")
    assert sum(counts.values()) == 1, counts


def test_stop_releases_blocked_waiters(tmp_path):
    coord = platform(tmp_path, shards=1, options={"time_limit": 8})
    coord.start()
    try:
        job_id = coord.submit(spec_to_dict(blocker_spec()))["id"]
        outcome = []

        def waiter():
            try:
                result = coord.wait(job_id, timeout=120)
            except ShardError as exc:
                result = exc
            outcome.append((time.monotonic(), result))

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.5)
        stopped_at = time.monotonic()
        coord.stop(drain=False, deadline=1.0)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert len(outcome) == 1
        ended_at, result = outcome[0]
        assert ended_at - stopped_at < 15
        assert isinstance(result, ShardError) \
            or result["state"] in TERMINAL_STATES
    finally:
        coord.stop()


def test_waiter_state_is_released_after_every_wait(tmp_path):
    """Waiters racing on one job, on several jobs and past a deadline
    all get their job's line and leave the waiter maps empty."""
    specs = [small_spec(s) for s in range(3)]
    with platform(tmp_path, shards=1) as coord:
        # the blocker holds the only worker, so every wait below sleeps
        slow = coord.submit(spec_to_dict(blocker_spec()),
                            {"time_limit": 2})["id"]
        ids = [coord.submit(spec_to_dict(s))["id"] for s in specs]
        assert coord.wait(slow, timeout=0.2)["state"] not in TERMINAL_STATES
        targets = [slow, slow] + ids * 2  # more waiters than cores
        finals = {}

        def waiter(key, job_id):
            finals[key] = coord.wait(job_id, timeout=180)

        threads = [threading.Thread(target=waiter, args=(key, job_id))
                   for key, job_id in enumerate(targets)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=200)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finals) == list(range(len(targets)))
        for key, job_id in enumerate(targets):
            assert finals[key]["state"] in TERMINAL_STATES
            assert same_line(finals[key], coord.job(job_id))
        assert coord._waiters == {}
        assert coord._pushed == {}
