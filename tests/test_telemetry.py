"""Tests for the distributed telemetry plane (`repro.obs.telemetry`).

Covers the wire contract (framed batches, torn-batch rejection, the
`foreign` grandchild relay), the deterministic merge (byte-identical
output for any batch grouping or arrival order), the flight recorder,
Prometheus exposition + its validator, metric instance namespacing,
and the end-to-end platform path: two shard processes plus the
coordinator yield one merged correlation-carrying `repro-obs-v1`
stream served over ``GET /metrics`` and ``GET /jobs/<id>/trace``.
"""

import json
import os
import signal
import time

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy
from repro.io import spec_to_dict
from repro.obs import validate_trace_records
from repro.obs.telemetry import (
    FlightRecorder,
    TelemetryShipper,
    aggregate_metrics,
    correlation_id,
    correlation_job,
    merge_streams,
    render_prometheus,
    series_from_sources,
    validate_batch,
    validate_prometheus_text,
)
from repro.obs.trace import Tracer, use_tracer
from repro.service import ServiceHTTPServer, ShardCoordinator, fetch_metrics, fetch_trace, submit_job, wait_job

OPTS = {"time_limit": 30}


def small_spec(seed=0):
    return generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def aggregated(tracer):
    """The absorbed streams' latest metric snapshots, summed."""
    return aggregate_metrics(s["metrics"] for s in tracer.streams().values())


def make_records(tracer_name, spans):
    """Record a few spans/events on a throwaway tracer; return records."""
    tracer = Tracer(tracer_name)
    for name in spans:
        with tracer.span(name):
            tracer.event(f"{name}_evt", detail=name)
    return tracer.records(with_metrics=False)


# ----------------------------------------------------------------------
# shipper: incremental framed batches
# ----------------------------------------------------------------------
def test_shipper_ships_records_exactly_once():
    tracer = Tracer("child")
    shipper = TelemetryShipper(tracer, source="child")
    with tracer.span("a"):
        pass
    first = shipper.collect()
    assert validate_batch(first)
    assert first["n"] == len(first["records"]) == 2  # begin + end
    with tracer.span("b"):
        pass
    second = shipper.collect()
    assert {r["name"] for r in second["records"]} == {"b"}
    assert second["n"] == 2
    # nothing new: empty batch, still well-framed
    third = shipper.collect()
    assert third["n"] == 0 and validate_batch(third)


def test_shipper_metrics_are_cumulative():
    tracer = Tracer("child")
    shipper = TelemetryShipper(tracer, source="child")
    tracer.metrics.counter("work").inc(2)
    assert shipper.collect()["metrics"]["work"]["value"] == 2
    tracer.metrics.counter("work").inc(3)
    # snapshot is the running total, not the delta
    assert shipper.collect()["metrics"]["work"]["value"] == 5


def test_shipper_bounds_batch_size():
    tracer = Tracer("child")
    shipper = TelemetryShipper(tracer, source="child", max_batch=3)
    for index in range(4):
        tracer.event("tick", i=index)
    first, second = shipper.collect(), shipper.collect()
    assert first["n"] == 3 and second["n"] == 1


def test_shipper_relays_foreign_batches():
    """Grandchild batches absorbed by a mid-tier tracer ride along."""
    worker = Tracer("bb-worker-0")
    with worker.span("bb_task"):
        pass
    worker_batch = TelemetryShipper(worker, source="bb-worker-0").collect()

    shard = Tracer("shard-0")
    assert shard.absorb_batch(worker_batch)
    with shard.span("job"):
        pass
    shipper = TelemetryShipper(shard, source="shard-0")
    relayed = shipper.collect()
    assert relayed["foreign"] == [worker_batch]
    # foreign ships exactly once too
    assert "foreign" not in shipper.collect()

    top = Tracer("coordinator")
    assert top.absorb_batch(relayed)
    names = {name for name, _ in top.streams()}
    assert names == {"shard-0", "bb-worker-0"}
    merged = top.records()
    validate_trace_records(merged)
    assert {r["src"] for r in merged} == {"shard-0", "bb-worker-0"}


# ----------------------------------------------------------------------
# absorbing tracer: framing, torn batches, monotonic aggregation
# ----------------------------------------------------------------------
def test_absorb_batch_rejects_torn_batches():
    tracer = Tracer("child")
    shipper = TelemetryShipper(tracer, source="child")
    with tracer.span("a"):
        pass
    batch = shipper.collect()

    top = Tracer("parent")
    torn = dict(batch)
    del torn["complete"]  # died before the end marker
    assert not top.absorb_batch(torn)
    short = dict(batch, records=batch["records"][:-1])  # n mismatch
    assert not top.absorb_batch(short)
    assert not top.absorb_batch("garbage")
    assert top.rejected == 3
    assert top.streams() == {}
    # the intact batch still lands
    assert top.absorb_batch(batch)
    validate_trace_records(top.records())


def test_absorbed_metrics_aggregate_across_respawn_monotonically():
    """A respawned shard is a new stream; sums never go backwards."""
    top = Tracer("parent")

    def batch_from(pid, value):
        tracer = Tracer("shard-0")
        tracer.metrics.counter("jobs").inc(value)
        batch = TelemetryShipper(tracer, source="shard-0").collect()
        batch["pid"] = pid  # simulate distinct incarnations
        return batch

    top.absorb_batch(batch_from(pid=100, value=7))
    before = aggregated(top)["jobs"]["value"]
    # the kill: the respawned process restarts its counter from zero
    top.absorb_batch(batch_from(pid=200, value=1))
    after = aggregated(top)["jobs"]["value"]
    assert before == 7 and after == 8  # 7 + 1, not reset to 1
    assert len(top.streams()) == 2


# ----------------------------------------------------------------------
# deterministic merge
# ----------------------------------------------------------------------
def test_merge_is_invariant_to_batch_grouping_and_order():
    """Same records => byte-identical merge, however they were batched."""
    tracers = []
    for index in range(3):
        tracer = Tracer(f"shard-{index}")
        with tracer.span("job", shard=index):
            tracer.event("progress", step=1)
        tracers.append(tracer)

    streams = [(f"shard-{i}", 1000 + i, t.records(with_metrics=False))
               for i, t in enumerate(tracers)]

    whole = merge_streams(streams)
    reversed_arrival = merge_streams(list(reversed(streams)))
    # split every stream into two "batches" shipped separately: the
    # tracer concatenates them per (source, pid) key, so the merge
    # input is the same record list either way
    split = merge_streams(
        (name, pid, records[:1] + records[1:]) for name, pid, records
        in streams)
    assert json.dumps(whole) == json.dumps(reversed_arrival)
    assert json.dumps(whole) == json.dumps(split)
    validate_trace_records(whole)
    # every record stays attributable to its origin process
    assert {(r["src"], r["pid"]) for r in whole} \
        == {(f"shard-{i}", 1000 + i) for i in range(3)}


def test_merge_repairs_torn_spans():
    """A killed child's dangling span_begin is closed, not fatal."""
    tracer = Tracer("victim")
    ctx = tracer.span("doomed")
    ctx.__enter__()  # never exited: the SIGKILL case
    records = tracer.records(with_metrics=False)
    # drop the synthesized closes records() adds, keeping the raw tear
    torn = [r for r in records if not r.get("truncated")]
    merged = merge_streams([("victim", 1, torn)])
    validate_trace_records(merged)
    closes = [r for r in merged if r["type"] == "span_end"]
    assert closes and all(r.get("truncated") for r in closes)


def test_merge_orders_by_logical_clock_across_processes():
    """RPC-witnessed clocks order cause before effect in the merge."""
    parent = Tracer("parent")
    with parent.span("submit"):
        pass
    # the child witnesses the parent's clock on RPC receipt, so all its
    # work sorts after the submit span that caused it
    child = Tracer("child")
    child.witness(parent.clock)
    with child.span("execute"):
        pass
    merged = merge_streams([
        ("child", 2, child.records(with_metrics=False)),
        ("parent", 1, parent.records(with_metrics=False)),
    ])
    names = [r["name"] for r in merged if r["type"] == "span_begin"]
    assert names == ["submit", "execute"]


# ----------------------------------------------------------------------
# correlation ids + flight recorder
# ----------------------------------------------------------------------
def test_correlation_id_round_trip():
    corr = correlation_id("abc123-def456", 7)
    assert corr == "abc123-def456#7"
    assert correlation_job(corr) == "abc123-def456"


def test_flight_recorder_retains_and_validates_per_job():
    recorder = FlightRecorder(max_jobs=2, max_records=8)
    for job in ("job-a", "job-b"):
        tracer = Tracer("shard-0")
        with tracer.correlate(correlation_id(job, 1)):
            with tracer.span("synthesize"):
                tracer.event("solver_done")
        recorder.observe(dict(r, src="shard-0", pid=1)
                         for r in tracer.records(with_metrics=False))
    # lookup by bare job id or by full correlation id
    for key in ("job-a", correlation_id("job-a", 1)):
        trace = recorder.trace(key)
        validate_trace_records(trace)
        assert all(r["corr"] == "job-a#1" for r in trace)
    assert recorder.trace("job-nope") is None
    # LRU: a third job evicts the oldest
    tracer = Tracer("shard-0")
    with tracer.correlate(correlation_id("job-c", 1)):
        tracer.event("solver_done")
    recorder.observe(dict(r, src="shard-0", pid=1)
                     for r in tracer.records(with_metrics=False))
    assert recorder.trace("job-a") is None
    assert recorder.trace("job-c") is not None


def test_flight_recorder_ring_bound_survives_validation():
    """A ring that wrapped (lost span begins) still yields a valid trace."""
    recorder = FlightRecorder(max_jobs=1, max_records=4)
    tracer = Tracer("shard-0")
    with tracer.correlate("job#1"):
        for index in range(6):
            with tracer.span("step", i=index):
                pass
    recorder.observe(dict(r, src="shard-0", pid=1)
                     for r in tracer.records(with_metrics=False))
    trace = recorder.trace("job")
    assert len(trace) <= 4 + 1  # ring bound (+1 synthesized close max)
    validate_trace_records(trace)


# ----------------------------------------------------------------------
# metric instance namespacing
# ----------------------------------------------------------------------
def test_metric_instances_do_not_collide():
    tracer = Tracer("host")
    tracer.metrics.gauge("service_queue_depth", instance="svc-a").set(3)
    tracer.metrics.gauge("service_queue_depth", instance="svc-b").set(9)
    snapshot = tracer.metrics.snapshot()
    assert snapshot["service_queue_depth[svc-a]"]["value"] == 3
    assert snapshot["service_queue_depth[svc-b]"]["value"] == 9
    # exposition keeps one metric family with distinct instance labels
    text = render_prometheus(series_from_sources({"host@1": snapshot}))
    assert text.count("# TYPE service_queue_depth gauge") == 1
    assert 'service_queue_depth{instance="svc-a"} 3' in text
    assert 'service_queue_depth{instance="svc-b"} 9' in text
    validate_prometheus_text(text)


def test_store_counters_are_instance_namespaced(tmp_path):
    from repro.obs.trace import use_tracer
    from repro.store import Store

    tracer = Tracer("host")
    with use_tracer(tracer):
        for name in ("alpha", "beta"):
            store = Store(tmp_path / name)
            store.put("0" * 64, "meta", {"which": name})
    snapshot = tracer.metrics.snapshot()
    keys = [k for k in snapshot if k.startswith("store_puts")]
    assert sorted(keys) == ["store_puts[alpha]", "store_puts[beta]"]
    assert all(snapshot[k]["value"] == 1 for k in keys)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_render_prometheus_histogram_buckets_are_cumulative():
    tracer = Tracer("host")
    hist = tracer.metrics.histogram("latency")
    for value in (0.0005, 0.005, 0.005, 2.0):
        hist.observe(value)
    snap = tracer.metrics.snapshot()["latency"]
    text = render_prometheus([("latency", {"instance": "x"}, snap)])
    validate_prometheus_text(text)
    lines = dict(line.rsplit(" ", 1) for line in text.splitlines()
                 if not line.startswith("#"))
    assert lines['latency_bucket{instance="x",le="0.001"}'] == "1"
    assert lines['latency_bucket{instance="x",le="0.01"}'] == "3"
    assert lines['latency_bucket{instance="x",le="+Inf"}'] == "4"
    assert lines['latency_count{instance="x"}'] == "4"


def test_render_prometheus_rejects_kind_collision():
    with pytest.raises(ValueError, match="both"):
        render_prometheus([
            ("thing", {}, {"kind": "counter", "value": 1}),
            ("thing", {}, {"kind": "gauge", "value": 2}),
        ])


def test_validate_prometheus_text_rejects_malformed():
    validate_prometheus_text(
        "# HELP up help\n# TYPE up gauge\nup 1\n")
    for bad in (
            "",  # no samples
            "up one\n",  # non-numeric value
            "# TYPE up bogus\nup 1\n",  # bad TYPE
            "# TYPE up gauge\n# TYPE up gauge\nup 1\n",  # duplicate TYPE
            '# TYPE up gauge\nup{bad label="x"} 1\n',  # label syntax
    ):
        with pytest.raises(ValueError):
            validate_prometheus_text(bad)


# ----------------------------------------------------------------------
# end to end: the platform ships, merges and serves telemetry
# ----------------------------------------------------------------------
def test_platform_merged_telemetry_end_to_end(tmp_path):
    specs = [small_spec(s) for s in range(4)]
    trace_dir = tmp_path / "traces"
    with ShardCoordinator(str(tmp_path / "platform"), shards=2, workers=1,
                          options=OPTS, trace_dir=str(trace_dir)) as coord:
        with ServiceHTTPServer(coord) as server:
            jobs = [submit_job(server.url, spec_to_dict(s)) for s in specs]
            assert {j["shard"] for j in jobs} == {0, 1}
            finals = [wait_job(server.url, j["id"], timeout=180)
                      for j in jobs]
            assert all(f["state"] == "done" for f in finals)
            corrs = {f["corr"] for f in finals}
            assert all(correlation_job(c) in {j["id"] for j in jobs}
                       for c in corrs)

            # /metrics: valid exposition with platform rollups and
            # per-shard instance labels
            text = fetch_metrics(server.url)
            assert validate_prometheus_text(text) > 0
            assert 'platform_jobs{state="done"} 4' in text
            assert 'instance="shard-0"' in text
            assert 'instance="shard-1"' in text

            # /jobs/<id>/trace: retained flight trace, schema-valid,
            # correlation intact
            body = fetch_trace(server.url, jobs[0]["id"])
            assert body["job"] == jobs[0]["id"]
            validate_trace_records(body["records"])
            assert body["records"]
            assert {r["corr"] for r in body["records"]} \
                == {finals[0]["corr"]}

            # stats carry the queue/latency/telemetry satellites
            stats = coord.stats()
            assert stats["telemetry"]["sources"] >= 2
            assert stats["latency"]["service_job_latency"]["count"] == 4
            assert stats["queue_depth_max"] >= 1

        merged = coord.telemetry_records()
        validate_trace_records(merged)
        srcs = {r["src"] for r in merged}
        assert "coordinator" in srcs
        assert {"shard-0", "shard-1"} <= srcs
        with_corr = {r.get("corr") for r in merged} - {None}
        assert corrs <= with_corr
        coord.stop(drain="inflight", deadline=60)
    # the merged artifact lands on stop and validates standalone
    artifact = trace_dir / "merged-trace.jsonl"
    assert artifact.exists()
    from repro.obs import read_trace_jsonl
    data = read_trace_jsonl(artifact)
    validate_trace_records(data.records)


def test_platform_telemetry_survives_shard_sigkill(tmp_path):
    """A SIGKILLed shard's partial batch is dropped cleanly; counters
    stay monotonic across the respawn and the merge still validates."""
    with ShardCoordinator(str(tmp_path / "platform"), shards=2, workers=1,
                          options=OPTS) as coord:
        job = coord.submit(spec_to_dict(small_spec()))
        coord.wait(job["id"], timeout=180)
        coord.pull_telemetry()
        before = aggregated(coord.tracer)
        before_jobs = sum(snap.get("value", 0)
                          for key, snap in before.items()
                          if key.startswith("service_jobs_done"))
        assert before_jobs >= 1

        old_pid = coord.kill_shard(job["shard"])
        assert old_pid is not None
        # a fresh submission forces respawn + replay on that shard
        job2 = coord.submit(spec_to_dict(small_spec(seed=1)))
        coord.wait(job2["id"], timeout=180)
        deadline = time.time() + 30
        while time.time() < deadline:
            coord.pull_telemetry()
            new_pids = {pid for name, pid in coord.tracer.streams()
                        if name == f"shard-{job['shard']}"}
            if len(new_pids) >= 2:
                break
            time.sleep(0.2)
        # the respawned incarnation reports as a new (source, pid) stream
        assert len(new_pids) >= 2 and old_pid in new_pids

        after = aggregated(coord.tracer)
        for name, snap in before.items():
            if snap.get("kind") == "counter":
                assert after.get(name, {}).get("value", 0) \
                    >= snap["value"], name
        merged = coord.telemetry_records()
        validate_trace_records(merged)
        coord.stop(drain="inflight", deadline=60)


def test_platform_telemetry_lands_in_the_installed_tracer(tmp_path):
    """The coordinator absorbs every shard batch into the tracer it runs
    under, so a caller's tracer holds the shards' records itself."""
    from repro.service.service import job_id_for, options_from_dict

    tracer = Tracer("platform")
    with use_tracer(tracer):
        coord = ShardCoordinator(str(tmp_path / "platform"), shards=2,
                                 workers=1, options=OPTS)
        by_shard = {}
        for seed in range(32):
            spec = small_spec(seed)
            job_id = job_id_for(spec, options_from_dict(OPTS))
            by_shard.setdefault(coord.route(job_id), spec)
        with coord:
            jobs = [coord.submit(spec_to_dict(by_shard[i])) for i in (0, 1)]
            assert [j["shard"] for j in jobs] == [0, 1]
            finals = [coord.wait(j["id"], timeout=180) for j in jobs]
            assert all(f["state"] == "done" for f in finals)
            coord.stop(drain="inflight", deadline=60)
    # telemetry_records() is this tracer's records()
    assert coord.tracer is tracer
    records = tracer.records()
    validate_trace_records(records)
    done = {(r["src"], r["corr"]) for r in records
            if r["type"] == "event" and r["name"] == "job_done"}
    assert done == {("shard-0", finals[0]["corr"]),
                    ("shard-1", finals[1]["corr"])}
    metric_sources = {r["src"] for r in records if r["type"] == "metric"}
    assert {"shard-0", "shard-1"} <= metric_sources
