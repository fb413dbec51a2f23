"""Tests for the distributed telemetry plane (`repro.obs.telemetry`).

Covers the wire contract (framed batches that hand records over,
torn-batch rejection, the `foreign` grandchild relay), the bounded
store an absorbing tracer keeps, the deterministic merge
(byte-identical output for any batch grouping or arrival order), job
traces out of that store, Prometheus exposition + its validator,
metric instance namespacing, and the end-to-end platform path: two
shard processes plus the coordinator yield one merged
correlation-carrying `repro-obs-v1` stream served over
``GET /metrics`` and ``GET /jobs/<id>/trace``.
"""

import json
import os
import signal
import time

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy
from repro.io import spec_to_dict
from repro.obs import (read_trace_jsonl, validate_trace_records,
                       write_trace_jsonl)
from repro.obs.telemetry import (
    TelemetryShipper,
    aggregate_metrics,
    correlated_trace,
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


def test_shipper_hands_over_what_it_ships():
    """A child that ships every round keeps none of what it shipped, so
    its cap never fills and no event is lost however long it runs."""
    tracer = Tracer("shard-0", max_events=100)
    shipper = TelemetryShipper(tracer, source="shard-0")
    shipped = []
    for job in range(60):
        with tracer.span("synthesize"):
            pass
        tracer.event("job_done", job=job)
        batch = shipper.collect()
        shipped += batch["records"]
        assert len(tracer) == 0
        assert tracer.records(with_metrics=False) == []
    done = [r["attrs"]["job"] for r in shipped
            if r["type"] == "event" and r["name"] == "job_done"]
    assert done == list(range(60))
    assert tracer.dropped == 0 and batch["dropped"] == 0


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


def ship_job(shipper, job):
    """One job's span and event on the shipper's tracer, shipped."""
    tracer = shipper.tracer
    with tracer.correlate(correlation_id(job, 1)):
        with tracer.span("synthesize"):
            tracer.event("job_done")
    return shipper.collect()


def test_absorbed_store_is_bounded_and_counts_evictions(tmp_path):
    """Two streams share one store of at most ``max_events`` records;
    the oldest go first, each counted in its own stream's drops."""
    top = Tracer("coordinator", max_events=20)
    shippers = [TelemetryShipper(Tracer(f"shard-{i}")) for i in (0, 1)]
    sent = 0
    for job in range(12):
        batch = ship_job(shippers[job % 2], f"job-{job}")
        sent += batch["n"]
        assert top.absorb_batch(batch)
    assert sent == 36  # three records per job
    records = top.records(with_metrics=False)
    validate_trace_records(records)
    held = [r for r in records
            if r["src"] != "coordinator" and not r.get("truncated")]
    assert len(held) <= 20
    streams = top.streams()
    assert sum(s["dropped"] for s in streams.values()) == 36 - 20
    # the 16 oldest: jobs 0-4 whole, then job 5's span begin
    assert {name: s["dropped"] for (name, _), s in streams.items()} \
        == {"shard-0": 9, "shard-1": 7}
    newest = correlated_trace(top, "job-11")
    assert [r["type"] for r in newest] \
        == ["span_begin", "event", "span_end"]
    assert correlated_trace(top, "job-0") is None
    assert not [r for r in records if r.get("corr") == "job-0#1"]
    # a trace written from the tracer says what it is missing
    path = write_trace_jsonl(top, tmp_path / "trace.jsonl")
    assert read_trace_jsonl(path).header["dropped"] == 36 - 20


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


def test_job_trace_retains_and_validates_per_job():
    store = Tracer("coordinator", max_events=6)  # room for two jobs
    shipper = TelemetryShipper(Tracer("shard-0"))
    for job in ("job-a", "job-b"):
        store.absorb_batch(ship_job(shipper, job))
    # lookup by bare job id or by full correlation id
    for key in ("job-a", correlation_id("job-a", 1)):
        trace = correlated_trace(store, key)
        validate_trace_records(trace)
        assert all(r["corr"] == "job-a#1" for r in trace)
    assert correlated_trace(store, "job-nope") is None
    # a third job evicts the oldest
    store.absorb_batch(ship_job(shipper, "job-c"))
    assert correlated_trace(store, "job-a") is None
    assert correlated_trace(store, "job-b") is not None
    assert correlated_trace(store, "job-c") is not None


def test_job_trace_survives_evicted_span_begins():
    """A store that evicted span begins still yields a valid trace."""
    store = Tracer("coordinator", max_events=5)
    tracer = Tracer("shard-0")
    with tracer.correlate("job#1"):
        for index in range(6):
            with tracer.span("step", i=index):
                pass
    store.absorb_batch(TelemetryShipper(tracer).collect())
    trace = correlated_trace(store, "job")
    assert len(trace) <= 5 + 1  # store bound (+1 synthesized close max)
    validate_trace_records(trace)


def scanned_trace(tracer, key):
    """``correlated_trace`` by a full scan of the absorbed store."""
    found = {}
    for stream, record in list(tracer._absorbed):
        corr = record.get("corr")
        if corr and corr.startswith(key):
            found.setdefault(corr, {}).setdefault(stream, []).append(record)
    if key not in found:
        jobs = [corr for corr in found if correlation_job(corr) == key]
        if not jobs:
            return None
        key = jobs[-1]
    return merge_streams(
        [(name, pid, records) for (name, pid), records in found[key].items()])


def test_job_trace_lookup_matches_a_full_scan_past_the_bound():
    """Past the store's bound, the correlation map answers every
    retained job as a full scan of the store does, by correlation ID
    and by job id, and an evicted job is None."""
    top = Tracer("coordinator", max_events=60)
    shippers = [TelemetryShipper(Tracer(f"shard-{i}")) for i in (0, 1)]
    corrs = []
    for job in range(30):
        # jobs of two to six records; every fifth is submitted twice
        for submission in (1, 2) if job % 5 == 0 else (1,):
            corr = correlation_id(f"job-{job}", submission)
            tracer = shippers[job % 2].tracer
            with tracer.correlate(corr):
                with tracer.span("synthesize"):
                    for step in range(job % 5):
                        tracer.event("progress", step=step)
            tracer.event("heartbeat")  # uncorrelated
            assert top.absorb_batch(shippers[job % 2].collect())
            corrs.append(corr)
    assert sum(s["dropped"] for s in top.streams().values()) > 0
    keys = corrs + sorted({correlation_job(corr) for corr in corrs})
    answered = evicted = 0
    for key in keys:
        expected = scanned_trace(top, key)
        assert correlated_trace(top, key) == expected, key
        if expected is None:
            evicted += 1
        else:
            answered += 1
            validate_trace_records(expected)
    assert answered and evicted
    assert correlated_trace(top, "job-0") is None
    assert correlated_trace(top, "job-25")[0]["corr"] == "job-25#2"
    assert correlated_trace(top, "job-nope") is None

    # A relaying tracer hands the map over along with its store.
    middle = Tracer("shard-0")
    middle.absorb_batch(TelemetryShipper(Tracer("bb-worker")).collect())
    worker = TelemetryShipper(Tracer("bb-worker"))
    with worker.tracer.correlate("job-x#1"):
        worker.tracer.event("incumbent")
    middle.absorb_batch(worker.collect())
    assert correlated_trace(middle, "job-x") is not None
    top.absorb_batch(TelemetryShipper(middle).collect())
    assert correlated_trace(middle, "job-x") is None
    assert correlated_trace(top, "job-x") == scanned_trace(top, "job-x")


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


def test_metrics_fold_incarnations_into_one_series(tmp_path):
    """Two incarnations of shard-0 are one source on ``/metrics``, and
    a store every shard counts into is one series."""
    tracer = Tracer("coordinator")
    for source, pid, jobs in (("shard-0", 100, 3), ("shard-0", 200, 1),
                              ("shard-1", 300, 2)):
        child = Tracer(source)
        child.metrics.counter("service_jobs_done", instance=source).inc(jobs)
        child.metrics.gauge("service_in_flight", instance=source).set(pid)
        child.metrics.counter("nodes").inc(jobs)
        child.metrics.counter("store_puts", instance="store").inc(jobs)
        batch = TelemetryShipper(child).collect()
        batch["pid"] = pid  # simulate distinct incarnations
        tracer.absorb_batch(batch)
    coord = ShardCoordinator(str(tmp_path / "platform"), shards=2)
    coord.tracer = tracer
    text = render_prometheus(series_from_sources(coord.metrics_snapshot()))
    assert validate_prometheus_text(text) == 7  # 3 per shard + 1 store
    # counters sum across incarnations, gauges take the newest
    assert 'service_jobs_done{instance="shard-0"} 4' in text
    assert 'nodes{instance="shard-0"} 4' in text
    assert 'service_in_flight{instance="shard-0"} 200' in text
    assert 'store_puts{instance="store"} 6' in text


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
            '# TYPE up gauge\nup{a="1",b="2"} 1\nup{b="2",a="1"} 2\n',  # twice
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

            # /jobs/<id>/trace: retained job trace, schema-valid,
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
