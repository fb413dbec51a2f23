"""Tests for the observability layer (repro.obs).

Covers the tracer core (nesting, cross-thread parentage, the bounded
buffer), metrics, manifests, both exporters with their validators, the
timeline renderers, the CLI surface, and an end-to-end traced 12-pin
synthesis — including the guarantee that results are identical with
tracing on and off.
"""

import json
import threading

import pytest

from repro.cases import chip_sw1
from repro.core import BindingPolicy, SynthesisOptions, synthesize
from repro.obs import (
    OBS_SCHEMA,
    MetricsRegistry,
    TraceData,
    Tracer,
    ascii_timeline,
    case_fingerprint,
    chrome_trace_events,
    config_fingerprint,
    current_tracer,
    format_comparison,
    format_summary,
    incumbent_trajectory,
    obs_event,
    obs_span,
    read_trace_jsonl,
    run_manifest,
    save_manifest,
    use_tracer,
    validate_chrome_trace,
    validate_trace_records,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.opt import incremental


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------
def test_span_nesting_and_parentage():
    tracer = Tracer("t")
    with tracer.span("outer") as outer_id:
        with tracer.span("inner") as inner_id:
            tracer.event("ping", detail=1)
    records = tracer.records(with_metrics=False)
    validate_trace_records(records)
    begins = {r["name"]: r for r in records if r["type"] == "span_begin"}
    assert "parent" not in begins["outer"]
    assert begins["inner"]["parent"] == outer_id
    (event,) = [r for r in records if r["type"] == "event"]
    assert event["span"] == inner_id
    assert event["attrs"] == {"detail": 1}


def test_span_ids_and_seq_are_strictly_increasing():
    tracer = Tracer()
    for _ in range(5):
        with tracer.span("s"):
            tracer.event("e")
    records = tracer.records(with_metrics=False)
    seqs = [r["seq"] for r in records]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    ts = [r["t"] for r in records]
    assert ts == sorted(ts)


def test_explicit_parent_links_across_threads():
    tracer = Tracer()
    with tracer.span("submit") as submit_id:

        def member():
            with tracer.span("member", parent=submit_id):
                tracer.event("incumbent", objective=1.0)

        t = threading.Thread(target=member)
        t.start()
        t.join()
    records = tracer.records(with_metrics=False)
    validate_trace_records(records)
    member_begin = next(r for r in records
                        if r["type"] == "span_begin" and r["name"] == "member")
    assert member_begin["parent"] == submit_id
    assert member_begin["tid"] != 0  # recorded from a second thread


def test_concurrent_producers_keep_seq_order():
    tracer = Tracer()

    def worker(n):
        for _ in range(200):
            tracer.event("tick", worker=n)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = tracer.records(with_metrics=False)
    validate_trace_records(records)  # includes the seq-order invariant
    assert len(records) == 800


def test_bounded_buffer_drops_events_but_not_span_ends():
    tracer = Tracer(max_events=10)
    with tracer.span("outer"):
        for _ in range(50):
            tracer.event("flood")
    assert tracer.dropped == 50 - (10 - 1)  # 1 slot went to span_begin
    records = tracer.records(with_metrics=False)
    # span_end lands beyond the cap, but is never dropped
    assert records[-1]["type"] == "span_end"
    validate_trace_records(records)


def test_snapshot_closes_still_open_spans_as_truncated():
    tracer = Tracer()
    release = threading.Event()
    entered = threading.Event()

    def stuck():
        with tracer.span("stuck"):
            entered.set()
            release.wait(5)

    t = threading.Thread(target=stuck)
    t.start()
    entered.wait(5)
    records = tracer.records(with_metrics=False)
    release.set()
    t.join()
    validate_trace_records(records)
    end = next(r for r in records
               if r["type"] == "span_end" and r["name"] == "stuck")
    assert end.get("truncated") is True


def test_use_tracer_installs_and_restores():
    assert current_tracer() is None
    a, b = Tracer("a"), Tracer("b")
    with use_tracer(a):
        assert current_tracer() is a
        with use_tracer(b):
            assert current_tracer() is b
        assert current_tracer() is a
    assert current_tracer() is None


def test_obs_helpers_are_noops_when_disabled():
    assert current_tracer() is None
    obs_event("incumbent", objective=1.0)  # must not raise
    with obs_span("phantom") as span_id:
        assert span_id is None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def test_metrics_counter_gauge_histogram():
    reg = MetricsRegistry()
    reg.counter("nodes").inc()
    reg.counter("nodes").inc(4)
    reg.gauge("depth").set(7)
    reg.gauge("depth").dec(2)
    h = reg.histogram("seconds")
    for v in (0.005, 0.5, 50.0):
        h.observe(v)
    snap = reg.snapshot()
    assert snap["nodes"] == {"kind": "counter", "value": 5}
    assert snap["depth"]["value"] == 5
    assert snap["seconds"]["count"] == 3
    assert snap["seconds"]["min"] == 0.005
    assert snap["seconds"]["max"] == 50.0
    assert snap["seconds"]["buckets"]["0.01"] == 1
    assert snap["seconds"]["buckets"]["1.0"] == 1
    assert snap["seconds"]["buckets"]["100.0"] == 1


def test_metrics_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("n")
    with pytest.raises(TypeError, match="is a Counter"):
        reg.gauge("n")


def test_metrics_records_shape():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    (record,) = reg.records()
    assert record == {"type": "metric", "name": "c",
                      "kind": "counter", "value": 1}


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------
def test_run_manifest_fields(tmp_path):
    spec = chip_sw1(BindingPolicy.FIXED)
    options = SynthesisOptions(backend="branch_bound")
    manifest = run_manifest(spec, options, extra={"note": "test"})
    for key in ("schema", "created_unix", "python", "platform", "machine",
                "git", "libraries", "lp_engine", "case", "case_fingerprint",
                "config_fingerprint", "backend", "note"):
        assert key in manifest, key
    assert manifest["schema"] == OBS_SCHEMA
    assert manifest["lp_engine"] == incremental.LP_ENGINE
    assert manifest["case"] == spec.name
    assert manifest["backend"] == "branch_bound"
    path = save_manifest(manifest, tmp_path / "manifest.json")
    assert json.loads(path.read_text())["case"] == spec.name


def test_fingerprints_are_stable_and_sensitive():
    spec = chip_sw1(BindingPolicy.FIXED)
    assert case_fingerprint(spec) == case_fingerprint(chip_sw1(BindingPolicy.FIXED))
    assert case_fingerprint(spec) != case_fingerprint(chip_sw1(BindingPolicy.UNFIXED))
    a = SynthesisOptions(backend="highs")
    b = SynthesisOptions(backend="branch_bound")
    assert config_fingerprint(a) == config_fingerprint(SynthesisOptions(backend="highs"))
    assert config_fingerprint(a) != config_fingerprint(b)


def test_config_fingerprint_ignores_attached_tracer():
    plain = SynthesisOptions()
    traced = SynthesisOptions(trace=Tracer())
    assert config_fingerprint(plain) == config_fingerprint(traced)


# ---------------------------------------------------------------------------
# exporters and validators
# ---------------------------------------------------------------------------
def _small_trace() -> Tracer:
    tracer = Tracer("unit")
    with tracer.span("solve", kind="phase"):
        tracer.event("incumbent", objective=10.0, source="heuristic")
        with tracer.span("presolve"):
            pass
        tracer.event("incumbent", objective=4.0, source="search")
        tracer.event("cut_round", cuts=3)
    tracer.metrics.counter("nodes").inc(7)
    return tracer


def test_jsonl_roundtrip_with_manifest(tmp_path):
    tracer = _small_trace()
    manifest = run_manifest(options=SynthesisOptions())
    path = write_trace_jsonl(tracer, tmp_path / "trace.jsonl",
                             manifest=manifest)
    data = read_trace_jsonl(path)
    assert data.header["schema"] == OBS_SCHEMA
    assert data.header["name"] == "unit"
    assert data.manifest["config_fingerprint"] == manifest["config_fingerprint"]
    assert [r["name"] for r in data.by_type("span_begin")] == ["solve", "presolve"]
    assert len(data.events_named("incumbent")) == 2
    (metric,) = data.by_type("metric")
    assert metric["name"] == "nodes" and metric["value"] == 7
    validate_trace_records(data.records)


def test_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "header", "schema": "repro-obs-v99"}\n')
    with pytest.raises(ValueError, match="unsupported trace schema"):
        read_trace_jsonl(path)


def test_validator_rejects_broken_streams():
    records = _small_trace().records(with_metrics=False)
    validate_trace_records(records)

    shuffled = [dict(r) for r in records]
    shuffled[0]["seq"], shuffled[1]["seq"] = shuffled[1]["seq"], shuffled[0]["seq"]
    with pytest.raises(ValueError, match="seq"):
        validate_trace_records(shuffled)

    unclosed = [dict(r) for r in records
                if not (r["type"] == "span_end" and r["name"] == "solve")]
    with pytest.raises(ValueError, match="never closed"):
        validate_trace_records(unclosed)

    orphan = [dict(r) for r in records]
    orphan[1] = dict(orphan[1])
    for r in orphan:
        if r["type"] == "span_begin" and r["name"] == "presolve":
            r["parent"] = 99999
    with pytest.raises(ValueError, match="never begun"):
        validate_trace_records(orphan)


def test_chrome_trace_export_and_validation(tmp_path):
    tracer = _small_trace()
    path = write_chrome_trace(tracer, tmp_path / "trace.json",
                              manifest=run_manifest())
    payload = json.loads(path.read_text())
    validate_chrome_trace(payload)
    assert payload["otherData"]["schema"] == OBS_SCHEMA
    assert "git" in payload["otherData"]["manifest"]
    phases = [ev["ph"] for ev in payload["traceEvents"]]
    assert phases.count("B") == phases.count("E") == 2
    assert "i" in phases and "C" in phases
    instant = next(ev for ev in payload["traceEvents"] if ev["ph"] == "i")
    assert instant["s"] == "t"


def test_chrome_validator_rejects_unbalanced():
    events = chrome_trace_events(_small_trace().records())
    unbalanced = [ev for ev in events if ev["ph"] != "E"]
    with pytest.raises(ValueError, match="unbalanced"):
        validate_chrome_trace({"traceEvents": unbalanced})
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"foo": []})


def test_format_summary_and_comparison(tmp_path):
    tracer = _small_trace()
    path = write_trace_jsonl(tracer, tmp_path / "a.jsonl",
                             manifest=run_manifest(options=SynthesisOptions()))
    data = read_trace_jsonl(path)
    text = format_summary(data)
    assert "trace 'unit'" in text
    assert "solve" in text and "presolve" in text
    assert "incumbent x2" in text
    assert "objective=4.0" in text
    assert "nodes" in text

    diff = format_comparison(data, data)
    assert "config_fingerprint" in diff and "==" in diff
    assert "solve" in diff


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------
def test_incumbent_trajectory_and_ascii_timeline():
    data = TraceData(records=_small_trace().records())
    points = incumbent_trajectory(data)
    assert [p[1] for p in points] == [10.0, 4.0]
    assert points[0][2] == "heuristic" and points[1][2] == "search"
    chart = ascii_timeline(data)
    assert chart.count("*") == 2
    assert "10.000" in chart and "4.000" in chart
    assert "'c' = cut round" in chart


def test_ascii_timeline_without_incumbents():
    assert "no incumbent" in ascii_timeline(TraceData())


def test_svg_timeline_renders():
    from repro.render import render_incumbent_timeline

    data = TraceData(header={"name": "unit"},
                     records=_small_trace().records())
    svg = render_incumbent_timeline(data)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "incumbents: unit" in svg
    assert render_incumbent_timeline(TraceData()).count("<circle") == 0


# ---------------------------------------------------------------------------
# end-to-end: traced synthesis
# ---------------------------------------------------------------------------
def test_traced_synthesis_records_full_pipeline(tmp_path):
    spec = chip_sw1(BindingPolicy.FIXED)  # the paper's 12-pin case
    tracer = Tracer(spec.name)
    options = SynthesisOptions(backend="branch_bound", trace=tracer)
    result = synthesize(spec, options)
    assert result.status.solved
    assert current_tracer() is None  # uninstalled afterwards

    records = tracer.records()
    validate_trace_records(records)

    begun = {}
    for r in records:
        if r["type"] == "span_begin":
            begun.setdefault(r["name"], []).append(r)
    for phase in ("synthesize", "catalog", "build", "heuristic", "solve",
                  "extract", "analyze", "pressure", "verify"):
        assert phase in begun, phase
    (root,) = begun["synthesize"]
    assert "parent" not in root
    for phase in ("catalog", "build", "solve", "pressure"):
        # the main pipeline instance of each phase hangs off the root
        # (the pressure ILP opens its own nested "solve")
        assert any(r["parent"] == root["span"] for r in begun[phase]), phase

    incumbents = [r for r in records
                  if r["type"] == "event" and r["name"] == "incumbent"]
    assert incumbents, "a solved run must report at least one incumbent"
    # the final objective was announced as an incumbent at some point
    # (other incumbents belong to the nested pressure clique-cover ILP)
    objectives = [r["attrs"]["objective"] for r in incumbents]
    assert any(obj == pytest.approx(result.objective) for obj in objectives)

    metric_names = {r["name"] for r in records if r["type"] == "metric"}
    assert {"synthesize_runs", "lp_calls",
            "lp_iterations_per_resolve"} <= metric_names
    assert "lp_resolves" not in metric_names

    # both exporters accept the real stream
    jsonl = write_trace_jsonl(tracer, tmp_path / "run.jsonl",
                              manifest=run_manifest(spec, options))
    validate_trace_records(read_trace_jsonl(jsonl).records)
    chrome = write_chrome_trace(tracer, tmp_path / "run.json")
    validate_chrome_trace(json.loads(chrome.read_text()))


def test_tracing_does_not_change_results():
    spec = chip_sw1(BindingPolicy.FIXED)
    plain = synthesize(spec, SynthesisOptions(backend="branch_bound"))
    traced = synthesize(spec, SynthesisOptions(backend="branch_bound",
                                               trace=Tracer()))
    assert traced.objective == plain.objective
    assert traced.binding == plain.binding
    assert traced.status == plain.status


def test_presolve_span_nests_in_solve_and_stays_out_of_its_ledger(
        monkeypatch):
    """The backend's presolve is a span inside the "solve" span, while
    the ledger's "solve" entry excludes the presolve time."""
    import importlib
    import time

    # repro.opt re-exports the function under the module's own name.
    presolve_module = importlib.import_module("repro.opt.presolve")
    real = presolve_module.presolve

    def slow_presolve(model):
        time.sleep(0.2)
        return real(model)

    monkeypatch.setattr(presolve_module, "presolve", slow_presolve)
    tracer = Tracer()
    result = synthesize(chip_sw1(BindingPolicy.FIXED),
                        SynthesisOptions(backend="branch_bound",
                                         pressure_sharing=False,
                                         trace=tracer))
    assert result.status.solved
    records = tracer.records(with_metrics=False)
    begins = {r["span"]: r for r in records if r["type"] == "span_begin"}
    ends = {r["span"]: r for r in records if r["type"] == "span_end"}
    (presolve,) = [r for r in begins.values() if r["name"] == "presolve"]
    solve = begins[presolve["parent"]]
    assert solve["name"] == "solve"
    assert solve["attrs"]["backend"] == "branch_bound"
    assert ends[solve["span"]]["dur"] >= ends[presolve["span"]]["dur"] >= 0.2
    assert result.timings["presolve"] >= 0.2
    assert result.timings["solve"] < 0.2


def test_registry_counts_equal_the_results(tmp_path, monkeypatch):
    """Every published count reaches the registry once, as a counter
    holding its sum over the runs' ``result.counters``."""
    from repro.cases import generate_case
    from repro.core.synthesizer import PUBLISHED_COUNTS
    from repro.opt.solvers import register_backend, unregister_backend
    from repro.opt.solvers.parallel_bb import ParallelBranchBoundBackend
    from repro.service import SynthesisService
    from repro.service import service as service_module
    from repro.store import Store
    from repro.testing import FaultPlan, install_faulty_backend

    small = generate_case(seed=5, switch_size=8, n_flows=3, n_inlets=2,
                          n_conflicts=0, binding=BindingPolicy.FIXED)
    # 12 pins, 3 flows, clockwise: the search reaches its rounds.
    rounds = generate_case(1, switch_size=12, n_flows=3, n_conflicts=1,
                           binding=BindingPolicy.CLOCKWISE)
    tracer = Tracer()
    results = []

    def run(spec, **kw):
        result = synthesize(spec, SynthesisOptions(time_limit=120,
                                                   trace=tracer, **kw))
        assert result.status.solved, result.error
        results.append(result)
        return result

    run(small, backend="highs")
    run(chip_sw1(BindingPolicy.FIXED), backend="branch_bound")
    register_backend("chaos_bb", lambda: ParallelBranchBoundBackend(
        2, fault_plan=FaultPlan(schedule=["kill"])), replace=True)
    try:
        chaos = run(rounds, backend="chaos_bb")
    finally:
        unregister_backend("chaos_bb")
    if chaos.counters["bb_workers"] < 2:  # pragma: no cover
        pytest.skip("worker pool unavailable in this environment")
    assert chaos.counters["bb_rounds"] >= 1
    assert chaos.counters["bb_worker_restarts"] >= 1

    store = Store(tmp_path / "store")
    assert run(small, store=store).counters.get("store_put") == 1
    assert run(small, store=store).counters.get("store_hit") == 1
    with install_faulty_backend(plan=FaultPlan(schedule=["crash"])):
        assert run(small, backend="faulty",
                   pressure_sharing=False).counters.get("degraded") == 1

    real = service_module.synthesize

    def recorded(spec, options=None, context=None):
        result = real(spec, options, context)
        results.append(result)
        return result

    monkeypatch.setattr(service_module, "synthesize", recorded)
    with use_tracer(tracer):
        with SynthesisService(workers=1) as service:
            job_id = service.submit(generate_case(
                seed=6, switch_size=8, n_flows=2, n_inlets=2,
                n_conflicts=0, binding=BindingPolicy.FIXED))
            assert service.wait(job_id, timeout=120).state == "done"
    assert len(results) == 7

    snapshot = tracer.metrics.snapshot()
    for name in PUBLISHED_COUNTS:
        total = sum(r.counters.get(name, 0) for r in results)
        if total:
            assert snapshot[name] == {"kind": "counter", "value": total}, name
        elif name in snapshot:
            assert snapshot[name]["kind"] == "counter", name
            assert snapshot[name]["value"] == 0, name
    assert snapshot["bb_worker_restarts"]["value"] \
        == chaos.counters["bb_worker_restarts"]
    assert "node_order_hash" not in snapshot
    assert "lp_resolves" not in snapshot
    assert snapshot["bb_workers"]["kind"] == "gauge"


# ---------------------------------------------------------------------------
# batch integration
# ---------------------------------------------------------------------------
def test_batch_trace_dir_and_progress(tmp_path):
    from repro.cases import generate_case
    from repro.experiments.batch import run_batch

    specs = [generate_case(seed=5, switch_size=8, n_flows=3, n_inlets=2),
             generate_case(seed=7, switch_size=8, n_flows=3, n_inlets=2)]
    seen = []
    parent = Tracer("batch")
    with use_tracer(parent):
        batch = run_batch(specs, SynthesisOptions(),
                          trace_dir=tmp_path / "traces",
                          on_progress=lambda done, total, row:
                              seen.append((done, total, row["case"])))
    assert len(batch.rows) == 2
    assert seen == [(1, 2, specs[0].name), (2, 2, specs[1].name)]

    artifacts = sorted((tmp_path / "traces").glob("*.jsonl"))
    assert len(artifacts) == 2
    data = read_trace_jsonl(artifacts[0])
    validate_trace_records(data.records)
    assert data.manifest["batch_index"] == 0
    assert data.events_named("synthesis_result")

    parent_records = parent.records()
    assert len([r for r in parent_records
                if r["type"] == "event" and r["name"] == "batch_row"]) == 2
    gauges = {r["name"]: r for r in parent_records if r["type"] == "metric"}
    assert gauges["batch_rows_done"]["value"] == 2
    assert gauges["batch_queue_depth"]["value"] == 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_trace_and_obs_subcommands(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "run"
    rc = main(["synthesize", "chip_sw1", "--policy", "fixed",
               "--backend", "branch_bound",
               "--trace", str(trace), "--trace-format", "both"])
    assert rc == 0
    jsonl = trace.with_suffix(".jsonl")
    chrome = trace.with_suffix(".chrome.json")
    assert jsonl.exists() and chrome.exists()
    validate_chrome_trace(json.loads(chrome.read_text()))
    capsys.readouterr()

    assert main(["obs", "summarize", str(jsonl), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "schema valid" in out and "spans:" in out

    assert main(["obs", "compare", str(jsonl), str(jsonl)]) == 0
    assert "config_fingerprint" in capsys.readouterr().out

    svg = tmp_path / "timeline.svg"
    assert main(["obs", "timeline", str(jsonl), "--svg", str(svg)]) == 0
    assert "incumbent" in capsys.readouterr().out
    assert svg.read_text().startswith("<svg")
