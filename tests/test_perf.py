"""Tests for the perf instrumentation module (repro.perf)."""

import time

import pytest

from repro.perf import (
    PhaseTimings,
    emit_bench_json,
    format_phase_table,
    load_bench_json,
)


def test_phase_timings_add_and_total():
    t = PhaseTimings()
    t.add("solve", 1.0)
    t.add("solve", 0.5)
    t.add("build", 0.25)
    assert t["solve"] == pytest.approx(1.5)
    assert t.total == pytest.approx(1.75)


def test_phase_timings_merge_with_prefix():
    outer = PhaseTimings({"solve": 1.0})
    inner = {"presolve": 0.2, "solve": 0.7}
    outer.merge(inner)
    assert outer["solve"] == pytest.approx(1.7)
    assert outer["presolve"] == pytest.approx(0.2)
    prefixed = PhaseTimings()
    prefixed.merge(inner, prefix="sub_")
    assert set(prefixed) == {"sub_presolve", "sub_solve"}


def test_phase_timings_ordered_canonical_first():
    t = PhaseTimings({"zz_custom": 1.0, "solve": 1.0, "build": 1.0})
    assert t.ordered() == ["build", "solve", "zz_custom"]


def test_recorder_phase_context_manager():
    timings = PhaseTimings()
    with timings.phase("solve"):
        time.sleep(0.01)
    assert timings["solve"] >= 0.005
    with timings.phase("solve"):  # a repeated phase accumulates
        pass
    assert list(timings) == ["solve"]


def test_recorder_phase_records_on_exception():
    timings = PhaseTimings()
    with pytest.raises(RuntimeError):
        with timings.phase("solve"):
            raise RuntimeError("boom")
    assert "solve" in timings


def test_format_phase_table():
    text = format_phase_table(PhaseTimings({"build": 1.0, "solve": 3.0}))
    assert "build" in text and "solve" in text and "total" in text
    assert "75.0%" in text
    assert format_phase_table(PhaseTimings()) == "  (no phases recorded)"


def test_bench_json_roundtrip(tmp_path):
    path = tmp_path / "BENCH_opt.json"
    records = [{"name": "a", "phases": {"solve": 0.1}, "total_s": 0.1}]
    emit_bench_json(path, records, meta={"host": "ci"})
    data = load_bench_json(path)
    assert data["schema"] == "repro-bench-v1"
    assert data["records"] == records
    assert data["meta"] == {"host": "ci"}


def test_load_bench_json_missing_or_corrupt(tmp_path):
    assert load_bench_json(tmp_path / "absent.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert load_bench_json(bad) is None
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"schema": "x"}', encoding="utf-8")
    assert load_bench_json(wrong) is None


def test_solution_carries_timings():
    from repro.opt import Model

    m = Model()
    x = m.add_integer("x", 0, 5)
    m.add_constr(x >= 2)
    m.set_objective(x, "min")
    sol = m.solve()
    assert "solve" in sol.timings
    assert sol.timings.total > 0


def test_synthesis_result_carries_phase_breakdown():
    from repro.cases import chip_sw1
    from repro.core import BindingPolicy, SynthesisOptions, synthesize

    result = synthesize(chip_sw1(BindingPolicy.FIXED), SynthesisOptions())
    for phase in ("catalog", "build", "solve", "extract", "analyze", "verify"):
        assert phase in result.timings, phase
    # phases are disjoint slices of the pipeline, so they cannot
    # meaningfully exceed the end-to-end wall clock
    assert result.timings.total <= result.runtime * 1.5 + 0.1


def test_phase_order_covers_pipeline_tail():
    from repro.perf.record import PHASE_ORDER

    # degradation and pressure sharing are real pipeline phases and must
    # sort in pipeline position, not the alphabetical tail
    for phase in ("pressure", "degrade"):
        assert phase in PHASE_ORDER, phase
    assert PHASE_ORDER.index("analyze") < PHASE_ORDER.index("pressure")
    assert PHASE_ORDER.index("pressure") < PHASE_ORDER.index("verify")
    assert PHASE_ORDER.index("degrade") == len(PHASE_ORDER) - 1
    t = PhaseTimings({"degrade": 0.1, "pressure": 0.2, "analyze": 0.3})
    assert t.ordered() == ["analyze", "pressure", "degrade"]


def test_nested_phases_record_both_levels():
    timings = PhaseTimings()
    with timings.phase("solve"):
        with timings.phase("presolve"):
            time.sleep(0.002)
    assert set(timings) == {"solve", "presolve"}
    assert timings["solve"] >= timings["presolve"]


def test_recorder_phase_emits_span_on_installed_tracer():
    from repro.obs import Tracer, use_tracer

    timings = PhaseTimings()
    tracer = Tracer()
    with use_tracer(tracer):
        with timings.phase("solve"):
            with timings.phase("presolve", rows=3):
                pass
    assert timings["solve"] >= timings["presolve"] >= 0.0
    records = tracer.records(with_metrics=False)
    begins = [r for r in records if r["type"] == "span_begin"]
    assert [r["name"] for r in begins] == ["solve", "presolve"]
    assert begins[0].get("attrs") == {"kind": "phase"}
    assert begins[1].get("attrs") == {"kind": "phase", "rows": 3}
    assert begins[1]["parent"] == begins[0]["span"]


def test_format_phase_table_accepts_plain_dict():
    text = format_phase_table({"zeta": 1.0, "alpha": 1.0})
    # plain dicts keep insertion order (no canonical reordering)
    assert text.index("zeta") < text.index("alpha")
