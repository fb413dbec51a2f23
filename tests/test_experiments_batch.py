"""Tests for batch sweeps and CSV export (repro.experiments.batch)."""

import functools
import sys

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.errors import ReproError
from repro.experiments import load_csv, run_batch
from repro.experiments.batch import CSV_COLUMNS
from repro.service import (
    Journal,
    job_id_for,
    replay_journal,
    validate_journal,
)


def small_specs(n=3):
    return [
        generate_case(seed=s, switch_size=8, n_flows=2, n_inlets=2,
                      n_conflicts=0, binding=BindingPolicy.FIXED)
        for s in range(n)
    ]


def test_batch_collects_a_row_per_spec():
    batch = run_batch(small_specs(3), SynthesisOptions(time_limit=30))
    assert len(batch.rows) == 3
    assert batch.solved + batch.failed == 3
    assert "3 runs" in batch.summary()


def test_solved_rows_have_metrics():
    batch = run_batch(small_specs(2), SynthesisOptions(time_limit=30))
    for row in batch.rows:
        if row["status"] in ("optimal", "feasible"):
            assert row["length_mm"] is not None
            assert row["num_sets"] >= 1


def test_csv_roundtrip(tmp_path):
    batch = run_batch(small_specs(2), SynthesisOptions(time_limit=30))
    path = batch.to_csv(tmp_path / "runs.csv")
    rows = load_csv(path)
    assert len(rows) == 2
    assert rows[0]["case"].startswith("artificial")
    assert rows[0]["switch"] == "8-pin"


def test_missing_csv_rejected(tmp_path):
    with pytest.raises(ReproError):
        load_csv(tmp_path / "nope.csv")


def test_group_mean():
    batch = run_batch(small_specs(3), SynthesisOptions(time_limit=30))
    means = batch.group_mean("binding", "runtime_s")
    assert "fixed" in means
    assert means["fixed"] >= 0


def test_on_result_callback():
    seen = []
    run_batch(small_specs(2), SynthesisOptions(time_limit=30),
              on_result=lambda spec, res: seen.append((spec.name,
                                                       res.status.value)))
    assert len(seen) == 2


# ----------------------------------------------------------------------
# fault tolerance: crashing specs, journal resume
# ----------------------------------------------------------------------
def poisoned_specs(n=4, bad=1):
    """n valid specs with one made to crash inside the model builder.

    The binding is mutated *after* construction (validation runs in
    ``__post_init__``), so the crash only surfaces mid-synthesis — the
    shape of a genuinely unexpected failure.
    """
    specs = small_specs(n)
    victim = specs[bad]
    victim.fixed_binding[next(iter(victim.fixed_binding))] = "no_such_pin"
    return specs


def test_error_column_is_part_of_the_schema():
    assert CSV_COLUMNS[-1] == "error"


def test_crashing_spec_yields_error_row_not_batch_abort():
    # on_error="raise" lets the crash escape synthesize(); the batch
    # layer must still contain it to one row.
    batch = run_batch(poisoned_specs(4, bad=1),
                      SynthesisOptions(time_limit=30, on_error="raise"))
    assert len(batch.rows) == 4
    assert batch.solved == 3
    assert batch.errors == 1
    bad = batch.rows[1]
    assert bad["status"] == "error"
    assert "SwitchModelError" in bad["error"]
    assert "crashed" in batch.summary()


def strip_runtime(rows):
    return [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows]


def test_parallel_batch_matches_serial_including_the_crash():
    options = SynthesisOptions(time_limit=30, on_error="raise")
    serial = run_batch(poisoned_specs(4, bad=2), options)
    parallel = run_batch(poisoned_specs(4, bad=2), options, workers=2)
    assert len(parallel.rows) == 4
    assert strip_runtime(parallel.rows) == strip_runtime(serial.rows)


def test_on_result_skipped_for_error_rows():
    seen = []
    run_batch(poisoned_specs(3, bad=0),
              SynthesisOptions(time_limit=30, on_error="raise"),
              on_result=lambda spec, res: seen.append(spec.name))
    assert len(seen) == 2  # the crashed spec has no result to pass


def test_checkpoint_written_incrementally(tmp_path):
    # The journal is the batch's checkpoint: each row is journaled as
    # its spec's terminal job the moment it is final.
    path = tmp_path / "batch.jsonl"
    on_disk = []

    def peek(done, total, row):
        on_disk.append(sum(job.terminal
                           for job in replay_journal(path).jobs.values()))

    batch = run_batch(small_specs(2), SynthesisOptions(time_limit=30),
                      journal=path, on_progress=peek)
    assert on_disk == [1, 2]
    assert validate_journal(path) == {"done": 2}
    jobs = replay_journal(path).jobs
    assert [jobs[job_id_for(spec, SynthesisOptions(time_limit=30))].row
            for spec in small_specs(2)] == batch.rows


def test_checkpoint_resume_skips_finished_prefix(tmp_path):
    path = tmp_path / "batch.jsonl"
    specs = small_specs(3)
    run_batch(specs[:2], SynthesisOptions(time_limit=30), journal=path)

    executed = []
    full = run_batch(specs, SynthesisOptions(time_limit=30), journal=path,
                     on_result=lambda spec, res: executed.append(spec.name))
    # Only the remainder actually ran ...
    assert executed == [specs[2].name]
    # ... but the batch covers the whole list, in spec order.
    assert [r["case"] for r in full.rows] == [s.name for s in specs]
    assert validate_journal(path) == {"done": 3}


def test_rerun_with_changed_options_runs_every_spec(tmp_path):
    """The job id covers the options: a journal written under other
    options never hands back its rows."""
    path = tmp_path / "batch.jsonl"
    specs = small_specs(2)
    run_batch(specs, SynthesisOptions(time_limit=30), journal=path)
    executed = []
    again = run_batch(specs, SynthesisOptions(time_limit=30,
                                              pressure_sharing=False),
                      journal=path,
                      on_result=lambda spec, res: executed.append(spec.name))
    assert executed == [s.name for s in specs]
    fresh = run_batch(specs, SynthesisOptions(time_limit=30,
                                              pressure_sharing=False))
    assert strip_runtime(again.rows) == strip_runtime(fresh.rows)
    assert validate_journal(path) == {"done": 4}


def test_journaled_batch_runs_each_job_once(tmp_path):
    path = tmp_path / "batch.jsonl"
    specs = small_specs(2)
    executed = []
    batch = run_batch(specs + small_specs(1), SynthesisOptions(time_limit=30),
                      journal=path, workers=2,
                      on_result=lambda spec, res: executed.append(spec.name))
    assert executed == [s.name for s in specs]
    assert strip_runtime(batch.rows[2:]) == strip_runtime(batch.rows[:1])
    assert validate_journal(path) == {"done": 2}


def test_journal_appends_from_many_threads_stay_whole(tmp_path, monkeypatch):
    """More worker threads than cores, switching as often as the
    interpreter allows, and a journal that rotates every few lines:
    no append is lost or lands in a closed or half-rotated file."""
    from repro.experiments import batch as batch_module

    monkeypatch.setattr(batch_module, "Journal",
                        functools.partial(Journal, rotate_after=3))
    path = tmp_path / "batch.jsonl"
    specs = small_specs(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = run_batch(specs, SynthesisOptions(time_limit=30),
                          journal=path, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert [r["case"] for r in batch.rows] == [s.name for s in specs]
    assert validate_journal(path) == {"done": 8}
    jobs = replay_journal(path).jobs
    assert [jobs[job_id_for(s, SynthesisOptions(time_limit=30))].row
            for s in specs] == batch.rows


def test_journal_and_service_are_exclusive(tmp_path):
    with pytest.raises(ReproError):
        run_batch(small_specs(1), journal=tmp_path / "batch.jsonl",
                  service=object())
