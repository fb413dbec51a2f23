"""Signal handling and interrupt recovery (service + run_batch).

The contract: SIGTERM/SIGINT mid-run produces a *graceful* shutdown —
the in-flight job finishes, the queue stays journaled as pending, the
exit status says so — and a restart on the same journal completes the
remainder with every job terminal exactly once. A ``run_batch``
interrupted by KeyboardInterrupt, or killed outright, leaves its
journal resumable the same way.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.experiments import load_csv, run_batch
from repro.obs import Tracer, use_tracer
from repro.service import job_id_for, replay_journal, validate_journal

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src"))

#: A service run driven exactly like ``repro serve``: slow enough per
#: job that a signal sent after READY lands mid-run deterministically.
SERVE_SCRIPT = """\
import sys, time
sys.path.insert(0, {src!r})
from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.opt.solvers import get_backend, register_backend
from repro.opt.solvers.base import SolverBackend
from repro.service import SynthesisService, install_signal_handlers


class SlowBackend(SolverBackend):
    name = "slow"

    def solve(self, model, **kwargs):
        time.sleep(0.2)
        return get_backend("auto").solve(model, **kwargs)


register_backend("slow", SlowBackend)
specs = [generate_case(seed=s, switch_size=8, n_flows=2, n_inlets=2,
                       n_conflicts=0, binding=BindingPolicy.FIXED)
         for s in range(5)]
opts = SynthesisOptions(time_limit=30, backend="slow")
service = SynthesisService(sys.argv[1], workers=1, options=opts)
install_signal_handlers(service)
service.start()
for spec in specs:
    service.submit(spec)
print("READY", flush=True)
outcome = service.run_until_complete(timeout=120)
drain = "inflight" if outcome == "interrupted" else True
summary = service.stop(drain=drain, deadline=30.0)
print("OUTCOME", outcome, summary["completed"], summary["pending"],
      flush=True)
sys.exit(3 if summary["pending"] else 0)
"""


def run_serve_script(tmp_path, journal, send_signal=None):
    script = tmp_path / "serve_script.py"
    script.write_text(SERVE_SCRIPT.format(src=SRC))
    proc = subprocess.Popen([sys.executable, str(script), str(journal)],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().strip() == "READY"
    if send_signal is not None:
        time.sleep(0.7)  # let at least one job finish first
        proc.send_signal(send_signal)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_drains_journals_and_restart_completes(tmp_path, signum):
    journal = tmp_path / "journal.jsonl"

    rc, out, err = run_serve_script(tmp_path, journal, send_signal=signum)
    assert rc == 3, f"expected pending-work exit: {out!r} {err!r}"
    assert "interrupted" in out
    counts = validate_journal(journal)  # replayable, schema-valid
    done_now = counts.get("done", 0)
    assert done_now >= 1, f"drain should finish the in-flight job: {counts}"
    assert sum(counts.values()) == 5
    pending = sum(v for k, v in counts.items() if k != "done")
    assert pending >= 1, f"a graceful signal must leave work: {counts}"

    # Restart on the same journal: replays pending, dedups done, and
    # completes everything exactly once.
    rc2, out2, err2 = run_serve_script(tmp_path, journal)
    assert rc2 == 0, f"restart should finish the remainder: {out2!r} {err2!r}"
    final = validate_journal(journal)  # raises on any double completion
    assert final == {"done": 5}
    jobs = replay_journal(journal).jobs
    assert all(job.attempts >= 1 for job in jobs.values())


def small_spec(seed):
    return generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def test_run_batch_interrupt_leaves_resumable_checkpoint(tmp_path):
    # The journal is the batch's checkpoint.
    specs = [small_spec(s) for s in range(4)]
    opts = SynthesisOptions(time_limit=30)
    journal = tmp_path / "batch.jsonl"

    def interrupt_after_two(done, total, row):
        if done == 2:
            raise KeyboardInterrupt

    tracer = Tracer("interrupt")
    with use_tracer(tracer):
        with pytest.raises(KeyboardInterrupt):
            run_batch(specs, opts, journal=journal,
                      on_progress=interrupt_after_two)
    events = [r["name"] for r in tracer.records() if r["type"] == "event"]
    assert "interrupt" in events

    validate_journal(journal)  # closed cleanly: replayable, exactly-once
    jobs = replay_journal(journal).jobs
    assert all(jobs[job_id_for(s, opts)].terminal for s in specs[:2])
    assert sum(job.terminal for job in jobs.values()) == 2

    computed = []
    batch = run_batch(specs, opts, journal=journal,
                      on_result=lambda spec, res: computed.append(spec.name))
    assert [r["case"] for r in batch.rows] == [s.name for s in specs]
    assert computed == [s.name for s in specs[2:]]  # only the remainder
    assert validate_journal(journal) == {"done": 4}


def test_run_batch_resume_tolerates_torn_checkpoint_row(tmp_path):
    specs = [small_spec(s) for s in range(3)]
    opts = SynthesisOptions(time_limit=30)
    journal = tmp_path / "batch.jsonl"
    run_batch(specs[:2], opts, journal=journal)
    raw = journal.read_text()
    last = raw.rstrip("\n").rfind("\n") + 1
    journal.write_text(raw[:last] + raw[last:last + 20])  # torn final row
    computed = []
    batch = run_batch(specs, opts, journal=journal,
                      on_result=lambda spec, res: computed.append(spec.name))
    # The torn row's spec simply re-ran.
    assert computed == [s.name for s in specs[1:]]
    assert [r["case"] for r in batch.rows] == [s.name for s in specs]
    assert validate_journal(journal) == {"done": 3}


#: A batch driven like ``SERVE_SCRIPT``: two worker threads over a
#: journal, one line per row, the CSV written at the end.
BATCH_SCRIPT = """\
import sys, time
sys.path.insert(0, {src!r})
from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.experiments import run_batch
from repro.opt.solvers import get_backend, register_backend
from repro.opt.solvers.base import SolverBackend


class SlowBackend(SolverBackend):
    name = "slow"

    def solve(self, model, **kwargs):
        time.sleep(0.2)
        return get_backend("auto").solve(model, **kwargs)


register_backend("slow", SlowBackend)
specs = [generate_case(seed=s, switch_size=8, n_flows=2, n_inlets=2,
                       n_conflicts=0, binding=BindingPolicy.FIXED)
         for s in range(6)]
opts = SynthesisOptions(time_limit=30, backend="slow")
batch = run_batch(
    specs, opts, workers=2, journal=sys.argv[1],
    on_result=lambda spec, result: print("RAN", spec.name, flush=True),
    on_progress=lambda done, total, row: print("ROW", done, flush=True))
batch.to_csv(sys.argv[2])
"""


def run_batch_script(tmp_path, journal, csv_path, kill=False):
    script = tmp_path / "batch_script.py"
    script.write_text(BATCH_SCRIPT.format(src=SRC))
    proc = subprocess.Popen(
        [sys.executable, str(script), str(journal), str(csv_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if kill:
        for line in proc.stdout:
            if line.startswith("ROW"):
                break
        proc.kill()
    out, err = proc.communicate(timeout=120)
    assert kill or proc.returncode == 0, err
    return [line.split()[1] for line in out.splitlines()
            if line.startswith("RAN")]


def test_run_batch_killed_mid_run_resumes_to_the_same_csv(tmp_path):
    journal = tmp_path / "batch.jsonl"
    run_batch_script(tmp_path, journal, tmp_path / "killed.csv", kill=True)
    jobs = replay_journal(journal).jobs
    finished = {job.spec["name"] for job in jobs.values() if job.terminal}
    assert 1 <= len(finished) < 6, f"not killed mid-run: {finished}"

    ran = run_batch_script(tmp_path, journal, tmp_path / "resumed.csv")
    run_batch_script(tmp_path, tmp_path / "fresh.jsonl",
                     tmp_path / "fresh.csv")
    assert finished.isdisjoint(ran)
    assert len(finished) + len(ran) == 6
    assert validate_journal(journal) == {"done": 6}

    def without_runtime(path):
        return [{k: v for k, v in row.items() if k != "runtime_s"}
                for row in load_csv(path)]

    assert without_runtime(tmp_path / "resumed.csv") \
        == without_runtime(tmp_path / "fresh.csv")


# ----------------------------------------------------------------------
# `repro serve` without --http: the named jobs' rows and exit codes
# ----------------------------------------------------------------------
def _write_small_spec(tmp_path, seed=0):
    import json

    from repro.io import spec_to_dict

    path = tmp_path / f"spec-{seed}.json"
    path.write_text(json.dumps(spec_to_dict(small_spec(seed))))
    return path


def _run_cli(args, timeout=180, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_serve_prints_the_named_job_row_and_exits_zero_on_done(tmp_path):
    spec = _write_small_spec(tmp_path)
    journal = tmp_path / "j.jsonl"
    rc, out, err = _run_cli(["serve", str(spec), "--journal", str(journal),
                             "--time-limit", "30"])
    assert rc == 0, f"{out!r} {err!r}"
    (job,) = replay_journal(journal).jobs.values()
    assert f"job {job.id}: done (attempts 1)" in out
    row_line = next(line for line in out.splitlines()
                    if line.startswith(job.row["case"]))
    assert job.row["status"] in row_line
    assert validate_journal(journal) == {"done": 1}


def test_serve_interrupt_exits_three_with_job_journaled(tmp_path):
    """The documented exit-3 ('pending work stays journaled') contract
    of a local `repro serve` that a signal interrupts mid-solve — a
    scheduler retrying on 3 re-runs the same command."""
    journal = tmp_path / "j.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "example_4_2",
         "--journal", str(journal),
         "--time-limit", "120", "--drain-timeout", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    assert line.startswith("serving:"), line
    time.sleep(1.0)  # land mid-solve (the case runs for ~30s)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 3, f"{line!r} {out!r} {err!r}"
    assert "left journaled" in out
    jobs = replay_journal(journal).jobs
    assert len(jobs) == 1
    assert all(not j.terminal for j in jobs.values())
    validate_journal(journal)  # still schema-valid and exactly-once


def test_submit_requires_url(tmp_path):
    spec = _write_small_spec(tmp_path)
    rc, _, err = _run_cli(["submit", str(spec)])
    assert rc == 2 and "--url" in err
    rc, _, err = _run_cli(["submit", str(spec), "--url", "http://127.0.0.1:1",
                           "--journal", str(tmp_path / "j.jsonl")])
    assert rc == 2 and "--journal" in err
