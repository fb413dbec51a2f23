"""End-to-end smoke of the sharded HTTP synthesis platform, CLI first.

Drives the platform exactly the way an operator would — through
``repro serve --http`` and ``repro submit --url`` subprocesses, never
importing the coordinator — and proves the crash story over a real
network boundary:

1. **Serve**: start ``repro serve --http 0 --shards N`` on an
   ephemeral port and scrape the ``serving: http://...`` line.
2. **Drive**: submit a batch of generated specs (plus one deliberately
   heavy "blocker" that pins a worker for the whole time limit) via
   ``repro submit --url``.
3. **Chaos**: read the per-shard pids from ``GET /stats``, SIGKILL the
   shard with work in flight, and watch the coordinator respawn it on
   its journal (``restarts`` rises, nothing is lost).
4. **Verify**: every job reaches a terminal state; an idempotent
   resubmission returns the *same* job id with exit code 0 without
   re-solving; SIGINT drains the platform (exit 0); and
   :func:`repro.service.validate_journal` replays every shard journal
   with strict checks, proving exactly-once completion across the kill.
5. **Telemetry**: scrape ``GET /metrics`` and gate it with
   :func:`repro.obs.telemetry.validate_prometheus_text`; fetch a
   completed job's trace from ``GET /jobs/<id>/trace``
   and schema-check it; after shutdown, validate the merged
   ``repro-obs-v1`` artifact the coordinator wrote. All three land in
   ``--out`` for CI upload.

Usage (the entry point CI's ``http-smoke`` job calls)::

    python benchmarks/http_smoke.py --specs 6 --shards 2 --out smoke-artifacts

Artifacts land in ``--out``: the per-shard journals under ``journal/``
and a machine-readable ``summary.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cases import generate_case  # noqa: E402
from repro.core import BindingPolicy  # noqa: E402
from repro.io import spec_to_dict  # noqa: E402
from repro.obs import read_trace_jsonl, validate_trace_records  # noqa: E402
from repro.obs.telemetry import validate_prometheus_text  # noqa: E402
from repro.service import validate_journal  # noqa: E402
from repro.service.journal import TERMINAL_STATES  # noqa: E402

#: The heavy case: UNFIXED binding over a 12-way switch runs for the
#: whole time limit, guaranteeing in-flight work when the kill lands.
BLOCKER_SEED = 9


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_specs(out: Path, n: int) -> list:
    spec_dir = out / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in range(n):
        spec = generate_case(seed=seed, switch_size=8, n_flows=2,
                             n_inlets=2, n_conflicts=0,
                             binding=BindingPolicy.FIXED)
        path = spec_dir / f"case-{seed}.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        paths.append(path)
    blocker = generate_case(seed=BLOCKER_SEED, switch_size=12, n_flows=6,
                            n_inlets=4, n_conflicts=2,
                            binding=BindingPolicy.UNFIXED)
    path = spec_dir / "blocker.json"
    path.write_text(json.dumps(spec_to_dict(blocker)))
    paths.append(path)
    return paths


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def submit(url: str, spec_path: Path, *extra: str) -> tuple:
    """``repro submit --url``; returns (exit code, job id, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "submit", str(spec_path),
         "--url", url, *extra],
        capture_output=True, text=True, env=cli_env(), timeout=300)
    job_id = None
    for line in proc.stdout.splitlines():
        if line.startswith("job "):
            job_id = line.split()[1].rstrip(":")
            break
    return proc.returncode, job_id, proc.stdout + proc.stderr


def wait_for(predicate, deadline: float, poll: float = 0.5):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--specs", type=int,
                        default=int(os.environ.get("REPRO_SMOKE_SPECS", 6)))
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--time-limit", type=float, default=10.0)
    parser.add_argument("--out", default="smoke-artifacts")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    journal_dir = out / "journal"
    trace_dir = out / "traces"
    spec_paths = write_specs(out, args.specs)
    failures = []

    print(f"[smoke] serving {args.shards} shard(s) x {args.workers} "
          f"worker(s) on an ephemeral port ...", flush=True)
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0",
         "--shards", str(args.shards), "--workers", str(args.workers),
         "--journal", str(journal_dir),
         "--trace", str(trace_dir),
         "--time-limit", str(args.time_limit)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=cli_env())
    try:
        line = serve.stdout.readline()
        if not line.startswith("serving: "):
            raise RuntimeError(f"serve did not come up: {line!r}")
        url = line.split()[1]
        print(f"[smoke] platform up at {url}", flush=True)

        jobs = {}
        for path in spec_paths:
            code, job_id, output = submit(url, path)
            if code != 0 or job_id is None:
                failures.append(f"submit {path.name} exited {code}: {output}")
                continue
            jobs[path.name] = job_id
        expected = len(spec_paths)
        print(f"[smoke] submitted {len(jobs)}/{expected} job(s)", flush=True)

        # Kill the shard that is actually working (the blocker pins a
        # worker for the whole time limit, so one shard must be busy).
        stats = get_json(f"{url}/stats")
        busy = [key for key, shard in stats["shards"].items()
                if shard.get("in_flight", 0) > 0]
        victim = busy[0] if busy else "0"
        pid = stats["shards"][victim].get("pid")
        print(f"[smoke] SIGKILL shard {victim} (pid {pid}, "
              f"in-flight {stats['shards'][victim].get('in_flight')})",
              flush=True)
        os.kill(pid, signal.SIGKILL)

        recovered = wait_for(
            lambda: (lambda s: s["restarts"] >= 1 and
                     s["shards"].get(victim, {}).get("pid") not in
                     (None, pid) and s)(get_json(f"{url}/stats")),
            deadline=60.0)
        if not recovered:
            failures.append(f"shard {victim} never respawned")
        else:
            print(f"[smoke] shard {victim} respawned as pid "
                  f"{recovered['shards'][victim]['pid']} (restarts "
                  f"{recovered['restarts']})", flush=True)

        def all_terminal():
            stats = get_json(f"{url}/stats")
            counts = stats.get("jobs", {})
            done = sum(counts.get(state, 0) for state in TERMINAL_STATES)
            return stats if done >= expected else None

        final = wait_for(all_terminal, deadline=12 * args.time_limit + 120)
        if not final:
            failures.append("jobs did not all reach a terminal state; "
                            f"last stats: {get_json(f'{url}/stats')}")
        else:
            print(f"[smoke] all terminal: {final['jobs']}", flush=True)
            if final["jobs"].get("failed"):
                failures.append(f"failed jobs after recovery: "
                                f"{final['jobs']}")

        # Idempotent resubmission: same id, already terminal, exit 0,
        # and the journals must show no second execution (validated
        # below by replay).
        code, again, output = submit(url, spec_paths[0], "--wait")
        if code != 0:
            failures.append(f"dedup resubmit exited {code}: {output}")
        if again != jobs.get(spec_paths[0].name):
            failures.append(f"resubmission changed identity: "
                            f"{again} != {jobs.get(spec_paths[0].name)}")

        health = get_json(f"{url}/health")
        if not health.get("ok"):
            failures.append(f"health not ok after recovery: {health}")

        # Telemetry: /metrics must be valid Prometheus exposition
        # carrying the platform rollups even across the SIGKILL ...
        try:
            with urllib.request.urlopen(f"{url}/metrics",
                                        timeout=30) as response:
                metrics_text = response.read().decode("utf-8")
            (out / "metrics.txt").write_text(metrics_text)
            samples = validate_prometheus_text(metrics_text)
            if "platform_jobs" not in metrics_text:
                failures.append("/metrics missing platform_jobs rollup")
            print(f"[smoke] /metrics valid ({samples} samples)",
                  flush=True)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"/metrics failed validation: {exc}")

        # ... and a completed job's trace must come
        # back schema-valid with the job's correlation ID intact.
        try:
            done_id = jobs.get(spec_paths[0].name)
            body = get_json(f"{url}/jobs/{done_id}/trace")
            (out / "job-trace.json").write_text(
                json.dumps(body, indent=2) + "\n")
            validate_trace_records(body["records"])
            corrs = {r.get("corr") for r in body["records"]}
            if not body["records"] or len(corrs) != 1 \
                    or not corrs.pop().startswith(f"{done_id}#"):
                failures.append(
                    f"job trace correlation mismatch: {corrs}")
            print(f"[smoke] job trace valid "
                  f"({len(body['records'])} records)", flush=True)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"job trace failed validation: {exc}")

        serve.send_signal(signal.SIGINT)
        code = serve.wait(timeout=args.time_limit + 120)
        if code != 0:
            failures.append(f"serve exited {code} (want 0: all terminal)")
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait(timeout=30)

    # The journals are the proof: strict replay raises on any double
    # terminal transition (exactly-once across the SIGKILL).
    totals = {}
    for path in sorted(journal_dir.glob("shard-*.jsonl")):
        try:
            for state, count in validate_journal(path).items():
                totals[state] = totals.get(state, 0) + count
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{path.name} failed validation: {exc}")
    if sum(totals.values()) != expected:
        failures.append(f"journalled jobs {totals} != {expected} submitted")
    if set(totals) - set(TERMINAL_STATES):
        failures.append(f"non-terminal jobs left in journals: {totals}")

    # The coordinator writes the whole platform's merged telemetry as
    # one repro-obs-v1 stream on shutdown; it must validate standalone.
    merged_path = trace_dir / "merged-trace.jsonl"
    merged_records = 0
    if not merged_path.exists():
        failures.append(f"merged trace missing: {merged_path}")
    else:
        try:
            data = read_trace_jsonl(merged_path)
            validate_trace_records(data.records)
            merged_records = len(data.records)
            sources = {r.get("src") for r in data.records} - {None}
            if not any(s.startswith("shard-") for s in sources):
                failures.append(
                    f"merged trace has no shard streams: {sources}")
            print(f"[smoke] merged trace valid ({merged_records} "
                  f"records from {sorted(sources)})", flush=True)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"merged trace failed validation: {exc}")

    report = {
        "specs": expected,
        "shards": args.shards,
        "jobs": totals,
        "merged_trace_records": merged_records,
        "failures": failures,
    }
    (out / "summary.json").write_text(json.dumps(report, indent=2) + "\n")
    if failures:
        print("[smoke] FAIL:\n  - " + "\n  - ".join(failures))
        return 1
    print(f"[smoke] PASS: {sum(totals.values())} job(s) terminal exactly "
          f"once across a shard SIGKILL ({totals})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
