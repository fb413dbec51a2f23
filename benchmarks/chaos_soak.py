"""Chaos/soak driver for the resilient synthesis service.

Orchestrates the full crash story end to end, the way CI runs it:

1. **Run 1** starts a journal-backed :class:`repro.service.SynthesisService`
   over N generated specs with a deterministic
   :class:`repro.testing.FaultPlan` — consecutive backend crashes (to
   trip the circuit breaker), isolated crashes and timeouts (to
   exercise retry/backoff) and one ``kill`` fault that SIGKILLs the
   process mid-run. No cleanup runs; only the write-ahead journal
   survives.
2. **Run 2** restarts on the same journal with the same fault plan
   minus the kill: journaled completions are deduplicated, pending work
   replays, the breaker demonstrably opens and then recovers
   (half-open probe → close), and every job reaches a terminal state.
3. **Validation**: :func:`repro.service.validate_journal` replays the
   journal with strict schema checks and proves exactly-once
   completion; the exported trace must be schema-valid
   ``repro-obs-v1`` and contain the breaker/retry/fault events.

Usage (the orchestrating entry point CI calls)::

    python benchmarks/chaos_soak.py --specs 50 --out chaos-artifacts

Artifacts land in ``--out``: ``journal.jsonl`` (the surviving WAL),
``trace.jsonl`` (run 2's full event stream) and ``summary.json``.

With ``--shards N`` the chaos moves up a level: the same specs run on
a :class:`repro.service.ShardCoordinator` and every shard *process*
is SIGKILLed once, in turn, while work is in flight (a heavy blocker
spec pins a worker so the kills always land mid-solve). The
coordinator must respawn each shard on its journal and every job must
still reach a terminal state exactly once — proven, as always, by
strict journal replay. The telemetry plane must stay continuous across
the kills too: aggregated counters are checked monotonic before and
after every SIGKILL (a respawned shard is a new stream, never a
rollback), the final merged stream must validate as one
``repro-obs-v1`` trace with no duplicated completion events, and it is
saved as ``merged-trace.jsonl``::

    python benchmarks/chaos_soak.py --specs 8 --shards 2 --out chaos-artifacts

With ``--valve-faults`` the chaos is in the *hardware*: a campaign is
synthesized on the platform, a valve sticks closed mid-campaign (the
tick engine detects it striking a routed segment), the detection turns
into a journaled repair job on the coordinator — submitted twice to
prove fingerprint dedup — and the repair's shard is SIGKILLed while
the job is in flight. The repair must complete exactly once (strict
journal replay), its routing must match an independent local
:func:`repro.repair.repair` run (determinism across the kill), and the
``repair_*`` counters must be present and monotonic::

    python benchmarks/chaos_soak.py --valve-faults --out chaos-artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cases import generate_case  # noqa: E402
from repro.core import BindingPolicy, SynthesisOptions  # noqa: E402
from repro.obs import (Tracer, aggregate_metrics,  # noqa: E402
                       read_trace_jsonl, use_tracer, validate_trace_records,
                       write_trace_jsonl)
from repro.service import (Backoff, SynthesisService,  # noqa: E402
                           validate_journal)
from repro.testing import FaultPlan, install_faulty_backend  # noqa: E402

TERMINAL = {"done", "degraded", "failed"}


def make_specs(n: int):
    return [
        generate_case(seed=s, switch_size=8, n_flows=2, n_inlets=2,
                      n_conflicts=0, binding=BindingPolicy.FIXED)
        for s in range(n)
    ]


#: The killed run dies on the faulty backend's *third* solve. Solves
#: 1–2 crash consecutively (threshold 2), so solve 3 is necessarily the
#: breaker's half-open probe — and the probe is guaranteed to happen
#: (the breaker cannot close without one; the sentinel loop forces it
#: even if the main jobs all drained on the fallback rung meanwhile),
#: which makes the SIGKILL deterministic however fast the solver is.
KILL_AT = 3


def make_schedule(n_specs: int, kill_after: int):
    """The deterministic per-solve fault script for one run.

    Solves 1–2 crash back to back (threshold 2 → breaker opens), two
    isolated faults later exercise retry without re-tripping it, and —
    in the killed run — solve ``kill_after`` SIGKILLs the process.
    """
    schedule = [None] * (6 * n_specs + 64)
    schedule[0] = schedule[1] = "crash"
    schedule[8] = "timeout"
    schedule[12] = "crash"
    if kill_after:
        schedule[kill_after - 1] = "kill"
    return schedule


def phase_run(args: argparse.Namespace) -> int:
    specs = make_specs(args.specs)
    plan = FaultPlan(schedule=make_schedule(args.specs, args.kill_after))
    options = SynthesisOptions(time_limit=30, on_error="capture")
    tracer = Tracer("chaos-soak")
    with install_faulty_backend("chaos", inner="auto", plan=plan):
        with use_tracer(tracer):
            service = SynthesisService(
                args.journal,
                workers=args.workers,
                options=options,
                backends=["chaos", "auto"],
                max_attempts=6,
                backoff=Backoff(base=0.02, max_delay=0.2),
                breaker_threshold=2,
                breaker_reset=0.2,
            )
            service.start()
            for spec in specs:
                service.submit(spec)
            outcome = service.run_until_complete(timeout=600)

            # Demonstrate breaker *recovery*: keep feeding sentinel jobs
            # until a half-open probe succeeds and closes the breaker.
            # Past the schedule's fault prefix every solve is healthy,
            # so this converges in a handful of probes.
            sentinels = 0
            breaker = service.breakers.get("chaos")
            while breaker.state != "closed" and sentinels < 8:
                time.sleep(0.25)  # let the cooldown mature
                sentinel = generate_case(
                    seed=1000 + sentinels, switch_size=8, n_flows=2,
                    n_inlets=2, n_conflicts=0, binding=BindingPolicy.FIXED)
                service.wait(service.submit(sentinel), timeout=120)
                sentinels += 1

            stats = service.stats()
            summary = service.stop(drain=True, deadline=120)
        write_trace_jsonl(tracer, args.trace)
    print("SUMMARY " + json.dumps({
        "outcome": outcome,
        "jobs": stats["jobs"],
        "sentinels": sentinels,
        "breakers": stats["breakers"],
        "pending": summary["pending"],
    }), flush=True)
    return 0 if summary["pending"] == 0 else 2


def orchestrate_shards(args: argparse.Namespace) -> int:
    """``--shards`` mode: SIGKILL every shard process once, mid-run."""
    from repro.io import spec_to_dict
    from repro.service import ShardCoordinator

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    journal_dir = out / "platform"
    specs = make_specs(args.specs)
    # UNFIXED binding over a 12-way switch runs for the whole time
    # limit: with one of these per shard there is always in-flight
    # work for a kill to interrupt.
    blockers = [
        generate_case(seed=900 + i, switch_size=12, n_flows=6, n_inlets=4,
                      n_conflicts=2, binding=BindingPolicy.UNFIXED)
        for i in range(args.shards)
    ]
    failures = []
    print(f"[chaos] platform: {args.shards} shard(s) x {args.workers} "
          f"worker(s), killing each shard once ...", flush=True)

    def counter_totals(coord) -> dict:
        """Aggregated counter values across every telemetry stream."""
        coord.pull_telemetry()
        streams = coord.tracer.streams().values()
        return {key: snap.get("value", 0)
                for key, snap in aggregate_metrics(
                    s["metrics"] for s in streams).items()
                if snap.get("kind") == "counter"}

    last_counters: dict = {}

    def check_monotonic(coord, where: str) -> None:
        """Aggregated counters must never go backwards — a respawned
        shard is a new stream, not a rollback of the old one."""
        totals = counter_totals(coord)
        for key, value in totals.items():
            if value < last_counters.get(key, 0):
                failures.append(
                    f"counter {key} went backwards {where}: "
                    f"{last_counters[key]} -> {value}")
        last_counters.update(totals)

    with ShardCoordinator(str(journal_dir), shards=args.shards,
                          workers=args.workers,
                          options={"time_limit": 10.0,
                                   "on_error": "capture"}) as coord:
        ids = [coord.submit(spec_to_dict(spec))["id"]
               for spec in blockers + specs]
        deadline = time.monotonic() + 600
        for index in range(args.shards):
            time.sleep(0.5)  # let the respawned shard pick work back up
            check_monotonic(coord, f"before killing shard {index}")
            pid = coord.kill_shard(index)
            print(f"[chaos] SIGKILL shard {index} (pid {pid})", flush=True)
            while time.monotonic() < deadline:
                stats = coord.stats()
                shard = stats["shards"].get(str(index), {})
                if shard.get("restarts", 0) >= 1 and "error" not in shard:
                    break
                time.sleep(0.2)
            else:
                failures.append(f"shard {index} never respawned")
            check_monotonic(coord, f"after shard {index} respawned")
        finals = {}
        for job_id in ids:
            job = coord.wait(job_id, timeout=max(
                0.0, deadline - time.monotonic()))
            finals[job["state"]] = finals.get(job["state"], 0) + 1
        stats = coord.stats()

        # Telemetry continuity across every kill: the merged stream is
        # one valid repro-obs-v1 trace, counters never went backwards
        # (checked at each kill above and once more here), and no job
        # completed twice — a torn batch from a killed incarnation is
        # dropped whole, and replay never re-executes journaled
        # terminal work, so duplicate job_done events cannot appear.
        check_monotonic(coord, "after all jobs terminal")
        merged = coord.telemetry_records()
        try:
            validate_trace_records(merged)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"merged telemetry failed validation: {exc}")
        completions: dict = {}
        for record in merged:
            if record.get("type") == "event" and record.get("name") in (
                    "job_done", "job_failed"):
                job = (record.get("attrs") or {}).get("job")
                completions[job] = completions.get(job, 0) + 1
        doubled = {job: n for job, n in completions.items() if n > 1}
        if doubled:
            failures.append(
                f"duplicate completion events across kills: {doubled}")
        streams = coord.tracer.streams()
        telemetry = {
            "streams": len(streams),
            "rejected_batches": coord.tracer.rejected,
            "dropped_records": sum(s["dropped"] for s in streams.values()),
            "merged_records": len(merged),
            "completion_events": sum(completions.values()),
        }
        write_trace_jsonl(merged, str(out / "merged-trace.jsonl"))
        print(f"[chaos] telemetry continuous: {telemetry}", flush=True)
        if telemetry["streams"] < 2 * args.shards:
            failures.append(
                f"expected >= {2 * args.shards} telemetry streams "
                f"(each shard killed once), saw {telemetry['streams']}")
    if stats["restarts"] < args.shards:
        failures.append(f"expected >= {args.shards} restarts, "
                        f"saw {stats['restarts']}")
    if set(finals) - TERMINAL:
        failures.append(f"jobs stuck non-terminal: {finals}")
    if finals.get("failed"):
        failures.append(f"jobs failed under kill chaos: {finals}")

    # Exactly-once across every kill, proven from the journals alone.
    counts: dict = {}
    for path in sorted(journal_dir.glob("shard-*.jsonl")):
        try:
            for state, count in validate_journal(path).items():
                counts[state] = counts.get(state, 0) + count
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{path.name} failed validation: {exc}")
    if sum(counts.values()) != len(ids):
        failures.append(f"journalled jobs {counts} != {len(ids)} submitted")

    report = {
        "specs": args.specs,
        "shards": args.shards,
        "restarts": stats["restarts"],
        "final_jobs": counts,
        "telemetry": telemetry,
        "failures": failures,
    }
    (out / "summary.json").write_text(json.dumps(report, indent=2) + "\n")
    if failures:
        print("[chaos] FAIL:\n  - " + "\n  - ".join(failures))
        return 1
    print(f"[chaos] PASS: {sum(counts.values())} job(s) terminal exactly "
          f"once across {stats['restarts']} shard kill(s) ({counts})")
    return 0


def orchestrate_valve_faults(args: argparse.Namespace) -> int:
    """``--valve-faults`` mode: a mid-campaign hardware fault becomes a
    journaled repair job that survives a shard SIGKILL exactly once."""
    from repro.core import synthesize
    from repro.core.verify import verify_result
    from repro.io import spec_to_dict
    from repro.repair import detect_faults, repair
    from repro.service import ShardCoordinator
    from repro.sim.faults import FaultKind, ValveFault

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    journal_dir = out / "platform"
    failures = []
    options = SynthesisOptions(time_limit=30)
    spec = make_specs(1)[0]

    # The campaign baseline, solved locally so the tick engine can
    # replay it under the fault plan: a valve on a *routed* junction
    # segment sticks closed at step 1, mid-campaign.
    prior = synthesize(make_specs(1)[0], options)
    verify_result(prior)
    seg = next(k for k in sorted(prior.used_segments)
               if not prior.spec.switch.is_pin(k[0])
               and not prior.spec.switch.is_pin(k[1]))
    fault = ValveFault(seg, FaultKind.STUCK_CLOSED, onset=1)
    detection = detect_faults(prior, [fault])
    print(f"[chaos] fault {seg[0]}-{seg[1]} stuck_closed@1: "
          f"{detection.summary()}", flush=True)
    if not detection.detected:
        failures.append("mid-campaign fault was not detected by the sim")

    def repair_counters(coord) -> dict:
        coord.pull_telemetry()
        streams = coord.tracer.streams().values()
        return {key: snap.get("value", 0)
                for key, snap in aggregate_metrics(
                    s["metrics"] for s in streams).items()
                if snap.get("kind") == "counter" and "repair_" in key}

    last: dict = {}

    def check_monotonic(coord, where: str) -> dict:
        totals = repair_counters(coord)
        for key, value in totals.items():
            if value < last.get(key, 0):
                failures.append(f"counter {key} went backwards {where}: "
                                f"{last[key]} -> {value}")
        last.update(totals)
        return totals

    triples = [(seg[0], seg[1], "stuck_closed")]
    with ShardCoordinator(str(journal_dir), shards=2, workers=1,
                          options={"time_limit": 30.0}) as coord:
        job = coord.submit(spec_to_dict(spec))
        done = coord.wait(job["id"], timeout=300)
        if done["state"] != "done":
            failures.append(f"campaign job ended {done['state']}")
        check_monotonic(coord, "before the repair")

        first = coord.submit_repair(job["id"], triples)
        again = coord.submit_repair(job["id"], triples)
        if again["id"] != first["id"]:
            failures.append("repair resubmission was not deduplicated: "
                            f"{first['id']} vs {again['id']}")
        if first.get("corr") != done.get("corr"):
            failures.append("repair job lost the campaign correlation ID")
        # capture the submission-side counters before the kill can tear
        # the shard's stream batch (torn batches are dropped whole)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any("repair_submitted" in key
                   for key in check_monotonic(coord, "before the kill")):
                break
            time.sleep(0.2)
        pid = coord.kill_shard(first["shard"])
        print(f"[chaos] SIGKILL shard {first['shard']} (pid {pid}) with "
              f"repair {first['id']} journaled", flush=True)
        final = coord.wait(first["id"], timeout=300)
        if final["state"] != "done":
            failures.append(f"repair job ended {final['state']}: "
                            f"{final.get('error')}")

        # repair_* counters must surface on the telemetry plane and
        # never go backwards across the kill (streamed; poll briefly).
        deadline = time.monotonic() + 30
        totals: dict = {}
        while time.monotonic() < deadline:
            totals = check_monotonic(coord, "after the kill")
            if any("repair_submitted" in k for k in totals) and \
                    any("repair_completed" in k for k in totals):
                break
            time.sleep(0.5)
        for name in ("repair_submitted", "repair_completed",
                     "repair_faults_detected"):
            if not any(name in key for key in totals):
                failures.append(f"counter {name} missing from /metrics "
                                f"aggregation: {sorted(totals)}")
        stats = coord.stats()
        if stats["restarts"] < 1:
            failures.append("killed shard never respawned")

    # Exactly-once across the kill, proven from the journals alone.
    counts: dict = {}
    for path in sorted(journal_dir.glob("shard-*.jsonl")):
        try:
            for state, count in validate_journal(path).items():
                counts[state] = counts.get(state, 0) + count
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{path.name} failed validation: {exc}")
    if counts != {"done": 2}:
        failures.append(f"expected exactly the campaign + its repair "
                        f"done, got {counts}")

    # Determinism across the kill: an independent local repair of the
    # same prior under the same fault must verify and agree with the
    # platform's journaled row.
    local = repair(prior, [fault], options)
    if not local.solved:
        failures.append(f"local repair did not solve: {local.status.value}")
    else:
        verify_result(local.repaired)
        if any(seg in p.segments
               for p in local.repaired.flow_paths.values()):
            failures.append("local repaired routing rides the dead segment")
        from repro.experiments.batch import spec_row

        local_row = spec_row(local.repaired.spec, local.repaired)
        platform_row = final.get("row") or {}
        for key in ("status", "objective", "length_mm", "num_sets",
                    "num_valves"):
            if platform_row.get(key) != local_row.get(key):
                failures.append(
                    f"repair row diverged across the kill on {key!r}: "
                    f"platform {platform_row.get(key)} vs local "
                    f"{local_row.get(key)}")

    report = {
        "fault": {"segment": list(seg), "kind": "stuck_closed", "onset": 1},
        "detection": detection.summary(),
        "repair_job": first["id"],
        "final_jobs": counts,
        "repair_counters": {k: v for k, v in sorted(last.items())},
        "failures": failures,
    }
    (out / "summary.json").write_text(json.dumps(report, indent=2) + "\n")
    if failures:
        print("[chaos] FAIL:\n  - " + "\n  - ".join(failures))
        return 1
    print(f"[chaos] PASS: mid-campaign valve fault detected, repaired "
          f"exactly once across a shard SIGKILL ({counts}), routing "
          f"deterministic and verified")
    return 0


def orchestrate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    journal = out / "journal.jsonl"
    trace = out / "trace.jsonl"
    if journal.exists():
        journal.unlink()
    kill_after = KILL_AT
    base = [sys.executable, str(Path(__file__).resolve()), "--phase", "run",
            "--specs", str(args.specs), "--workers", str(args.workers),
            "--journal", str(journal), "--trace", str(trace)]

    print(f"[chaos] run 1: {args.specs} specs, SIGKILL at solve "
          f"#{kill_after} ...", flush=True)
    first = subprocess.run(base + ["--kill-after", str(kill_after)],
                           capture_output=True, text=True, timeout=900)
    if first.returncode != -signal.SIGKILL:
        print(first.stdout + first.stderr)
        print(f"[chaos] FAIL: run 1 should die by SIGKILL, "
              f"exited {first.returncode}")
        return 1
    survivors = validate_journal(journal)  # replayable even after a kill
    print(f"[chaos] run 1 killed as planned; journal survives with "
          f"{sum(survivors.values())} job(s): {survivors}", flush=True)

    print("[chaos] run 2: restart on the surviving journal ...", flush=True)
    second = subprocess.run(base, capture_output=True, text=True,
                            timeout=900)
    print(second.stdout, end="", flush=True)
    if second.returncode != 0:
        print(second.stderr)
        print(f"[chaos] FAIL: run 2 exited {second.returncode}")
        return 1
    summary_line = next(line for line in second.stdout.splitlines()
                        if line.startswith("SUMMARY "))
    summary = json.loads(summary_line[len("SUMMARY "):])

    failures = []
    # Exactly-once completion, proven from the journal alone:
    # validate_journal raises on any second terminal transition.
    counts = validate_journal(journal)
    if set(counts) - TERMINAL:
        failures.append(f"non-terminal jobs remain: {counts}")
    if sum(counts.values()) < args.specs:
        failures.append(f"lost jobs: {counts} < {args.specs} specs")
    if counts.get("failed"):
        failures.append(f"jobs failed despite the backend ladder: {counts}")

    # The trace must be schema-valid and show the whole story: injected
    # faults, retries, the breaker opening and recovering.
    data = read_trace_jsonl(trace)
    validate_trace_records(data.records)
    events = {r["name"] for r in data.records if r["type"] == "event"}
    for required in ("fault_injected", "job_retry", "breaker_open",
                     "breaker_close", "job_done", "drain"):
        if required not in events:
            failures.append(f"event {required!r} missing from trace")
    if summary["breakers"].get("chaos", {}).get("state") != "closed":
        failures.append(f"breaker never recovered: {summary['breakers']}")

    report = {
        "specs": args.specs,
        "kill_after": kill_after,
        "run1_jobs_surviving": survivors,
        "final_jobs": counts,
        "sentinels": summary["sentinels"],
        "breakers": summary["breakers"],
        "trace_records": len(data.records),
        "failures": failures,
    }
    (out / "summary.json").write_text(json.dumps(report, indent=2) + "\n")
    if failures:
        print("[chaos] FAIL:\n  - " + "\n  - ".join(failures))
        return 1
    print(f"[chaos] PASS: {sum(counts.values())} job(s) terminal exactly "
          f"once ({counts}), breaker opened and recovered, trace "
          f"schema-valid ({len(data.records)} records)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=["orchestrate", "run"],
                        default="orchestrate")
    parser.add_argument("--specs", type=int,
                        default=int(os.environ.get("REPRO_CHAOS_SPECS", 12)))
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default="chaos-artifacts")
    parser.add_argument("--journal", default="chaos-journal.jsonl")
    parser.add_argument("--trace", default="chaos-trace.jsonl")
    parser.add_argument("--kill-after", type=int, default=0)
    parser.add_argument("--shards", type=int, default=0,
                        help="run the sharded platform instead and "
                             "SIGKILL every shard process once")
    parser.add_argument("--valve-faults", action="store_true",
                        help="inject a mid-campaign valve fault, repair "
                             "through the platform and SIGKILL the "
                             "repair's shard")
    args = parser.parse_args(argv)
    if args.phase == "run":
        return phase_run(args)
    if args.valve_faults:
        return orchestrate_valve_faults(args)
    if args.shards:
        return orchestrate_shards(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
