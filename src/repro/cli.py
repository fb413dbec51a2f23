"""Command-line interface.

::

    python -m repro cases                       # list built-in cases
    python -m repro show-switch 8               # print switch structure
    python -m repro synthesize chip_sw1 --policy fixed --svg out.svg
    python -m repro synthesize my_case.json --json result.json
    python -m repro export-case chip_sw1 --policy fixed -o case.json
    python -m repro compare nucleic_acid        # vs spine / GRU baselines
    python -m repro synthesize chip_sw1 --trace run.jsonl
    python -m repro obs summarize run.jsonl --validate
    python -m repro obs timeline run.jsonl --svg timeline.svg
    python -m repro synthesize chip_sw1 --store ~/.cache/repro-store
    python -m repro cache stats --store ~/.cache/repro-store
    python -m repro cache gc --store ~/.cache/repro-store --max-bytes 100000000
    python -m repro cache verify --store ~/.cache/repro-store
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.analysis import compare_designs, format_table
from repro.cases import CASE_REGISTRY
from repro.core import BindingPolicy, SwitchSpec, SynthesisOptions, synthesize
from repro.errors import ReproError
from repro.io import load_spec, save_result, save_spec
from repro.opt.solvers import BUILTIN_BACKENDS
from repro.render import render_result, render_switch, save_svg
from repro.switches import CrossbarSwitch


def _resolve_spec(target: str, policy: Optional[str]) -> SwitchSpec:
    """A case name from the registry, or a path to a JSON spec."""
    if target in CASE_REGISTRY:
        binding = BindingPolicy(policy) if policy else BindingPolicy.UNFIXED
        return CASE_REGISTRY[target](binding)
    path = Path(target)
    if path.exists():
        spec = load_spec(path)
        if policy:
            raise ReproError(
                "--policy applies to registry cases only; edit the JSON's "
                "'binding' field instead"
            )
        return spec
    raise ReproError(
        f"unknown case {target!r}: not in the registry "
        f"({', '.join(sorted(CASE_REGISTRY))}) and not a file"
    )


def cmd_cases(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in sorted(CASE_REGISTRY.items()):
        spec = factory(BindingPolicy.UNFIXED)
        rows.append({
            "case": name,
            "#m": len(spec.modules),
            "#flows": len(spec.flows),
            "#conflicts": len(spec.conflicts),
            "switch": spec.switch.size_label,
        })
    print(format_table(rows))
    return 0


def cmd_show_switch(args: argparse.Namespace) -> int:
    if args.fpva:
        from repro.switches import make_fpva

        rows_text, sep, cols_text = args.fpva.partition("x")
        if not sep:
            raise ReproError(
                f"bad --fpva {args.fpva!r}: expected ROWSxCOLS, e.g. 3x4")
        try:
            switch = make_fpva(int(rows_text), int(cols_text))
        except ValueError:
            raise ReproError(
                f"bad --fpva {args.fpva!r}: expected ROWSxCOLS, "
                f"e.g. 3x4") from None
    elif args.pins is None:
        raise ReproError("show-switch needs a pin count or --fpva ROWSxCOLS")
    else:
        switch = CrossbarSwitch(args.pins)
    print(f"{switch.name}: {switch.n_pins} pins, {len(switch.nodes)} nodes, "
          f"{len(switch.segments)} segments, "
          f"total L={switch.total_length():.1f} mm")
    print("pins (clockwise):", ", ".join(switch.pins))
    print("nodes:", ", ".join(switch.nodes))
    if args.svg:
        save_svg(render_switch(switch), args.svg)
        print(f"structure rendered to {args.svg}")
    return 0


def _export_trace(tracer, spec: SwitchSpec, options: SynthesisOptions,
                  path: str, fmt: str) -> None:
    """Write the recorded trace in the requested format(s)."""
    from repro.obs import run_manifest, write_chrome_trace, write_trace_jsonl

    manifest = run_manifest(spec, options)
    base = Path(path)
    if fmt in ("jsonl", "both"):
        jsonl_path = base if fmt == "jsonl" else base.with_suffix(".jsonl")
        write_trace_jsonl(tracer, jsonl_path, manifest=manifest)
        print(f"trace written to {jsonl_path}")
    if fmt in ("chrome", "both"):
        chrome_path = (base if fmt == "chrome"
                       else base.with_suffix(".chrome.json"))
        write_chrome_trace(tracer, chrome_path, manifest=manifest)
        print(f"chrome trace written to {chrome_path} "
              "(load in Perfetto / chrome://tracing)")


def _cli_store(args: argparse.Namespace, required: bool = False):
    """The store named by ``--store`` (or ``REPRO_STORE``), or None."""
    from repro.store import Store, active_store

    path = getattr(args, "store", None)
    if path:
        return Store(path)
    store = active_store()
    if store is None and required:
        raise ReproError(
            "no store given: pass --store PATH or export REPRO_STORE")
    return store


def cmd_synthesize(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.case, args.policy)
    if args.faults:
        from repro.repair import mask_spec, parse_faults

        spec = mask_spec(spec, parse_faults(args.faults))
        print(f"masked {len(spec.switch.health.dead_segments)} faulty "
              f"segment(s); synthesizing on the degraded switch")
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer(spec.name)
    backend = args.backend
    if getattr(args, "workers", None):
        if backend != "parallel_bb":
            print("error: --workers only applies to --backend parallel_bb",
                  file=sys.stderr)
            return 2
        backend = f"parallel_bb:{args.workers}"
    options = SynthesisOptions(
        backend=backend,
        time_limit=args.time_limit,
        pressure_method=args.pressure,
        on_error=args.on_error,
        trace=tracer,
        store=_cli_store(args),
        cache=not args.no_cache,
    )
    print(f"synthesizing {spec.summary()} ...")
    result = synthesize(spec, options)
    if result.counters.get("store_hit"):
        print("(answered from the persistent store; re-verified)")
    if tracer is not None:
        _export_trace(tracer, spec, options, args.trace, args.trace_format)
    print(format_table([result.table_row()]))
    if result.counters.get("degraded"):
        print(f"note: exact solve failed ({result.error}); "
              "degraded to the validated greedy solution")
    elif result.error:
        print(f"note: {result.error}")
    if result.counters.get("pressure_degraded"):
        print("note: pressure-sharing ILP ran out of budget; "
              "greedy clique cover substituted")
    if args.profile and result.timings:
        from repro.perf import format_phase_table

        print("phase breakdown:")
        print(format_phase_table(result.timings))
    if not result.status.solved:
        return 1
    print(f"binding: {result.binding}")
    for fid, path in sorted(result.flow_paths.items()):
        print(f"  flow {fid} (set {result.set_of_flow(fid)}): {path}")
    if result.pressure:
        print(f"control inlets after pressure sharing: "
              f"{result.pressure.num_control_inlets}")
    if args.svg:
        save_svg(render_result(result), args.svg)
        print(f"layout rendered to {args.svg}")
    if args.json:
        save_result(result, args.json)
        print(f"result written to {args.json}")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    """Synthesize, strike the given faults mid-campaign, self-heal.

    The full closed loop on one chip: healthy synthesis, a simulated
    campaign under the fault plan (detection), then synthesis of the
    spec on the masked switch. Exit 0 when the repair re-solves
    exactly, 3 when it fell down the degradation ladder to the greedy
    rung, 1 when it has no solution or failed outright.
    """
    from repro.repair import detect_faults, parse_faults, repair

    spec = _resolve_spec(args.case, args.policy)
    faults = parse_faults(args.faults)
    backend = args.backend
    if getattr(args, "workers", None):
        if backend != "parallel_bb":
            print("error: --workers only applies to --backend parallel_bb",
                  file=sys.stderr)
            return 2
        backend = f"parallel_bb:{args.workers}"
    options = SynthesisOptions(
        backend=backend,
        time_limit=args.time_limit,
        on_error=args.on_error,
        store=_cli_store(args),
    )
    print(f"synthesizing healthy baseline for {spec.summary()} ...")
    prior = synthesize(spec, options)
    if not prior.status.solved:
        print(f"{spec.name}: healthy synthesis {prior.status.value}; "
              "nothing to repair")
        return 1
    detection = detect_faults(prior, faults)
    print(f"detection: {detection.summary()}")
    if not detection.detected:
        print("note: faults are benign for this routing; masking them "
              "out of the catalog anyway")
    outcome = repair(prior, faults, options)
    print(outcome.summary())
    if outcome.reachability.dead_pins:
        print("note: mask strands pin(s) "
              + ", ".join(outcome.reachability.dead_pins))
    rows = [dict(prior.table_row(), case=f"{spec.name} (healthy)"),
            dict(outcome.repaired.table_row(),
                 case=f"{spec.name} (repaired)")]
    print(format_table(rows))
    if not outcome.solved:
        error = outcome.repaired.error
        print(f"repair failed: {outcome.status.value}"
              + (f" ({error})" if error else ""))
        return 1
    for fid, path in sorted(outcome.repaired.flow_paths.items()):
        marker = "=" if fid in outcome.surviving_flows else "~"
        print(f"  flow {fid} {marker} {path}")
    if args.json:
        save_result(outcome.repaired, args.json)
        print(f"repaired result written to {args.json}")
    if args.svg:
        save_svg(render_result(outcome.repaired), args.svg)
        print(f"repaired layout rendered to {args.svg}")
    return 3 if outcome.degraded else 0


def cmd_export_case(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.case, args.policy)
    save_spec(spec, args.output)
    print(f"spec written to {args.output}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.case, args.policy)
    comparison = compare_designs(
        spec, SynthesisOptions(time_limit=args.time_limit)
    )
    print(format_table(comparison.rows()))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import estimate_execution_time, simulate, stuck_open

    spec = _resolve_spec(args.case, args.policy)
    result = synthesize(spec, SynthesisOptions(time_limit=args.time_limit))
    if not result.status.solved:
        print(f"{spec.name}: {result.status.value}")
        return 1
    report = simulate(result)
    print(f"{spec.name}: {report.summary()}")
    print(f"estimated routing time: "
          f"{estimate_execution_time(result).summary()}")
    if args.faults and result.valves.essential:
        print("\nstuck-open fault sweep over essential valves:")
        for key in sorted(result.valves.essential):
            faulty = simulate(result, faults=[stuck_open(*key)])
            verdict = "clean" if faulty.is_clean else faulty.summary()
            print(f"  {key[0]}-{key[1]}: {verdict}")
    return 0 if report.is_clean else 1


def cmd_layout(args: argparse.Namespace) -> int:
    from repro.chip import chip_layout
    from repro.render import render_chip

    spec = _resolve_spec(args.case, args.policy)
    result = synthesize(spec, SynthesisOptions(time_limit=args.time_limit))
    if not result.status.solved:
        print(f"{spec.name}: {result.status.value}")
        return 1
    layout = chip_layout(result)
    print(f"{spec.name}: {layout.summary()}")
    if args.svg:
        save_svg(render_chip(layout, result), args.svg)
        print(f"chip layout rendered to {args.svg}")
    return 0


def _service_options(args: argparse.Namespace) -> SynthesisOptions:
    return SynthesisOptions(time_limit=args.time_limit,
                            on_error=args.on_error)


def _serve_http(args: argparse.Namespace) -> int:
    """``repro serve --http``: the sharded network-facing platform.

    ``--journal`` names a *directory* here — each of the ``--shards``
    worker processes keeps its own ``shard-<i>.jsonl`` write-ahead
    journal inside it, so a SIGKILLed shard replays exactly its own
    work when the coordinator respawns it. The first line printed is
    ``serving: http://HOST:PORT ...`` (flushed), so scripts can bind
    port 0 and scrape the ephemeral port.
    """
    import signal as _signal
    import threading

    from repro.io import spec_to_dict
    from repro.service import (ServiceHTTPServer, ShardCoordinator,
                               options_to_dict, replay_journal)

    specs = [_resolve_spec(target, args.policy) for target in args.spec]
    options = _service_options(args)
    trace_dir = None
    if args.trace:
        from pathlib import Path

        trace_dir = str(Path(args.trace).parent) if Path(args.trace).suffix \
            else args.trace
    coordinator = ShardCoordinator(
        args.journal,
        shards=args.shards,
        workers=args.workers,
        queue_size=args.queue_size,
        options=options_to_dict(options),
        backends=args.backends.split(",") if args.backends else None,
        max_attempts=args.max_attempts,
        store=_cli_store(args),
        tenant_quota=args.tenant_quota,
        trace_dir=trace_dir,
    )
    stop_requested = threading.Event()
    for signum in (_signal.SIGINT, _signal.SIGTERM):
        _signal.signal(signum, lambda *_: stop_requested.set())
    with coordinator:
        for spec in specs:
            coordinator.submit(spec_to_dict(spec))
        with ServiceHTTPServer(coordinator, port=args.http) as server:
            print(f"serving: {server.url} ({args.shards} shard(s) x "
                  f"{args.workers} worker(s), journals in {args.journal})",
                  flush=True)
            stop_requested.wait()
        print(f"shutdown requested; draining in-flight jobs "
              f"(deadline {args.drain_timeout}s) ...")
        coordinator.stop(drain="inflight", deadline=args.drain_timeout)
    # The shards are gone; the journals are the ground truth now.
    states: dict = {}
    from pathlib import Path

    for path in sorted(Path(args.journal).glob("shard-*.jsonl")):
        for job in replay_journal(path).jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
    print("platform stopped: "
          + (", ".join(f"{k}={v}" for k, v in sorted(states.items()))
             or "no jobs"))
    pending = sum(count for state, count in states.items()
                  if state not in ("done", "degraded", "failed"))
    if pending:
        print(f"{pending} job(s) left journaled; re-run "
              f"`repro serve --http {args.http} --journal {args.journal}` "
              f"to finish")
        return 3
    return 1 if states.get("failed") else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the supervised job service over a write-ahead journal.

    Jobs come from the positional specs (if any) plus whatever pending
    work the journal replays from a previous — possibly killed — run.
    SIGINT/SIGTERM drain in-flight jobs under ``--drain-timeout``; the
    rest stays journaled for the next ``repro serve``. With ``--http``
    the same core runs sharded across processes behind an HTTP API —
    see :func:`_serve_http`.
    """
    from repro.service import SynthesisService, install_signal_handlers

    if args.http is not None:
        return _serve_http(args)

    specs = [_resolve_spec(target, args.policy) for target in args.spec]
    tracer = None
    if args.trace:
        from repro.obs import Tracer, use_tracer

        tracer = Tracer("serve")
    options = _service_options(args)
    service = SynthesisService(
        args.journal,
        workers=args.workers,
        queue_size=args.queue_size,
        options=options,
        backends=args.backends.split(",") if args.backends else None,
        max_attempts=args.max_attempts,
        store=_cli_store(args),
    )
    install_signal_handlers(service)

    def run() -> int:
        service.start()
        for spec in specs:
            service.submit(spec)
        health = service.health()
        print(f"serving: {health['outstanding']} job(s) outstanding, "
              f"{args.workers} worker(s), journal {args.journal}")
        outcome = service.run_until_complete()
        if outcome == "interrupted":
            print("shutdown requested; draining in-flight jobs "
                  f"(deadline {args.drain_timeout}s) ...")
        # An interrupt finishes only what is already on a worker —
        # queued jobs stay journaled for the next `repro serve`.
        drain = "inflight" if outcome == "interrupted" else True
        summary = service.stop(drain=drain, deadline=args.drain_timeout)
        states = service.stats()["jobs"]
        print("service stopped: "
              + ", ".join(f"{k}={v}" for k, v in sorted(states.items())))
        if summary["pending"]:
            print(f"{summary['pending']} job(s) left journaled as pending; "
                  f"re-run `repro serve --journal {args.journal}` to finish")
            return 3
        return 1 if states.get("failed") else 0

    if tracer is not None:
        from repro.obs import use_tracer

        with use_tracer(tracer):
            code = run()
        from repro.obs import run_manifest, write_trace_jsonl

        write_trace_jsonl(tracer, args.trace,
                          manifest=run_manifest(None, options))
        print(f"trace written to {args.trace}")
        return code
    return run()


def _submit_url(args: argparse.Namespace) -> int:
    """``repro submit --url``: hand the job to a running platform."""
    from repro.io import spec_to_dict
    from repro.service import HTTPServiceError, submit_job, wait_job
    from repro.service.journal import TERMINAL_STATES

    spec = _resolve_spec(args.case, args.policy)
    try:
        job = submit_job(args.url, spec_to_dict(spec),
                         tenant=args.tenant, priority=args.priority)
    except HTTPServiceError as exc:
        kind = "shed" if exc.status == 429 else "rejected"
        print(f"submission {kind} ({exc.status}): {exc}")
        return 1
    print(f"job {job['id']}: {job['state']} (shard {job.get('shard')})")
    if not args.wait:
        return 0
    if job["state"] not in TERMINAL_STATES:
        job = wait_job(args.url, job["id"], timeout=args.timeout)
    print(f"job {job['id']}: {job['state']} "
          f"(attempts {job.get('attempts', 0)})")
    if job.get("row"):
        print(format_table([{k: v for k, v in job["row"].items()
                             if v not in (None, "")}]))
    if job["state"] not in TERMINAL_STATES:
        print(f"job {job['id']} still {job['state']} after "
              f"{args.timeout}s; it stays journaled on the platform")
        return 3
    return 0 if job["state"] in ("done", "degraded") else 1


def cmd_submit(args: argparse.Namespace) -> int:
    """Journal one job; with ``--wait``, also drain the journal and
    print the job's terminal row.

    Exit codes mirror ``repro serve``: 0 done/degraded, 1 failed,
    3 when the job is left journaled but not terminal (interrupted
    while waiting, or ``--url --wait`` timed out).
    """
    from repro.io import spec_to_dict
    from repro.service import (Journal, JobRecord, SynthesisService,
                               install_signal_handlers, job_id_for,
                               options_to_dict)

    if (args.url is None) == (args.journal is None):
        print("submit needs exactly one of --journal or --url")
        return 2
    if args.url is not None:
        return _submit_url(args)
    spec = _resolve_spec(args.case, args.policy)
    options = _service_options(args)
    job_id = job_id_for(spec, options)
    if not args.wait:
        with Journal(args.journal) as journal:
            existing = journal.jobs.get(job_id)
            if existing is not None:
                print(f"job {job_id} already journaled "
                      f"(state {existing.state})")
            else:
                journal.record_job(JobRecord(
                    job_id, spec_to_dict(spec), options_to_dict(options)))
                print(f"job {job_id} journaled as submitted; "
                      f"run `repro serve --journal {args.journal}` to "
                      f"execute it")
        return 0
    # Signal-aware wait: an interrupt drains in-flight work and leaves
    # the rest journaled — exit 3 says "pending, resumable", the same
    # contract as `repro serve` (see docs/service.md).
    service = SynthesisService(args.journal, workers=args.workers,
                               options=options, store=_cli_store(args))
    install_signal_handlers(service)
    service.start()
    service.submit(spec, options, tenant=args.tenant,
                   priority=args.priority)
    print(f"waiting: job {job_id} (journal {args.journal})", flush=True)
    outcome = service.run_until_complete()
    if outcome == "interrupted":
        print("interrupt: draining in-flight jobs; the rest stays "
              f"journaled in {args.journal}")
    service.stop(drain="inflight" if outcome == "interrupted" else True,
                 deadline=args.drain_timeout)
    record = service.job(job_id)
    print(f"job {job_id}: {record.state} "
          f"(attempts {record.attempts})")
    if record.row:
        print(format_table([{k: v for k, v in record.row.items()
                             if v not in (None, "")}]))
    if not record.terminal:
        print(f"job {job_id} left journaled as {record.state}; re-run "
              f"`repro submit {args.case} --journal {args.journal} --wait` "
              f"or `repro serve --journal {args.journal}` to finish")
        return 3
    return 0 if record.state in ("done", "degraded") else 1


def cmd_cache_stats(args: argparse.Namespace) -> int:
    stats = _cli_store(args, required=True).stats()
    print(f"store {stats['root']}: {stats['entries']} entries, "
          f"{stats['bytes']} bytes"
          + (f" (cap {stats['max_bytes']})" if stats["max_bytes"] else ""))
    print(f"salt: {stats['salt']}")
    for kind, count in stats["by_kind"].items():
        print(f"  {kind}: {count}")
    counters = {k: v for k, v in stats["counters"].items() if v}
    if counters:
        print("this process: "
              + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())))
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _cli_store(args, required=True)
    report = store.gc(max_bytes=args.max_bytes)
    print(f"gc: evicted {report['evicted']} entries "
          f"({report['freed_bytes']} bytes); kept {report['kept']} "
          f"({report['kept_bytes']} bytes)")
    if args.max_bytes is None and store.max_bytes is None:
        print("note: no byte cap given (--max-bytes); nothing to evict")
    return 0


def cmd_cache_verify(args: argparse.Namespace) -> int:
    report = _cli_store(args, required=True).verify(repair=not args.no_repair)
    print(f"verify: {report['valid']}/{report['checked']} entries valid")
    for item in report["invalid"]:
        action = "kept" if args.no_repair else "removed"
        print(f"  {item['key'][:16]}...: {item['problem']} ({action})")
    return 1 if report["invalid"] else 0


def cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs import (format_summary, read_trace_jsonl,
                           validate_trace_records)

    data = read_trace_jsonl(args.trace)
    if args.validate:
        validate_trace_records(data.records)
        print(f"{args.trace}: schema valid "
              f"({len(data.records)} records)")
    print(format_summary(data))
    return 0


def cmd_obs_top(args: argparse.Namespace) -> int:
    """``repro obs top --url``: live view of a running HTTP platform.

    Polls ``GET /stats`` and ``GET /metrics`` and renders a compact
    refresh-in-place dashboard.  ``--iterations`` bounds the loop (0
    means run until interrupted), so scripts and tests can take a
    single snapshot with ``--iterations 1``.
    """
    import json as _json
    import time as _time
    from urllib.request import urlopen

    from repro.service import fetch_metrics

    base = args.url.rstrip("/")

    def snapshot() -> str:
        with urlopen(f"{base}/stats", timeout=30.0) as resp:
            stats = _json.loads(resp.read().decode("utf-8"))
        lines = [f"platform {base}"]
        jobs = stats.get("jobs") or {}
        lines.append("  jobs:    "
                     + (", ".join(f"{k}={v}" for k, v in sorted(jobs.items()))
                        or "none"))
        lines.append(f"  queue:   depth={stats.get('queue_depth', 0)} "
                     f"high-water={stats.get('queue_depth_max', 0)} "
                     f"in-flight={stats.get('in_flight', 0)} "
                     f"shed={stats.get('shed', 0)}")
        shards = stats.get("shards") or {}
        running = sum(1 for s in shards.values()
                      if s.get("state") == "running")
        lines.append(f"  shards:  {running}/{len(shards)} running "
                     f"restarts={stats.get('restarts', 0)} "
                     f"worker-crashes={stats.get('worker_crashes', 0)}")
        tele = stats.get("telemetry") or {}
        lines.append(f"  streams: {tele.get('sources', 0)} source(s), "
                     f"dropped={tele.get('dropped', 0)}, "
                     f"rejected={tele.get('rejected', 0)}")
        for name, hist in sorted((stats.get("latency") or {}).items()):
            count = hist.get("count", 0)
            mean = hist.get("sum", 0.0) / count if count else 0.0
            lines.append(f"  {name}: n={count} mean={mean:.3f}s "
                         f"max={hist.get('max', 0.0):.3f}s")
        counters = []
        for line in fetch_metrics(base).splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            if name.startswith(("solver_", "store_", "service_jobs_")):
                counters.append(line)
        if counters:
            lines.append("  metrics:")
            lines.extend(f"    {line}" for line in counters[:args.rows])
            if len(counters) > args.rows:
                lines.append(f"    ... {len(counters) - args.rows} more "
                             f"(see GET /metrics)")
        return "\n".join(lines)

    iteration = 0
    prev_lines = 0
    try:
        while True:
            text = snapshot()
            if prev_lines and sys.stdout.isatty():
                # Crawl back over the previous frame so the dashboard
                # refreshes in place instead of scrolling.
                print(f"\x1b[{prev_lines}A\x1b[J", end="")
            print(text, flush=True)
            prev_lines = text.count("\n") + 1
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_obs_compare(args: argparse.Namespace) -> int:
    from repro.obs import format_comparison, read_trace_jsonl

    a = read_trace_jsonl(args.trace_a)
    b = read_trace_jsonl(args.trace_b)
    print(format_comparison(a, b))
    return 0


def cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.obs import ascii_timeline, read_trace_jsonl

    data = read_trace_jsonl(args.trace)
    print(ascii_timeline(data))
    if args.svg:
        from repro.render import render_incumbent_timeline

        save_svg(render_incumbent_timeline(data), args.svg)
        print(f"timeline rendered to {args.svg}")
    return 0


#: ``--backend`` choices: the registry's built-in names plus ``auto``.
BACKEND_CHOICES = ("auto",) + BUILTIN_BACKENDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contamination-free microfluidic switch synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cases", help="list built-in application cases")
    p.set_defaults(func=cmd_cases)

    p = sub.add_parser("show-switch", help="describe a switch model")
    p.add_argument("pins", type=int, nargs="?",
                   choices=[8, 12, 16, 24, 32],
                   help="crossbar pin count (omit with --fpva)")
    p.add_argument("--fpva", metavar="ROWSxCOLS",
                   help="describe a fully-programmable valve-array grid "
                        "instead (e.g. 3x4)")
    p.add_argument("--svg", help="render the structure to this SVG file")
    p.set_defaults(func=cmd_show_switch)

    p = sub.add_parser("synthesize", help="synthesize a case or JSON spec")
    p.add_argument("case", help="registry case name or path to a JSON spec")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy],
                   help="binding policy (registry cases)")
    p.add_argument("--backend", default="auto", choices=BACKEND_CHOICES)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for --backend parallel_bb "
                        "(default: CPU count, capped at 4)")
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--pressure", default="ilp", choices=["ilp", "greedy"])
    p.add_argument("--on-error", default="degrade",
                   choices=["raise", "capture", "degrade"],
                   help="failure policy: propagate, capture into the "
                        "result, or fall back to the greedy heuristic")
    p.add_argument("--profile", action="store_true",
                   help="print the per-phase wall-clock breakdown")
    p.add_argument("--svg", help="render the result to this SVG file")
    p.add_argument("--json", help="write the result to this JSON file")
    p.add_argument("--trace",
                   help="record an observability trace to this file")
    p.add_argument("--trace-format", default="jsonl",
                   choices=["jsonl", "chrome", "both"],
                   help="trace export format: JSONL event stream, Chrome "
                        "trace_event JSON (Perfetto-loadable), or both "
                        "(derives .jsonl / .chrome.json suffixes)")
    p.add_argument("--store",
                   help="persistent solve cache directory (also honors "
                        "the REPRO_STORE environment variable)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore any store (explicit or REPRO_STORE): "
                        "cold solve, no write-through")
    p.add_argument("--faults", metavar="SPEC",
                   help="synthesize on a degraded switch: semicolon-"
                        "separated 'a-b:kind' valve faults (kinds "
                        "stuck_open/stuck_closed/blocked_segment, "
                        "short open/closed/blocked) masked out of the "
                        "path catalog before solving")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "repair",
        help="synthesize, inject valve faults, and self-heal the routing")
    p.add_argument("case", help="registry case name or path to a JSON spec")
    p.add_argument("--faults", required=True, metavar="SPEC",
                   help="semicolon-separated 'a-b:kind[@step]' valve "
                        "faults to strike (kinds stuck_open/stuck_closed/"
                        "blocked_segment, short open/closed/blocked; "
                        "@step delays the onset mid-campaign)")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy])
    p.add_argument("--backend", default="auto", choices=BACKEND_CHOICES)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for --backend parallel_bb")
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--on-error", default="degrade",
                   choices=["raise", "capture", "degrade"])
    p.add_argument("--store",
                   help="persistent solve cache (fault-salted keys keep "
                        "degraded results apart; also honors REPRO_STORE)")
    p.add_argument("--svg", help="render the repaired layout to this file")
    p.add_argument("--json", help="write the repaired result to this file")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("export-case", help="write a registry case as JSON")
    p.add_argument("case")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy])
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_case)

    p = sub.add_parser("compare", help="compare against spine/GRU baselines")
    p.add_argument("case")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy])
    p.add_argument("--time-limit", type=float, default=120.0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate",
                       help="synthesize then execute in the simulator")
    p.add_argument("case")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy])
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--faults", action="store_true",
                   help="also sweep stuck-open faults over essential valves")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("layout", help="chip co-layout around the switch")
    p.add_argument("case")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy])
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--svg", help="render the chip to this SVG file")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser(
        "serve",
        help="run the journaled synthesis job service until drained")
    p.add_argument("spec", nargs="*",
                   help="registry case names or JSON spec paths to submit "
                        "(on top of any pending work replayed from the "
                        "journal)")
    p.add_argument("--journal", required=True,
                   help="write-ahead journal path (JSONL); survives kills "
                        "and resumes on the next serve")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy])
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queue-size", type=int, default=256)
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--backends",
                   help="comma-separated backend degradation ladder "
                        "(default: the single auto backend)")
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--on-error", default="degrade",
                   choices=["raise", "capture", "degrade"])
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds granted to in-flight jobs on "
                        "SIGINT/SIGTERM before the rest is journaled "
                        "as pending")
    p.add_argument("--trace",
                   help="record the service's obs trace to this JSONL file")
    p.add_argument("--store",
                   help="persistent solve cache shared by the workers "
                        "(submissions already stored complete at "
                        "admission; also honors REPRO_STORE)")
    p.add_argument("--http", type=int, metavar="PORT",
                   help="serve the sharded HTTP/JSON platform on this "
                        "port (0 = ephemeral; --journal becomes a "
                        "directory of per-shard journals)")
    p.add_argument("--shards", type=int, default=2,
                   help="worker processes behind --http, each with its "
                        "own journal and a share of the job space")
    p.add_argument("--tenant-quota", type=int, default=None,
                   help="per-tenant cap on queued jobs per shard "
                        "(beyond it submissions are shed with a "
                        "tenant-quota reason)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="journal one synthesis job (optionally wait for its result)")
    p.add_argument("case", help="registry case name or path to a JSON spec")
    p.add_argument("--journal",
                   help="write-ahead journal for local submission "
                        "(exactly one of --journal/--url)")
    p.add_argument("--url",
                   help="base URL of a running `repro serve --http` "
                        "platform to submit to instead of a local journal")
    p.add_argument("--policy", choices=[b.value for b in BindingPolicy])
    p.add_argument("--wait", action="store_true",
                   help="start an in-process service on the journal, drain "
                        "it (this job included) and print the result; "
                        "with --url, long-poll the platform instead")
    p.add_argument("--tenant", default=None,
                   help="tenant label for quotas and per-tenant metrics")
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority (higher pops first; default 0)")
    p.add_argument("--timeout", type=float, default=None,
                   help="with --url --wait: give up (exit 3) after this "
                        "many seconds; default waits indefinitely")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="with --wait: seconds granted to the in-flight "
                        "job on SIGINT/SIGTERM before exiting 3 with "
                        "the journal still pending")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--time-limit", type=float, default=120.0)
    p.add_argument("--on-error", default="degrade",
                   choices=["raise", "capture", "degrade"])
    p.add_argument("--store",
                   help="persistent solve cache (used with --wait; "
                        "also honors REPRO_STORE)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("cache",
                       help="inspect and maintain a persistent solve store")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    q = cache_sub.add_parser("stats",
                             help="entry counts, bytes and kinds of a store")
    q.add_argument("--store",
                   help="store directory (default: REPRO_STORE)")
    q.set_defaults(func=cmd_cache_stats)

    q = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a byte cap")
    q.add_argument("--store",
                   help="store directory (default: REPRO_STORE)")
    q.add_argument("--max-bytes", type=int, default=None,
                   help="byte cap to enforce now (default: the store's "
                        "configured cap, if any)")
    q.set_defaults(func=cmd_cache_gc)

    q = cache_sub.add_parser(
        "verify",
        help="validate every entry envelope; removes damaged ones")
    q.add_argument("--store",
                   help="store directory (default: REPRO_STORE)")
    q.add_argument("--no-repair", action="store_true",
                   help="report damage without deleting the entries")
    q.set_defaults(func=cmd_cache_verify)

    p = sub.add_parser("obs", help="inspect recorded observability traces")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser("summarize",
                           help="span/event/metric summary of one trace")
    q.add_argument("trace", help="JSONL trace file (from --trace)")
    q.add_argument("--validate", action="store_true",
                   help="check the trace against the repro-obs-v1 schema "
                        "invariants first")
    q.set_defaults(func=cmd_obs_summarize)

    q = obs_sub.add_parser("top",
                           help="live stats/metrics view of a running "
                                "`repro serve --http` platform")
    q.add_argument("--url", required=True,
                   help="base URL printed by `repro serve --http`")
    q.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (default 2)")
    q.add_argument("--iterations", type=int, default=0,
                   help="stop after this many frames (0 = until Ctrl-C)")
    q.add_argument("--rows", type=int, default=12,
                   help="max metric lines shown per frame (default 12)")
    q.set_defaults(func=cmd_obs_top)

    q = obs_sub.add_parser("compare",
                           help="span-level diff between two traces")
    q.add_argument("trace_a")
    q.add_argument("trace_b")
    q.set_defaults(func=cmd_obs_compare)

    q = obs_sub.add_parser("timeline",
                           help="incumbent-vs-time chart of one trace")
    q.add_argument("trace", help="JSONL trace file (from --trace)")
    q.add_argument("--svg", help="also render the timeline to this SVG file")
    q.set_defaults(func=cmd_obs_timeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
