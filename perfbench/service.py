"""service_mix: the deployed HTTP platform under two closed-loop clients.

Set-up starts ``repro serve --http 0`` twice, each with CLI defaults (2
shards x 2 workers) and a fresh journal directory, both on one store:

1. a warming pass submits WARM_INPUTS inputs (every other one of the
   stream's first 2 x WARM_INPUTS) through the front door, so the store
   holds results keyed exactly as the platform keys them (a store
   filled by in-process ``synthesize`` calls would not match: the CLI's
   options fingerprint differently from the library's defaults). Only
   optimal results are stored, about half of them;
2. the measured platform gets one stored input, then HIT_EVERY - 1
   inputs the warming pass never saw, and so on. It answers a stored
   one at admission (a hit, re-verified from the store) and queues the
   rest (a miss: queue, solve, journal, store put). Hits are a fixed
   share of the jobs, so the mix does not move with the seed's luck in
   feasible draws.

Each client POSTs one job, waits until it is terminal, then sends the
next, as ``repro submit --wait`` and ``run_batch(service=...)`` do.
"""

from __future__ import annotations

import collections
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import itertools
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import SynthesisOptions
from repro.io import spec_to_dict
from repro.service import options_from_dict, options_to_dict
from repro.service.http import (HTTPServiceError, fetch_trace, submit_job,
                                wait_job)
from repro.service.journal import TERMINAL_STATES
from repro.store import Store, load_result, result_key, store_result

import inproc
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
#: Inputs the warming pass solves; about half are stored.
WARM_INPUTS = 200
#: One job in this many is a stored input (a hit).
HIT_EVERY = 5
#: Per-job limit on the client side; a job is a failed operation past it.
JOB_LIMIT_S = 60.0
CLIENTS = 2
#: Hit inputs whose store read and write the traced run times directly.
STORE_PROBES = 40
PHASE_ROWS = {"catalog": "switches.catalog", "build": "core.build",
              "linearize": "opt.linearize", "solve": "opt.solve",
              "check": "opt.check", "extract": "core.extract_analyze",
              "analyze": "core.extract_analyze", "pressure": "core.pressure",
              "verify": "core.verify", "store": "store.phase"}


class Platform:
    """One ``repro serve --http 0`` child in its own process group."""

    def __init__(self, journal: Path, store: Path, tmp: Path,
                 on_abort: Callable) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        env["TMPDIR"] = str(tmp)
        env.pop("REPRO_STORE", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--http", "0",
             "--journal", str(journal), "--store", str(store)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        on_abort(self.kill)
        self.tail: collections.deque = collections.deque(maxlen=40)
        lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, args=(lines,),
                                        daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 90
        self.url = None
        while self.url is None:
            try:
                line = lines.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is None and time.monotonic() < deadline:
                    continue
                self.kill()
                raise RuntimeError("repro serve printed no 'serving:' line: "
                                   + " | ".join(self.tail))
            if line.startswith("serving:"):
                self.url = line.split()[1]

    def _drain(self, lines: "queue.Queue[str]") -> None:
        for line in self.proc.stdout:
            self.tail.append(line.rstrip())
            lines.put(line)

    def group_pids(self) -> List[int]:
        """Live (not zombie) processes of the platform's process group."""
        pids = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            fields = stat[stat.rindex(")") + 2:].split()
            if fields[0] != "Z" and int(fields[2]) == self.proc.pid:
                pids.append(int(entry.name))
        return pids

    def peak_rss_mb(self) -> float:
        """Largest VmHWM among the serve process and its shards."""
        peak = 0
        for pid in self.group_pids():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def kill(self) -> None:
        """SIGKILL the group, then wait until none of it is left: the
        serve process as its parent, its shards by polling."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while self.group_pids() and time.monotonic() < deadline:
            time.sleep(0.05)

    def stop(self) -> None:
        """Drain via SIGINT, then make sure the whole group is gone."""
        try:
            os.killpg(self.proc.pid, signal.SIGINT)
            self.proc.wait(timeout=30)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        self.kill()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


def _get_json(url: str) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def _failure(spec, job: Dict[str, Any], reference) -> Optional[str]:
    if job.get("state") != "done":
        return f"{spec.name}: job {job.get('id')} ended {job.get('state')!r}"
    row = job.get("row") or {}
    if row.get("status") not in ("optimal", "no solution") or row.get("error"):
        return f"{spec.name}: row {row.get('status')!r} {row.get('error')}"
    return workloads.verdict_mismatch(reference, spec, row["status"],
                                      row.get("objective"))


def _warm(url: str, specs: List) -> Dict[str, Dict[str, Any]]:
    """Submit ``specs`` from CLIENTS threads, wait for all of them and
    return their final jobs by spec name."""
    errors: List[str] = []
    jobs: Dict[str, Dict[str, Any]] = {}

    def client(part: List) -> None:
        try:
            ids = [(s.name, submit_job(url, spec_to_dict(s))["id"])
                   for s in part]
            for name, job_id in ids:
                job = wait_job(url, job_id, timeout=JOB_LIMIT_S)
                if job.get("state") not in TERMINAL_STATES:
                    errors.append(f"warm job {job_id} not finished")
                jobs[name] = job
        except Exception as exc:  # re-raised below from the main thread
            errors.append(f"warm pass failed: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client, args=(specs[i::CLIENTS],))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError("; ".join(errors[:3]))
    return jobs


def _mixed(stored: List, fresh: Iterator) -> Iterator:
    """One stored input, then HIT_EVERY - 1 fresh ones, while stored
    inputs last; fresh ones only after that."""
    stored_left = iter(stored)
    for index in itertools.count():
        spec = next(stored_left, None) if index % HIT_EVERY == 0 else None
        yield spec if spec is not None else next(fresh)


def _trace_intervals(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Shard-side intervals of one job from its flight-recorder trace."""
    events: Dict[str, float] = {}
    begins: Dict[int, Tuple[str, float, Optional[int]]] = {}
    synth: Optional[Tuple[int, float, float]] = None
    phases: Dict[int, Tuple[str, Optional[int], float]] = {}
    for rec in records:
        kind = rec.get("type")
        if kind == "event" and rec["name"] in ("job_submitted", "job_started",
                                               "job_done"):
            events[rec["name"]] = rec["t"]
        elif kind == "span_begin":
            begins[rec["span"]] = (rec["name"], rec["t"], rec.get("parent"))
        elif kind == "span_end" and rec["span"] in begins:
            name, t0, parent = begins[rec["span"]]
            if name == "synthesize" and parent is None:
                synth = (rec["span"], t0, rec["t"])
            elif name in PHASE_ROWS:
                phases[rec["span"]] = (name, parent, rec["dur"])
    if synth is None or not {"job_submitted", "job_started",
                             "job_done"} <= set(events):
        return {}
    span_id, begin, end = synth
    out = {"service.queue_wait": events["job_started"] - events["job_submitted"],
           "service.dispatch": begin - events["job_started"],
           "service.finish": events["job_done"] - end,
           "shard_interval": events["job_done"] - events["job_submitted"],
           "run": end - begin}
    covered = 0.0
    for name, parent, dur in phases.values():
        if parent == span_id:
            row = PHASE_ROWS[name]
            out[row] = out.get(row, 0.0) + dur
            covered += dur
    out["core.synthesize_other"] = (end - begin) - covered
    return out


def run(seed: int, seconds: float, reference, trace: bool, tmp: Path,
        setup_done: Callable[[], float], on_abort: Callable,
        tiny: bool = False):
    specs = workloads.service_stream(seed)
    pool = [next(specs) for _ in range(2 * (4 if tiny else WARM_INPUTS))]
    warmed, fresh = pool[0::2], itertools.chain(pool[1::2], specs)
    store_dir = tmp / "store"

    warm = Platform(tmp / "warm-journal", store_dir, tmp, on_abort)
    try:
        warm_jobs = _warm(warm.url, warmed)
    finally:
        warm.stop()
    stored = [spec for spec in warmed
              if (warm_jobs[spec.name].get("row") or {}).get("status")
              == "optimal"]
    inputs = _mixed(stored, fresh)

    platform = Platform(tmp / "journal", store_dir, tmp, on_abort)
    try:
        warmups = workloads.warmup_specs("service_mix")
        _warm(platform.url, warmups)
        setup_s = setup_done()
        jobs, tally, wall = _drive(platform.url, inputs, seconds, reference,
                                   trace)
        peak = platform.peak_rss_mb()
        stats = _get_json(f"{platform.url}/stats") if trace else {}
        journal_bytes = sum(p.stat().st_size
                            for p in (tmp / "journal").glob("*.jsonl"))
    finally:
        platform.stop()

    latencies = [j["latency"] for j in jobs]
    hits = sum(j["hit"] for j in jobs)
    # Printed on every run: a store key split shows up as a drop here.
    print(f"service_mix: {hits} of {len(jobs)} jobs answered from the "
          f"store (hit ratio {hits / max(len(jobs), 1):.3f})")
    if not trace:
        return tally, {
            "setup_s": setup_s,
            "throughput_per_s": len(jobs) / wall,
            "latency_p50_s": inproc.quantile(latencies, 0.5),
            "latency_p90_s": inproc.quantile(latencies, 0.9),
            "peak_rss_mb": peak,
        }
    return tally, _layer_metrics(jobs, stats, journal_bytes,
                                 tally.attempted + len(warmups), store_dir,
                                 tmp)


def _drive(url: str, inputs, seconds: float, reference, trace: bool):
    """CLIENTS closed-loop clients until ``seconds`` have passed."""
    lock = threading.Lock()
    jobs: List[Dict[str, Any]] = []
    tally = inproc.Tally()
    start = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                if time.perf_counter() - start >= seconds:
                    return
                spec = next(inputs)
            body = spec_to_dict(spec)
            t0 = time.perf_counter()
            try:
                job = submit_job(url, body)
                t_post = time.perf_counter()
                hit = job.get("state") in TERMINAL_STATES
                if not hit:
                    job = wait_job(url, job["id"], timeout=JOB_LIMIT_S)
                t_done = time.perf_counter()
            except HTTPServiceError as exc:  # 429 shed, 4xx/5xx
                with lock:
                    tally.record(f"{spec.name}: HTTP {exc.status}: {exc}")
                continue
            except Exception as exc:  # connection trouble, bad reply
                with lock:
                    tally.record(f"{spec.name}: {type(exc).__name__}: {exc}")
                continue
            record = {"spec": spec, "hit": hit, "latency": t_done - t0,
                      "post": t_post - t0, "attempts": job.get("attempts", 0)}
            reason = _failure(spec, job, reference)
            if trace and reason is None:
                t_fetch = time.perf_counter()
                try:
                    records = fetch_trace(url, job["id"])["records"]
                except (HTTPServiceError, OSError) as exc:
                    reason = f"{spec.name}: trace fetch failed: {exc}"
                else:
                    record["fetch"] = time.perf_counter() - t_fetch
                    record["shard"] = {} if hit else _trace_intervals(records)
            with lock:
                tally.record(reason)
                if reason is None:
                    jobs.append(record)

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, tally, time.perf_counter() - start


def _layer_metrics(jobs, stats, journal_bytes: int, journaled: int,
                   store_dir: Path, tmp: Path) -> Dict[str, float]:
    hits = [j for j in jobs if j["hit"]]
    misses = [j for j in jobs if not j["hit"] and j.get("shard")]
    rows: Dict[str, float] = {}
    wall = 0.0
    for job in misses:
        shard = job["shard"]
        wall += job["latency"]
        rows["service.submit"] = rows.get("service.submit", 0.0) + job["post"]
        for name in tracing.SERVICE_ROWS:
            if name in shard:
                rows[name] = rows.get(name, 0.0) + shard[name]
        overhead = job["latency"] - job["post"] - shard["shard_interval"]
        job["overhead"] = overhead
        rows["service.wait_overhead"] = \
            rows.get("service.wait_overhead", 0.0) + overhead
    share = tracing.print_waterfall("service_mix misses", rows, wall,
                                    tracing.SERVICE_ROWS, len(misses))
    tracing.print_waterfall(
        "service_mix hits", {"service.submit": sum(j["post"] for j in hits)},
        sum(j["latency"] for j in hits), ("service.submit",), len(hits))
    get_s, put_s = _store_probe(hits, store_dir, tmp)

    def mean_miss(key: str) -> float:
        return rows.get(key, 0.0) / len(misses) if misses else 0.0

    n = max(len(jobs), 1)
    metrics = {name: 0.0 for name in (
        "switches.paths", "switches.memo_hit_ratio", "core.model_vars",
        "core.model_rows", "core.heuristic_s", "core.warm_start_ratio",
        "opt.presolve_s", "opt.presolve_dropped_rows", "opt.presolve_fixed",
        "opt.nodes", "opt.lp_calls", "opt.lp_iterations",
        "opt.lp_iterations_per_node", "opt.nodes_per_s", "opt.cuts")}
    metrics.update({
        "switches.catalog_s": mean_miss("switches.catalog"),
        "core.build_s": mean_miss("core.build"),
        "core.extract_analyze_s": mean_miss("core.extract_analyze"),
        "core.pressure_s": mean_miss("core.pressure"),
        "core.verify_s": mean_miss("core.verify"),
        "opt.linearize_s": mean_miss("opt.linearize"),
        "opt.check_s": mean_miss("opt.check"),
        "opt.solve_s": mean_miss("opt.solve"),
        "store.hit_ratio": len(hits) / n,
        "store.get_s": get_s,
        "store.put_s": put_s,
        "service.submit_s": sum(j["post"] for j in jobs) / n,
        "service.queue_wait_s": mean_miss("service.queue_wait"),
        "service.run_s": sum(j["shard"]["run"] for j in misses)
        / max(len(misses), 1),
        "service.finish_s": mean_miss("service.finish"),
        "service.wait_overhead_s": mean_miss("service.wait_overhead"),
        "service.journal_bytes_per_job": journal_bytes / max(journaled, 1),
        "service.attempts_per_job": sum(j["attempts"] for j in jobs) / n,
        "service.hit_latency_p50_s": inproc.quantile(
            [j["latency"] for j in hits], 0.5),
        "service.miss_latency_p50_s": inproc.quantile(
            [j["latency"] for j in jobs if not j["hit"]], 0.5),
        "obs.trace_overhead_ratio": sum(j["latency"] + j["fetch"]
                                        for j in jobs)
        / max(sum(j["latency"] for j in jobs), 1e-9),
        "obs.telemetry_dropped": float(
            stats.get("telemetry", {}).get("dropped", 0)),
        "obs.attributed_share": share,
    })
    return metrics


def _store_probe(hits, store_dir: Path, tmp: Path) -> Tuple[float, float]:
    """Mean ``load_result`` and ``store_result`` wall on stored inputs,
    keyed exactly as the platform keys them (CLI default options)."""
    options = options_from_dict(options_to_dict(
        SynthesisOptions(time_limit=120.0, on_error="degrade")))
    store, scratch = Store(store_dir), Store(tmp / "store-probe")
    get_s = put_s = 0.0
    loaded = 0
    for job in hits[:STORE_PROBES]:
        spec = job["spec"]
        key = result_key(spec, options)
        t0 = time.perf_counter()
        result = load_result(store, key, spec)
        get_s += time.perf_counter() - t0
        if result is None:
            continue
        loaded += 1
        t0 = time.perf_counter()
        store_result(scratch, key, result)
        put_s += time.perf_counter() - t0
    probes = min(len(hits), STORE_PROBES)
    return (get_s / probes if probes else 0.0,
            put_s / loaded if loaded else 0.0)
