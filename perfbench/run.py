"""Benchmark entry point: one workload, one seed, one measured run.

Run from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload fixed_sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the same inputs with layer spans on and prints the per-layer
metrics plus a waterfall. The last line of stdout is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Workloads, seeds and metric definitions are described in
perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for journals and stores; removed at the end of a run.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Hard wall-clock cap on one run, which must end within 180 s.
RUN_CAP_S = 170.0
#: Set-up is measured this many times per in-process run (the run's own
#: set-up plus fresh-interpreter repeats) and reported as the median.
SETUP_SAMPLES = 3

_cleanups = []


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def on_abort(fn) -> None:
    """Register a clean-up the wall-clock watchdog runs before exiting."""
    _cleanups.append(fn)


def _watchdog() -> None:
    print(f"perfbench: run exceeded {RUN_CAP_S:.0f}s; aborting",
          file=sys.stderr, flush=True)
    for fn in reversed(_cleanups):
        try:
            fn()
        except Exception as exc:  # keep tearing down the rest
            print(f"perfbench: clean-up failed: {exc}", file=sys.stderr)
    os._exit(3)


def metric_spec(trace: bool):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def emit(tally, metrics, trace: bool) -> None:
    """Print failure reasons, then the one-line JSON result."""
    wanted = metric_spec(trace)
    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise SystemExit(f"perfbench: metric set mismatch: missing {missing},"
                         f" unexpected {extra}")
    for reason in tally.reasons[:10]:
        print(f"FAILED {reason}")
    if tally.failed > 10:
        print(f"FAILED ... and {tally.failed - 10} more")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }), flush=True)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter for ``workload``."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def run(args) -> int:
    bootstrap()
    import workloads

    reference = workloads.load_reference(Path(args.reference))
    trace = bool(args.trace)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir()
    on_abort(lambda: shutil.rmtree(tmp, ignore_errors=True))

    def setup_done() -> float:
        return time.perf_counter() - T_START

    try:
        if args.workload == "service_mix":
            import service

            tally, metrics = service.run(
                args.seed, args.seconds, reference, trace, tmp, setup_done,
                on_abort, tiny=args.tiny)
        else:
            import inproc

            runner = inproc.run_traced if trace else inproc.run_untraced
            tally, metrics = runner(args.workload, args.seed, args.seconds,
                                    reference, setup_done)
            if not trace and not args.tiny:
                samples = [metrics["setup_s"]] + [
                    setup_probe(args.workload, args.seed)
                    for _ in range(SETUP_SAMPLES - 1)]
                metrics["setup_s"] = statistics.median(samples)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    emit(tally, metrics, trace)
    return 0


def smoke(args) -> int:
    """Tiny runs of every workload in both modes, plus a corrupted
    reference that must surface as failed operations."""
    bootstrap()
    import workloads

    script = str(Path(__file__).resolve())
    problems = []

    def one(workload, trace, reference=None):
        cmd = [sys.executable, script, "--workload", workload,
               "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1",
               "--trace", str(trace), "--tiny"]
        if reference is not None:
            cmd += ["--reference", str(reference)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=170)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            problems.append(f"{workload} trace={trace}: exit "
                            f"{out.returncode}: {out.stderr[-500:]}")
            return None
        result = json.loads(lines[-1])
        wanted = {m["name"]: m["unit"] for m in metric_spec(bool(trace))}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted:
            problems.append(f"{workload} trace={trace}: metrics {sorted(got)}"
                            f" != {sorted(wanted)}")
        if result["attempted"] < 1:
            problems.append(f"{workload} trace={trace}: nothing attempted")
        print(f"smoke {workload} trace={trace}: attempted "
              f"{result['attempted']} failed {result['failed']}", flush=True)
        return result

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = one(workload, trace)
            if result is not None and result["failed"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{result['failed']} failed on the default seed")

    # A corrupted reference entry must count as a failed operation. The
    # first two inputs of the stream are the first fixed_sweep input and
    # the first input service_mix submits without warming it.
    stream = workloads.fixed_stream(workloads.DEFAULT_SEED)
    keys = [workloads.content_key(next(stream)) for _ in range(2)]
    data = json.loads(Path(args.reference).read_text())
    for key in keys:
        status, objective = data["verdicts"][key]
        data["verdicts"][key] = ["optimal", (objective or 0.0) + 1.0] \
            if status == "no solution" else ["no solution", None]
    TMP_ROOT.mkdir(exist_ok=True)
    corrupted = TMP_ROOT / f"corrupted-reference-{os.getpid()}.json"
    try:
        corrupted.write_text(json.dumps(data))
        for workload in ("fixed_sweep", "service_mix"):
            result = one(workload, 0, corrupted)
            if result is not None and (result["failed"] < 1
                                       or result["correct"]):
                problems.append(f"{workload}: corrupted reference entries "
                                f"{keys} were not reported as failures")
    finally:
        corrupted.unlink(missing_ok=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED", flush=True)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(
        "fixed_sweep", "exact_search", "bb_search", "service_mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="verdict reference (default: the stored one)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs checking the metric set and the "
                             "failure accounting")
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)  # smoke-sized run
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one fresh set-up
    args = parser.parse_args()

    # SIGTERM unwinds like Ctrl-C, so every finally block stops the
    # processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    watchdog = threading.Timer(RUN_CAP_S, _watchdog)
    watchdog.daemon = True
    watchdog.start()
    if args.smoke:
        watchdog.cancel()
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        bootstrap()
        import inproc

        inproc.setup(args.workload, args.seed)
        print(time.perf_counter() - T_START)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
