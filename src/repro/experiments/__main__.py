"""CLI for the experiment runners: ``python -m repro.experiments``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments.runners import RUNNERS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the paper's tables and figures",
    )
    parser.add_argument("experiment", choices=sorted(RUNNERS) + ["all"])
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="seconds per solver call where applicable")
    parser.add_argument("--backend", default=None,
                        help="solver backend spec for every synthesis call "
                             "(e.g. branch_bound, parallel_bb, parallel_bb:4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the parallel_bb backend "
                             "(shorthand for --backend parallel_bb:N)")
    parser.add_argument("-o", "--outdir", default="experiment_output",
                        help="directory for reports and SVG artifacts")
    args = parser.parse_args(argv)

    backend = args.backend
    if args.workers:
        if backend not in (None, "parallel_bb"):
            parser.error("--workers only applies to --backend parallel_bb")
        backend = f"parallel_bb:{args.workers}"

    names = sorted(RUNNERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner = RUNNERS[name]
        kwargs = {"outdir": args.outdir}
        if "time_limit" in runner.__code__.co_varnames:
            kwargs["time_limit"] = args.time_limit
        if backend and "backend" in runner.__code__.co_varnames:
            kwargs["backend"] = backend
        report = runner(**kwargs)
        print(report.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
