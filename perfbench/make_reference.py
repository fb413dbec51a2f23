"""Regenerate perfbench/reference.json, the verdict reference.

    python3 perfbench/make_reference.py

Solves every candidate spec with both exact backends (``highs`` and the
repo's ``branch_bound``) and keeps a verdict only where they agree on
the status and, within 1e-6 relative, on the objective. Candidates are
the first FIXED_PREFIX inputs of the fixed_sweep stream for the default
seed (which also cover service_mix, drawn from the same stream) and the
search panel that exact_search and bb_search cycle through on every
seed. Takes about three minutes on a 2-core host.
"""

import json
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core import SynthesisOptions, synthesize  # noqa: E402

import workloads  # noqa: E402

#: Far more fixed_sweep inputs than one run consumes, so a several-fold
#: faster program still finds every default-seed input in the reference.
FIXED_PREFIX = 1200
BACKENDS = ("highs", "branch_bound")


def verdict(spec, backend):
    result = synthesize(spec, SynthesisOptions(backend=backend,
                                               time_limit=120.0))
    objective = result.objective if result.status.value == "optimal" else None
    return result.status.value, objective


def main() -> int:
    candidates = {}
    for spec in islice(workloads.fixed_stream(workloads.DEFAULT_SEED),
                       FIXED_PREFIX):
        candidates.setdefault(workloads.content_key(spec), spec)
    for spec in workloads.search_panel():
        candidates.setdefault(workloads.content_key(spec), spec)
    print(f"{len(candidates)} distinct specs", flush=True)

    verdicts, disagreements = {}, 0
    start = time.perf_counter()
    for i, (key, spec) in enumerate(sorted(candidates.items())):
        found = [verdict(spec, backend) for backend in BACKENDS]
        (s1, o1), (s2, o2) = found
        agree = s1 == s2 and s1 in ("optimal", "no solution") and (
            o1 is None and o2 is None
            or o1 is not None and o2 is not None
            and abs(o1 - o2) <= 1e-6 * max(1.0, abs(o1)))
        if agree:
            verdicts[key] = [s1, o1]
        else:
            disagreements += 1
            print(f"disagree {spec.name}: {found}", flush=True)
        if i % 100 == 0:
            print(f"{i}/{len(candidates)} "
                  f"{time.perf_counter() - start:.0f}s", flush=True)
    out = {
        "default_seed": workloads.DEFAULT_SEED,
        "backends": list(BACKENDS),
        "fixed_prefix": FIXED_PREFIX,
        "verdicts": dict(sorted(verdicts.items())),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=0) + "\n")
    print(f"wrote {len(verdicts)} verdicts, {disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
