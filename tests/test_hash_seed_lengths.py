"""Reported channel lengths do not depend on ``PYTHONHASHSEED``.

A length summed over a set of segments takes the set's iteration
order, which follows the string hash seed, and so does the last bit of
the float sum. Two interpreters under different seeds solve the seven
application cases (fixed binding) and print the ``repr`` of the
result's length L, of its reduced switch's length, and of each
shortest-path route the contamination analysis builds; all of them
must match bit for bit across the seeds, and L must equal the reduced
switch's length.
"""

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src"))

SCRIPT = """\
import json
from repro.analysis.contamination import route_shortest
from repro.cases import CASE_REGISTRY
from repro.core import BindingPolicy, SynthesisOptions, synthesize

out = {}
for name in sorted(CASE_REGISTRY):
    spec = CASE_REGISTRY[name](BindingPolicy.FIXED)
    result = synthesize(spec, SynthesisOptions(pressure_sharing=False))
    routes = route_shortest(spec.switch, spec.fixed_binding, spec.flows)
    out[name] = {
        "status": result.status.value,
        "lengths": ([repr(result.flow_channel_length),
                     repr(result.reduced.flow_channel_length)]
                    if result.status.solved else None),
        "routes": [repr(routes[fid].length) for fid in sorted(routes)],
    }
print(json.dumps(out))
"""


def _lengths_under(seed: str):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_lengths_match_across_hash_seeds():
    first, second = _lengths_under("1"), _lengths_under("2")
    assert len(first) == 7
    assert first == second
    solved = {name: row["lengths"] for name, row in first.items()
              if row["lengths"] is not None}
    assert len(solved) >= 5
    for name, (length, reduced) in solved.items():
        assert length == reduced, name
