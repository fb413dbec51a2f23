"""Determinism guard for the batch runner's worker processes.

The batch runner can fan specs out over worker processes; that may not
change *results*. Objective values and statuses must match the serial
reference exactly — variable assignments may legitimately differ under
alternative optima, so the contract is stated on objectives, not on
assignments. (The ``parallel_bb`` backend has its own, stricter
contract in ``tests/test_parallel_bb.py``.)
"""

from repro.cases import suite_90
from repro.core import SynthesisOptions
from repro.experiments.batch import run_batch


def test_parallel_batch_matches_serial():
    """workers=2 must produce the identical row list as workers=1."""
    specs = suite_90()[:3]
    options = SynthesisOptions(time_limit=20)
    serial = run_batch(specs, options)
    parallel = run_batch(specs, options, workers=2)

    def essentials(batch):
        return [(r["case"], r["status"], r.get("objective"),
                 r.get("length_mm"), r.get("num_sets"), r.get("num_valves"))
                for r in batch.rows]

    assert essentials(parallel) == essentials(serial)
