"""Test harnesses: fault injection and a model-free oracle.

Nothing in here is used by the synthesis pipeline itself. It exists so
the test-suite (and curious users) can rehearse solver crashes,
timeouts and corrupted solutions deterministically and watch the
degradation ladder and the independent verifier do their jobs
(:mod:`repro.testing.faultinject`), and check every exact backend
against :func:`~repro.testing.oracle.brute_force`, which solves tiny
specs by enumeration without the model or any solver.
"""

from repro.testing.faultinject import (
    FaultPlan,
    FaultyBackend,
    corrupt_solution,
    flaky_backend_plan,
    install_faulty_backend,
    process_kill_plan,
)
from repro.testing.oracle import MAX_CANDIDATES, brute_force

__all__ = [
    "MAX_CANDIDATES",
    "brute_force",
    "FaultPlan",
    "FaultyBackend",
    "corrupt_solution",
    "install_faulty_backend",
    "flaky_backend_plan",
    "process_kill_plan",
]
