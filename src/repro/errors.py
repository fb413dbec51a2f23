"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish modeling mistakes from solver outcomes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelError(ReproError):
    """An optimization model was constructed or used incorrectly.

    Examples: adding a variable twice, constraining a variable that
    belongs to a different model, or requesting the value of an
    expression before the model was solved.
    """


class LinearizationError(ModelError):
    """A quadratic term could not be linearized exactly.

    Products are linearized exactly only when at least one factor is
    binary (or both factors are bounded integers); anything else is
    rejected rather than approximated.
    """


class SolverError(ReproError):
    """A solver backend failed unexpectedly (not mere infeasibility)."""


class SolveTimeoutError(ReproError):
    """An exact solve hit its wall-clock budget without a conclusive answer.

    Distinct from :class:`SolverError` — a timeout is an expected
    outcome under a deadline, not a malfunction. Callers that can
    degrade (e.g. the pressure-sharing phase falling back to the greedy
    clique cover) catch this and substitute a validated approximation.
    """


class InjectedFaultError(SolverError):
    """A deliberately injected backend crash (see :mod:`repro.testing`).

    The fault-injection harness raises this subclass so tests (and the
    degradation ladder) can tell a rehearsed failure from a real one.
    """


class ServiceError(ReproError):
    """The synthesis job service was used or behaved incorrectly."""


class AdmissionError(ServiceError):
    """A job was shed: the service queue is full or no longer accepting.

    Raised at submit time so the *caller* decides whether to back off
    and retry — the service never silently drops an accepted job.
    """


class JournalError(ServiceError):
    """The write-ahead journal is unreadable or internally inconsistent.

    A truncated *final* line (the signature of a crash mid-append) is
    tolerated during replay and never raises; this error means the
    journal is damaged in a way replay cannot safely interpret.
    """


class RepairError(ReproError):
    """A degraded-hardware repair could not even be attempted (the
    prior result is unusable, or the fault set is malformed). A repair
    that *runs* but finds no routing reports through its result's
    status, not through this exception."""


class SwitchModelError(ReproError):
    """A switch structure was specified or queried incorrectly."""


class SpecError(ReproError):
    """A synthesis input specification is inconsistent.

    Examples: a flow referencing an unknown module, a fixed binding
    that names a pin not present on the selected switch model, or more
    connected modules than the switch has pins.
    """


class VerificationError(ReproError):
    """An independently-checked solution invariant was violated.

    The verifier in :mod:`repro.core.verify` re-checks every claim the
    synthesizer makes (contamination freedom, schedule validity,
    binding validity); any violation raises this error.
    """
