"""Solver backend registry.

Three exact backends are provided:

* ``"highs"`` — scipy's HiGHS MILP interface (default when available);
* ``"branch_bound"`` — our own best-first branch-and-bound over
  hot-started LP relaxations, run as one in-process task of the repo's
  one branch-and-bound engine (:mod:`repro.opt.parallel`);
* ``"parallel_bb"`` — the same engine spread over N worker processes
  with warm per-worker LPs and deterministic round-based coordination;
  the spec form ``"parallel_bb:N"`` pins the worker count.

``"auto"`` resolves to HiGHS when scipy provides it, else branch-and-bound.
The independent check on all of them is not a backend: it is the
model-free enumerator :func:`repro.testing.oracle.brute_force`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import SolverError
from repro.opt.solvers.base import SolverBackend
from repro.opt.solvers.branch_bound import BranchBoundBackend

#: Built-in backend names (plus the "auto" alias) — not overridable.
BUILTIN_BACKENDS = ("highs", "branch_bound", "parallel_bb")

#: User-registered backend factories (see :func:`register_backend`).
_CUSTOM_BACKENDS: Dict[str, Callable[[], SolverBackend]] = {}


def _highs_available() -> bool:
    try:
        from scipy.optimize import milp  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_backend_name(name: str = "auto") -> str:
    """Resolve ``"auto"`` to the concrete backend name it would pick."""
    if name == "auto":
        return "highs" if _highs_available() else "branch_bound"
    return name


def parse_backend_spec(name: str) -> Tuple[str, Optional[int]]:
    """Split a ``"backend:N"`` worker-count spec into its parts.

    ``"parallel_bb:4"`` → ``("parallel_bb", 4)``; a name without a
    suffix comes back as ``(name, None)``. Raises for a non-integer or
    non-positive worker count.
    """
    base, sep, suffix = name.partition(":")
    if not sep:
        return name, None
    try:
        workers = int(suffix)
    except ValueError:
        raise SolverError(
            f"bad backend spec {name!r}: worker count must be an integer")
    if workers < 1:
        raise SolverError(
            f"bad backend spec {name!r}: worker count must be >= 1")
    return base, workers


def register_backend(name: str, factory: Callable[[], SolverBackend],
                     replace: bool = False) -> None:
    """Register a custom backend factory under ``name``.

    The name then works anywhere a built-in backend name does —
    ``Model.solve(backend=...)``, ``SynthesisOptions.backend``. Built-in
    names (and ``"auto"``) cannot be shadowed; re-registering an
    existing custom name requires ``replace=True``. The primary
    consumer is the fault-injection harness
    (:mod:`repro.testing.faultinject`), which wraps a real backend in a
    crash/timeout/corruption layer.
    """
    if name == "auto" or name in BUILTIN_BACKENDS \
            or name.partition(":")[0] in BUILTIN_BACKENDS:
        raise SolverError(f"cannot shadow built-in backend {name!r}")
    if name in _CUSTOM_BACKENDS and not replace:
        raise SolverError(
            f"backend {name!r} already registered (pass replace=True)")
    _CUSTOM_BACKENDS[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a custom backend; unknown names are ignored."""
    _CUSTOM_BACKENDS.pop(name, None)


def _backend_factory(name: str) -> Callable[[], SolverBackend]:
    """The factory a backend name denotes; raises for an unknown name."""
    name = resolve_backend_name(name)
    if name in _CUSTOM_BACKENDS:
        return _CUSTOM_BACKENDS[name]
    if name == "highs":
        from repro.opt.solvers.highs import HighsBackend

        return HighsBackend
    if name == "branch_bound":
        return BranchBoundBackend
    base, workers = parse_backend_spec(name)
    if base == "parallel_bb":
        from repro.opt.solvers.parallel_bb import ParallelBranchBoundBackend

        return lambda: ParallelBranchBoundBackend(workers)
    raise SolverError(
        f"unknown solver backend {name!r}; expected 'auto', one of "
        f"{', '.join(BUILTIN_BACKENDS)} (parallel_bb also as "
        f"'parallel_bb:N') or a registered name")


def check_backend_name(name: str) -> None:
    """Raise :class:`SolverError` unless ``name`` denotes a backend.

    Accepts exactly what :func:`get_backend` accepts, without
    instantiating anything.
    """
    _backend_factory(name)


def get_backend(name: str = "auto") -> SolverBackend:
    """Instantiate a solver backend by name."""
    return _backend_factory(name)()


def available_backends() -> Dict[str, bool]:
    """Map of backend name to availability on this machine."""
    table = {
        "highs": _highs_available(),
        "branch_bound": True,
        "parallel_bb": True,
    }
    table.update({name: True for name in _CUSTOM_BACKENDS})
    return table


__all__ = ["get_backend", "check_backend_name", "register_backend",
           "unregister_backend", "resolve_backend_name",
           "parse_backend_spec", "available_backends", "BUILTIN_BACKENDS",
           "SolverBackend", "BranchBoundBackend"]
