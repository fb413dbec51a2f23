"""Common interface for MILP solver backends."""

from __future__ import annotations

from typing import Optional

from repro.opt.model import Model
from repro.opt.result import Solution


class SolverBackend:
    """Interface every backend implements.

    ``model`` is the model as written, possibly with binary products;
    a backend reads it through :meth:`~repro.opt.model.Model.compiled`,
    the linear sparse form with products linearized, and returns values
    for every column of that form (``compiled.variables``, auxiliary
    product columns included). ``warm_start`` is an optional, already-validated
    :class:`~repro.opt.incremental.WarmStart`; backends that cannot use
    one must accept and ignore it. A warm start may only ever speed a
    search up — status and objective must not depend on it.
    """

    name = "base"

    def solve(
        self,
        model: Model,
        time_limit: Optional[float] = None,
        mip_gap: float = 1e-9,
        verbose: bool = False,
        warm_start=None,
    ) -> Solution:
        raise NotImplementedError
