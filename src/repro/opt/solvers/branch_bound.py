"""The in-repo branch-and-bound backend (``branch_bound``).

This backend exists so the library has a fully-inspectable exact solver
that does not depend on HiGHS's branch-and-cut: LP relaxations are
solved by HiGHS's dual simplex through the binding scipy bundles (or
:func:`scipy.optimize.linprog` where that binding is missing; see
:mod:`repro.opt.incremental`), and the integer search is the repo's one
branch-and-bound engine, :class:`~repro.opt.parallel.SubtreeExplorer`:
best-first, most-fractional branching, each child LP hot-started from
its parent's basis, clique cuts at the root, and a validated warm start
as the first incumbent.

It is the ``parallel_bb`` driver running one in-process task that holds
the whole ``max_nodes`` budget — no worker pool, no rounds. It is
intended for small-to-medium models (hundreds of variables) and as a
cross-check oracle in tests; the HiGHS MILP backend remains the default
for the large synthesis models. The ``time_limit`` clock starts before
presolve, so it bounds total solver wall time.
"""

from __future__ import annotations

from repro.opt.solvers.parallel_bb import ParallelBranchBoundBackend


class BranchBoundBackend(ParallelBranchBoundBackend):
    """Best-first branch-and-bound as one in-process subtree task."""

    name = "branch_bound"

    def __init__(self, max_nodes: int = 200_000) -> None:
        # The root task's budget is the whole node budget, so the
        # driver never leaves its serial phase.
        super().__init__(1, max_nodes=max_nodes, root_nodes=max_nodes)
