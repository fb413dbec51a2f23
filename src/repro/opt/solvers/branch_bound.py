"""A self-contained branch-and-bound MILP solver.

This backend exists so the library has a fully-inspectable exact solver
that does not depend on HiGHS's branch-and-cut: LP relaxations are
solved by HiGHS's dual simplex through the binding scipy bundles (or
:func:`scipy.optimize.linprog` where that binding is missing; see
:mod:`repro.opt.incremental`), and the integer search is our own
best-first branch-and-bound with most-fractional branching and
incumbent rounding.

It is intended for small-to-medium models (hundreds of variables) and
as a cross-check oracle in tests; the HiGHS MILP backend remains the
default for the large synthesis models.

Implementation notes:

* One :class:`~repro.opt.incremental.IncrementalLP` is kept alive for
  the whole tree: the model is loaded into HiGHS once and each node
  only applies its bound *deltas* (a root-to-leaf ``(variable, side,
  value)`` chain stored on the node) — no per-node model rebuilds or
  bound-array copies.
* Every open node keeps the final simplex basis of its own LP, and both
  of its children hot-start from it. A child LP therefore depends only
  on its node, not on which nodes were solved in between.
* A root cutting-plane pass adds clique cuts derived from the pairwise
  at-most-one rows (:mod:`repro.opt.cuts`); the cuts are valid for the
  whole tree, so they simply extend the persistent LP.
* A validated warm start seeds the incumbent, so pruning starts with a
  finite cutoff; if the root bound already proves it optimal within the
  gap, the search returns immediately without opening a single node.
* Implied-integer variables (marked by the builder/linearizer) are
  excluded from the branch set.
* The ``time_limit`` clock starts before presolve, so it bounds total
  solver wall time.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.obs.trace import current_tracer
from repro.opt.cuts import clique_cuts, cut_rows
from repro.opt.incremental import IncrementalLP, map_back_solution
from repro.opt.model import Model
from repro.opt.result import Solution, SolveStatus
from repro.opt.solvers.base import SolverBackend

_INT_TOL = 1e-6


class _Node:
    """A branch-and-bound node: one bound delta layered on its parent.

    ``var < 0`` marks the root. ``is_ub`` selects which bound the delta
    replaces; the root-to-leaf delta chain is recovered on demand by
    :meth:`chain`, so the open-node heap never holds per-node copies of
    the bound arrays.
    """

    __slots__ = ("parent", "var", "is_ub", "value", "bound")

    def __init__(self, parent: Optional["_Node"], var: int, is_ub: bool,
                 value: float, bound: float) -> None:
        self.parent = parent
        self.var = var
        self.is_ub = is_ub
        self.value = value
        self.bound = bound

    def chain(self) -> List[Tuple[int, bool, float]]:
        """This node's bound deltas in root-to-leaf order."""
        deltas: List[Tuple[int, bool, float]] = []
        node: Optional[_Node] = self
        while node is not None and node.var >= 0:
            deltas.append((node.var, node.is_ub, node.value))
            node = node.parent
        deltas.reverse()
        return deltas


class BranchBoundBackend(SolverBackend):
    """Best-first branch-and-bound over a persistent hot-started LP."""

    name = "branch_bound"

    def __init__(self, max_nodes: int = 200_000, use_presolve: bool = True,
                 use_cuts: bool = True, cancel_event=None) -> None:
        self.max_nodes = max_nodes
        self.use_presolve = use_presolve
        self.use_cuts = use_cuts
        #: Optional :class:`threading.Event`; when set, the search stops
        #: at the next node boundary (used by the portfolio backend).
        self.cancel_event = cancel_event

    def solve(
        self,
        model: Model,
        time_limit: Optional[float] = None,
        mip_gap: float = 1e-9,
        verbose: bool = False,
        warm_start=None,
    ) -> Solution:
        # The clock starts here — before presolve — so time_limit bounds
        # the solver's total wall time, not just the tree search.
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None

        if self.use_presolve:
            from repro.opt.presolve import presolve

            reduction = presolve(model)
            presolve_s = time.perf_counter() - start
            if reduction.proven_infeasible:
                sol = Solution(SolveStatus.INFEASIBLE, solver=self.name,
                               message="presolve proved infeasibility")
                sol.timings.add("presolve", presolve_s)
                return sol
            inner = BranchBoundBackend(self.max_nodes, use_presolve=False,
                                       use_cuts=self.use_cuts,
                                       cancel_event=self.cancel_event)
            remaining = None
            if deadline is not None:
                remaining = max(deadline - time.perf_counter(), 0.0)
            sol = inner.solve(reduction.model, remaining, mip_gap, verbose,
                              warm_start=warm_start)
            sol = map_back_solution(sol, model, reduction, self.name)
            sol.timings.add("presolve", presolve_s)
            sol.counters["presolve_fixed"] = len(reduction.fixed)
            return sol

        if model.num_vars == 0:
            obj = model.objective
            const = getattr(obj, "constant", 0.0)
            return Solution(SolveStatus.OPTIMAL, const, {}, solver=self.name)

        form = model.compiled()
        lp = IncrementalLP(form)
        branch_idx = np.where(form.branch_integrality == 1)[0]
        int_idx = np.where(form.integrality == 1)[0]

        # Solver-progress telemetry (repro.obs): None when disabled, in
        # which case every emission site below is a single falsy check.
        tracer = current_tracer()

        cliques = clique_cuts(form) if self.use_cuts else []
        if cliques:
            lp.add_cuts(*cut_rows(form, cliques))
            if tracer is not None:
                tracer.event("cut_round", solver=self.name,
                             cuts=len(cliques), kind="clique")

        # Seed the incumbent from the (already validated) warm start.
        incumbent_x: Optional[np.ndarray] = None
        incumbent_val = math.inf
        incumbent_source = ""
        if warm_start is not None:
            x_warm = warm_start.vector(form)
            if x_warm is not None and lp.check_feasible(x_warm):
                incumbent_x = x_warm
                incumbent_val = float(form.c @ x_warm)
                incumbent_source = warm_start.source
                if tracer is not None:
                    tracer.event(
                        "incumbent", solver=self.name, nodes=0,
                        objective=form.report_objective(incumbent_val),
                        source=incumbent_source,
                    )

        root = lp.solve()
        if tracer is not None and root.status == 0:
            tracer.event("bound", solver=self.name,
                         bound=form.report_objective(root.fun), nodes=0)
        if root.status == 2:
            return Solution(SolveStatus.INFEASIBLE, solver=self.name)
        if root.status == 3:
            return Solution(SolveStatus.UNBOUNDED, solver=self.name)
        if root.status != 0:
            return Solution(SolveStatus.ERROR, solver=self.name, message=root.message)

        counter = itertools.count()
        root_node = _Node(None, -1, False, 0.0, root.fun)
        # Heap entries carry the node's LP solution and final basis.
        heap: List[Tuple[float, int, _Node, np.ndarray, Any]] = []
        heapq.heappush(heap, (root.fun, next(counter), root_node, root.x,
                              lp.basis()))
        nodes_explored = 0
        hit_limit = False

        def cutoff() -> float:
            """Prune threshold; +inf while no incumbent exists."""
            if math.isinf(incumbent_val):
                return math.inf
            return incumbent_val - mip_gap * max(1.0, abs(incumbent_val))

        def note_incumbent(value: float, nodes: int) -> None:
            if tracer is not None:
                tracer.event("incumbent", solver=self.name, nodes=nodes,
                             objective=form.report_objective(value),
                             source="search")

        while heap:
            bound, _, node, x, basis = heapq.heappop(heap)
            if bound >= cutoff():
                continue
            nodes_explored += 1
            if nodes_explored > self.max_nodes:
                hit_limit = True
                if tracer is not None:
                    tracer.event("progress", solver=self.name, stop="node_limit",
                                 nodes=nodes_explored)
                break
            if deadline is not None and time.perf_counter() > deadline:
                hit_limit = True
                if tracer is not None:
                    tracer.event("deadline", where=self.name,
                                 nodes=nodes_explored, budget=time_limit)
                break
            if self.cancel_event is not None and self.cancel_event.is_set():
                hit_limit = True
                if tracer is not None:
                    tracer.event("progress", solver=self.name, stop="cancelled",
                                 nodes=nodes_explored)
                break
            if tracer is not None and nodes_explored % 1024 == 0:
                tracer.event("progress", solver=self.name,
                             nodes=nodes_explored, open=len(heap),
                             lp_calls=lp.lp_calls,
                             bound=form.report_objective(bound))

            frac_i = self._most_fractional(x, branch_idx)
            if frac_i is None:
                # Integral relaxation solution: new incumbent.
                if bound < incumbent_val:
                    incumbent_val = bound
                    incumbent_x = x
                    note_incumbent(bound, nodes_explored)
                continue

            lp.set_bounds(node.chain())
            xf = x[frac_i]
            for direction in ("down", "up"):
                if direction == "down":
                    new_bound_value = math.floor(xf)
                    if lp.lb[frac_i] > new_bound_value:
                        continue
                    is_ub = True
                else:
                    new_bound_value = math.ceil(xf)
                    if new_bound_value > lp.ub[frac_i]:
                        continue
                    is_ub = False
                lp.set_basis(basis)
                with lp.tightened(frac_i, is_ub, float(new_bound_value)):
                    res = lp.solve()
                if res.status != 0:
                    continue  # infeasible or failed child: prune
                child_bound = res.fun
                child_x = res.x
                child_frac = self._most_fractional(child_x, branch_idx)
                if child_frac is None:
                    if child_bound < incumbent_val:
                        incumbent_val = child_bound
                        incumbent_x = child_x
                        note_incumbent(child_bound, nodes_explored)
                elif child_bound < cutoff():
                    child = _Node(node, int(frac_i), is_ub,
                                  float(new_bound_value), child_bound)
                    heapq.heappush(heap, (child_bound, next(counter), child,
                                          child_x, lp.basis()))

        counters = {
            "nodes": nodes_explored,
            "lp_calls": lp.lp_calls,
            "lp_iterations": lp.lp_iterations,
            "cuts": lp.cuts_added,
        }
        if incumbent_source:
            counters["incumbent_seeded"] = 1

        if incumbent_x is None:
            if hit_limit:
                sol = Solution(SolveStatus.TIME_LIMIT, solver=self.name,
                               message=f"stopped after {nodes_explored} nodes")
            else:
                sol = Solution(SolveStatus.INFEASIBLE, solver=self.name)
            sol.counters.update(counters)
            return sol

        x = incumbent_x.copy()
        x[int_idx] = np.round(x[int_idx])
        status = SolveStatus.FEASIBLE if hit_limit and heap else SolveStatus.OPTIMAL
        message = f"{nodes_explored} nodes explored"
        if incumbent_source:
            message += f"; incumbent seeded from {incumbent_source}"
        sol = Solution(
            status,
            form.report_objective(float(form.c @ x)),
            form.solution_dict(x),
            solver=self.name,
            message=message,
        )
        sol.counters.update(counters)
        return sol

    @staticmethod
    def _most_fractional(x: np.ndarray, int_idx: np.ndarray) -> Optional[int]:
        """Index of the integer variable farthest from integrality."""
        if int_idx.size == 0:
            return None
        vals = x[int_idx]
        frac = np.abs(vals - np.round(vals))
        worst = int(np.argmax(frac))
        if frac[worst] <= _INT_TOL:
            return None
        return int(int_idx[worst])
