"""Multi-process branch-and-bound backend (``parallel_bb``).

The driver of the repo's one branch-and-bound engine
(:class:`~repro.opt.parallel.SubtreeExplorer`), built on
:mod:`repro.opt.parallel`:

* the coordinator expands the root serially until the frontier is wide
  enough (phase A), then runs *rounds*: pop a fixed best-first batch of
  subtrees, dispatch them to worker processes (idle workers steal the
  deepest pending subtree), and merge results at a barrier;
* every worker owns a persistent warm
  :class:`~repro.opt.incremental.IncrementalLP` plus the clique-cut
  pool, so per-node cost stays at the warm re-solve price;
* a shared ``multiprocessing.Value`` broadcasts incumbent bounds, and
  the search consumes it only at round boundaries (see the determinism
  contract in :mod:`repro.opt.parallel`);
* a SIGKILLed worker is detected via pipe EOF, its in-flight subtree is
  re-queued (re-running a task is deterministic) and the seat respawned.

With ``workers=1`` the same round machinery runs fully in-process —
that run is the determinism reference the multi-worker runs are
compared against in ``tests/test_parallel_bb.py``. With ``root_nodes``
at least ``max_nodes`` the phase-A root task holds the whole node
budget, so the search is one in-process task and never reaches the
rounds: that is the ``branch_bound`` backend
(:mod:`repro.opt.solvers.branch_bound`).

The search runs on the presolve-reduced compiled form
(:func:`repro.opt.presolve.presolve`); the columns presolve fixed are
added back to the returned values. The deadline is checked at every
node boundary of a task and between rounds. ``max_nodes`` caps every
phase-A task and stops the rounds once spent.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.deadline import Deadline
from repro.obs.trace import current_correlation, current_tracer
from repro.opt.model import Model
from repro.opt.parallel import (
    DISPATCH_BATCH,
    ROOT_EXPAND_NODES,
    TASK_NODE_BUDGET,
    SubtreeExplorer,
    WorkerPool,
    fold_hash,
    path_tie,
)
from repro.opt.result import Solution, SolveStatus
from repro.opt.solvers.base import SolverBackend
from repro.perf import PhaseTimings


def default_workers() -> int:
    """Worker-count default: the CPU count, clamped to [1, 4]."""
    return max(1, min(4, os.cpu_count() or 1))


class ParallelBranchBoundBackend(SolverBackend):
    """Deterministic multi-process best-first branch-and-bound."""

    name = "parallel_bb"

    def __init__(self, workers: Optional[int] = None, *,
                 max_nodes: int = 200_000,
                 root_nodes: int = ROOT_EXPAND_NODES,
                 fault_plan=None) -> None:
        self.workers = workers if workers else default_workers()
        if self.workers < 1:
            self.workers = 1
        self.max_nodes = max_nodes
        self.root_nodes = root_nodes
        #: Optional :class:`repro.testing.FaultPlan`; a ``"kill"`` draw
        #: SIGKILLs one busy worker that round (chaos testing).
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
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
        deadline = Deadline.start(time_limit)
        from repro.opt.presolve import presolve

        timings = PhaseTimings()
        with timings.phase("presolve"):
            reduction = presolve(model)
        if reduction.proven_infeasible:
            sol = Solution(SolveStatus.INFEASIBLE, solver=self.name,
                           message="presolve proved infeasibility")
        else:
            sol = self._search(reduction.form, deadline, mip_gap, warm_start)
            if sol.values is not None:
                found, fixed = sol.values, reduction.fixed
                sol.values = {v: fixed[v] if v in fixed else found[v]
                              for v in model.compiled().variables}
            sol.counters["presolve_fixed"] = len(reduction.fixed)
        sol.timings = timings
        return sol

    def _search(self, form, deadline: Deadline, mip_gap: float,
                warm_start) -> Solution:
        if form.n == 0:
            return Solution(SolveStatus.OPTIMAL, form.obj_offset, {},
                            solver=self.name)

        tracer = current_tracer()
        corr = current_correlation()
        # The root task holds the whole budget: one in-process task, no
        # pool, no rounds, and none of their telemetry.
        one_task = self.root_nodes >= self.max_nodes
        with ExitStack() as stack:
            coord_span = None
            if tracer is not None and not one_task:
                coord_span = stack.enter_context(tracer.span(
                    "parallel_bb", workers=self.workers, batch=DISPATCH_BATCH,
                    task_budget=TASK_NODE_BUDGET))
                tracer.metrics.gauge("bb_workers").set(self.workers)

            explorer = SubtreeExplorer(form, solver=self.name)
            if tracer is not None and explorer.cuts:
                tracer.event("cut_round", solver=self.name,
                             cuts=explorer.cuts, kind="clique")

            # Seed the incumbent from the (already validated) warm start.
            incumbent_x: Optional[np.ndarray] = None
            incumbent_val = math.inf
            incumbent_source = ""
            if warm_start is not None:
                x_warm = warm_start.vector(form)
                if x_warm is not None and explorer.lp.check_feasible(x_warm):
                    incumbent_x = x_warm
                    incumbent_val = float(form.c @ x_warm)
                    incumbent_source = warm_start.source
                    if tracer is not None:
                        tracer.event(
                            "incumbent", solver=self.name, nodes=0,
                            objective=form.report_objective(incumbent_val),
                            source=incumbent_source)

            def cutoff() -> float:
                if math.isinf(incumbent_val):
                    return math.inf
                return incumbent_val - mip_gap * max(1.0, abs(incumbent_val))

            def inline_run(task: Dict[str, Any]) -> Dict[str, Any]:
                wire = task["deadline"]
                return explorer.run_task(
                    task["chain"], task["path"],
                    incumbent_val=task["incumbent"],
                    node_budget=task["budget"], mip_gap=task["mip_gap"],
                    deadline=(Deadline.from_wire(wire)
                              if wire is not None else None),
                    shared_best=shared)

            pool: Optional[WorkerPool] = None
            if self.workers > 1 and not one_task:
                pool = WorkerPool(form, self.workers, inline_fn=inline_run,
                                  tracer=tracer)
                if pool.start():
                    stack.callback(pool.stop)
                    if tracer is not None:
                        for wid in range(self.workers):
                            stack.enter_context(tracer.span(
                                f"bb_worker:{wid}", parent=coord_span,
                                worker=wid))
                else:
                    # Pool unusable (e.g. spawn blocked or workers died
                    # warming up): degrade to in-process rounds — and
                    # say so, because the degradation is otherwise
                    # invisible from the merged trace.
                    pool = None
                    if tracer is not None:
                        tracer.event("pool_unavailable", solver=self.name,
                                     workers=self.workers)

            # The best value any task has found: tasks announce only
            # what beats it, so each improvement is reported once.
            shared = (pool.shared_best if pool is not None
                      else SimpleNamespace(value=incumbent_val))
            frontier: List[Tuple[float, int, tuple, tuple]] = []
            nodes_total = 0
            lp_calls = 0
            lp_iterations = 0
            order_hash = 0
            rounds = 0
            stopped: Optional[str] = None

            def expand(chain: tuple, path: tuple) -> Dict[str, Any]:
                """One phase-A task, capped by what is left of max_nodes."""
                return explorer.run_task(
                    chain, path, incumbent_val=incumbent_val,
                    node_budget=min(self.root_nodes,
                                    self.max_nodes - nodes_total),
                    mip_gap=mip_gap, deadline=deadline, shared_best=shared)

            def merge(results: List[Dict[str, Any]]) -> None:
                # Tasks announce their own incumbents as they find them;
                # the merge only folds results in, in sorted-path order.
                nonlocal nodes_total, lp_calls, lp_iterations
                nonlocal order_hash, incumbent_val, incumbent_x
                results.sort(key=lambda r: r["path"])
                for r in results:
                    nodes_total += r["nodes"]
                    lp_calls += r["lp_calls"]
                    lp_iterations += r["lp_iterations"]
                    order_hash = fold_hash(order_hash, r["order"])
                    if r["best_val"] < incumbent_val:
                        incumbent_val = r["best_val"]
                        incumbent_x = np.asarray(r["best_x"])
                co = cutoff()
                for r in results:
                    for bound, path, chain in r["leftovers"]:
                        if bound < co:
                            heappush(frontier, (bound, path_tie(path),
                                                path, chain))
                if incumbent_val < shared.value:
                    shared.value = incumbent_val
                    if tracer is not None and pool is not None:
                        tracer.event(
                            "incumbent_broadcast", solver=self.name,
                            objective=form.report_objective(incumbent_val),
                            round=rounds)

            # Phase A: serial root expansion to build the first frontier.
            root = expand((), ())
            root_status = root["root_status"]
            if root_status == 2:
                return Solution(SolveStatus.INFEASIBLE, solver=self.name)
            if root_status == 3:
                return Solution(SolveStatus.UNBOUNDED, solver=self.name)
            if root_status != 0:
                return Solution(SolveStatus.ERROR, solver=self.name,
                                message=f"root LP status {root_status}")
            merge([root])

            # Keep expanding serially until the frontier is wide enough
            # AND an incumbent exists — rounds prune against the round-
            # start incumbent only, so starting them with a finite
            # cutoff is what keeps the parallel tree close to the
            # serial one. Pure function of the model: deterministic.
            phase_a_cap = min(max(4 * self.root_nodes, 64), self.max_nodes)
            while (frontier and not deadline.expired()
                   and nodes_total < phase_a_cap
                   and (math.isinf(incumbent_val)
                        or len(frontier) < DISPATCH_BATCH)):
                bound, _, path, chain = heappop(frontier)
                if bound >= cutoff():
                    continue
                merge([expand(chain, path)])

            # Rounds: fixed-size best-first batches, barrier-merged.
            while frontier:
                if deadline.expired():
                    stopped = "deadline"
                    if tracer is not None:
                        tracer.event("deadline", where=self.name,
                                     nodes=nodes_total,
                                     budget=deadline.limit)
                    break
                if nodes_total >= self.max_nodes:
                    stopped = "node_limit"
                    break
                co = cutoff()
                batch: List[Tuple[float, tuple, tuple]] = []
                while frontier and len(batch) < DISPATCH_BATCH:
                    bound, _, path, chain = heappop(frontier)
                    if bound >= co:
                        continue
                    batch.append((bound, path, chain))
                if not batch:
                    break
                rounds += 1
                # Deepest-first dispatch order: the seats pull from the
                # front, so an idle worker "steals" the deepest subtree.
                batch.sort(key=lambda t: (-len(t[1]), t[1]))
                wire = deadline.to_wire()
                # Per-round budget ramp: early rounds stay short so the
                # incumbent (frozen per round for determinism) refreshes
                # quickly; later rounds amortize coordination. A pure
                # function of the round index — never of worker count.
                budget = min(TASK_NODE_BUDGET, 8 << (rounds - 1))
                dispatches = [
                    {"chain": chain, "path": path, "incumbent": incumbent_val,
                     "budget": budget, "mip_gap": mip_gap, "deadline": wire,
                     "home": i % self.workers, "corr": corr}
                    for i, (_, path, chain) in enumerate(batch)]
                if pool is not None:
                    kill_wid = None
                    if (self.fault_plan is not None
                            and self.fault_plan.draw() == "kill"):
                        kill_wid = rounds - 1
                    results = pool.run_round(dispatches, kill_wid=kill_wid)
                else:
                    results = [inline_run(d) for d in dispatches]
                merge(results)
                if tracer is not None:
                    tracer.event("progress", solver=self.name,
                                 nodes=nodes_total, open=len(frontier),
                                 round=rounds, lp_calls=lp_calls,
                                 bound=form.report_objective(
                                     min(b for b, _, _ in batch)))

            if stopped is not None and tracer is not None:
                tracer.event("progress", solver=self.name, stop=stopped,
                             nodes=nodes_total)

            counters = {
                "nodes": nodes_total,
                "lp_calls": lp_calls,
                "lp_iterations": lp_iterations,
                "cuts": explorer.lp.cuts_added,
                "node_order_hash": order_hash,
            }
            if not one_task:
                counters.update({
                    "bb_rounds": rounds,
                    "bb_workers": self.workers if pool is not None else 1,
                    "bb_steals": pool.steals if pool is not None else 0,
                    "bb_worker_restarts": (pool.restarts if pool is not None
                                           else 0),
                })
            if incumbent_source:
                counters["incumbent_seeded"] = 1

            if incumbent_x is None:
                if stopped is not None:
                    sol = Solution(
                        SolveStatus.TIME_LIMIT, solver=self.name,
                        message=f"stopped ({stopped}) after "
                                f"{nodes_total} nodes")
                else:
                    sol = Solution(SolveStatus.INFEASIBLE, solver=self.name)
                sol.counters.update(counters)
                return sol

            int_idx = np.where(form.integrality == 1)[0]
            x = incumbent_x.copy()
            x[int_idx] = np.round(x[int_idx])
            # A stop always leaves open nodes behind (a stopped task
            # returns the node it popped), so only a search that ran
            # out of nodes has proven its incumbent.
            status = (SolveStatus.OPTIMAL if stopped is None
                      else SolveStatus.FEASIBLE)
            if one_task:
                message = f"{nodes_total} nodes explored"
            else:
                message = (f"{nodes_total} nodes in {rounds} rounds "
                           f"({counters['bb_workers']} workers)")
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


__all__ = ["ParallelBranchBoundBackend", "default_workers"]
