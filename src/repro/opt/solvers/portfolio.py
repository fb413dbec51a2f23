"""Portfolio backend: race multiple exact solvers, first winner cancels the rest.

MILP solve times are notoriously instance-dependent: HiGHS's
branch-and-cut dominates on the large synthesis models, but on small
heavily-presolvable instances our own branch-and-bound (whose presolve
fixes whole blocks of ``x`` under the fixed binding policy) can finish
first. The portfolio runs both on threads against the same compiled
model and returns the first *conclusive* result, setting a cancellation
event so the loser stops burning CPU at its next node boundary.

Determinism: both members are exact solvers, so whichever finishes
first the returned **objective value and status are identical** — only
``solver``/``runtime`` metadata and (under alternative optima) the
variable assignment may differ between runs. ``tests/test_determinism.py``
guards this contract.

Threads (not processes) are deliberate: scipy's HiGHS calls release the
GIL, the compiled model is shared read-only, and cancellation is a
cheap :class:`threading.Event` instead of process kill. On a single
core the race still helps whenever one member finishes quickly — a
branch-and-bound loser stops at its next node boundary, after at most
the two child LP relaxations of the node it is expanding.

``parallel_bb`` (optionally as a ``"parallel_bb:N"`` worker spec) can
race too. It runs the same branch-and-bound driver as ``branch_bound``
and gets the same cancellation event: in-process tasks check it at
every node boundary, a pool round polls it while it waits, and the
worker pool is torn down when the member loses. Search effort spent by
*every* member that finished is rolled up into the winner's ``race_*``
counters via :func:`repro.opt.solvers.base.merge_counters`, so
multi-loop solves no longer under-report their cost.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import SolverError
from repro.obs.trace import current_tracer
from repro.opt.model import Model
from repro.opt.result import Solution, SolveStatus
from repro.opt.solvers.base import SolverBackend

#: Statuses that settle the race — anything else means "keep waiting".
_CONCLUSIVE = (
    SolveStatus.OPTIMAL,
    SolveStatus.INFEASIBLE,
    SolveStatus.UNBOUNDED,
)


class PortfolioBackend(SolverBackend):
    """Race HiGHS against the in-repo branch-and-bound."""

    name = "portfolio"

    def __init__(
        self, members: Optional[Sequence[Union[str, SolverBackend]]] = None
    ) -> None:
        if members is None:
            from repro.opt.solvers import available_backends

            members = ["branch_bound"]
            if available_backends().get("highs"):
                members.insert(0, "highs")
        if not members:
            raise SolverError("portfolio needs at least one member backend")
        #: Backend names or ready-made instances (instances are what the
        #: fault-injection tests race against each other).
        self.members: List[Union[str, SolverBackend]] = list(members)

    @staticmethod
    def _label(member: Union[str, SolverBackend]) -> str:
        return member if isinstance(member, str) else member.name

    def _make_member(self, member: Union[str, SolverBackend],
                     cancel: threading.Event) -> SolverBackend:
        if isinstance(member, SolverBackend):
            return member
        from repro.opt.solvers import get_backend
        from repro.opt.solvers.parallel_bb import ParallelBranchBoundBackend

        backend = get_backend(member)
        if isinstance(backend, ParallelBranchBoundBackend):
            # Both B&B members (branch_bound and parallel_bb[:N]) run
            # the same driver, which stops on this event.
            backend.cancel_event = cancel
        return backend

    def solve(
        self,
        model: Model,
        time_limit: Optional[float] = None,
        mip_gap: float = 1e-9,
        verbose: bool = False,
        warm_start=None,
    ) -> Solution:
        start = time.perf_counter()
        # Compile once up front so both members share the cached arrays
        # instead of racing to build them.
        if model.is_linear():
            model.compiled()

        # When the warm start's objective already matches the root LP
        # bound (strengthened by the clique cuts) within the gap, it is
        # provably optimal: return it without spawning either racer —
        # the ultimate early cancellation.
        tracer = current_tracer()

        if warm_start is not None and model.is_linear() and model.num_vars:
            proven = self._prove_at_root(model, warm_start, mip_gap)
            if proven is not None:
                proven.solver = f"{self.name}(warm)"
                proven.runtime = time.perf_counter() - start
                if tracer is not None:
                    tracer.event("incumbent", solver=self.name,
                                 objective=proven.objective,
                                 source=warm_start.source, nodes=0)
                    tracer.event("race_winner", member="warm",
                                 status=proven.status.value,
                                 reason="warm start proven optimal at root")
                return proven

        if len(self.members) == 1:
            only = self.members[0]
            try:
                sol = self._make_member(only, threading.Event()).solve(
                    model, time_limit, mip_gap, verbose, warm_start=warm_start
                )
            except Exception as exc:
                raise SolverError(
                    f"all 1 portfolio members failed: "
                    f"{self._label(only)}: {type(exc).__name__}: {exc}"
                ) from exc
            sol.solver = f"{self.name}({sol.solver})"
            return sol

        cancel = threading.Event()
        backends = [(self._label(m), self._make_member(m, cancel))
                    for m in self.members]
        # Member threads have their own (empty) span stacks; link their
        # spans to the submitting thread's current span explicitly so
        # the race nests under the pipeline's "solve" phase.
        race_parent = tracer.current_span_id() if tracer is not None else None

        def run(name: str, backend: SolverBackend) -> Tuple[str, Solution]:
            if tracer is None:
                return name, backend.solve(model, time_limit, mip_gap,
                                           verbose, warm_start=warm_start)
            with tracer.span(f"portfolio:{name}", parent=race_parent,
                             member=name):
                return name, backend.solve(model, time_limit, mip_gap,
                                           verbose, warm_start=warm_start)

        winner: Optional[Tuple[str, Solution]] = None
        fallback: Optional[Tuple[str, Solution]] = None
        completed: List[Tuple[str, Solution]] = []
        failures: List[Tuple[str, str]] = []
        pool = ThreadPoolExecutor(max_workers=len(backends),
                                  thread_name_prefix="portfolio")
        try:
            pending = {pool.submit(run, name, backend): name
                       for name, backend in backends}
            while pending:
                done, still = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    member = pending[future]
                    try:
                        name, sol = future.result()
                    except Exception as exc:
                        # Member crashed: let the others decide, but keep
                        # the reason — a silent swallow here is how "the
                        # whole race died" used to look like a timeout.
                        failures.append(
                            (member, f"{type(exc).__name__}: {exc}"))
                        if tracer is not None:
                            tracer.event("member_failed", member=member,
                                         reason=f"{type(exc).__name__}: {exc}")
                        continue
                    completed.append((name, sol))
                    if sol.status in _CONCLUSIVE:
                        if winner is None:
                            winner = (name, sol)
                    elif fallback is None or sol.has_solution:
                        fallback = (name, sol)
                pending = {f: n for f, n in pending.items() if f in still}
                if winner is not None:
                    break
        finally:
            cancel.set()  # losers stop at their next node boundary
            # Do not join the losers: a running scipy.milp call cannot be
            # interrupted, and the branch-and-bound loser exits at its
            # next node check. The worker threads are joined at
            # interpreter exit.
            pool.shutdown(wait=False)

        chosen = winner or fallback
        if chosen is None:
            # Every racer crashed — raise with the roll call instead of
            # returning a silent ERROR solution that upstream code could
            # mistake for an ordinary inconclusive solve.
            reasons = "; ".join(f"{n}: {r}" for n, r in failures) \
                or "no member produced a result"
            raise SolverError(
                f"all {len(self.members)} portfolio members failed: {reasons}"
            )
        name, sol = chosen
        sol.solver = f"{self.name}({name})"
        sol.runtime = time.perf_counter() - start
        # Roll the losers' search effort up into the winner so the race's
        # true cost is visible (summed, not overwritten — see
        # merge_counters for the aggregation rule).
        others = [s.counters for n, s in completed if s is not sol]
        if others:
            from repro.opt.solvers.base import merge_counters

            total = merge_counters(sol.counters, *others)
            for key in ("nodes", "lp_calls", "lp_iterations", "cuts"):
                if total.get(key):
                    sol.counters[f"race_{key}"] = total[key]
        if tracer is not None:
            tracer.event("race_winner", member=name, status=sol.status.value,
                         conclusive=winner is not None)
        for member, reason in failures:
            sol.counters[f"member_failed_{member}"] = 1
        if failures:
            sol.counters["portfolio_member_failures"] = len(failures)
            detail = "; ".join(f"{n}: {r}" for n, r in failures)
            sol.message = (f"{sol.message}; " if sol.message else "") \
                + f"member failures: {detail}"
        return sol

    @staticmethod
    def _prove_at_root(model: Model, warm_start, mip_gap: float
                       ) -> Optional[Solution]:
        """Certify a warm start against the cut-strengthened root LP.

        Returns an OPTIMAL solution built from the warm start when its
        objective meets the root lower bound within ``mip_gap``; None
        otherwise (the race then runs as usual). The LP bound is a
        valid global bound, so this shortcut is exact.
        """
        from repro.opt.cuts import clique_cuts, cut_rows
        from repro.opt.incremental import IncrementalLP

        form = model.compiled()
        x = warm_start.vector(form)
        if x is None:
            return None
        lp = IncrementalLP(form)
        if not lp.check_feasible(x):
            return None
        cliques = clique_cuts(form)
        if cliques:
            lp.add_cuts(*cut_rows(form, cliques))
        root = lp.solve()
        if root.status != 0:
            return None
        val = float(form.c @ x)
        tol = mip_gap * max(1.0, abs(val)) + 1e-9
        if val > root.fun + tol:
            return None
        sol = Solution(
            SolveStatus.OPTIMAL,
            form.report_objective(val),
            form.solution_dict(x),
            message=f"warm start ({warm_start.source}) proven optimal at root",
        )
        sol.counters.update({
            "nodes": 0,
            "lp_calls": lp.lp_calls,
            "lp_iterations": lp.lp_iterations,
            "cuts": lp.cuts_added,
            "incumbent_seeded": 1,
        })
        return sol
