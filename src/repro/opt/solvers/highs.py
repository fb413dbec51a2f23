"""MILP backend using scipy's HiGHS interface (:func:`scipy.optimize.milp`).

This is the primary backend: HiGHS is an exact branch-and-cut MILP
solver, playing the role Gurobi plays in the paper. The model is
compiled once to sparse range form (``row_lb <= A @ x <= row_ub``, see
:mod:`repro.opt.compile`) and the compiled arrays are handed to HiGHS
directly — repeated solves of the same model skip the flattening
entirely.

Two reductions run before HiGHS sees the model:

* the repo's vectorized presolve (singleton cascade, bound tightening,
  redundancy elimination) shrinks the array dimensions; fixed variables
  are mapped back into the reported solution afterwards;
* implied-integer variables (counters and indicator chains that are
  forced integral by their defining rows, marked by the model builder
  and the linearizer) are relaxed to continuous in the ``integrality``
  vector, which shrinks HiGHS's branch set without changing any
  optimum. Reported values are still rounded per variable type.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.opt.expr import VarType
from repro.opt.model import Model
from repro.opt.result import Solution, SolveStatus
from repro.opt.solvers.base import SolverBackend


class HighsBackend(SolverBackend):
    """Solve MILPs with HiGHS via :func:`scipy.optimize.milp`."""

    name = "highs"

    def solve(
        self,
        model: Model,
        time_limit: Optional[float] = None,
        mip_gap: float = 1e-9,
        verbose: bool = False,
        warm_start=None,
    ) -> Solution:
        # warm_start is accepted for interface parity but unused:
        # scipy's milp() has no incumbent-injection hook, and HiGHS's
        # own presolve/heuristics find the same incumbents quickly.
        start = time.perf_counter()
        if model.num_vars and model.num_constraints:
            from repro.opt.incremental import map_back_solution
            from repro.opt.presolve import presolve

            reduction = presolve(model)
            presolve_s = time.perf_counter() - start
            if reduction.proven_infeasible:
                sol = Solution(SolveStatus.INFEASIBLE, solver=self.name,
                               message="presolve proved infeasibility")
                sol.timings.add("presolve", presolve_s)
                return sol
            remaining = None
            if time_limit is not None:
                remaining = max(time_limit - presolve_s, 0.01)
            sol = self._solve_compiled(reduction.model, remaining, mip_gap, verbose)
            sol = map_back_solution(sol, model, reduction, self.name)
            sol.timings.add("presolve", presolve_s)
            sol.counters["presolve_fixed"] = len(reduction.fixed)
            sol.counters["presolve_dropped_rows"] = reduction.dropped_constraints
            return sol
        return self._solve_compiled(model, time_limit, mip_gap, verbose)

    def _solve_compiled(self, model: Model, time_limit: Optional[float],
                        mip_gap: float, verbose: bool) -> Solution:
        compiled = model.compiled()
        if compiled.n == 0:
            return Solution(SolveStatus.OPTIMAL, compiled.obj_offset, {},
                            solver=self.name)

        constraints = []
        if compiled.m:
            constraints = [
                LinearConstraint(compiled.A_csr, compiled.row_lb, compiled.row_ub)
            ]
        bounds = Bounds(compiled.lb, compiled.ub)

        options = {"disp": verbose, "mip_rel_gap": mip_gap}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)

        res = milp(
            c=compiled.c,
            constraints=constraints,
            bounds=bounds,
            integrality=compiled.branch_integrality,
            options=options,
        )

        sol = self._interpret(res, model, compiled.obj_sign, compiled.obj_offset)
        nodes = getattr(res, "mip_node_count", None)
        if nodes is not None:
            sol.counters["nodes"] = int(nodes)
        return sol

    def _interpret(self, res, model: Model, sign: float, obj_const: float) -> Solution:
        # scipy milp status codes: 0 optimal, 1 iteration/time limit,
        # 2 infeasible, 3 unbounded, 4 other.
        if res.status == 0 and res.x is not None:
            values = self._rounded_values(model, res.x)
            # res.fun is the (possibly sign-flipped) minimization value.
            objective = sign * float(res.fun) + obj_const
            gap = float(res.mip_gap) if getattr(res, "mip_gap", None) is not None else None
            return Solution(SolveStatus.OPTIMAL, objective, values, solver=self.name, gap=gap)
        if res.status == 1:
            if res.x is not None:
                values = self._rounded_values(model, res.x)
                objective = sign * float(res.fun) + obj_const
                return Solution(
                    SolveStatus.FEASIBLE, objective, values, solver=self.name,
                    message="time limit reached with incumbent",
                )
            return Solution(SolveStatus.TIME_LIMIT, solver=self.name, message=res.message)
        if res.status == 2:
            return Solution(SolveStatus.INFEASIBLE, solver=self.name, message=res.message)
        if res.status == 3:
            return Solution(SolveStatus.UNBOUNDED, solver=self.name, message=res.message)
        return Solution(SolveStatus.ERROR, solver=self.name, message=res.message)

    @staticmethod
    def _rounded_values(model: Model, x: np.ndarray) -> dict:
        """Snap integer variables to exact integers (HiGHS returns
        floats, and implied-integer variables were solved relaxed)."""
        values = {}
        for v in model.variables:
            raw = float(x[v.index])
            if v.vtype is not VarType.CONTINUOUS:
                raw = float(round(raw))
            values[v] = raw
        return values
