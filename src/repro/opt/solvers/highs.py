"""MILP backend using scipy's HiGHS interface (:func:`scipy.optimize.milp`).

This is the primary backend: HiGHS is an exact branch-and-cut MILP
solver, playing the role Gurobi plays in the paper. The model's
compiled form (sparse range form ``row_lb <= A @ x <= row_ub`` with
products linearized, see :mod:`repro.opt.compile`) is handed to HiGHS
directly — repeated solves of the same model skip the flattening
entirely.

HiGHS gets the compiled arrays as they are and runs its own presolve.
The one change made on the way is to the ``integrality`` vector:
implied-integer variables (counters and indicator chains that are
forced integral by their defining rows, marked by the model builder,
and the product columns of the linearization) are relaxed to
continuous, which shrinks HiGHS's branch set without changing any
optimum. Reported values are still
rounded per variable type. The repo's own presolve
(:mod:`repro.opt.presolve`) serves the branch-and-bound backends only:
HiGHS repeats every reduction it makes.
"""

from __future__ import annotations

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

        sol = self._interpret(res, compiled)
        nodes = getattr(res, "mip_node_count", None)
        if nodes is not None:
            sol.counters["nodes"] = int(nodes)
        return sol

    def _interpret(self, res, compiled) -> Solution:
        # scipy milp status codes: 0 optimal, 1 iteration/time limit,
        # 2 infeasible, 3 unbounded, 4 other.
        if res.status == 0 and res.x is not None:
            values = self._rounded_values(compiled, res.x)
            # res.fun is the (possibly sign-flipped) minimization value.
            objective = compiled.report_objective(float(res.fun))
            gap = float(res.mip_gap) if getattr(res, "mip_gap", None) is not None else None
            return Solution(SolveStatus.OPTIMAL, objective, values, solver=self.name, gap=gap)
        if res.status == 1:
            if res.x is not None:
                values = self._rounded_values(compiled, res.x)
                objective = compiled.report_objective(float(res.fun))
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
    def _rounded_values(compiled, x: np.ndarray) -> dict:
        """Snap integer variables to exact integers (HiGHS returns
        floats, and implied-integer variables were solved relaxed)."""
        values = {}
        for v, raw in zip(compiled.variables, x.tolist()):
            if v.vtype is not VarType.CONTINUOUS:
                raw = float(round(raw))
            values[v] = raw
        return values
