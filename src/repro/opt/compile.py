"""Sparse model compilation: constraints to matrix form, built once.

Historically every consumer of a :class:`~repro.opt.model.Model` —
presolve, the HiGHS backend, branch-and-bound's dense standard form —
re-flattened the per-constraint term dictionaries into arrays on every
call. On the synthesis models (thousands of constraints, tens of
thousands of nonzeros) that Python-level churn was paid three or four
times per solve.

:func:`compile_model` walks the constraint list exactly once and
assembles COO triplet arrays (numpy), a range form
``row_lb <= A @ x <= row_ub`` that both scipy interfaces consume
directly, and the variable bound/integrality vectors. The result is
cached on the model and invalidated by the model's mutation counter
(bumped by ``add_var`` / ``add_constr`` / ``set_objective``), so
repeated solves, presolve passes and LP exports all share one build.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.opt.expr import LinExpr, QuadExpr, Sense, Var, VarType

#: Integer sense codes stored per row (compact; numpy-maskable).
SENSE_LE, SENSE_GE, SENSE_EQ = 0, 1, 2

_SENSE_CODE = {Sense.LE: SENSE_LE, Sense.GE: SENSE_GE, Sense.EQ: SENSE_EQ}
_CODE_SENSE = {SENSE_LE: Sense.LE, SENSE_GE: Sense.GE, SENSE_EQ: Sense.EQ}


def _linear_terms(expr) -> Tuple[Dict[Var, float], float]:
    if isinstance(expr, QuadExpr):
        if expr.quad_terms:
            raise ModelError("compile requires a linear model; linearize first")
        return expr.lin_terms, expr.constant
    if isinstance(expr, LinExpr):
        return expr.terms, expr.constant
    raise ModelError(f"unexpected expression type {type(expr)!r}")


class CompiledModel:
    """A model flattened to sparse standard form.

    ``minimize c @ x`` subject to ``row_lb <= A @ x <= row_ub`` and
    ``lb <= x <= ub`` with ``integrality`` flags (1 = integer). ``A`` is
    held as COO triplets (``a_rows``/``a_cols``/``a_data``); CSR and the
    classic split ``A_ub/b_ub/A_eq/b_eq`` views are derived lazily and
    cached. The objective is always a minimization; ``obj_sign`` records
    the flip needed to report the original value and ``obj_offset`` the
    constant term (never negated).
    """

    def __init__(self, model) -> None:
        if not model.is_linear():
            raise ModelError("compile requires a linear model; linearize first")

        self.model_name = model.name
        self.variables: List[Var] = list(model.variables)
        n = len(self.variables)
        self.n = n
        self.m = len(model.constraints)

        obj_terms, obj_const = _linear_terms(model.objective)
        c = np.zeros(n)
        for v, coef in obj_terms.items():
            c[v.index] += coef
        self.obj_offset = float(obj_const)
        self.obj_sign = 1.0
        if not model.minimize:
            c = -c
            self.obj_sign = -1.0
        self.c = c
        self.minimize = model.minimize

        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        senses = np.empty(self.m, dtype=np.int8)
        rhs = np.empty(self.m)
        names: List[str] = []
        for r, constr in enumerate(model.constraints):
            terms, const = _linear_terms(constr.expr)
            for v, coef in terms.items():
                rows.append(r)
                cols.append(v.index)
                data.append(coef)
            senses[r] = _SENSE_CODE[constr.sense]
            rhs[r] = -const
            names.append(constr.name)

        self.a_rows = np.asarray(rows, dtype=np.int64)
        self.a_cols = np.asarray(cols, dtype=np.int64)
        self.a_data = np.asarray(data, dtype=np.float64)
        self.senses = senses
        self.rhs = rhs
        self.row_names = names

        # Range form: LE rows have -inf lower, GE rows +inf upper.
        self.row_lb = np.where(senses == SENSE_LE, -np.inf, rhs)
        self.row_ub = np.where(senses == SENSE_GE, np.inf, rhs)

        self.lb = np.array([v.lb for v in self.variables], dtype=float)
        self.ub = np.array([v.ub for v in self.variables], dtype=float)
        self.integrality = np.array(
            [0 if v.vtype is VarType.CONTINUOUS else 1 for v in self.variables]
        )
        # Variables marked implied-integer on the model are integral in
        # every optimal solution once the true decision variables are —
        # the branch set can skip them (see Model.mark_implied_integer).
        implied_names = getattr(model, "_implied_int_names", None) or ()
        self.implied = np.array(
            [v.name in implied_names for v in self.variables], dtype=bool
        )

        self._csr: Optional[sparse.csr_matrix] = None
        self._split: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.a_data.size

    @property
    def branch_integrality(self) -> np.ndarray:
        """Integrality flags with implied-integer variables relaxed.

        Handing this (instead of ``integrality``) to a MILP solver
        shrinks the branch set without changing the optimum: implied
        variables are forced to integral values by their defining
        constraints whenever the remaining integer variables are
        integral. Report values must still be rounded per ``vtype``.
        """
        return np.where(self.implied, 0, self.integrality)

    @property
    def A_csr(self) -> sparse.csr_matrix:
        """The full constraint matrix as CSR (rows in model order)."""
        if self._csr is None:
            self._csr = sparse.csr_matrix(
                (self.a_data, (self.a_rows, self.a_cols)), shape=(self.m, self.n)
            )
        return self._csr

    def split_form(self) -> Tuple[sparse.csr_matrix, np.ndarray,
                                  sparse.csr_matrix, np.ndarray]:
        """``(A_ub, b_ub, A_eq, b_eq)`` with GE rows negated into <=.

        Row order: LE and GE rows interleaved in model order first, then
        EQ rows.
        """
        if self._split is None:
            ineq = self.senses != SENSE_EQ
            eq = ~ineq
            A = self.A_csr
            A_ineq = A[ineq]
            b_ineq = self.rhs[ineq]
            flip = self.senses[ineq] == SENSE_GE
            if flip.any():
                scale = np.where(flip, -1.0, 1.0)
                A_ineq = sparse.diags(scale) @ A_ineq
                b_ineq = b_ineq * scale
            self._split = (A_ineq.tocsr(), b_ineq, A[eq].tocsr(), self.rhs[eq])
        return self._split

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def report_objective(self, min_value: float) -> float:
        """Convert an internal minimization value to the user objective."""
        return self.obj_sign * min_value + self.obj_offset

    def solution_dict(self, x: np.ndarray) -> Dict[Var, float]:
        return {v: float(x[v.index]) for v in self.variables}

    def row_sense(self, r: int) -> Sense:
        return _CODE_SENSE[int(self.senses[r])]

    def __repr__(self) -> str:
        return (
            f"CompiledModel({self.model_name!r}, n={self.n}, m={self.m}, "
            f"nnz={self.nnz})"
        )


def compile_model(model) -> CompiledModel:
    """Compile ``model`` to sparse standard form, reusing the cache.

    The cache key is the model's mutation counter: any ``add_var`` /
    ``add_constr`` / ``set_objective`` call invalidates it. Direct
    attribute mutation (e.g. editing a constraint's expression in place)
    bypasses the counter — call :meth:`Model.invalidate` afterwards.
    """
    cached = getattr(model, "_compiled", None)
    version = getattr(model, "_version", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    compiled = CompiledModel(model)
    model._compiled = (version, compiled)
    return compiled


__all__ = ["CompiledModel", "compile_model", "SENSE_LE", "SENSE_GE", "SENSE_EQ"]
