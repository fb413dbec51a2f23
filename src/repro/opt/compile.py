"""Model compilation: constraints to sparse matrix form, products linearized.

:class:`CompiledModel` is the one place a :class:`~repro.opt.model.Model`
becomes linear arrays. It walks the constraint list once and assembles
COO triplet arrays (numpy), a range form ``row_lb <= A @ x <= row_ub``
that both scipy interfaces consume directly, and the variable
bound/integrality vectors. Every solver backend, presolve and the LP
export read this form.

The paper's synthesis model is an IQP whose only quadratic terms are
products of binary decision variables (the flow-set/path-choice
products ``w[i,s] * a[i,d]``). Such products admit an *exact*
linearization with one auxiliary column per distinct product, which the
compile appends as it flattens the model:

* ``z = a * b`` with ``a, b`` binary::

      z <= a,   z <= b,   z >= a + b - 1,   z in {0, 1}

* ``z = a * y`` with ``a`` binary and ``y`` a bounded integer
  (``lo <= y <= hi``), the standard big-M form::

      z <= hi * a,          z >= lo * a,
      z <= y - lo * (1-a),  z >= y - hi * (1-a)

The square of a binary is the binary itself. Every other product is
rejected with :class:`~repro.errors.LinearizationError` — the library
never approximates. A product's rows go right before the first
constraint that uses it (products only in the objective come after all
constraints), and each auxiliary column is marked implied-integer: its
rows force ``z = a*b`` once the factors are integral.

The result is cached on the model and invalidated by the model's
mutation counter (bumped by ``add_var`` / ``add_constr`` /
``set_objective``), so repeated solves, presolve passes and LP exports
all share one build.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import LinearizationError, ModelError
from repro.opt.expr import LinExpr, QuadExpr, Sense, Var, VarType

#: Integer sense codes stored per row (compact; numpy-maskable).
SENSE_LE, SENSE_GE, SENSE_EQ = 0, 1, 2

_SENSE_CODE = {Sense.LE: SENSE_LE, Sense.GE: SENSE_GE, Sense.EQ: SENSE_EQ}


def _is_binary(v: Var) -> bool:
    return v.vtype is VarType.BINARY or (
        v.vtype is VarType.INTEGER and v.lb >= 0 and v.ub <= 1
    )


def _is_bounded_integer(v: Var) -> bool:
    return (v.vtype in (VarType.INTEGER, VarType.BINARY)
            and math.isfinite(v.lb) and math.isfinite(v.ub))


def _nonzero(*terms: Tuple[int, float]) -> Dict[int, float]:
    """A row's column -> coefficient map without its zero terms."""
    return {j: coef for j, coef in terms if coef != 0}


class CompiledModel:
    """A model flattened to sparse standard form.

    ``minimize c @ x`` subject to ``row_lb <= A @ x <= row_ub`` and
    ``lb <= x <= ub`` with ``integrality`` flags (1 = integer). ``A`` is
    held as COO triplets (``a_rows``/``a_cols``/``a_data``); CSR and the
    classic split ``A_ub/b_ub/A_eq/b_eq`` views are derived lazily and
    cached. The objective is always a minimization; ``obj_sign`` records
    the flip needed to report the original value and ``obj_offset`` the
    constant term (never negated).

    ``variables`` lists the column of each position: the model's
    variables, then one auxiliary variable per linearized product.
    ``products`` maps each distinct product ``(a, b)`` (ordered by
    variable index) to the variable that stands for it.
    """

    def __init__(self, model) -> None:
        self.model_name = model.name
        self.minimize = model.minimize
        variables: List[Var] = list(model.variables)
        implied_names = getattr(model, "_implied_int_names", None) or ()
        implied = [v.name in implied_names for v in variables]
        products: Dict[Tuple[Var, Var], Var] = {}
        # Row r holds entries counts[r] of cols/data, in row order.
        counts: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        senses: List[int] = []
        consts: List[float] = []
        names: List[str] = []

        def add_row(terms: Dict[int, float], const: float, sense: int,
                    name: str) -> None:
            """Append one row; ``terms`` maps columns to nonzero coefficients."""
            counts.append(len(terms))
            cols.extend(terms)
            data.extend(terms.values())
            senses.append(sense)
            consts.append(const)
            names.append(name)

        def column(name: str, vtype: VarType, lb, ub) -> Var:
            if name in model._names:
                raise ModelError(f"duplicate variable name {name!r}")
            z = Var(name, vtype, lb, ub, index=len(variables),
                    model_id=model._id)
            variables.append(z)
            implied.append(True)
            return z

        def product(a: Var, b: Var) -> Var:
            key = (a, b) if a.index <= b.index else (b, a)
            z = products.get(key)
            if z is not None:
                return z
            a, b = key
            if a is b:
                if not _is_binary(a):
                    raise LinearizationError(
                        f"cannot linearize square of non-binary {a.name!r}")
                products[key] = a
                return a
            if _is_binary(a) and _is_binary(b):
                z = column(f"_lin_{a.name}*{b.name}", VarType.BINARY, 0, 1)
                zi, ai, bi = z.index, a.index, b.index
                add_row({zi: 1.0, ai: -1.0}, 0.0, SENSE_LE, f"_lz1_{z.name}")
                add_row({zi: 1.0, bi: -1.0}, 0.0, SENSE_LE, f"_lz2_{z.name}")
                add_row({zi: 1.0, ai: -1.0, bi: -1.0}, 1.0, SENSE_GE,
                        f"_lz3_{z.name}")
            else:
                if not _is_binary(a):  # make `a` the binary factor
                    a, b = b, a
                if not _is_binary(a) or not _is_bounded_integer(b):
                    raise LinearizationError(
                        f"cannot exactly linearize product {a.name!r} * "
                        f"{b.name!r}: need binary*binary or "
                        "binary*bounded-integer")
                lo, hi = b.lb, b.ub
                z = column(f"_lin_{a.name}*{b.name}", VarType.INTEGER,
                           min(lo, 0), max(hi, 0))
                zi, ai, bi = z.index, a.index, b.index
                add_row(_nonzero((zi, 1.0), (ai, -float(hi))), 0.0, SENSE_LE,
                        f"_lz1_{z.name}")
                add_row(_nonzero((zi, 1.0), (ai, -float(lo))), 0.0, SENSE_GE,
                        f"_lz2_{z.name}")
                # `+ 0.0` folds a zero bound to +0.0, as in the rows'
                # algebraic form y - lo * (1 - a).
                add_row(_nonzero((zi, 1.0), (bi, -1.0), (ai, -float(lo))),
                        float(lo) + 0.0, SENSE_LE, f"_lz3_{z.name}")
                add_row(_nonzero((zi, 1.0), (bi, -1.0), (ai, -float(hi))),
                        float(hi) + 0.0, SENSE_GE, f"_lz4_{z.name}")
            products[key] = z
            return z

        def linear_terms(expr) -> Tuple[Dict[Var, float], float]:
            if isinstance(expr, LinExpr):
                return expr.terms, expr.constant
            if not isinstance(expr, QuadExpr):
                raise ModelError(f"unexpected expression type {type(expr)!r}")
            if not expr.quad_terms:
                return expr.lin_terms, expr.constant
            terms = dict(expr.lin_terms)
            for (a, b), coef in expr.quad_terms.items():
                z = product(a, b)
                terms[z] = terms.get(z, 0.0) + coef
            # A square merged into its linear term can cancel it.
            return {v: c for v, c in terms.items() if c != 0}, expr.constant

        for constr in model.constraints:
            terms, const = linear_terms(constr.expr)
            # A model's variables have distinct indices, so the row's
            # columns come straight from its (nonzero) terms.
            counts.append(len(terms))
            cols.extend([v.index for v in terms])
            data.extend(terms.values())
            senses.append(_SENSE_CODE[constr.sense])
            consts.append(const)
            names.append(constr.name)
        obj_terms, obj_const = linear_terms(model.objective)

        self.variables: List[Var] = variables
        self.products = products
        n = self.n = len(variables)
        c = np.zeros(n)
        for v, coef in obj_terms.items():
            c[v.index] += coef
        self.obj_offset = float(obj_const)
        self.obj_sign = 1.0
        if not model.minimize:
            c = -c
            self.obj_sign = -1.0
        self.c = c

        self.lb = np.array([v.lb for v in variables], dtype=float)
        self.ub = np.array([v.ub for v in variables], dtype=float)
        self.integrality = np.array(
            [0 if v.vtype is VarType.CONTINUOUS else 1 for v in variables],
            dtype=np.int64)
        # Implied-integer columns are integral in every optimal solution
        # once the true decision variables are — the branch set can skip
        # them (see Model.mark_implied_integer).
        self.implied = np.array(implied, dtype=bool)
        self._set_rows(np.repeat(np.arange(len(counts), dtype=np.int64),
                                 counts),
                       np.asarray(cols, dtype=np.int64),
                       np.asarray(data, dtype=np.float64),
                       np.asarray(senses, dtype=np.int8),
                       -np.asarray(consts, dtype=np.float64), names)

    def _set_rows(self, a_rows: np.ndarray, a_cols: np.ndarray,
                  a_data: np.ndarray, senses: np.ndarray, rhs: np.ndarray,
                  row_names: List[str]) -> None:
        """Install the row block and its range form; drop derived views."""
        self.a_rows = a_rows
        self.a_cols = a_cols
        self.a_data = a_data
        self.senses = senses
        self.rhs = rhs
        self.row_names = row_names
        self.m = len(row_names)
        # Range form: LE rows have -inf lower, GE rows +inf upper.
        self.row_lb = np.where(senses == SENSE_LE, -np.inf, rhs)
        self.row_ub = np.where(senses == SENSE_GE, np.inf, rhs)
        self._csr: Optional[sparse.csr_matrix] = None
        self._split: Optional[Tuple] = None

    def reduced(self, rows: np.ndarray, lb: np.ndarray,
                ub: np.ndarray) -> "CompiledModel":
        """The sub-problem left after fixing every column with
        ``lb == ub`` at that value.

        It keeps the free columns, with bounds ``lb``/``ub``, and those
        of the rows selected by the boolean mask ``rows`` that still
        have a nonzero in a free column. The fixed columns' contribution
        is folded into each kept row's right-hand side and into the
        objective offset, one entry at a time in row order, so the sums
        round exactly as a plain loop over the rows would. Variables
        stay the same objects; cached views (CSR, cut pool) do not carry
        over.
        """
        free = lb != ub
        fixed_cols = np.flatnonzero(~free)
        A = self.A_csr
        entry_row = np.repeat(np.arange(self.m), np.diff(A.indptr))
        entry_free = free[A.indices]
        keep = np.zeros(self.m, dtype=bool)
        keep[entry_row[entry_free]] = True
        keep &= rows
        kept = np.flatnonzero(keep)
        # np.add.at accumulates sequentially, in the entries' row order.
        shifted = -self.rhs
        folded = ~entry_free & keep[entry_row]
        np.add.at(shifted, entry_row[folded],
                  A.data[folded] * lb[A.indices[folded]])
        c = self.c if self.minimize else -self.c   # user-space costs
        offset = self.obj_offset
        for j in fixed_cols[c[fixed_cols] != 0]:
            offset += c[j] * lb[j]

        cols = np.flatnonzero(free)
        form = object.__new__(CompiledModel)
        form.model_name = f"{self.model_name}_presolved"
        form.minimize = self.minimize
        form.variables = [self.variables[j] for j in cols]
        form.products = self.products
        form.n = cols.size
        form.c = self.c[cols]
        form.obj_offset = float(offset)
        form.obj_sign = self.obj_sign
        form.lb = lb[cols]
        form.ub = ub[cols]
        form.integrality = self.integrality[cols]
        form.implied = self.implied[cols]
        entries = entry_free & keep[entry_row]
        form._set_rows((np.cumsum(keep) - 1)[entry_row[entries]],
                       (np.cumsum(free) - 1)[A.indices[entries]],
                       A.data[entries], self.senses[kept], -shifted[kept],
                       [self.row_names[r] for r in kept])
        return form

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
        """Map a column vector back to this form's variables (by position)."""
        return {v: float(val) for v, val in zip(self.variables, x.tolist())}

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
