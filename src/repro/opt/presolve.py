"""Presolve: cheap model reductions before the search.

Three classic, always-safe reductions, iterated to a fixed point:

1. **singleton fixing** — an equality with one variable fixes it;
2. **bound tightening** — every constraint row implies bounds on each
   of its variables given the bounds of the others (for integers the
   implied bounds round inwards);
3. **constraint elimination** — rows whose interval evaluation can
   never be violated are dropped; rows that can never be *satisfied*
   prove infeasibility immediately.

The pass returns a reduced model plus the set of fixed assignments; it
never changes the feasible set. All three built-in backends run it
first (HiGHS then adds its own presolve), and it is directly useful on
the synthesis models, where the coupling equalities fix large blocks of
``x`` under the fixed binding policy.

The round loop runs on the model's cached sparse compilation
(:mod:`repro.opt.compile`): row activity bounds are two sparse
matrix-vector products and bound tightening is a vectorized
scatter-min/-max over the nonzero entries, so a round costs O(nnz)
numpy work instead of a Python loop over every (row, variable) pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.opt.compile import SENSE_EQ, SENSE_GE, SENSE_LE, CompiledModel
from repro.opt.expr import Constraint, LinExpr, Sense, Var
from repro.opt.model import Model

_TOL = 1e-9
_INT_TOL = 1e-6

_SENSE_OF = {SENSE_LE: Sense.LE, SENSE_GE: Sense.GE, SENSE_EQ: Sense.EQ}


@dataclass
class PresolveResult:
    """Outcome of a presolve pass."""

    model: Model                      # reduced model (shares Var objects)
    fixed: Dict[Var, float] = field(default_factory=dict)
    proven_infeasible: bool = False
    rounds: int = 0
    dropped_constraints: int = 0

    def extend_solution(self, values: Dict[Var, float]) -> Dict[Var, float]:
        """Add the presolve-fixed variables back into a solution."""
        merged = dict(values)
        merged.update(self.fixed)
        return merged


def presolve(model: Model, max_rounds: int = 20) -> PresolveResult:
    """Run the reduction loop on a linear model."""
    if not model.is_linear():
        raise ModelError("presolve requires a linear model; linearize first")

    compiled: CompiledModel = model.compiled()
    m, n = compiled.m, compiled.n
    lb = compiled.lb.copy()
    ub = compiled.ub.copy()
    is_int = compiled.integrality.astype(bool)

    result = PresolveResult(model=Model(f"{model.name}_presolved"))
    if n == 0 or m == 0:
        return _assemble(result, model, compiled,
                         np.ones(m, dtype=bool), lb, ub, rounds=0)

    A = compiled.A_csr
    A_csc = A.tocsc()  # column view for the singleton cascade
    # Positive/negative parts share A's sparsity; built once per pass.
    P = A.multiply(A > 0).tocsr()
    N = A.multiply(A < 0).tocsr()
    rows_idx = compiled.a_rows
    cols_idx = compiled.a_cols
    data = compiled.a_data
    senses = compiled.senses
    row_lb = compiled.row_lb
    row_ub = compiled.row_ub
    eq_mask = senses == SENSE_EQ
    has_ub = senses != SENSE_GE       # rows with a finite upper side
    has_lb = senses != SENSE_LE       # rows with a finite lower side

    active = np.ones(m, dtype=bool)
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1

        row_min = P @ lb + N @ ub
        row_max = P @ ub + N @ lb

        # 1. rows that can never be satisfied prove infeasibility
        infeasible_rows = active & (
            (row_min > row_ub + _TOL) | (row_max < row_lb - _TOL)
        )
        if infeasible_rows.any():
            return _infeasible(result, compiled, lb, ub, rounds)

        # 2. rows that can never be violated are dropped
        redundant = active & (row_min >= row_lb - _TOL) & (row_max <= row_ub + _TOL)
        if redundant.any():
            active &= ~redundant
            result.dropped_constraints += int(redundant.sum())
            changed = True

        # 3. singleton equalities fix their last live variable. A
        # worklist cascades through equality chains within the round:
        # fixing x in `x + y == c` immediately makes the next link a
        # singleton (the synthesis models' coupling equalities form
        # exactly such chains, fixing whole blocks of ``x``).
        unfixed = lb < ub
        live_entries = unfixed[cols_idx]
        live_count = np.bincount(rows_idx[live_entries], minlength=m)
        queue = deque(np.flatnonzero(active & eq_mask & (live_count == 1)).tolist())
        if queue:
            indptr, indices, adata = A.indptr, A.indices, A.data
            cptr, cind = A_csc.indptr, A_csc.indices
            fixed_any = False
            while queue:
                r = queue.popleft()
                if not active[r]:
                    continue
                sl = slice(indptr[r], indptr[r + 1])
                row_cols = indices[sl]
                row_vals = adata[sl]
                live = unfixed[row_cols]
                if not live.any():
                    # An earlier fix in the cascade emptied the row; it
                    # is now a pure consistency check.
                    total = float(row_vals @ lb[row_cols])
                    if abs(total - compiled.rhs[r]) > _INT_TOL:
                        result.rounds = rounds
                        result.proven_infeasible = True
                        return result
                    active[r] = False
                    result.dropped_constraints += 1
                    changed = True
                    continue
                j = int(row_cols[live][0])
                coef = float(row_vals[live][0])
                base = float(row_vals[~live] @ lb[row_cols[~live]])
                value = (compiled.rhs[r] - base) / coef
                if is_int[j]:
                    if abs(value - round(value)) > _INT_TOL:
                        result.rounds = rounds
                        result.proven_infeasible = True
                        return result
                    value = float(round(value))
                if value < lb[j] - _TOL or value > ub[j] + _TOL:
                    result.rounds = rounds
                    result.proven_infeasible = True
                    return result
                lb[j] = ub[j] = value
                unfixed[j] = False
                active[r] = False
                result.dropped_constraints += 1
                changed = True
                fixed_any = True
                for r2 in cind[cptr[j]:cptr[j + 1]]:
                    live_count[r2] -= 1
                    if active[r2] and eq_mask[r2] and live_count[r2] == 1:
                        queue.append(int(r2))
            if fixed_any:
                # refresh activity bounds so tightening sees the fixes
                row_min = P @ lb + N @ ub
                row_max = P @ ub + N @ lb

        # 4. bound tightening over every nonzero of every active row
        entry_live = active[rows_idx] & unfixed[cols_idx]
        if entry_live.any():
            e_rows = rows_idx[entry_live]
            e_cols = cols_idx[entry_live]
            e_data = data[entry_live]
            pos = e_data > 0
            e_lb = lb[e_cols]
            e_ub = ub[e_cols]
            entry_min = np.where(pos, e_data * e_lb, e_data * e_ub)
            entry_max = np.where(pos, e_data * e_ub, e_data * e_lb)
            rest_min = row_min[e_rows] - entry_min
            rest_max = row_max[e_rows] - entry_max

            new_lb = lb.copy()
            new_ub = ub.copy()

            # upper side: a_rj * x_j <= row_ub[r] - rest_min
            cap = has_ub[e_rows] & np.isfinite(rest_min)
            limit = np.where(cap, row_ub[e_rows] - rest_min, np.inf)
            bound = limit / e_data          # direction depends on the sign
            take = cap & pos
            if take.any():
                _scatter_upper(new_ub, e_cols, bound, take, is_int)
            take = cap & ~pos
            if take.any():
                _scatter_lower(new_lb, e_cols, bound, take, is_int)

            # lower side: a_rj * x_j >= row_lb[r] - rest_max
            cap = has_lb[e_rows] & np.isfinite(rest_max)
            limit = np.where(cap, row_lb[e_rows] - rest_max, -np.inf)
            bound = limit / e_data
            take = cap & pos
            if take.any():
                _scatter_lower(new_lb, e_cols, bound, take, is_int)
            take = cap & ~pos
            if take.any():
                _scatter_upper(new_ub, e_cols, bound, take, is_int)

            tighter_ub = new_ub < ub - _TOL
            tighter_lb = new_lb > lb + _TOL
            if tighter_ub.any() or tighter_lb.any():
                ub[tighter_ub] = new_ub[tighter_ub]
                lb[tighter_lb] = new_lb[tighter_lb]
                changed = True
                if (lb > ub + _TOL).any():
                    result.rounds = rounds
                    result.proven_infeasible = True
                    return result

    return _assemble(result, model, compiled, active, lb, ub, rounds)


def _scatter_upper(new_ub: np.ndarray, cols: np.ndarray, bound: np.ndarray,
                   take: np.ndarray, is_int: np.ndarray) -> None:
    b = bound[take]
    c = cols[take]
    rounded = np.where(is_int[c], np.floor(b + _TOL), b)
    np.minimum.at(new_ub, c, rounded)


def _scatter_lower(new_lb: np.ndarray, cols: np.ndarray, bound: np.ndarray,
                   take: np.ndarray, is_int: np.ndarray) -> None:
    b = bound[take]
    c = cols[take]
    rounded = np.where(is_int[c], np.ceil(b - _TOL), b)
    np.maximum.at(new_lb, c, rounded)


def _infeasible(result: PresolveResult, compiled: CompiledModel,
                lb: np.ndarray, ub: np.ndarray, rounds: int) -> PresolveResult:
    result.proven_infeasible = True
    result.rounds = rounds
    result.fixed = {
        v: float(lb[v.index])
        for v in compiled.variables
        if lb[v.index] == ub[v.index]
    }
    return result


def _assemble(result: PresolveResult, model: Model, compiled: CompiledModel,
              active: np.ndarray, lb: np.ndarray, ub: np.ndarray,
              rounds: int) -> PresolveResult:
    """Build the reduced model from the final bounds and surviving rows."""
    reduced = result.model
    keep: Dict[Var, Var] = {}
    for v in compiled.variables:
        if lb[v.index] == ub[v.index]:
            result.fixed[v] = float(lb[v.index])
        else:
            keep[v] = reduced.add_var(v.name, v.vtype,
                                      float(lb[v.index]), float(ub[v.index]))
    implied = getattr(model, "_implied_int_names", None)
    if implied:
        reduced._implied_int_names = {v.name for v in keep if v.name in implied}

    A = compiled.A_csr
    indptr, indices, adata = A.indptr, A.indices, A.data
    for r in np.flatnonzero(active):
        terms: Dict[Var, float] = {}
        base = -float(compiled.rhs[r])
        for j, coef in zip(indices[indptr[r]:indptr[r + 1]],
                           adata[indptr[r]:indptr[r + 1]]):
            v = compiled.variables[j]
            if v in result.fixed:
                base += coef * result.fixed[v]
            else:
                terms[keep[v]] = terms.get(keep[v], 0.0) + float(coef)
        if not terms:
            continue  # fully fixed row; feasibility was checked above
        reduced.add_constr(
            Constraint(LinExpr(terms, base), _SENSE_OF[int(compiled.senses[r])]),
            compiled.row_names[r],
        )

    obj_terms: Dict[Var, float] = {}
    obj_const = compiled.obj_offset
    # compiled.c is sign-flipped for maximization; undo it here.
    c = compiled.c if compiled.minimize else -compiled.c
    for j in np.flatnonzero(c):
        v = compiled.variables[j]
        if v in result.fixed:
            obj_const += c[j] * result.fixed[v]
        else:
            obj_terms[keep[v]] = float(c[j])
    reduced.set_objective(LinExpr(obj_terms, obj_const),
                          "min" if compiled.minimize else "max")
    result.rounds = rounds
    return result
