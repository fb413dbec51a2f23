"""Incremental solve machinery: warm starts, persistent LPs, re-solve contexts.

Three pieces that let related solves share work instead of starting
cold every time:

* :class:`WarmStart` — a complete feasible assignment (by variable
  name) plus its objective value, handed to a backend as the initial
  incumbent so pruning starts with a finite cutoff.
* :class:`IncrementalLP` — one LP relaxation kept alive for a whole
  branch-and-bound tree. The model is loaded into one persistent HiGHS
  instance (the binding bundled with scipy) exactly once; each node
  applies only its bound *deltas*, and only the column bounds that
  actually changed are pushed to HiGHS. Dual simplex then hot-starts
  from a basis the caller restores per node (:meth:`IncrementalLP.
  set_basis`), so a child LP costs the few pivots its one new bound
  requires instead of a model rebuild, a presolve and a cold simplex.
  Cut rows (e.g. clique cuts from :mod:`repro.opt.cuts`) are added to
  HiGHS once and are seen by every later relaxation. On a scipy without
  that binding the same class falls back to a cold
  :func:`scipy.optimize.linprog` per solve (:data:`LP_ENGINE`).
* :class:`SolveContext` — a cache threaded through
  :func:`repro.core.synthesizer.synthesize` by α/β weight sweeps, which
  solve one model under many objectives; the context keeps the built
  model (and with it the compiled arrays and cut pool, which are cached
  *on* the model) and remembers each optimum so the next
  structurally-identical solve can start from it.

Nothing here changes what is solved — warm starts are validated before
use, hot starts change only where simplex begins, and an exact search
still runs to proven optimality, so objective values are identical to a
cold solve (guarded by ``tests/test_warm_resolve.py`` and
``tests/test_opt_incremental.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.errors import SolverError
from repro.obs.trace import current_tracer

#: HiGHS methods the ``highs`` engine calls; all must exist to use it.
_HIGHS_METHODS = ("passModel", "changeColsBounds", "addRows", "run",
                  "getBasis", "setBasis", "clearSolver", "getInfo",
                  "getSolution", "getModelStatus", "modelStatusToString",
                  "setOptionValue")


def _probe_highs():
    """scipy's bundled HiGHS binding, or None when this scipy predates it
    or lacks a method the engine calls. The binding is private API, so
    it is probed rather than assumed."""
    try:
        from scipy.optimize._highspy import _core

        for name in _HIGHS_METHODS:
            getattr(_core._Highs, name)
        _core.HighsLp, _core.MatrixFormat.kRowwise
    except (ImportError, AttributeError):
        return None
    return _core


_HIGHS = _probe_highs()

#: LP engine new :class:`IncrementalLP` instances use: ``"highs"`` (one
#: persistent, hot-started HiGHS instance) whenever the probe finds the
#: binding, else ``"linprog"``. Recorded in every run manifest.
LP_ENGINE = "highs" if _HIGHS is not None else "linprog"


@dataclass
class WarmStart:
    """A feasible assignment offered to a backend as initial incumbent.

    ``values`` maps variable *names* to values, auxiliary product
    columns included, so it fits the compiled form of the model and any
    presolve-reduced form of it. ``objective`` is the user-space
    objective of the assignment.
    """

    values: Dict[str, float]
    objective: float
    source: str = "warm"

    def vector(self, compiled) -> Optional[np.ndarray]:
        """The assignment as a column vector over ``compiled``'s
        variables (by position), or None when any variable is missing a
        value."""
        x = np.empty(compiled.n)
        values = self.values
        for i, v in enumerate(compiled.variables):
            val = values.get(v.name)
            if val is None:
                return None
            x[i] = val
        return x


@dataclass(frozen=True)
class LPResult:
    """One relaxation solve, with the fields branch-and-bound reads.

    ``status`` uses :func:`scipy.optimize.linprog`'s codes: 0 optimal,
    1 iteration/time limit, 2 infeasible, 3 unbounded, 4 anything else
    (including HiGHS's "unbounded or infeasible"). ``fun`` and ``x`` are
    set only when ``status == 0``.
    """

    status: int
    fun: Optional[float]
    x: Optional[np.ndarray]
    nit: int
    message: str


class IncrementalLP:
    """A persistent LP relaxation over a compiled model.

    A branch-and-bound tree calls :meth:`set_bounds` with a node's delta
    chain (reverting the previous node's deltas first — O(depth), not
    O(n)) and :meth:`tightened` for the one extra bound of each child.
    The working bound vectors are plain numpy arrays; :meth:`solve`
    hands them to the engine chosen by :data:`LP_ENGINE` when the
    instance is built:

    * ``"highs"`` — one HiGHS instance loaded once from the compiled
      range form. A solve pushes only the column bounds that differ from
      what HiGHS holds, cuts become HiGHS rows once, and dual simplex
      restarts from whatever basis HiGHS holds: the previous solve's,
      one handed to :meth:`set_basis`, or none after :meth:`cold_start`.
    * ``"linprog"`` — :func:`scipy.optimize.linprog` on the split
      ``A_ub``/``A_eq`` form, cold on every call. The basis methods do
      nothing.
    """

    def __init__(self, compiled) -> None:
        self.form = compiled
        self.engine = LP_ENGINE
        self._base_lb = compiled.lb.copy()
        self._base_ub = compiled.ub.copy()
        self._lb = compiled.lb.copy()
        self._ub = compiled.ub.copy()
        self._touched: set = set()
        self.lp_calls = 0
        self.lp_iterations = 0
        self.cuts_added = 0
        if self.engine == "highs":
            self._highs = _load_highs(compiled)
            # The bounds HiGHS currently holds (see _push_bounds).
            self._held_lb = compiled.lb.copy()
            self._held_ub = compiled.ub.copy()
        else:
            A_ub, b_ub, A_eq, b_eq = compiled.split_form()
            self._A_ub, self._b_ub = A_ub, b_ub
            self._A_eq, self._b_eq = A_eq, b_eq
        # The histogram is resolved once here (not per solve) so the
        # traced hot path pays one attribute check per LP re-solve; with
        # tracing disabled it stays None. The LP count itself is the
        # search's lp_calls counter, which the result carries.
        tracer = current_tracer()
        self._lp_iter_hist = (tracer.metrics.histogram("lp_iterations_per_resolve")
                              if tracer is not None else None)

    # -- bound management ----------------------------------------------
    @property
    def lb(self) -> np.ndarray:
        """Current node's lower bounds (read-only by convention)."""
        return self._lb

    @property
    def ub(self) -> np.ndarray:
        """Current node's upper bounds (read-only by convention)."""
        return self._ub

    def set_bounds(self, deltas: Iterable[Tuple[int, bool, float]]) -> None:
        """Make the working bounds equal root bounds + ``deltas``.

        ``deltas`` is a root-to-leaf sequence of ``(var index, is_ub,
        value)`` tuples; later entries win, matching the node chain of
        the branch-and-bound tree.
        """
        for j in self._touched:
            self._lb[j] = self._base_lb[j]
            self._ub[j] = self._base_ub[j]
        self._touched.clear()
        for j, is_ub, value in deltas:
            if is_ub:
                self._ub[j] = value
            else:
                self._lb[j] = value
            self._touched.add(j)

    @contextmanager
    def tightened(self, j: int, is_ub: bool, value: float) -> Iterator[None]:
        """Temporarily overlay one extra bound on the current node."""
        old_lb, old_ub = self._lb[j], self._ub[j]
        if is_ub:
            self._ub[j] = value
        else:
            self._lb[j] = value
        self._touched.add(j)
        try:
            yield
        finally:
            self._lb[j], self._ub[j] = old_lb, old_ub

    # -- basis (hot starts) --------------------------------------------
    def basis(self):
        """The last solve's final basis, an opaque token for
        :meth:`set_basis` (None under the ``linprog`` engine)."""
        if self.engine != "highs":
            return None
        return self._highs.getBasis()

    def set_basis(self, basis) -> None:
        """Start the next solve from ``basis`` (from :meth:`basis`).

        HiGHS's other solver state is dropped first: it keeps running
        estimates between solves that change its pivot choices. So the
        next solve depends only on the bounds and ``basis``, not on what
        this instance solved in between.
        """
        if basis is not None:
            self._highs.clearSolver()
            self._highs.setBasis(basis)

    def cold_start(self) -> None:
        """Drop the held basis: the next solve starts from scratch,
        exactly like the first solve of a fresh instance."""
        if self.engine == "highs":
            self._highs.clearSolver()

    # -- cuts ----------------------------------------------------------
    def add_cuts(self, A_rows: sparse.spmatrix, b_rows: np.ndarray) -> None:
        """Append ``A_rows @ x <= b_rows`` for all subsequent solves."""
        if A_rows.shape[0] == 0:
            return
        if self.engine == "highs":
            rows = sparse.csr_matrix(A_rows)
            _checked(self._highs.addRows(
                rows.shape[0], np.full(rows.shape[0], -np.inf),
                np.asarray(b_rows, dtype=float), rows.nnz,
                rows.indptr[:-1].astype(np.int32),
                rows.indices.astype(np.int32), rows.data.astype(float)),
                "addRows")
        elif self._A_ub.shape[0]:
            self._A_ub = sparse.vstack([self._A_ub, A_rows], format="csr")
            self._b_ub = np.concatenate([self._b_ub, b_rows])
        else:
            self._A_ub = A_rows.tocsr()
            self._b_ub = np.asarray(b_rows, dtype=float)
        self.cuts_added += int(A_rows.shape[0])

    # -- solving -------------------------------------------------------
    def solve(self) -> LPResult:
        """Solve the relaxation under the current working bounds."""
        if self.engine == "highs":
            res = self._solve_highs()
        else:
            res = self._solve_linprog()
        self.lp_calls += 1
        self.lp_iterations += res.nit
        if self._lp_iter_hist is not None:
            self._lp_iter_hist.observe(res.nit)
        return res

    def _solve_highs(self) -> LPResult:
        self._push_bounds()
        highs = self._highs
        highs.run()
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        nit = int(info.simplex_iteration_count or info.ipm_iteration_count)
        status = _HIGHS_STATUS.get(model_status.name, 4)
        message = highs.modelStatusToString(model_status)
        if status != 0:
            return LPResult(status, None, None, nit, message)
        x = np.array(highs.getSolution().col_value)
        return LPResult(0, float(info.objective_function_value), x, nit,
                        message)

    def _push_bounds(self) -> None:
        """Send HiGHS the column bounds that differ from what it holds."""
        changed = np.flatnonzero((self._lb != self._held_lb)
                                 | (self._ub != self._held_ub))
        if changed.size:
            lb, ub = self._lb[changed], self._ub[changed]
            _checked(self._highs.changeColsBounds(
                changed.size, changed.astype(np.int32), lb, ub),
                "changeColsBounds")
            self._held_lb[changed] = lb
            self._held_ub[changed] = ub

    def _solve_linprog(self) -> LPResult:
        res = linprog(
            self.form.c,
            A_ub=self._A_ub if self._A_ub.nnz else None,
            b_ub=self._b_ub if self._A_ub.nnz else None,
            A_eq=self._A_eq if self._A_eq.nnz else None,
            b_eq=self._b_eq if self._A_eq.nnz else None,
            bounds=np.column_stack([self._lb, self._ub]),
            method="highs",
        )
        nit = getattr(res, "nit", 0)
        ok = res.status == 0
        return LPResult(int(res.status), float(res.fun) if ok else None,
                        res.x if ok else None,
                        int(nit) if nit is not None else 0, res.message)

    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether ``x`` satisfies bounds, rows and integrality."""
        if (x < self._base_lb - tol).any() or (x > self._base_ub + tol).any():
            return False
        form = self.form
        if form.m:
            row = form.A_csr @ x
            if (row < form.row_lb - tol).any() or (row > form.row_ub + tol).any():
                return False
        ints = form.integrality == 1
        if ints.any() and (np.abs(x[ints] - np.round(x[ints])) > tol).any():
            return False
        return True


#: HiGHS model statuses mapped onto linprog's status codes (the rest,
#: "unbounded or infeasible" included, map to 4 as linprog maps them).
_HIGHS_STATUS = {
    "kOptimal": 0,
    "kTimeLimit": 1,
    "kIterationLimit": 1,
    "kInfeasible": 2,
    "kModelError": 2,
    "kUnbounded": 3,
}


def _checked(status, call: str) -> None:
    if status.name == "kError":
        raise SolverError(f"HiGHS {call} failed")


def _load_highs(compiled):
    """A quiet HiGHS instance holding ``compiled``'s LP relaxation."""
    A = compiled.A_csr
    lp = _HIGHS.HighsLp()
    lp.num_col_ = compiled.n
    lp.num_row_ = compiled.m
    lp.col_cost_ = compiled.c
    lp.col_lower_ = compiled.lb
    lp.col_upper_ = compiled.ub
    lp.row_lower_ = compiled.row_lb
    lp.row_upper_ = compiled.row_ub
    lp.a_matrix_.format_ = _HIGHS.MatrixFormat.kRowwise
    lp.a_matrix_.num_col_ = compiled.n
    lp.a_matrix_.num_row_ = compiled.m
    lp.a_matrix_.start_ = A.indptr.astype(np.int32)
    lp.a_matrix_.index_ = A.indices.astype(np.int32)
    lp.a_matrix_.value_ = A.data.astype(float)
    highs = _HIGHS._Highs()
    highs.setOptionValue("output_flag", False)
    _checked(highs.passModel(lp), "passModel")
    return highs


class SolveContext:
    """Shared cache for families of related synthesis solves.

    The sensitivity module's
    :func:`~repro.analysis.sensitivity.weight_sweep` re-solves one case
    under many α/β weightings. A context keyed on the structural part of
    the spec (everything except the objective weights) lets those runs
    reuse:

    * the built model — and through it the compiled sparse arrays and
      the clique-cut pool, both cached on the model objects;
    * the previous optimum as a warm-start incumbent for backends that
      accept one (``branch_bound`` and ``parallel_bb``).

    The context stores plain data (name-keyed value dicts); consumers
    decide how to map it onto their model. ``stats`` counts hits and
    misses for instrumentation.
    """

    def __init__(self) -> None:
        self._models: Dict[Any, Any] = {}
        self._incumbents: Dict[Any, Dict[str, float]] = {}
        self.stats: Dict[str, int] = {
            "model_hits": 0,
            "model_misses": 0,
            "incumbents_stored": 0,
            "warm_starts_served": 0,
        }

    def built_model(self, key: Any, build: Callable[[], Any]) -> Any:
        """The cached artifact for ``key``, building it on first use."""
        cached = self._models.get(key)
        if cached is None:
            self.stats["model_misses"] += 1
            cached = build()
            self._models[key] = cached
        else:
            self.stats["model_hits"] += 1
        return cached

    def note_solution(self, key: Any, values_by_name: Dict[str, float]) -> None:
        """Remember an optimum's assignment for future warm starts."""
        self._incumbents[key] = dict(values_by_name)
        self.stats["incumbents_stored"] += 1

    def incumbent(self, key: Any) -> Optional[Dict[str, float]]:
        """The last stored assignment for ``key`` (a copy), if any."""
        stored = self._incumbents.get(key)
        if stored is None:
            return None
        self.stats["warm_starts_served"] += 1
        return dict(stored)

    def __repr__(self) -> str:
        return (f"SolveContext(models={len(self._models)}, "
                f"incumbents={len(self._incumbents)}, stats={self.stats})")


__all__ = ["WarmStart", "IncrementalLP", "LPResult", "LP_ENGINE",
           "SolveContext"]
