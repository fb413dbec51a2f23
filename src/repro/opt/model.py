"""The optimization model container.

:class:`Model` collects variables, (possibly quadratic) constraints and
an objective, and dispatches to a solver backend. Backends read the
model through its compiled form (:meth:`Model.compiled`, see
:mod:`repro.opt.compile`), where binary products are already linearized
exactly, so every backend only ever sees a mixed-integer *linear*
program.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ModelError, SolverError
from repro.obs.trace import obs_event, obs_span
from repro.opt.expr import (
    Constraint,
    ExprLike,
    LinExpr,
    QuadExpr,
    Sense,
    Var,
    VarType,
    quicksum,
)
from repro.opt.result import Solution, SolveStatus

_model_counter = itertools.count()


class Model:
    """A mixed-integer (quadratic) program.

    Typical usage::

        m = Model("demo")
        x = m.add_var("x", VarType.BINARY)
        y = m.add_var("y", VarType.BINARY)
        m.add_constr(x + y <= 1, "pick_one")
        m.set_objective(x + 2 * y, sense="max")
        sol = m.solve()
        sol.value(x)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._id = next(_model_counter)
        self.variables: List[Var] = []
        self.constraints: List[Constraint] = []
        self.objective: ExprLike = LinExpr()
        self.minimize = True
        self._names: Dict[str, Var] = {}
        # Mutation counter: bumped by every structural change so the
        # compiled sparse form (repro.opt.compile) can be cached safely.
        self._version = 0
        self._compiled = None
        # Names of integer variables whose integrality is implied by the
        # rest of the model (see mark_implied_integer).
        self._implied_int_names: set = set()
        # Conclusive solve results keyed by (version, backend, gap); a
        # re-solve of the unchanged model returns a cached copy.
        self._solutions: Dict[Tuple, Solution] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        vtype: VarType = VarType.CONTINUOUS,
        lb: float = 0.0,
        ub: Optional[float] = None,
    ) -> Var:
        """Create and register a new decision variable.

        ``ub=None`` means 1 for binaries and +inf otherwise. Variable
        names must be unique within the model.
        """
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        if vtype is VarType.BINARY:
            lb, ub = 0, 1
        elif ub is None:
            ub = float("inf")
        var = Var(name, vtype, lb, ub, index=len(self.variables), model_id=self._id)
        self.variables.append(var)
        self._names[name] = var
        self._version += 1
        return var

    def add_binary(self, name: str) -> Var:
        """Shorthand for :meth:`add_var` with a binary domain."""
        return self.add_var(name, VarType.BINARY)

    def add_integer(self, name: str, lb: float = 0.0, ub: Optional[float] = None) -> Var:
        """Shorthand for :meth:`add_var` with an integer domain."""
        return self.add_var(name, VarType.INTEGER, lb, ub)

    def var_by_name(self, name: str) -> Var:
        """Look up a variable by its unique name."""
        try:
            return self._names[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r}") from None

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constr expects a Constraint (did the comparison return a bool?)"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        self._version += 1
        return constraint

    def add_constrs(self, constraints: Iterable[Constraint], prefix: str = "") -> List[Constraint]:
        """Register several constraints, auto-numbering their names."""
        added = []
        for i, c in enumerate(constraints):
            added.append(self.add_constr(c, f"{prefix}{i}" if prefix else ""))
        return added

    def set_objective(self, expr: ExprLike, sense: str = "min") -> None:
        """Set the objective. ``sense`` is ``"min"`` or ``"max"``."""
        if sense not in ("min", "max"):
            raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
        if isinstance(expr, Var):
            expr = expr.to_linexpr()
        if isinstance(expr, (int, float)):
            expr = LinExpr({}, float(expr))
        self._check_ownership(expr)
        self.objective = expr
        self.minimize = sense == "min"
        self._version += 1

    def mark_implied_integer(self, *variables: Var) -> None:
        """Declare integer variables whose integrality is *implied*.

        An implied-integer variable is forced to an integral value by
        its defining constraints whenever the remaining integer
        variables take integral values (e.g. a counter defined by an
        equality over binaries). Backends may then drop it from the
        branch set — a pure search-space reduction that cannot change
        any optimal objective value. Only mark a variable when every
        integral completion of the others forces it; when in doubt,
        leave it enforced.
        """
        for v in variables:
            if v._model_id != self._id:
                raise ModelError(
                    f"variable {v.name!r} belongs to a different model than {self.name!r}"
                )
            if v.vtype is VarType.CONTINUOUS:
                continue
            self._implied_int_names.add(v.name)
        self._version += 1

    def _check_ownership(self, expr: ExprLike) -> None:
        if isinstance(expr, LinExpr):
            vars_ = expr.terms.keys()
        elif isinstance(expr, QuadExpr):
            vars_ = list(expr.lin_terms.keys()) + [v for pair in expr.quad_terms for v in pair]
        else:
            return
        for v in vars_:
            if v._model_id != self._id:
                raise ModelError(
                    f"variable {v.name!r} belongs to a different model than {self.name!r}"
                )

    # ------------------------------------------------------------------
    # compilation cache
    # ------------------------------------------------------------------
    def compiled(self):
        """The model in sparse matrix form with its binary products
        linearized (cached; see repro.opt.compile).

        The cache is invalidated automatically by :meth:`add_var`,
        :meth:`add_constr` and :meth:`set_objective`; after mutating a
        registered constraint's expression in place, call
        :meth:`invalidate` manually.
        """
        from repro.opt.compile import compile_model

        return compile_model(self)

    def invalidate(self) -> None:
        """Drop the cached compiled form after an in-place mutation."""
        self._version += 1
        self._compiled = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def is_linear(self) -> bool:
        """Whether the model (objective and all constraints) is linear."""
        obj_linear = not (isinstance(self.objective, QuadExpr) and self.objective.quad_terms)
        return obj_linear and all(c.is_linear() for c in self.constraints)

    def stats(self) -> Dict[str, int]:
        """Size statistics: variable counts by type, constraint counts
        by sense, and the number of distinct quadratic products."""
        by_type = {"binary": 0, "integer": 0, "continuous": 0}
        for v in self.variables:
            if v.vtype is VarType.BINARY:
                by_type["binary"] += 1
            elif v.vtype is VarType.INTEGER:
                by_type["integer"] += 1
            else:
                by_type["continuous"] += 1
        by_sense = {"<=": 0, ">=": 0, "==": 0}
        nonzeros = 0
        products = set()
        for c in self.constraints:
            by_sense[c.sense.value] += 1
            expr = c.expr
            if isinstance(expr, QuadExpr):
                nonzeros += len(expr.lin_terms) + len(expr.quad_terms)
                products.update(expr.quad_terms)
            else:
                nonzeros += len(expr.terms)
        obj = self.objective
        if isinstance(obj, QuadExpr):
            products.update(obj.quad_terms)
        return {
            "variables": self.num_vars,
            **by_type,
            "constraints": self.num_constraints,
            "le": by_sense["<="],
            "ge": by_sense[">="],
            "eq": by_sense["=="],
            "nonzeros": nonzeros,
            "quadratic_products": len(products),
        }

    def check_assignment(
        self, assignment: Dict[Var, float], tol: float = 1e-6
    ) -> List[Constraint]:
        """Return the constraints violated by a complete assignment."""
        return [c for c in self.constraints if not c.satisfied(assignment, tol)]

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        mip_gap: float = 1e-9,
        verbose: bool = False,
        warm_start: Optional[Dict[Var, float]] = None,
        warm_source: str = "warm",
    ) -> Solution:
        """Solve the model and return a :class:`Solution`.

        ``backend`` is one of ``"auto"``, ``"highs"``, ``"branch_bound"``,
        ``"parallel_bb"`` (or ``"parallel_bb:N"`` for N workers) or a
        name added with :func:`~repro.opt.solvers.register_backend`.
        ``"auto"`` picks HiGHS when scipy provides it and falls back to
        the built-in branch-and-bound otherwise. The backend receives the
        model as written and reads its compiled form, where products are
        linearized exactly; the reported solution only contains the
        original variables, and its ``objective`` is the objective
        evaluated on that assignment, whatever the backend reported. The
        returned solution carries a per-phase wall-clock breakdown in
        ``solution.timings`` and search counters in ``solution.counters``.

        ``warm_start`` optionally supplies a complete assignment of the
        original variables. It is validated against the constraints
        (silently dropped when violated) and offered to the backend as
        its initial incumbent; backends without warm-start support
        ignore it, so the returned status/objective never depend on it.

        Re-solving an unchanged model with the same backend and gap
        returns a cached copy of the previous *conclusive* result
        (optimal/infeasible/unbounded — all independent of any time
        limit); any structural mutation invalidates the cache.
        """
        from repro.opt.solvers import get_backend
        from repro.perf import PerfRecorder

        start = time.perf_counter()
        cache_key = (self._version, backend, float(mip_gap))
        cached = self._solutions.get(cache_key)
        if cached is not None:
            hit = cached.clone()
            hit.runtime = time.perf_counter() - start
            hit.timings = type(hit.timings)()
            hit.timings.add("solve", hit.runtime)
            hit.counters["resolve_cache_hit"] = 1
            obs_event("cache_hit", kind="resolve", model=self.name,
                      status=hit.status.value)
            return hit

        recorder = PerfRecorder(self.name)
        # The "linearize" phase is the whole compile: flattening the
        # model and linearizing its products (a cache hit when unchanged).
        with recorder.phase("linearize"):
            compiled = self.compiled()

        warm = None
        if warm_start is not None:
            warm = self._build_warm_start(warm_start, compiled.products,
                                          warm_source)

        solver = get_backend(backend)
        t_backend = time.perf_counter()
        # The timings ledger splits presolve out of the backend wall time
        # below; the span deliberately covers the whole backend call so
        # solver-internal spans and events nest under one "solve" node.
        with obs_span("solve", kind="phase", model=self.name,
                      backend=solver.name):
            solution = solver.solve(
                self, time_limit=time_limit, mip_gap=mip_gap,
                verbose=verbose, warm_start=warm,
            )
        # The backend reports its presolve share in solution.timings;
        # record only the remainder as "solve" so the merged breakdown
        # does not double-count (presolve + solve == backend wall time).
        backend_s = time.perf_counter() - t_backend
        recorder.timings.add(
            "solve", max(0.0, backend_s - solution.timings.get("presolve", 0.0))
        )

        if compiled.products and solution.values is not None:
            solution = solution.restrict(set(self.variables))

        if solution.has_solution:
            assignment = {v: solution.values[v] for v in self.variables}
            if solution.is_optimal:
                with recorder.phase("check"):
                    violated = self.check_assignment(assignment, tol=1e-5)
                if violated:
                    raise SolverError(
                        f"solver returned an assignment violating {len(violated)} "
                        f"constraint(s); first: {violated[0]!r}"
                    )
            # Report the value of the returned assignment, not the
            # backend's floating-point running total.
            solution.objective = self.objective.value(assignment)
        solution.runtime = time.perf_counter() - start
        solution.model_name = self.name
        solution.timings.merge(recorder.timings)
        obs_event("solve_result", model=self.name, solver=solution.solver,
                  status=solution.status.value, objective=solution.objective,
                  runtime=round(solution.runtime, 6))
        if solution.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                               SolveStatus.UNBOUNDED):
            if len(self._solutions) >= 16:
                self._solutions.pop(next(iter(self._solutions)))
            self._solutions[cache_key] = solution.clone()
        return solution

    def _build_warm_start(self, warm_start: Dict[Var, float], products,
                          source: str = "warm"):
        """Validate a user assignment and package it for the backends.

        Returns None (warm start silently dropped) when the assignment
        is incomplete or violates any constraint — a bad warm start
        must never be able to corrupt an exact search. Linearization
        product columns (``products``, from the compiled form) are
        completed from their factors.
        """
        from repro.opt.incremental import WarmStart

        values = dict(warm_start)
        if any(v not in values for v in self.variables):
            return None
        if self.check_assignment(values, tol=1e-6):
            return None
        if products:
            for (a, b), z in products.items():
                if z not in values:
                    values[z] = values[a] * values[b]
        objective = (self.objective.value(values)
                     if not isinstance(self.objective, (int, float))
                     else float(self.objective))
        return WarmStart(
            {v.name: float(val) for v, val in values.items()},
            objective=float(objective),
            source=source,
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        kind = "MILP" if self.is_linear() else "MIQP"
        return (
            f"Model({self.name!r}, {kind}, vars={self.num_vars}, "
            f"constraints={self.num_constraints})"
        )


__all__ = [
    "Model",
    "Var",
    "VarType",
    "Constraint",
    "Sense",
    "LinExpr",
    "QuadExpr",
    "quicksum",
    "Solution",
    "SolveStatus",
]
