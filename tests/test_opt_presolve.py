"""Tests for the presolve pass (repro.opt.presolve)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.opt import Model, SolveStatus, quicksum
from repro.opt.presolve import presolve


def solve_form(form):
    """Optimize a compiled form with scipy's MILP solver.

    Returns ``(status, objective, values)``: status ``"optimal"`` or
    ``"infeasible"``, the user-space objective and the values by
    variable (None when infeasible).
    """
    if form.n == 0:
        return "optimal", form.obj_offset, {}
    rows = ([LinearConstraint(form.A_csr, form.row_lb, form.row_ub)]
            if form.m else [])
    res = milp(form.c, constraints=rows, bounds=Bounds(form.lb, form.ub),
               integrality=form.integrality)
    if res.status == 2:
        return "infeasible", None, None
    assert res.status == 0, res.message
    return ("optimal", form.report_objective(float(res.fun)),
            form.solution_dict(np.round(res.x)))


def test_singleton_equality_fixes_variable():
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(2 * x == 6)
    m.add_constr(x + y <= 8)
    m.set_objective(y, "max")
    res = presolve(m)
    assert not res.proven_infeasible
    assert res.fixed == {x: 3.0}
    assert res.form.n == 1 and res.form.variables == [y]
    _, objective, _ = solve_form(res.form)
    assert objective == pytest.approx(5)  # y <= 8 - 3


def test_bound_tightening():
    m = Model()
    x = m.add_integer("x", 0, 100)
    m.add_constr(3 * x <= 10)   # x <= 3 (integer floor)
    m.add_constr(2 * x >= 3)    # x >= 2 (integer ceil)
    res = presolve(m)
    assert res.form.variables == [x]
    assert res.form.lb[0] == 2 and res.form.ub[0] == 3
    # both rows became redundant after tightening
    assert res.form.m == 0


def test_infeasibility_detected():
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x >= 1)
    m.add_constr(x <= 0)
    assert presolve(m).proven_infeasible


def test_fractional_singleton_integer_infeasible():
    m = Model()
    x = m.add_integer("x", 0, 10)
    m.add_constr(2 * x == 5)
    assert presolve(m).proven_infeasible


def test_redundant_constraints_dropped():
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x <= 5)        # vacuous for a binary
    m.add_constr(x >= -3)       # vacuous
    res = presolve(m)
    assert res.dropped_constraints == 2
    assert res.form.m == 0


def test_extend_solution():
    """A solution of the reduced form plus ``fixed`` covers the model."""
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(x == 4)
    m.add_constr(y >= 2)
    m.set_objective(y, "min")
    res = presolve(m)
    _, _, values = solve_form(res.form)
    values.update(res.fixed)
    assert values == {x: 4.0, y: 2.0}
    assert not m.check_assignment(values)


def test_objective_constant_folded():
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(x == 4)
    m.add_constr(y >= 1)
    m.set_objective(3 * x + y, "min")
    res = presolve(m)
    _, objective, _ = solve_form(res.form)
    # objective in the reduced form must account for the fixed 3*4
    assert objective == pytest.approx(13)


def test_quadratic_model_presolved_on_its_linearization():
    """Presolve reads the compiled form, products linearized: forcing
    the product to 1 fixes both factors and the product column."""
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constr(x * y >= 1)
    m.set_objective(x + y, "min")
    res = presolve(m)
    assert not res.proven_infeasible
    names = {v.name: val for v, val in res.fixed.items()}
    assert names == {"x": 1.0, "y": 1.0, "_lin_x*y": 1.0}
    assert res.form.n == 0 and res.form.m == 0
    assert res.form.report_objective(0.0) == pytest.approx(2.0)


def test_chained_propagation():
    """Fixing one variable cascades through equalities."""
    m = Model()
    a = m.add_integer("a", 0, 10)
    b = m.add_integer("b", 0, 10)
    c = m.add_integer("c", 0, 10)
    m.add_constr(a == 2)
    m.add_constr(a + b == 5)   # -> b = 3 once a is fixed
    m.add_constr(b + c == 4)   # -> c = 1 once b is fixed
    res = presolve(m)
    names = {v.name: val for v, val in res.fixed.items()}
    assert names == {"a": 2.0, "b": 3.0, "c": 1.0}
    assert res.form.n == 0


def test_constraint_emptied_by_fixing_is_dropped():
    """A row whose variables all get fixed degenerates to a constant
    check; consistent rows vanish from the reduced form."""
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(x == 2)
    m.add_constr(y == 3)
    m.add_constr(x + y <= 9)       # becomes 5 <= 9 once both are fixed
    res = presolve(m)
    assert not res.proven_infeasible
    assert res.form.n == 0
    assert res.form.m == 0
    names = {v.name: val for v, val in res.fixed.items()}
    assert names == {"x": 2.0, "y": 3.0}


def test_constraint_emptied_by_fixing_proves_infeasibility():
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(x == 2)
    m.add_constr(y == 3)
    m.add_constr(x + y == 9)       # 5 == 9: contradiction
    assert presolve(m).proven_infeasible


def test_bound_tightening_to_infeasibility():
    """Tightening drives lb past ub without any single row being
    unsatisfiable on the original bounds."""
    m = Model()
    x = m.add_var("x", lb=0.0, ub=10.0)
    m.add_constr(2 * x >= 12)      # x >= 6
    m.add_constr(3 * x <= 12)      # x <= 4
    assert presolve(m).proven_infeasible


def test_activity_infeasible_row_detected():
    """A row whose best-case activity still misses the rhs."""
    m = Model()
    x = m.add_integer("x", 0, 2)
    y = m.add_integer("y", 0, 3)
    m.add_constr(x + y >= 10)      # max activity is 5
    assert presolve(m).proven_infeasible


def test_all_variables_fixed_model():
    """Every variable pinned: the reduced form is empty and its
    objective is the folded constant."""
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(x == 7)
    m.add_constr(y == 1)
    m.set_objective(2 * x + 5 * y, "min")
    res = presolve(m)
    assert res.form.n == 0
    assert res.form.m == 0
    assert res.form.report_objective(0.0) == pytest.approx(19)
    assert res.fixed == {x: 7.0, y: 1.0}


def _random_small_model(seed: int) -> Model:
    rng = random.Random(seed)
    m = Model(f"ps{seed}")
    xs = [m.add_integer(f"x{i}", 0, rng.randint(1, 3)) for i in range(3)]
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.randint(-2, 2) for _ in xs]
        sense = rng.choice(["le", "ge", "eq"])
        rhs = rng.randint(-2, 4)
        lhs = quicksum(c * x for c, x in zip(coeffs, xs))
        if sense == "le":
            m.add_constr(lhs <= rhs)
        elif sense == "ge":
            m.add_constr(lhs >= rhs)
        else:
            m.add_constr(lhs == rhs)
    m.set_objective(quicksum(rng.randint(-2, 2) * x for x in xs), "min")
    return m


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_presolve_preserves_optimum(seed):
    """Property: solving the presolved form (plus fixed variables)
    gives exactly the original optimum, including infeasibility, and so
    does branch_bound, which searches that form."""
    original = _random_small_model(seed)
    baseline = original.solve(backend="highs")
    searched = _random_small_model(seed).solve(backend="branch_bound")
    assert searched.status is baseline.status
    if baseline.status is SolveStatus.OPTIMAL:
        assert searched.objective == pytest.approx(baseline.objective)

    res = presolve(original)
    if res.proven_infeasible:
        assert baseline.status is SolveStatus.INFEASIBLE
        return
    status, objective, values = solve_form(res.form)
    if baseline.status is SolveStatus.INFEASIBLE:
        assert status == "infeasible"
        return
    assert status == "optimal"
    assert objective == pytest.approx(baseline.objective)
    values.update(res.fixed)
    assert not original.check_assignment(values)


def _loop_fold(compiled, fixed):
    """Reference for the reduced form's arithmetic: each row with a free
    column gets its right-hand side with the fixed columns folded in,
    one CSR entry at a time, and the objective offset likewise."""
    A = compiled.A_csr
    rhs = {}
    for r in range(compiled.m):
        base = -float(compiled.rhs[r])
        live = False
        for k in range(A.indptr[r], A.indptr[r + 1]):
            v = compiled.variables[A.indices[k]]
            if v in fixed:
                base += A.data[k] * fixed[v]
            else:
                live = True
        if live:
            rhs[compiled.row_names[r]] = -base
    c = compiled.c if compiled.minimize else -compiled.c
    offset = compiled.obj_offset
    for j in np.flatnonzero(c):
        if compiled.variables[j] in fixed:
            offset += c[j] * fixed[compiled.variables[j]]
    return rhs, float(offset)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_reduced_form_matches_loop_fold(seed):
    """The vectorized slice reproduces the loop's sums bit for bit."""
    m = _random_small_model(seed)
    res = presolve(m)
    if res.proven_infeasible:
        return
    rhs, offset = _loop_fold(m.compiled(), res.fixed)
    form = res.form
    assert form.obj_offset.hex() == offset.hex()
    assert set(form.row_names) <= set(rhs)
    for name, value in zip(form.row_names, form.rhs):
        assert float(value).hex() == float(rhs[name]).hex()
