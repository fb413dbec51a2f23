"""Solver backend tests: each backend alone, plus cross-checks."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.opt import Model, SolveStatus, VarType, quicksum
from repro.opt.solvers import BUILTIN_BACKENDS, available_backends, get_backend

BACKENDS = ["highs", "branch_bound"]


def knapsack_model():
    m = Model("knapsack")
    values = [6, 5, 4, 3]
    weights = [4, 3, 2, 1]
    xs = [m.add_binary(f"x{i}") for i in range(4)]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 6)
    m.set_objective(quicksum(v * x for v, x in zip(values, xs)), "max")
    return m, xs


@pytest.mark.parametrize("backend", BACKENDS)
def test_knapsack_optimum(backend):
    m, _ = knapsack_model()
    sol = m.solve(backend=backend)
    assert sol.status is SolveStatus.OPTIMAL
    # best: items with weights 3+2+1=6, values 5+4+3=12
    assert sol.objective == pytest.approx(12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible_detected(backend):
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x >= 1)
    m.add_constr(x <= 0)
    sol = m.solve(backend=backend)
    assert sol.status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("backend", BACKENDS)
def test_equality_constraints(backend):
    m = Model()
    x = m.add_integer("x", 0, 10)
    y = m.add_integer("y", 0, 10)
    m.add_constr(x + y == 7)
    m.add_constr(x - y == 1)
    m.set_objective(x, "min")
    sol = m.solve(backend=backend)
    assert sol.int_value(x) == 4 and sol.int_value(y) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_integer_bounds_respected(backend):
    m = Model()
    x = m.add_integer("x", 2, 5)
    m.set_objective(x, "min")
    sol = m.solve(backend=backend)
    assert sol.int_value(x) == 2


def test_backend_registry():
    assert BUILTIN_BACKENDS == ("highs", "branch_bound", "parallel_bb")
    avail = available_backends()
    assert avail["branch_bound"] and avail["parallel_bb"]
    with pytest.raises(SolverError):
        get_backend("does-not-exist")


def test_auto_backend_resolves():
    assert get_backend("auto").name in ("highs", "branch_bound")


def test_branch_bound_continuous_lp():
    m = Model()
    x = m.add_var("x", VarType.CONTINUOUS, 0, 10)
    y = m.add_var("y", VarType.CONTINUOUS, 0, 10)
    m.add_constr(x + y >= 3)
    m.set_objective(2 * x + y, "min")
    sol = m.solve(backend="branch_bound")
    assert sol.objective == pytest.approx(3)  # x=0, y=3


def test_time_limit_returns_promptly():
    # a deliberately symmetric, hard-ish model with a tiny time limit
    m = Model()
    n = 14
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    for i in range(n - 1):
        m.add_constr(xs[i] + xs[i + 1] <= 1)
    m.set_objective(
        quicksum(((-1) ** i) * (i % 5 + 1) * x for i, x in enumerate(xs)), "min"
    )
    sol = m.solve(backend="branch_bound", time_limit=0.05)
    assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE,
                          SolveStatus.TIME_LIMIT)


def _random_model(seed: int):
    rng = random.Random(seed)
    m = Model(f"xcheck{seed}")
    n = rng.randint(2, 5)
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    z = m.add_integer("z", 0, 4)
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        rhs = rng.randint(-2, 4)
        lhs = quicksum(c * x for c, x in zip(coeffs, xs)) + rng.choice([0, 1]) * z
        m.add_constr(lhs <= rhs)
    m.set_objective(
        quicksum(rng.randint(-3, 3) * x for x in xs) + rng.randint(0, 2) * z, "min"
    )
    return m


def _brute_force(m: Model):
    best = None
    domains = []
    for v in m.variables:
        domains.append([float(k) for k in range(int(v.lb), int(v.ub) + 1)])
    for combo in itertools.product(*domains):
        assignment = dict(zip(m.variables, combo))
        if m.check_assignment(assignment):
            continue
        obj = m.objective.value(assignment)
        if best is None or obj < best:
            best = obj
    return best


@pytest.mark.parametrize("seed", range(12))
def test_backends_agree_with_enumeration(seed):
    """Both backends match exhaustive enumeration on random MILPs.

    The objective is unbounded below only if some negative-coefficient
    variable is free, which cannot happen here (all domains finite).
    """
    m = _random_model(seed)
    expected = _brute_force(m)
    for backend in BACKENDS:
        sol = m.solve(backend=backend)
        if expected is None:
            assert sol.status is SolveStatus.INFEASIBLE, backend
        else:
            assert sol.status is SolveStatus.OPTIMAL, backend
            assert sol.objective == pytest.approx(expected), backend


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=100, max_value=10_000))
def test_backends_agree_property(seed):
    """Property form of the cross-check over a wider seed space."""
    m = _random_model(seed)
    expected = _brute_force(m)
    sol_h = m.solve(backend="highs")
    sol_b = m.solve(backend="branch_bound")
    if expected is None:
        assert sol_h.status is SolveStatus.INFEASIBLE
        assert sol_b.status is SolveStatus.INFEASIBLE
    else:
        assert sol_h.objective == pytest.approx(expected)
        assert sol_b.objective == pytest.approx(expected)
