"""Coverage tests for solver result types."""

import pytest

from repro.errors import ModelError
from repro.opt import Model, Solution, SolveStatus


def test_status_has_solution_flags():
    assert SolveStatus.OPTIMAL.has_solution
    assert SolveStatus.FEASIBLE.has_solution
    assert not SolveStatus.INFEASIBLE.has_solution
    assert not SolveStatus.TIME_LIMIT.has_solution
    assert not SolveStatus.UNBOUNDED.has_solution


def test_solution_restrict_drops_aux_vars():
    m = Model()
    x = m.add_binary("x")
    y = m.add_binary("y")
    sol = Solution(SolveStatus.OPTIMAL, 1.0, {x: 1.0, y: 0.0})
    restricted = sol.restrict({x})
    assert set(restricted.values) == {x}
    assert restricted.status is SolveStatus.OPTIMAL
    assert restricted.objective == 1.0


def test_solution_restrict_without_values():
    sol = Solution(SolveStatus.INFEASIBLE)
    restricted = sol.restrict(set())
    assert restricted.values is None


def test_int_value_tolerance():
    m = Model()
    x = m.add_integer("x", 0, 5)
    sol = Solution(SolveStatus.OPTIMAL, 0.0, {x: 2.0000001})
    assert sol.int_value(x) == 2
    sol2 = Solution(SolveStatus.OPTIMAL, 0.0, {x: 2.4})
    with pytest.raises(ModelError):
        sol2.int_value(x)


def test_solution_value_of_constant():
    sol = Solution(SolveStatus.OPTIMAL, 0.0, {})
    assert sol.value(7) == 7.0


def test_solution_repr():
    sol = Solution(SolveStatus.OPTIMAL, 3.5, {}, runtime=0.1, solver="highs")
    text = repr(sol)
    assert "optimal" in text and "highs" in text


def test_branch_bound_max_with_constant_objective():
    """Regression: the sign flip must not negate the constant term."""
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x <= 1)
    m.set_objective(5 * x + 1, "max")
    sol = m.solve(backend="branch_bound")
    assert sol.objective == pytest.approx(6.0)
