"""Unit tests for the Model container (repro.opt.model)."""

import pytest

from repro.cases import generate_case, kinase_sw2
from repro.core import BindingPolicy, SynthesisOptions
from repro.core.builder import SynthesisModelBuilder
from repro.core.synthesizer import build_catalog
from repro.errors import ModelError
from repro.opt import Model, SolveStatus, VarType, quicksum


def test_model_repr_and_counts():
    m = Model("demo")
    x = m.add_binary("x")
    m.add_constr(x <= 1)
    assert m.num_vars == 1
    assert m.num_constraints == 1
    assert "MILP" in repr(m)


def test_quadratic_model_detected():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constr(x * y <= 1)
    assert not m.is_linear()
    assert "MIQP" in repr(m)


def test_add_constr_rejects_bool():
    m = Model()
    m.add_binary("x")
    with pytest.raises(ModelError):
        m.add_constr(True)  # type: ignore[arg-type]


def test_cross_model_variables_rejected():
    m1, m2 = Model("a"), Model("b")
    x = m1.add_binary("x")
    with pytest.raises(ModelError):
        m2.add_constr(x <= 1)


def test_objective_sense_validation():
    m = Model()
    x = m.add_binary("x")
    with pytest.raises(ModelError):
        m.set_objective(x, "maximize-ish")


def test_var_by_name():
    m = Model()
    x = m.add_binary("x")
    assert m.var_by_name("x") is x
    with pytest.raises(ModelError):
        m.var_by_name("nope")


def test_constant_objective_allowed():
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x >= 0)
    m.set_objective(42, "min")
    sol = m.solve()
    assert sol.is_optimal
    assert sol.objective == pytest.approx(42)


def test_check_assignment_reports_violations():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    c = m.add_constr(x + y <= 1, "cap")
    violated = m.check_assignment({x: 1.0, y: 1.0})
    assert violated == [c]
    assert m.check_assignment({x: 1.0, y: 0.0}) == []


def test_empty_model_solves():
    m = Model()
    sol = m.solve()
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == 0.0


def test_add_constrs_bulk():
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(3)]
    added = m.add_constrs((x <= 1 for x in xs), prefix="cap")
    assert len(added) == 3
    assert added[0].name == "cap0"


def test_solution_value_and_int_value():
    m = Model()
    x = m.add_integer("x", 0, 10)
    m.add_constr(x >= 3)
    m.set_objective(x, "min")
    sol = m.solve()
    assert sol.int_value(x) == 3
    assert sol.value(2 * x + 1) == pytest.approx(7)


def test_solution_without_values_raises():
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x >= 1)
    m.add_constr(x <= 0)
    sol = m.solve()
    assert sol.status is SolveStatus.INFEASIBLE
    with pytest.raises(ModelError):
        sol.value(x)


def test_maximization_objective_reported_in_original_sense():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constr(x + y <= 1)
    m.set_objective(3 * x + 5 * y + 2, "max")
    sol = m.solve()
    assert sol.objective == pytest.approx(7)
    assert sol.value(y) == pytest.approx(1)


def test_model_stats():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    z = m.add_integer("z", 0, 3)
    c = m.add_var("c", VarType.CONTINUOUS, 0, 1)
    m.add_constr(x + y <= 1)
    m.add_constr(x * y + z >= 1)
    m.add_constr(z == 2)
    stats = m.stats()
    assert stats["variables"] == 4
    assert stats["binary"] == 2
    assert stats["integer"] == 1
    assert stats["continuous"] == 1
    assert stats["le"] == 1 and stats["ge"] == 1 and stats["eq"] == 1
    assert stats["quadratic_products"] == 1
    assert stats["nonzeros"] == 5


def test_model_stats_counts_objective_products():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.set_objective(x * y, "min")
    assert m.stats()["quadratic_products"] == 1


def _crossing_panel_case(seed):
    return generate_case(seed, switch_size=8, n_flows=2, n_inlets=2,
                         binding=BindingPolicy.CLOCKWISE)


@pytest.mark.parametrize("make_spec", [
    # Specs whose HiGHS objective carries float noise: 550.9999999999998,
    # 820.9999999999758, 481.99999999999983 and 481.9999999999985, where
    # the returned assignments evaluate to 551, 821, 482 and 482.
    lambda: generate_case(1, switch_size=8, n_flows=3, n_inlets=2,
                          n_conflicts=1, binding=BindingPolicy.UNFIXED),
    lambda: kinase_sw2(BindingPolicy.UNFIXED),
    lambda: _crossing_panel_case(1226688872),
    lambda: _crossing_panel_case(2146381248),
], ids=["artificial_unfixed_3flow", "kinase_sw2_unfixed",
        "crossing_cw_1226688872", "crossing_cw_2146381248"])
def test_reported_objective_is_the_value_of_the_returned_assignment(make_spec):
    spec = make_spec()
    model = SynthesisModelBuilder(
        spec, build_catalog(spec, SynthesisOptions())).build().model
    sol = model.solve(backend="highs")
    assert sol.is_optimal
    assert sol.objective == model.objective.value(sol.values)
