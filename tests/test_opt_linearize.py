"""Unit tests for exact product linearization (in repro.opt.compile)."""

import itertools

import pytest

from repro.errors import LinearizationError
from repro.opt import Model, VarType, quicksum


def brute_force_binary(model):
    """Enumerate all binary assignments; return (best objective, best)."""
    variables = model.variables
    best = None
    best_val = None
    for bits in itertools.product([0.0, 1.0], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if model.check_assignment(assignment):
            continue
        obj = model.objective.value(assignment)
        if not model.minimize:
            obj = -obj
        if best_val is None or obj < best_val:
            best_val = obj
            best = assignment
    if best is None:
        return None, None
    true_obj = model.objective.value(best)
    return true_obj, best


def test_binary_product_linearization_exact():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constr(x * y >= 1)
    form = m.compiled()
    assert len(form.products) == 1
    (z,) = form.products.values()
    assert z.name == "_lin_x*y" and form.variables[-1] is z
    assert form.implied[z.index]          # never branched on
    assert form.row_names == ["_lz1__lin_x*y", "_lz2__lin_x*y",
                              "_lz3__lin_x*y", "c0"]
    sol = m.solve()
    assert sol.value(x) == 1 and sol.value(y) == 1
    assert z not in sol.values            # auxiliary columns are stripped


def test_square_of_binary_is_itself():
    m = Model()
    x = m.add_binary("x")
    m.add_constr(x * x >= 1)
    form = m.compiled()
    sol = m.solve()
    assert sol.value(x) == 1
    # no auxiliary variable should have been created
    assert all(z is x for z in form.products.values())
    assert form.n == 1 and form.m == 1


def test_square_of_integer_rejected():
    m = Model()
    z = m.add_integer("z", 0, 5)
    m.add_constr(z * z <= 4)
    with pytest.raises(LinearizationError):
        m.compiled()


def test_product_cache_shared_across_constraints():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constr(x * y <= 1)
    m.add_constr(x * y >= 0)
    m.set_objective(x * y, "min")
    form = m.compiled()
    assert len(form.products) == 1  # one aux var reused everywhere
    assert form.n == 3
    # its three rows come once, before the first constraint using it
    assert form.row_names[:3] == ["_lz1__lin_x*y", "_lz2__lin_x*y",
                                  "_lz3__lin_x*y"]
    assert form.m == 5


def test_binary_times_bounded_integer():
    m = Model()
    b = m.add_binary("b")
    z = m.add_integer("z", 0, 7)
    m.add_constr(z >= 3)
    # maximize b*z subject to b*z <= 5 forces b=1, z in [3,5]
    m.add_constr(b * z <= 5)
    m.set_objective(b * z, "max")
    form = m.compiled()
    (aux,) = form.products.values()
    assert aux.vtype is VarType.INTEGER and (aux.lb, aux.ub) == (0, 7)
    assert [n[:5] for n in form.row_names[1:5]] == [
        "_lz1_", "_lz2_", "_lz3_", "_lz4_"]
    sol = m.solve()
    assert sol.objective == pytest.approx(5)
    assert sol.value(b) == 1
    assert sol.value(z) == pytest.approx(5)


def test_unbounded_product_rejected():
    m = Model()
    b = m.add_binary("b")
    z = m.add_integer("z", 0)  # unbounded above
    m.add_constr(b * z <= 5)
    with pytest.raises(LinearizationError):
        m.compiled()


def test_continuous_product_rejected():
    m = Model()
    c1 = m.add_var("c1", VarType.CONTINUOUS, 0, 1)
    c2 = m.add_var("c2", VarType.CONTINUOUS, 0, 1)
    m.add_constr(c1 * c2 <= 1)
    with pytest.raises(LinearizationError):
        m.compiled()


@pytest.mark.parametrize("seed", range(6))
def test_linearized_optimum_matches_brute_force(seed):
    """Random small quadratic binary programs: solver == enumeration."""
    import random

    rng = random.Random(seed)
    m = Model(f"rand{seed}")
    n = 4
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    # random quadratic objective
    obj = quicksum(
        rng.randint(-3, 3) * xs[i] * xs[j]
        for i in range(n) for j in range(i + 1, n)
    ) + quicksum(rng.randint(-3, 3) * x for x in xs)
    m.set_objective(obj, "min")
    m.add_constr(quicksum(xs) >= 1)
    m.add_constr(quicksum(xs) <= 3)

    expected_obj, _ = brute_force_binary(m)
    sol = m.solve()
    assert sol.is_optimal
    assert sol.objective == pytest.approx(expected_obj)


def test_quadratic_objective_value_reported_in_original_terms():
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constr(x + y >= 2)
    m.set_objective(5 * (x * y) + 1, "min")
    sol = m.solve()
    assert sol.objective == pytest.approx(6)
    # evaluating the original quadratic under the solution agrees
    assert m.objective.value({v: sol.value(v) for v in m.variables}) == pytest.approx(6)
