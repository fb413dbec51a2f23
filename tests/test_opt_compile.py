"""Tests for the sparse model compilation cache (repro.opt.compile)."""

import numpy as np
import pytest

from repro.errors import LinearizationError
from repro.opt import Model, VarType
from repro.opt.compile import SENSE_EQ, SENSE_GE, SENSE_LE, compile_model


def demo_model():
    m = Model("compile demo")
    x = m.add_binary("x")
    y = m.add_integer("y", 0, 5)
    z = m.add_var("z", VarType.CONTINUOUS, 0.0, 4.0)
    m.add_constr(x + 2 * y <= 7, "le_row")
    m.add_constr(3 * y - z >= 1, "ge_row")
    m.add_constr(x + z == 2, "eq_row")
    m.set_objective(x + y + z, "min")
    return m, (x, y, z)


def test_coo_and_csr_agree():
    m, (x, y, z) = demo_model()
    compiled = m.compiled()
    assert compiled.n == 3 and compiled.m == 3
    dense = np.zeros((3, 3))
    dense[compiled.a_rows, compiled.a_cols] = compiled.a_data
    np.testing.assert_allclose(compiled.A_csr.toarray(), dense)
    np.testing.assert_allclose(dense[0], [1, 2, 0])
    np.testing.assert_allclose(dense[1], [0, 3, -1])
    np.testing.assert_allclose(dense[2], [1, 0, 1])


def test_senses_and_range_rows():
    m, _ = demo_model()
    compiled = m.compiled()
    assert list(compiled.senses) == [SENSE_LE, SENSE_GE, SENSE_EQ]
    np.testing.assert_allclose(compiled.rhs, [7, 1, 2])
    # range form: LE rows are unbounded below, GE rows unbounded above
    np.testing.assert_allclose(compiled.row_lb, [-np.inf, 1, 2])
    np.testing.assert_allclose(compiled.row_ub, [7, np.inf, 2])


def test_split_form_negates_ge_rows():
    m, _ = demo_model()
    A_ub, b_ub, A_eq, b_eq = m.compiled().split_form()
    np.testing.assert_allclose(
        sorted(A_ub.toarray().tolist()), sorted([[1, 2, 0], [0, -3, 1]]))
    assert set(b_ub.tolist()) == {7, -1}
    np.testing.assert_allclose(A_eq.toarray(), [[1, 0, 1]])
    np.testing.assert_allclose(b_eq, [2])


def test_bounds_and_integrality():
    m, _ = demo_model()
    compiled = m.compiled()
    np.testing.assert_allclose(compiled.lb, [0, 0, 0])
    np.testing.assert_allclose(compiled.ub, [1, 5, 4])
    assert list(compiled.integrality) == [1, 1, 0]


def test_compiled_is_cached_until_mutation():
    m, _ = demo_model()
    first = m.compiled()
    assert m.compiled() is first          # same object while unchanged
    m.add_constr(m.variables[0] <= 1)
    second = m.compiled()
    assert second is not first            # add_constr invalidates
    assert second.m == first.m + 1


def test_add_var_invalidates():
    m, _ = demo_model()
    first = m.compiled()
    m.add_var("w", VarType.CONTINUOUS, 0.0, 1.0)
    assert m.compiled() is not first
    assert m.compiled().n == first.n + 1


def test_set_objective_invalidates():
    m, (x, y, z) = demo_model()
    first = m.compiled()
    m.set_objective(5 * x, "max")
    second = m.compiled()
    assert second is not first
    # maximization stores the negated vector internally
    np.testing.assert_allclose(second.c, [-5, 0, 0])
    assert second.obj_sign == -1
    assert second.report_objective(-5.0) == pytest.approx(5.0)


def test_explicit_invalidate():
    m, _ = demo_model()
    first = m.compiled()
    m.invalidate()
    assert m.compiled() is not first


def test_compile_model_function_matches_method():
    m, _ = demo_model()
    assert compile_model(m) is m.compiled()


def test_objective_constant_and_sign():
    m = Model()
    x = m.add_integer("x", 0, 10)
    m.add_constr(x <= 4)
    m.set_objective(2 * x + 3, "max")
    sol = m.solve()
    assert sol.objective == pytest.approx(11)
    compiled = m.compiled()
    assert compiled.obj_offset == pytest.approx(3)
    assert compiled.report_objective(-8.0) == pytest.approx(11.0)


def test_binary_product_compiles_to_linearization():
    """A binary product becomes one auxiliary column and its three rows;
    a product with a non-binary, unbounded factor is refused."""
    m = Model()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constr(x * y <= 1, "cap")
    compiled = m.compiled()
    assert compiled.n == 3 and compiled.m == 4
    assert compiled.row_names[-1] == "cap"
    dense = compiled.A_csr.toarray()
    np.testing.assert_allclose(dense, [[-1, 0, 1], [0, -1, 1],
                                       [-1, -1, 1], [0, 0, 1]])
    assert list(compiled.senses) == [SENSE_LE, SENSE_LE, SENSE_GE, SENSE_LE]
    np.testing.assert_allclose(compiled.rhs, [0, 0, -1, 1])

    q = Model()
    b = q.add_binary("b")
    w = q.add_var("w", VarType.CONTINUOUS, 0.0, 2.0)
    q.add_constr(b * w <= 1)
    with pytest.raises(LinearizationError):
        q.compiled()


def test_empty_model_compiles():
    m = Model()
    compiled = m.compiled()
    assert compiled.n == 0 and compiled.m == 0
    assert compiled.A_csr.shape == (0, 0)


def test_solution_dict_roundtrip():
    m, (x, y, z) = demo_model()
    compiled = m.compiled()
    values = compiled.solution_dict(np.array([1.0, 2.0, 1.0]))
    assert values[x] == 1.0 and values[y] == 2.0 and values[z] == 1.0


@pytest.mark.parametrize("backend", ["highs", "branch_bound"])
def test_quadratic_solve_builds_no_second_model(backend, monkeypatch):
    """Linearization and presolve work on the compiled arrays: solving a
    quadratic model constructs no further Model."""
    m = Model("quad")
    x, y = m.add_binary("x"), m.add_binary("y")
    z = m.add_integer("z", 0, 3)
    m.add_constr(x + y <= 1 + z)
    m.add_constr(x * y + x * z <= 2)
    m.set_objective(x * y + 2 * x + y + z, "max")
    built = []
    init = Model.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Model, "__init__", counting_init)
    sol = m.solve(backend=backend)
    assert sol.is_optimal and sol.objective == pytest.approx(5.0)
    assert set(sol.values) == {x, y, z}
    assert built == []
