"""Hypothesis properties of the expression algebra.

Algebraic laws evaluated pointwise: for random expressions E1, E2 and
random assignments σ, the library's symbolic operations must agree with
float arithmetic — value(E1 ∘ E2, σ) == value(E1, σ) ∘ value(E2, σ).

Structural rules the operators keep while building results without
copies: no operand changes, no result holds a zero coefficient, and a
result's terms come in first-seen order (the left operand's, then new
ones from the right).
"""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.opt import LinExpr, Model, QuadExpr, quicksum
from repro.opt.expr import Constraint

N_VARS = 4


def _fresh():
    m = Model("prop")
    return m, [m.add_binary(f"x{i}") for i in range(N_VARS)]


coeffs = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=N_VARS, max_size=N_VARS
)
consts = st.integers(min_value=-10, max_value=10)
assignments = st.lists(
    st.sampled_from([0.0, 1.0]), min_size=N_VARS, max_size=N_VARS
)


def _lin(xs, cs, k):
    return quicksum(c * x for c, x in zip(cs, xs)) + k


@settings(max_examples=60, deadline=None)
@given(coeffs, consts, coeffs, consts, assignments)
def test_addition_is_pointwise(c1, k1, c2, k2, values):
    m, xs = _fresh()
    sigma = dict(zip(xs, values))
    e1, e2 = _lin(xs, c1, k1), _lin(xs, c2, k2)
    assert (e1 + e2).value(sigma) == pytest.approx(
        e1.value(sigma) + e2.value(sigma))


@settings(max_examples=60, deadline=None)
@given(coeffs, consts, coeffs, consts, assignments)
def test_subtraction_is_pointwise(c1, k1, c2, k2, values):
    m, xs = _fresh()
    sigma = dict(zip(xs, values))
    e1, e2 = _lin(xs, c1, k1), _lin(xs, c2, k2)
    assert (e1 - e2).value(sigma) == pytest.approx(
        e1.value(sigma) - e2.value(sigma))


@settings(max_examples=60, deadline=None)
@given(coeffs, consts, coeffs, consts, assignments)
def test_product_is_pointwise(c1, k1, c2, k2, values):
    m, xs = _fresh()
    sigma = dict(zip(xs, values))
    e1, e2 = _lin(xs, c1, k1), _lin(xs, c2, k2)
    assert (e1 * e2).value(sigma) == pytest.approx(
        e1.value(sigma) * e2.value(sigma))


@settings(max_examples=60, deadline=None)
@given(coeffs, consts, st.integers(min_value=-5, max_value=5), assignments)
def test_scalar_multiplication_is_pointwise(c1, k1, s, values):
    m, xs = _fresh()
    sigma = dict(zip(xs, values))
    e = _lin(xs, c1, k1)
    assert (s * e).value(sigma) == pytest.approx(s * e.value(sigma))
    assert (e * s).value(sigma) == pytest.approx(s * e.value(sigma))


@settings(max_examples=40, deadline=None)
@given(coeffs, consts, assignments)
def test_bounds_contain_every_binary_evaluation(c1, k1, values):
    m, xs = _fresh()
    sigma = dict(zip(xs, values))
    e = _lin(xs, c1, k1)
    lo, hi = e.bounds()
    assert lo - 1e-9 <= e.value(sigma) <= hi + 1e-9


@settings(max_examples=40, deadline=None)
@given(coeffs, consts, coeffs, consts, assignments)
def test_quicksum_matches_builtin_sum(c1, k1, c2, k2, values):
    m, xs = _fresh()
    sigma = dict(zip(xs, values))
    parts = [c * x for c, x in zip(c1, xs)] + [k1] + \
            [c * x for c, x in zip(c2, xs)] + [k2]
    manual = float(k1 + k2)
    for c, v in list(zip(c1, values)) + list(zip(c2, values)):
        manual += c * v
    assert quicksum(parts).value(sigma) == pytest.approx(manual)


@settings(max_examples=30, deadline=None)
@given(coeffs, consts, assignments)
def test_constraint_satisfaction_matches_arithmetic(c1, k1, values):
    m, xs = _fresh()
    sigma = dict(zip(xs, values))
    e = _lin(xs, c1, k1)
    val = e.value(sigma)
    assert (e <= 0).satisfied(sigma) == (val <= 1e-6)
    assert (e >= 0).satisfied(sigma) == (val >= -1e-6)
    assert (e == 0).satisfied(sigma) == (abs(val) <= 1e-6)


# ---------------------------------------------------------------------------
# structure: operands untouched, no zero terms, first-seen term order
# ---------------------------------------------------------------------------

def _snapshot(e):
    """Everything an operator could mutate in an operand."""
    if isinstance(e, LinExpr):
        return ("lin", list(e.terms.items()), e.constant)
    if isinstance(e, QuadExpr):
        return ("quad", list(e.quad_terms.items()),
                list(e.lin_terms.items()), e.constant)
    return ("other", e)


def _linear_terms(e):
    return e.terms if isinstance(e, LinExpr) else e.lin_terms


def _expected_order(*operands):
    """Variables with a nonzero net coefficient, in first-seen order."""
    net = {}
    for e in operands:
        if isinstance(e, (LinExpr, QuadExpr)):
            for v, c in _linear_terms(e).items():
                net[v] = net.get(v, 0.0) + c
        elif not isinstance(e, (int, float)):   # a Var
            net[e] = net.get(e, 0.0) + 1.0
    return [v for v, c in net.items() if c != 0]


def _assert_no_zero(result):
    body = result.expr if isinstance(result, Constraint) else result
    assert all(c != 0 for c in _linear_terms(body).values())
    if isinstance(body, QuadExpr):
        assert all(c != 0 for c in body.quad_terms.values())


operands = st.sampled_from(["lin", "var", "const", "quad"])
binary_ops = st.sampled_from(["add", "sub", "mul", "eq", "le", "ge"])


def _operand(kind, xs, cs, k):
    if kind == "lin":
        return _lin(xs, cs, k)
    if kind == "var":
        return xs[k % N_VARS]
    if kind == "const":
        return k
    return _lin(xs, cs, k) + xs[0] * xs[1]


@settings(max_examples=150, deadline=None)
@given(operands, coeffs, consts, operands, coeffs, consts, binary_ops)
def test_operators_keep_operands_and_order(kind1, c1, k1, kind2, c2, k2, op):
    m, xs = _fresh()
    left = _operand(kind1, xs, c1, k1)
    right = _operand(kind2, xs, c2, k2)
    if op == "mul" and not isinstance(left, (int, float)) \
            and not isinstance(right, (int, float)):
        right = k2            # products of expressions are tested above
    before = (_snapshot(left), _snapshot(right))
    fn = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "eq": operator.eq, "le": operator.le, "ge": operator.ge}[op]
    try:
        result = fn(left, right)
    except Exception:
        return                # e.g. scalar comparisons of two numbers
    assert (_snapshot(left), _snapshot(right)) == before
    if not isinstance(result, (LinExpr, QuadExpr, Constraint)):
        return
    _assert_no_zero(result)
    body = result.expr if isinstance(result, Constraint) else result
    if op == "mul":
        scalar, expr = (left, right) if isinstance(left, (int, float)) \
            else (right, left)
        expected = [v for v in _expected_order(expr) if scalar != 0]
    elif op == "add" or isinstance(left, (int, float)):
        expected = _expected_order(left, right) if op == "add" \
            else _expected_order(right)          # k - e, k <= e: e's order
    else:
        negated = right if isinstance(right, (int, float)) else -1 * right
        expected = _expected_order(left, negated)
    if isinstance(right, QuadExpr) and not isinstance(left, QuadExpr) \
            and op != "mul":
        # e + q is computed as q + e: the quadratic side's terms first.
        second = right if op == "add" else -1 * right
        expected = _expected_order(second, left)
    assert list(_linear_terms(body)) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(operands, coeffs, consts), min_size=0, max_size=5))
def test_quicksum_keeps_items_and_order(items):
    m, xs = _fresh()
    parts = [_operand(kind, xs, cs, k) for kind, cs, k in items]
    before = [_snapshot(p) for p in parts]
    total = quicksum(parts)
    assert [_snapshot(p) for p in parts] == before
    _assert_no_zero(total)
    assert list(_linear_terms(total)) == _expected_order(*parts)
    assert all(total is not p for p in parts)
