"""Algebraic expressions for integer (quadratic) programs.

This module provides the small expression language used to state the
synthesis models: decision variables (:class:`Var`), affine expressions
(:class:`LinExpr`), and quadratic expressions (:class:`QuadExpr`).
Expressions support the natural Python operators, and comparisons
(``<=``, ``>=``, ``==``) produce :class:`Constraint` objects that can be
added to a :class:`repro.opt.model.Model`.

The design mirrors the modeling layers of Gurobi / PuLP so the
constraint code in :mod:`repro.core` reads like the equations in the
paper.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.errors import ModelError

Number = Union[int, float]

#: Anything acceptable on either side of an arithmetic operator.
ExprLike = Union["Var", "LinExpr", "QuadExpr", int, float]


class VarType(enum.Enum):
    """Domain of a decision variable."""

    BINARY = "B"
    INTEGER = "I"
    CONTINUOUS = "C"


class Sense(enum.Enum):
    """Direction of a constraint relation."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Var:
    """A single decision variable.

    Variables are created through :meth:`repro.opt.model.Model.add_var`
    (never directly), which assigns the model-unique ``index`` used by
    the solver backends.
    """

    __slots__ = ("name", "vtype", "lb", "ub", "index", "_model_id")

    def __init__(
        self,
        name: str,
        vtype: VarType,
        lb: Number,
        ub: Number,
        index: int,
        model_id: int,
    ) -> None:
        if lb > ub:
            raise ModelError(f"variable {name!r}: lower bound {lb} > upper bound {ub}")
        if vtype is VarType.BINARY and (lb < 0 or ub > 1):
            raise ModelError(f"binary variable {name!r} must have bounds within [0, 1]")
        self.name = name
        self.vtype = vtype
        self.lb = lb
        self.ub = ub
        self.index = index
        self._model_id = model_id

    # -- conversions ---------------------------------------------------
    def to_linexpr(self) -> "LinExpr":
        """Return this variable as a one-term linear expression."""
        return _lin({self: 1.0}, 0.0)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: ExprLike) -> ExprLike:
        return _lin({self: 1.0}, 0.0) + other

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> ExprLike:
        return _lin({self: 1.0}, 0.0) - other

    def __rsub__(self, other: ExprLike) -> ExprLike:
        return _lin({self: -1.0}, -0.0) + other   # (-1.0 * self) + other

    def __neg__(self) -> "LinExpr":
        return _lin({self: -1.0}, 0.0)

    def __mul__(self, other: ExprLike) -> ExprLike:
        if isinstance(other, (int, float)):
            coef = float(other)
            return _lin({self: coef} if coef != 0 else {}, 0.0)
        if isinstance(other, Var):
            return _quad({_key(self, other): 1.0}, {}, 0.0)
        if isinstance(other, (LinExpr, QuadExpr)):
            return _lin({self: 1.0}, 0.0) * other
        return NotImplemented

    __rmul__ = __mul__

    # -- comparisons build constraints ----------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint(_lin({self: 1.0}, 0.0) - other, Sense.LE)

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint(_lin({self: 1.0}, 0.0) - other, Sense.GE)

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, _OPERANDS):
            return Constraint(_lin({self: 1.0}, 0.0) - other, Sense.EQ)
        return NotImplemented

    # Identity hash: Var objects are unique per (model, index), and an
    # identity hash guarantees dict lookups never fall back to __eq__
    # (which builds a Constraint rather than returning a bool). Bound to
    # object's own slot, so hashing never runs Python code.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


def _key(a: Var, b: Var) -> Tuple[Var, Var]:
    """Canonical (sorted) key for the product of two variables."""
    return (a, b) if a.index <= b.index else (b, a)


def _nonzero(terms: Dict) -> Dict:
    """``terms`` without its zero coefficients, in the same order.

    Returns ``terms`` itself when it holds no zero (the common case,
    checked in C), so only sums, where terms can cancel, pay for a copy.
    """
    if all(terms.values()):
        return terms
    return {k: c for k, c in terms.items() if c != 0}


def _lin(terms: Dict[Var, float], constant: float) -> "LinExpr":
    """A LinExpr that owns ``terms`` as given: float, nonzero, no copy."""
    expr = object.__new__(LinExpr)
    expr.terms = terms
    expr.constant = constant
    return expr


def _quad(quad_terms: Dict[Tuple[Var, Var], float], lin_terms: Dict[Var, float],
          constant: float) -> "QuadExpr":
    """A QuadExpr that owns both term dicts as given (see :func:`_lin`)."""
    expr = object.__new__(QuadExpr)
    expr.quad_terms = quad_terms
    expr.lin_terms = lin_terms
    expr.constant = constant
    return expr


class LinExpr:
    """An affine expression ``sum(coef * var) + constant``.

    Operators never change an operand: each builds one fresh term dict
    and hands it to the result without a second copy. Terms keep their
    first-seen order (the left operand's, then new ones from the
    right), and no result holds a zero coefficient.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Var, float] | None = None, constant: Number = 0.0):
        self.terms: Dict[Var, float] = {v: float(c) for v, c in (terms or {}).items() if c != 0}
        self.constant = float(constant)

    # -- helpers ---------------------------------------------------------
    def copy(self) -> "LinExpr":
        return _lin(dict(self.terms), self.constant)

    def value(self, assignment: Mapping[Var, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        return self.constant + sum(c * assignment[v] for v, c in self.terms.items())

    def bounds(self) -> Tuple[float, float]:
        """Interval bound of the expression implied by variable bounds."""
        lo = hi = self.constant
        for v, c in self.terms.items():
            if c >= 0:
                lo += c * v.lb
                hi += c * v.ub
            else:
                lo += c * v.ub
                hi += c * v.lb
        return lo, hi

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: ExprLike) -> ExprLike:
        if isinstance(other, Var):
            terms = dict(self.terms)
            terms[other] = terms.get(other, 0.0) + 1.0
            return _lin(_nonzero(terms), self.constant + 0.0)
        if isinstance(other, LinExpr):
            terms = dict(self.terms)
            for v, c in other.terms.items():
                terms[v] = terms.get(v, 0.0) + c
            return _lin(_nonzero(terms), self.constant + other.constant)
        if isinstance(other, (int, float)):
            return _lin(dict(self.terms), float(self.constant + other))
        if isinstance(other, QuadExpr):
            return other + self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> ExprLike:
        # One pass: subtract in place of adding a negated copy. Negation
        # is exact and x - y is x + (-y) in IEEE arithmetic, so every
        # coefficient equals the two-step result bit for bit.
        if isinstance(other, Var):
            terms = dict(self.terms)
            terms[other] = terms.get(other, 0.0) - 1.0
            return _lin(_nonzero(terms), self.constant - 0.0)
        if isinstance(other, LinExpr):
            terms = dict(self.terms)
            for v, c in other.terms.items():
                terms[v] = terms.get(v, 0.0) - c
            return _lin(_nonzero(terms), self.constant - other.constant)
        if isinstance(other, (int, float)):
            return _lin(dict(self.terms), self.constant - float(other))
        if isinstance(other, QuadExpr):
            # (-other) + self: the negated quadratic's terms come first.
            lin = {v: -c for v, c in other.lin_terms.items()}
            for v, c in self.terms.items():
                lin[v] = lin.get(v, 0.0) + c
            return _quad({k: -c for k, c in other.quad_terms.items()},
                         _nonzero(lin), -other.constant + self.constant)
        raise TypeError(f"cannot interpret {other!r} as a linear expression")

    def __rsub__(self, other: ExprLike) -> ExprLike:
        return (-self) + other

    def __neg__(self) -> "LinExpr":
        return _lin({v: -c for v, c in self.terms.items()}, -self.constant)

    def __mul__(self, other: ExprLike) -> ExprLike:
        if isinstance(other, (int, float)):
            factor = float(other)
            return _lin(_nonzero({v: c * factor for v, c in self.terms.items()}),
                        self.constant * factor)
        if isinstance(other, Var):
            other = other.to_linexpr()
        if isinstance(other, LinExpr):
            quad: Dict[Tuple[Var, Var], float] = {}
            lin: Dict[Var, float] = {}
            for va, ca in self.terms.items():
                for vb, cb in other.terms.items():
                    k = _key(va, vb)
                    quad[k] = quad.get(k, 0.0) + ca * cb
                if other.constant:
                    lin[va] = lin.get(va, 0.0) + ca * other.constant
            if self.constant:
                for vb, cb in other.terms.items():
                    lin[vb] = lin.get(vb, 0.0) + cb * self.constant
            return _quad(_nonzero(quad), _nonzero(lin),
                         self.constant * other.constant)
        return NotImplemented

    __rmul__ = __mul__

    # -- comparisons -------------------------------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - other, Sense.LE)

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - other, Sense.GE)

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, _OPERANDS):
            return Constraint(self - other, Sense.EQ)
        return NotImplemented

    __hash__ = object.__hash__   # identity, like Var

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


class QuadExpr:
    """A quadratic expression: bilinear terms + linear terms + constant.

    Operators follow the same rules as :class:`LinExpr`.
    """

    __slots__ = ("quad_terms", "lin_terms", "constant")

    def __init__(
        self,
        quad_terms: Mapping[Tuple[Var, Var], float] | None = None,
        lin_terms: Mapping[Var, float] | None = None,
        constant: Number = 0.0,
    ):
        self.quad_terms: Dict[Tuple[Var, Var], float] = {
            k: float(c) for k, c in (quad_terms or {}).items() if c != 0
        }
        self.lin_terms: Dict[Var, float] = {v: float(c) for v, c in (lin_terms or {}).items() if c != 0}
        self.constant = float(constant)

    def is_linear(self) -> bool:
        return not self.quad_terms

    def value(self, assignment: Mapping[Var, float]) -> float:
        total = self.constant
        total += sum(c * assignment[v] for v, c in self.lin_terms.items())
        total += sum(c * assignment[a] * assignment[b] for (a, b), c in self.quad_terms.items())
        return total

    # -- arithmetic --------------------------------------------------------
    def _combine(self, other: ExprLike, sign: float) -> "QuadExpr":
        """``self + sign * other`` in one pass (``sign`` is +1 or -1)."""
        quad = dict(self.quad_terms)
        lin = dict(self.lin_terms)
        if isinstance(other, Var):
            lin[other] = lin.get(other, 0.0) + sign
            constant = self.constant + sign * 0.0
        elif isinstance(other, (int, float)):
            constant = self.constant + sign * float(other)
        elif isinstance(other, (LinExpr, QuadExpr)):
            if isinstance(other, QuadExpr):
                for k, c in other.quad_terms.items():
                    quad[k] = quad.get(k, 0.0) + sign * c
                quad = _nonzero(quad)
            terms = other.terms if isinstance(other, LinExpr) else other.lin_terms
            for v, c in terms.items():
                lin[v] = lin.get(v, 0.0) + sign * c
            constant = self.constant + sign * other.constant
        else:
            raise TypeError(f"cannot interpret {other!r} as an expression")
        return _quad(quad, _nonzero(lin), constant)

    def __add__(self, other: ExprLike) -> "QuadExpr":
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "QuadExpr":
        return self._combine(other, -1.0)

    def __rsub__(self, other: ExprLike) -> "QuadExpr":
        return (-self) + other

    def __neg__(self) -> "QuadExpr":
        return _quad({k: -c for k, c in self.quad_terms.items()},
                     {v: -c for v, c in self.lin_terms.items()}, -self.constant)

    def __mul__(self, other: ExprLike) -> "QuadExpr":
        if not isinstance(other, (int, float)):
            raise ModelError("only scalar multiplication is supported for quadratic expressions")
        factor = float(other)
        return _quad(
            _nonzero({k: c * factor for k, c in self.quad_terms.items()}),
            _nonzero({v: c * factor for v, c in self.lin_terms.items()}),
            self.constant * factor,
        )

    __rmul__ = __mul__

    # -- comparisons ---------------------------------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint(self._combine(other, -1.0), Sense.LE)

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint(self._combine(other, -1.0), Sense.GE)

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, _OPERANDS):
            return Constraint(self._combine(other, -1.0), Sense.EQ)
        return NotImplemented

    __hash__ = object.__hash__   # identity, like Var

    def __repr__(self) -> str:
        q = [f"{c:+g}*{a.name}*{b.name}" for (a, b), c in self.quad_terms.items()]
        l = [f"{c:+g}*{v.name}" for v, c in self.lin_terms.items()]
        return "QuadExpr(" + " ".join(q + l + [f"{self.constant:+g}"]) + ")"


#: Types an ``==`` builds a constraint against (others get NotImplemented).
_OPERANDS = (int, float, Var, LinExpr, QuadExpr)


class Constraint:
    """A relational constraint ``expr (<=|>=|==) 0``.

    The expression is normalized so the right-hand side is zero; the
    original right-hand side constant is folded into ``expr.constant``.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: ExprLike, sense: Sense, name: str = ""):
        if isinstance(expr, Var):
            expr = expr.to_linexpr()
        if not isinstance(expr, (LinExpr, QuadExpr)):
            raise ModelError(f"constraint body must be an expression, got {type(expr)!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    def is_linear(self) -> bool:
        return isinstance(self.expr, LinExpr) or (
            isinstance(self.expr, QuadExpr) and self.expr.is_linear()
        )

    def satisfied(self, assignment: Mapping[Var, float], tol: float = 1e-6) -> bool:
        """Check the constraint under a complete variable assignment."""
        val = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return val <= tol
        if self.sense is Sense.GE:
            return val >= -tol
        return abs(val) <= tol

    def __repr__(self) -> str:
        return f"Constraint({self.expr!r} {self.sense.value} 0, name={self.name!r})"


def quicksum(items: Iterable[ExprLike]) -> ExprLike:
    """Sum an iterable of expressions efficiently.

    Unlike the builtin :func:`sum`, this accumulates into a single
    mutable term dictionary, avoiding quadratic copying for long sums,
    and returns a :class:`LinExpr` (or :class:`QuadExpr` if any term is
    quadratic) that owns that dictionary. An empty sum yields
    ``LinExpr() == 0``.
    """
    lin: Dict[Var, float] = {}
    quad: Dict[Tuple[Var, Var], float] = {}
    constant = 0.0
    for item in items:
        if isinstance(item, Var):   # by far the most common item
            lin[item] = lin.get(item, 0.0) + 1.0
        elif isinstance(item, LinExpr):
            for v, c in item.terms.items():
                lin[v] = lin.get(v, 0.0) + c
            constant += item.constant
        elif isinstance(item, (int, float)):
            constant += item
        elif isinstance(item, QuadExpr):
            for k, c in item.quad_terms.items():
                quad[k] = quad.get(k, 0.0) + c
            for v, c in item.lin_terms.items():
                lin[v] = lin.get(v, 0.0) + c
            constant += item.constant
        else:
            raise TypeError(f"cannot sum {item!r}")
    if quad:
        return _quad(_nonzero(quad), _nonzero(lin), float(constant))
    return _lin(_nonzero(lin), float(constant))
