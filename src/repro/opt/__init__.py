"""Integer (quadratic) programming substrate.

A small Gurobi/PuLP-style modeling layer with exact linearization of
binary products and three interchangeable exact solver backends. The
synthesis models in :mod:`repro.core` are written against this API.
"""

from repro.opt.expr import (
    Constraint,
    LinExpr,
    QuadExpr,
    Sense,
    Var,
    VarType,
    quicksum,
)
from repro.opt.incremental import IncrementalLP, SolveContext, WarmStart
from repro.opt.lp_format import model_to_lp, write_lp
from repro.opt.model import Model
from repro.opt.presolve import PresolveResult, presolve
from repro.opt.result import Solution, SolveStatus
from repro.opt.solvers import available_backends, get_backend

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
    "presolve",
    "PresolveResult",
    "model_to_lp",
    "write_lp",
    "get_backend",
    "available_backends",
    "WarmStart",
    "IncrementalLP",
    "SolveContext",
]
