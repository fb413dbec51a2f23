"""CPLEX-LP-format export for optimization models.

Lets any model built with :mod:`repro.opt` be inspected or fed to an
external solver (Gurobi, CPLEX, HiGHS standalone) for cross-checking —
handy when comparing against the paper's original Gurobi runs. The file
is written from the model's compiled form (:mod:`repro.opt.compile`),
where binary products are already linearized, so it is always a plain
MILP: one ``_lin_`` column per distinct product and its ``_lz`` rows.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from repro.opt.compile import SENSE_EQ, SENSE_GE, SENSE_LE
from repro.opt.expr import VarType
from repro.opt.model import Model

_SENSE_TOKEN = {SENSE_LE: "<=", SENSE_GE: ">=", SENSE_EQ: "="}


def _sanitize(name: str) -> str:
    """LP-safe identifier (no operators/whitespace; must not start with
    a letter reserved by the format like 'e' followed by digits)."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_" else "_")
    token = "".join(out)
    if not token or token[0].isdigit() or token[0] in "eE.":
        token = "v_" + token
    return token


def _terms_to_lp(cols: np.ndarray, coefs: np.ndarray,
                 names: Sequence[str]) -> str:
    """One linear expression; ``cols`` ascend (CSR rows do)."""
    if not cols.size:
        return "0 __zero__"
    parts: List[str] = []
    for j, coef in zip(cols.tolist(), coefs.tolist()):
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign} {abs(coef):.12g} {names[j]}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def model_to_lp(model: Model) -> str:
    """Serialize a model to CPLEX LP format (products linearized)."""
    form = model.compiled()
    names = [_sanitize(v.name) for v in form.variables]

    lines: List[str] = [f"\\ model: {model.name}"]
    lines.append("Minimize" if form.minimize else "Maximize")
    # form.c is sign-flipped for maximization; write the user objective.
    c = form.c if form.minimize else -form.c
    obj_cols = np.flatnonzero(c)
    lines.append(f" obj: {_terms_to_lp(obj_cols, c[obj_cols], names)}")
    if form.obj_offset:
        lines[-1] += f" + {form.obj_offset:.12g} __one__"

    lines.append("Subject To")
    A = form.A_csr
    for r in range(form.m):
        row = slice(A.indptr[r], A.indptr[r + 1])
        name = _sanitize(form.row_names[r] or f"c{r}")
        lines.append(
            f" {name}: {_terms_to_lp(A.indices[row], A.data[row], names)} "
            f"{_SENSE_TOKEN[int(form.senses[r])]} {form.rhs[r]:.12g}"
        )

    bounds: List[str] = []
    generals: List[str] = []
    binaries: List[str] = []
    for var, name in zip(form.variables, names):
        if var.vtype is VarType.BINARY:
            binaries.append(name)
            continue
        lo = "-inf" if math.isinf(var.lb) else f"{var.lb:.12g}"
        hi = "+inf" if math.isinf(var.ub) else f"{var.ub:.12g}"
        bounds.append(f" {lo} <= {name} <= {hi}")
        if var.vtype is VarType.INTEGER:
            generals.append(name)
    # helper constants used above
    bounds.append(" __zero__ = 0")
    bounds.append(" __one__ = 1")

    lines.append("Bounds")
    lines.extend(bounds)
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(model: Model, path: Union[str, Path]) -> None:
    """Write the model to an ``.lp`` file."""
    Path(path).write_text(model_to_lp(model), encoding="utf-8")
