"""Objective-weight sensitivity (eq. 3.7's α/β trade-off).

The paper minimizes ``α·N_sets + β·L_flow`` with α=1, β=100 — a
length-dominant weighting. This module sweeps the weights and records
how the optimum trades flow sets against channel length, exposing the
Pareto front between control effort (fewer sets, eq. 3.7's motivation)
and chip area (shorter channels).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.spec import SwitchSpec
from repro.core.synthesizer import SynthesisOptions, synthesize
from repro.errors import ReproError
from repro.opt.incremental import SolveContext

#: The paper's default weighting.
PAPER_WEIGHTS = (1.0, 100.0)


@dataclass
class WeightSweepPoint:
    """One solved weighting of the objective."""

    alpha: float
    beta: float
    num_sets: Optional[int]
    length_mm: Optional[float]
    status: str
    runtime_s: float

    def row(self) -> Dict[str, object]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "#s": self.num_sets,
            "L(mm)": None if self.length_mm is None else round(self.length_mm, 2),
            "status": self.status,
            "T(s)": round(self.runtime_s, 2),
        }


@dataclass
class WeightSweep:
    """All points of one sweep plus derived views."""

    points: List[WeightSweepPoint] = field(default_factory=list)

    def solved(self) -> List[WeightSweepPoint]:
        return [p for p in self.points if p.num_sets is not None]

    def pareto_front(self) -> List[Tuple[int, float]]:
        """Non-dominated (#sets, length) outcomes, sets ascending."""
        outcomes = sorted({(p.num_sets, round(p.length_mm, 6))
                           for p in self.solved()})
        front: List[Tuple[int, float]] = []
        best_len = float("inf")
        for sets, length in outcomes:
            if length < best_len - 1e-9:
                front.append((sets, length))
                best_len = length
        return front

    def rows(self) -> List[Dict[str, object]]:
        return [p.row() for p in self.points]


def _respec(spec: SwitchSpec, alpha: float, beta: float) -> SwitchSpec:
    clone = copy.copy(spec)
    clone.alpha = alpha
    clone.beta = beta
    # conflicts/flows are shared immutably; validation already ran
    return clone


def weight_sweep(
    spec: SwitchSpec,
    weights: Sequence[Tuple[float, float]] = (
        (1.0, 100.0),   # the paper's setting: length-dominant
        (1.0, 1.0),     # balanced
        (100.0, 1.0),   # set-dominant: minimize control effort first
        (1.0, 0.0),     # sets only
        (0.0, 1.0),     # length only
    ),
    options: Optional[SynthesisOptions] = None,
    context: Optional[SolveContext] = None,
    store=None,
) -> WeightSweep:
    """Solve the same case under several objective weightings.

    All points share one :class:`SolveContext` (pass an existing one to
    share beyond the sweep): α/β only re-weight the objective, so every
    point after the first reuses the built model and path catalog and
    starts from the previous optimum as warm incumbent.

    ``store`` attaches a persistent :class:`repro.store.Store`: a
    repeated sweep answers every point from disk (Tier A — the weights
    are part of the case, so each weighting is its own entry).
    Outcomes are identical with or without a store; only ``runtime_s``
    changes.
    """
    if not weights:
        raise ReproError("need at least one weight pair")
    options = options or SynthesisOptions()
    if store is not None:
        from dataclasses import replace

        options = replace(options, store=store)
    context = context or SolveContext()
    sweep = WeightSweep()
    for alpha, beta in weights:
        result = synthesize(_respec(spec, alpha, beta), options, context=context)
        if result.status.solved:
            sweep.points.append(WeightSweepPoint(
                alpha, beta, result.num_flow_sets,
                result.flow_channel_length, result.status.value,
                result.runtime,
            ))
        else:
            sweep.points.append(WeightSweepPoint(
                alpha, beta, None, None, result.status.value, result.runtime,
            ))
    return sweep
