"""The degraded-hardware repair engine.

Given a previously verified :class:`~repro.core.solution.SynthesisResult`
and a set of newly observed valve faults, :func:`repair`:

1. folds the faults into a :class:`~repro.switches.health.HealthMask`
   and masks the spec's switch (dead valves/segments leave the path
   catalog; reachability is re-validated);
2. synthesizes the masked spec with
   :func:`repro.core.synthesizer.synthesize` — the same computation a
   repair job of ``SynthesisService`` or ``ShardCoordinator`` runs.
   The existing machinery does the rest: the Tier-A store key is
   fault-salted (never serves a healthy-chip result), a missed
   :class:`~repro.deadline.Deadline` falls down the standard
   degradation ladder, and the repaired result is verified by the
   independent checker — which now also rejects any routing over a
   masked segment;
3. splits the flows into surviving (the prior path avoids every dead
   segment) and rerouted.

The repair contract is deterministic: the re-solve is a pure function
of the prior spec, the canonical fault set and the options, so a fixed
fault plan yields an identical repaired routing for any ``parallel_bb``
worker count, across service restarts, and on every path that runs a
repair.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.solution import SynthesisResult, SynthesisStatus
from repro.core.spec import SwitchSpec
from repro.core.synthesizer import SynthesisOptions, synthesize
from repro.errors import RepairError
from repro.obs.trace import obs_event
from repro.sim.faults import FaultKind, ValveFault
from repro.switches.health import (
    HealthMask,
    ReachabilityReport,
    reachability_report,
)

Faults = Union[HealthMask, Iterable[Union[ValveFault, Sequence[str]]]]

#: Accepted spellings for each fault kind in the compact CLI/HTTP form.
_KIND_ALIASES = {
    "stuck_open": FaultKind.STUCK_OPEN,
    "open": FaultKind.STUCK_OPEN,
    "stuck_closed": FaultKind.STUCK_CLOSED,
    "closed": FaultKind.STUCK_CLOSED,
    "blocked_segment": FaultKind.BLOCKED_SEGMENT,
    "blocked": FaultKind.BLOCKED_SEGMENT,
}


def parse_faults(text: str) -> List[ValveFault]:
    """Parse the compact fault syntax used by the CLI and benchmarks.

    ``"T1-TL:stuck_closed;C-L:blocked@2"`` — semicolon-separated
    entries of ``a-b:kind`` with an optional ``@step`` onset. Kinds
    accept the short aliases ``open``/``closed``/``blocked``.
    """
    faults: List[ValveFault] = []
    for raw in text.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        onset = 0
        if "@" in entry:
            entry, _, onset_text = entry.rpartition("@")
            try:
                onset = int(onset_text)
            except ValueError:
                raise RepairError(f"bad fault onset in {raw!r}") from None
        seg_text, sep, kind_text = entry.partition(":")
        kind = _KIND_ALIASES.get(kind_text.strip() or "stuck_closed")
        if not sep:
            kind = FaultKind.STUCK_CLOSED
        if kind is None:
            raise RepairError(
                f"unknown fault kind {kind_text!r} in {raw!r}; "
                f"expected one of {sorted(set(_KIND_ALIASES))}"
            )
        a, sep, b = seg_text.strip().partition("-")
        if not sep or not a or not b:
            raise RepairError(f"bad fault segment in {raw!r}; expected 'a-b:kind'")
        faults.append(ValveFault((a, b), kind, onset))
    if not faults:
        raise RepairError(f"no faults in fault spec {text!r}")
    return faults


def as_mask(faults: Faults) -> HealthMask:
    """Coerce faults to a canonical HealthMask: a mask passes through,
    and :class:`ValveFault`s and ``(a, b, kind)`` triples (the JSON
    form) may be mixed."""
    if isinstance(faults, HealthMask):
        return faults
    return HealthMask.from_triples(
        (*f.segment, f.kind.value) if isinstance(f, ValveFault) else f
        for f in faults)


def mask_spec(spec: SwitchSpec, faults: Faults) -> SwitchSpec:
    """A copy of ``spec`` on the degraded switch.

    Masks merge: faults on an already-degraded spec accumulate onto
    the pristine structure, so repeated repairs compose.
    """
    mask = as_mask(faults)
    if mask.is_empty:
        raise RepairError("empty fault set: nothing to mask")
    return dataclasses.replace(spec, switch=spec.switch.with_health(mask))


# ----------------------------------------------------------------------
@dataclass
class RepairResult:
    """Outcome of one repair attempt."""

    original: SynthesisResult
    repaired: SynthesisResult
    mask: HealthMask
    reachability: ReachabilityReport
    #: Flow ids whose prior path survived the mask untouched.
    surviving_flows: Tuple[int, ...]
    #: Flow ids whose prior path crosses a dead segment.
    rerouted_flows: Tuple[int, ...]

    @property
    def status(self) -> SynthesisStatus:
        return self.repaired.status

    @property
    def solved(self) -> bool:
        return self.repaired.status.solved

    @property
    def degraded(self) -> bool:
        """True when repair fell down the ladder to the greedy rung."""
        return bool(self.repaired.counters.get("degraded"))

    def summary(self) -> str:
        return (
            f"repair[{self.original.spec.name}]: {self.status.value}, "
            f"{len(self.mask.dead_segments)} masked segment(s), "
            f"{len(self.surviving_flows)} surviving / "
            f"{len(self.rerouted_flows)} rerouted flow(s)"
            + (", degraded" if self.degraded else "")
        )


def repair(prior: SynthesisResult, faults: Faults,
           options: Optional[SynthesisOptions] = None) -> RepairResult:
    """Re-synthesize ``prior``'s spec around newly observed faults."""
    if not prior.status.solved or not prior.flow_paths:
        raise RepairError(
            "repair needs a solved prior result with a routed assignment"
        )
    spec = mask_spec(prior.spec, faults)
    mask = spec.switch.health  # merged with any pre-existing mask
    surviving: List[int] = []
    rerouted: List[int] = []
    for f in spec.flows:
        path = prior.flow_paths.get(f.id)
        intact = (path is not None
                  and not mask.dead_segments & set(path.segments))
        (surviving if intact else rerouted).append(f.id)
    obs_event("repair_attempt", case=spec.name,
              masked=len(mask.dead_segments),
              surviving=len(surviving), rerouted=len(rerouted))

    repaired = synthesize(spec, options)
    obs_event("repair_result", case=spec.name,
              status=repaired.status.value,
              degraded=bool(repaired.counters.get("degraded")),
              objective=repaired.objective)
    return RepairResult(
        original=prior,
        repaired=repaired,
        mask=mask,
        reachability=reachability_report(spec.switch),
        surviving_flows=tuple(surviving),
        rerouted_flows=tuple(rerouted),
    )


__all__ = [
    "RepairResult",
    "as_mask",
    "mask_spec",
    "parse_faults",
    "repair",
]
