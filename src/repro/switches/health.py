"""Hardware health overlays for switch models.

Real valve arrays degrade: a valve sticks open or closed, a channel
segment clogs with debris. A :class:`HealthMask` records those faults
as sets of canonical segment keys and overlays them on any
:class:`~repro.switches.base.SwitchModel` via
:func:`apply_health_mask` (also reachable as
``SwitchModel.with_health``): the masked copy drops every dead segment
and its valve from the structure, so path enumeration
(:mod:`repro.switches.paths`), the synthesis model, and the verifier
all see only the surviving hardware.

All three fault kinds remove their segment from the *routable*
structure. A stuck-closed valve and a blocked segment obviously cannot
carry flow; a stuck-open valve cannot be *closed*, so no schedule may
rely on it for isolation — routing around it is the only plan the
verifier can still prove contamination-free. (The simulator keeps the
kinds distinct: stuck-open segments still leak fluid at execution
time, which is exactly how the fault is detected.)

Masked switches are allowed to be disconnected and to strand pins —
that is the degraded reality. :func:`reachability_report` re-validates
what survives: which pins still reach the rest of the structure and
which pin pairs still have any path at all.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import SwitchModelError
from repro.switches.base import SwitchModel, segment_key

SegKey = Tuple[str, str]

#: The fault kind vocabulary a mask understands (mirrors
#: :class:`repro.sim.faults.FaultKind` values without importing the sim
#: layer — switches sit below sim in the dependency order).
FAULT_KINDS = ("stuck_open", "stuck_closed", "blocked_segment")


@dataclass(frozen=True)
class HealthMask:
    """An immutable record of failed valves/segments on one switch.

    Segment keys are canonical ``(a, b)`` with ``a <= b`` — build masks
    through :meth:`from_faults` / :meth:`from_triples` (or pass
    pre-canonical keys) so ``(b, a)`` and ``(a, b)`` always name the
    same fault.
    """

    stuck_open: FrozenSet[SegKey] = field(default_factory=frozenset)
    stuck_closed: FrozenSet[SegKey] = field(default_factory=frozenset)
    blocked: FrozenSet[SegKey] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name in ("stuck_open", "stuck_closed", "blocked"):
            keys = frozenset(segment_key(*k) for k in getattr(self, name))
            object.__setattr__(self, name, keys)

    # ------------------------------------------------------------------
    @classmethod
    def from_faults(cls, faults: Iterable) -> "HealthMask":
        """Build a mask from :class:`repro.sim.faults.ValveFault`-likes.

        Duck-typed on ``.segment`` and ``.kind`` (whose ``value`` must
        be one of :data:`FAULT_KINDS`) so the switches layer never
        imports the sim layer.
        """
        triples = []
        for f in faults:
            kind = getattr(f.kind, "value", f.kind)
            triples.append((f.segment[0], f.segment[1], kind))
        return cls.from_triples(triples)

    @classmethod
    def from_triples(cls, triples: Iterable[Sequence]) -> "HealthMask":
        """Build a mask from ``(a, b, kind)`` triples (the JSON form)."""
        buckets: Dict[str, set] = {k: set() for k in FAULT_KINDS}
        for a, b, kind in triples:
            if kind not in buckets:
                raise SwitchModelError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
            buckets[kind].add(segment_key(str(a), str(b)))
        return cls(
            stuck_open=frozenset(buckets["stuck_open"]),
            stuck_closed=frozenset(buckets["stuck_closed"]),
            blocked=frozenset(buckets["blocked_segment"]),
        )

    # ------------------------------------------------------------------
    @property
    def dead_segments(self) -> FrozenSet[SegKey]:
        """Every segment the mask removes from the routable structure."""
        return self.stuck_open | self.stuck_closed | self.blocked

    @property
    def is_empty(self) -> bool:
        return not (self.stuck_open or self.stuck_closed or self.blocked)

    def kind_of(self, a: str, b: str) -> Optional[str]:
        """The fault kind on segment ``a``-``b`` (None when healthy)."""
        key = segment_key(a, b)
        if key in self.stuck_open:
            return "stuck_open"
        if key in self.stuck_closed:
            return "stuck_closed"
        if key in self.blocked:
            return "blocked_segment"
        return None

    def triples(self) -> List[Tuple[str, str, str]]:
        """Canonical sorted ``(a, b, kind)`` list (the JSON form)."""
        out = [(a, b, "stuck_open") for a, b in self.stuck_open]
        out += [(a, b, "stuck_closed") for a, b in self.stuck_closed]
        out += [(a, b, "blocked_segment") for a, b in self.blocked]
        return sorted(out)

    def merge(self, other: "HealthMask") -> "HealthMask":
        """Union of two masks (new faults on an already-degraded chip)."""
        return HealthMask(
            stuck_open=self.stuck_open | other.stuck_open,
            stuck_closed=self.stuck_closed | other.stuck_closed,
            blocked=self.blocked | other.blocked,
        )

    def digest(self) -> str:
        """Canonical sha256 of the fault set.

        Salted into Tier-A store keys (:mod:`repro.store.keys`) so a
        cached healthy-hardware result can never be served for a
        degraded chip — and two differently-degraded chips never share
        an entry.
        """
        canonical = json.dumps(self.triples(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
def apply_health_mask(switch: SwitchModel, mask: HealthMask) -> SwitchModel:
    """A shallow degraded copy of ``switch`` with dead segments removed.

    The copy shares the immutable vertex data (pins, kinds, coords) with
    the original but gets pruned ``segments``/``valves`` tables, a
    pruned graph, a fresh ``structure_key`` (fewer segments → different
    key, so every path-catalog and model cache automatically treats the
    degraded switch as a distinct structure), ``rotation_order`` 1 (no
    rotation symmetry is assumed to survive a fault) and
    ``switch.health`` set to the mask.

    Unlike construction-time :meth:`SwitchModel._finalize`, the masked
    copy may be disconnected and may strand pins at degree 0 — use
    :func:`reachability_report` to see what survives.
    """
    if not isinstance(mask, HealthMask):
        raise SwitchModelError(f"expected a HealthMask, got {type(mask).__name__}")
    base_mask = getattr(switch, "health", None)
    if base_mask is not None:
        mask = base_mask.merge(mask)
    unknown = sorted(k for k in mask.dead_segments if k not in _base_segments(switch))
    if unknown:
        raise SwitchModelError(
            f"health mask names segment(s) not in {switch.name!r}: {unknown}"
        )
    if mask.is_empty:
        return switch

    # Re-mask from the pristine structure so masking is idempotent and
    # order-independent: masking twice equals masking with the union.
    source = getattr(switch, "_unmasked", switch)
    dead = mask.dead_segments
    clone = copy.copy(source)
    clone.segments = {k: s for k, s in source.segments.items() if k not in dead}
    clone.valves = {k: v for k, v in source.valves.items() if k not in dead}
    clone.graph = source.graph.copy()
    for a, b in dead:
        if clone.graph.has_edge(a, b):
            clone.graph.remove_edge(a, b)
    clone._structure_key = None
    # A fault on one pin's stub is not repeated on its rotated twins, so
    # the pristine switch's rotations are no longer automorphisms; the
    # builder's rotation symmetry row would cut off optima.
    clone.rotation_order = 1
    clone.health = mask
    clone._unmasked = source
    return clone


@dataclass(frozen=True)
class ReachabilityReport:
    """What survives on a (possibly masked) switch structure."""

    #: Pins with no incident segment at all.
    dead_pins: Tuple[str, ...]
    #: Unordered live-pin pairs with no remaining path between them.
    unreachable_pairs: Tuple[Tuple[str, str], ...]

    @property
    def fully_connected(self) -> bool:
        return not self.dead_pins and not self.unreachable_pairs


def reachability_report(switch: SwitchModel) -> ReachabilityReport:
    """Re-validate pin reachability over the current structure."""
    dead = tuple(p for p in switch.pins if switch.graph.degree[p] == 0)
    live = [p for p in switch.pins if switch.graph.degree[p] > 0]
    component_of: Dict[str, int] = {}
    for idx, comp in enumerate(nx.connected_components(switch.graph)):
        for v in comp:
            component_of[v] = idx
    unreachable = tuple(
        (a, b)
        for i, a in enumerate(live) for b in live[i + 1:]
        if component_of[a] != component_of[b]
    )
    return ReachabilityReport(dead_pins=dead, unreachable_pairs=unreachable)


def _base_segments(switch: SwitchModel) -> Dict[SegKey, object]:
    """The pristine segment table (before any masking)."""
    return getattr(switch, "_unmasked", switch).segments


__all__ = [
    "FAULT_KINDS",
    "HealthMask",
    "ReachabilityReport",
    "apply_health_mask",
    "reachability_report",
]
