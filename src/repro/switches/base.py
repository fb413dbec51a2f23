"""Abstract switch model: pins, nodes, segments, valves, as a graph.

Terminology follows the paper (§2.2):

* **pins** — flow channel ends on the switch border, connected to other
  modules (mixers, chambers, inlets, ...);
* **nodes** — intermediate intersections of flow segments inside the
  switch;
* **flow segments** — channel edges between two nodes or between a node
  and a pin;
* **valves** — one per flow segment in the general (unreduced) model;
  an application-specific switch keeps only the essential ones.

Nodes carry a :class:`NodeKind` so constraint builders can reproduce
the paper's node set (only the *major* nodes, e.g. ``{C, T, R, B, L}``
for the 8-pin model) or the stricter set of every intersection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import SwitchModelError
from repro.geometry import DesignRules, Point, STANFORD_FOUNDRY


class NodeKind(enum.Enum):
    """Classification of a switch vertex."""

    PIN = "pin"          # border connection point for a module
    CENTER = "center"    # a crossbar center (C, C1, C2, ...)
    ARM = "arm"          # an arm node between center and border (T, B, L, R)
    CORNER = "corner"    # a corner routing node (TL, TR, BL, BR, TM, ...)
    JUNCTION = "junction"  # a spine junction (baseline switches)


#: Node kinds that count as "major" nodes — the node set the paper uses
#: for its constraints (eq. 3.3 names {C, T, R, B, L} for the 8-pin model).
MAJOR_KINDS = frozenset({NodeKind.CENTER, NodeKind.ARM, NodeKind.JUNCTION})


@dataclass(frozen=True)
class Segment:
    """A flow channel segment between two named vertices.

    The endpoint pair is stored in a canonical (sorted) order so a
    segment compares equal regardless of traversal direction.
    """

    a: str
    b: str
    length: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise SwitchModelError(f"degenerate segment {self.a!r}-{self.b!r}")
        if self.length <= 0:
            raise SwitchModelError(f"segment {self.a}-{self.b} must have positive length")
        if self.a > self.b:
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def other(self, vertex: str) -> str:
        if vertex == self.a:
            return self.b
        if vertex == self.b:
            return self.a
        raise SwitchModelError(f"{vertex!r} is not an endpoint of segment {self.a}-{self.b}")

    def touches(self, vertex: str) -> bool:
        return vertex in (self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


def segment_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical dictionary key for the segment between two vertices."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Valve:
    """A valve sitting on a flow segment.

    ``control_options`` records how many candidate control channels can
    reach the valve in the drawn structure (the paper guarantees at
    least one, often two).
    """

    segment: Tuple[str, str]
    control_options: int = 2

    def __str__(self) -> str:
        return f"valve[{self.segment[0]}-{self.segment[1]}]"


class SwitchModel:
    """A concrete switch structure.

    Subclasses populate pins/nodes/segments in ``__init__`` via
    :meth:`_add_pin`, :meth:`_add_node` and :meth:`_add_segment`, then
    call :meth:`_finalize`.
    """

    #: Order of the switch's rotational symmetry group: rotating the
    #: clockwise pin cycle by ``n_pins / rotation_order`` positions is a
    #: length-preserving graph automorphism. Used for symmetry breaking
    #: in the synthesis model; 1 means "no usable symmetry".
    rotation_order: int = 1

    #: The active :class:`repro.switches.health.HealthMask`, or ``None``
    #: for pristine hardware. Set only on copies made by
    #: :meth:`with_health`; construction always yields healthy switches.
    health = None

    def __init__(self, name: str, rules: DesignRules = STANFORD_FOUNDRY) -> None:
        self.name = name
        self.rules = rules
        self.pins: List[str] = []          # clockwise order, starting top-left
        self.nodes: List[str] = []
        self.kinds: Dict[str, NodeKind] = {}
        self.coords: Dict[str, Point] = {}
        self.segments: Dict[Tuple[str, str], Segment] = {}
        self.valves: Dict[Tuple[str, str], Valve] = {}
        self.graph = nx.Graph()
        self._finalized = False
        self._structure_key: Optional[tuple] = None

    # ------------------------------------------------------------------
    # construction helpers (subclass API)
    # ------------------------------------------------------------------
    def _add_pin(self, name: str, pos: Point) -> None:
        self._check_new(name)
        self.pins.append(name)
        self.kinds[name] = NodeKind.PIN
        self.coords[name] = pos
        self.graph.add_node(name)

    def _add_node(self, name: str, kind: NodeKind, pos: Point) -> None:
        if kind is NodeKind.PIN:
            raise SwitchModelError("use _add_pin for pins")
        self._check_new(name)
        self.nodes.append(name)
        self.kinds[name] = kind
        self.coords[name] = pos
        self.graph.add_node(name)

    def _add_segment(self, a: str, b: str, length: Optional[float] = None,
                     with_valve: bool = True, control_options: int = 2) -> Segment:
        for v in (a, b):
            if v not in self.kinds:
                raise SwitchModelError(f"unknown vertex {v!r} in segment {a}-{b}")
        if length is None:
            length = self.coords[a].manhattan_to(self.coords[b])
        seg = Segment(a, b, length)
        if seg.key in self.segments:
            raise SwitchModelError(f"duplicate segment {a}-{b}")
        self.segments[seg.key] = seg
        self.graph.add_edge(seg.a, seg.b, length=seg.length)
        if with_valve:
            self.valves[seg.key] = Valve(seg.key, control_options)
        return seg

    def _check_new(self, name: str) -> None:
        if name in self.kinds:
            raise SwitchModelError(f"duplicate vertex name {name!r}")

    def _finalize(self) -> None:
        if not nx.is_connected(self.graph):
            raise SwitchModelError(f"switch {self.name!r} flow graph is not connected")
        for pin in self.pins:
            if self.graph.degree[pin] != 1:
                raise SwitchModelError(
                    f"pin {pin!r} must attach to exactly one segment, "
                    f"has degree {self.graph.degree[pin]}"
                )
        self._finalized = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_pins(self) -> int:
        return len(self.pins)

    @property
    def size_label(self) -> str:
        return f"{self.n_pins}-pin"

    def is_pin(self, name: str) -> bool:
        return self.kinds.get(name) is NodeKind.PIN

    def major_nodes(self) -> List[str]:
        """The paper's node set: centers, arms and spine junctions."""
        return [n for n in self.nodes if self.kinds[n] in MAJOR_KINDS]

    def all_nodes(self) -> List[str]:
        """Every internal intersection (strict contamination accounting)."""
        return list(self.nodes)

    def pin_index(self, pin: str) -> int:
        """1-based clockwise index of a pin (as in eq. 3.12)."""
        try:
            return self.pins.index(pin) + 1
        except ValueError:
            raise SwitchModelError(f"{pin!r} is not a pin of {self.name!r}") from None

    def structure_key(self) -> tuple:
        """Hashable signature of the routing structure.

        Two switch instances with equal keys have identical pins (in
        clockwise order) and identical segments with identical lengths,
        so any path enumeration over them yields identical results.
        Case factories build a fresh switch per call; this key lets the
        path-catalog cache in :mod:`repro.switches.paths` recognize the
        repeats. Computed once — switches are immutable after
        ``_finalize``.
        """
        if self._structure_key is None:
            segs = tuple(sorted(
                (k[0], k[1], self.segments[k].length) for k in self.segments))
            self._structure_key = (type(self).__qualname__, tuple(self.pins), segs)
        return self._structure_key

    def with_health(self, mask) -> "SwitchModel":
        """A degraded copy with the mask's dead segments removed.

        See :func:`repro.switches.health.apply_health_mask` (this is a
        convenience forwarder). Masking an already-masked switch merges
        the masks against the pristine structure, so the operation is
        idempotent and order-independent.
        """
        from repro.switches.health import apply_health_mask

        return apply_health_mask(self, mask)

    def segment(self, a: str, b: str) -> Segment:
        try:
            return self.segments[segment_key(a, b)]
        except KeyError:
            raise SwitchModelError(f"no segment {a}-{b} in {self.name!r}") from None

    def segments_at(self, vertex: str) -> List[Segment]:
        """All segments incident to a vertex."""
        return [self.segments[segment_key(vertex, nbr)] for nbr in self.graph.neighbors(vertex)]

    def neighbor_segments(self, seg: Segment,
                          restrict_to: Optional[FrozenSet[Tuple[str, str]]] = None
                          ) -> List[Segment]:
        """Segments sharing an endpoint with ``seg`` (used segments only
        when ``restrict_to`` is given). Used by essential-valve analysis."""
        result = []
        for endpoint in (seg.a, seg.b):
            for other in self.segments_at(endpoint):
                if other.key == seg.key:
                    continue
                if restrict_to is not None and other.key not in restrict_to:
                    continue
                result.append(other)
        return result

    def total_length(self) -> float:
        """Total flow channel length of the full (unreduced) model, mm."""
        return sum(s.length for s in self.segments.values())

    def length_of(self, keys: Iterable[Tuple[str, str]]) -> float:
        """Total length of the segments ``keys``, mm.

        Summed in sorted key order: a set's own order follows the string
        hash seed, and so would the last bit of the sum.
        """
        return sum(self.segments[k].length for k in sorted(keys))

    def bounding_box(self) -> Tuple[Point, Point]:
        xs = [p.x for p in self.coords.values()]
        ys = [p.y for p in self.coords.values()]
        return Point(min(xs), min(ys)), Point(max(xs), max(ys))

    def check_design_rules(self) -> List[str]:
        """Best-effort design-rule check: parallel channel spacing.

        Returns human-readable violation strings (empty when clean).
        Only vertex-to-vertex proximity of non-adjacent vertices is
        checked; it is a sanity net for generated layouts, not a full
        DRC.
        """
        violations = []
        names = self.pins + self.nodes
        min_space = self.rules.min_channel_spacing + self.rules.flow_channel_width
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.graph.has_edge(a, b):
                    continue
                if self.coords[a].euclidean_to(self.coords[b]) < min_space - 1e-9:
                    violations.append(
                        f"vertices {a} and {b} closer than flow width + spacing"
                    )
        return violations

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, pins={self.n_pins}, "
            f"nodes={len(self.nodes)}, segments={len(self.segments)})"
        )
