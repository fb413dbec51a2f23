"""Application-specific switch reduction (§2.2).

After synthesis, "the unused channel segments and valves will be
removed to generate an application-specific switch". The reduction
keeps exactly the segments traversed by at least one flow path and the
valves the essential-valve analysis marks as required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

import networkx as nx

from repro.errors import SwitchModelError
from repro.switches.base import Segment, SwitchModel, segment_key


@dataclass
class ReducedSwitch:
    """An application-specific switch derived from a general model.

    The reduced switch is a *view* over the parent model: it records
    which segments, valves, pins and nodes survive, and exposes the
    metrics the paper reports (total flow-channel length ``L`` and
    valve count ``#v``).
    """

    parent: SwitchModel
    used_segments: FrozenSet[Tuple[str, str]]
    essential_valves: FrozenSet[Tuple[str, str]]

    def __post_init__(self) -> None:
        for key in self.used_segments:
            if key not in self.parent.segments:
                raise SwitchModelError(f"unknown segment {key} in reduction")
        for key in self.essential_valves:
            if key not in self.used_segments:
                raise SwitchModelError(
                    f"essential valve on removed segment {key}: reduction is inconsistent"
                )

    # -- surviving structure --------------------------------------------
    @property
    def segments(self) -> List[Segment]:
        return [self.parent.segments[k] for k in sorted(self.used_segments)]

    @property
    def used_vertices(self) -> Set[str]:
        verts: Set[str] = set()
        for a, b in self.used_segments:
            verts.add(a)
            verts.add(b)
        return verts

    @property
    def used_pins(self) -> List[str]:
        verts = self.used_vertices
        return [p for p in self.parent.pins if p in verts]

    @property
    def used_nodes(self) -> List[str]:
        verts = self.used_vertices
        return [n for n in self.parent.nodes if n in verts]

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        for a, b in self.used_segments:
            g.add_edge(a, b, length=self.parent.segments[(a, b)].length)
        return g

    # -- reported metrics --------------------------------------------------
    @property
    def flow_channel_length(self) -> float:
        """Total length L of the surviving flow channels, mm."""
        return self.parent.length_of(self.used_segments)

    @property
    def num_valves(self) -> int:
        """#v — essential valves kept in the application-specific switch."""
        return len(self.essential_valves)

    @property
    def removed_segments(self) -> List[Tuple[str, str]]:
        return [k for k in sorted(self.parent.segments) if k not in self.used_segments]

    @property
    def removed_valves(self) -> List[Tuple[str, str]]:
        """Valves dropped either with their segment or as unnecessary."""
        return [k for k in sorted(self.parent.valves) if k not in self.essential_valves]

    def is_connected(self) -> bool:
        """Whether the surviving flow network is a single component."""
        g = self.graph()
        return g.number_of_nodes() > 0 and nx.is_connected(g)

    def __repr__(self) -> str:
        return (
            f"ReducedSwitch(of={self.parent.name!r}, segments={len(self.used_segments)}, "
            f"valves={self.num_valves}, L={self.flow_channel_length:.1f}mm)"
        )


def reduce_switch(
    parent: SwitchModel,
    used_segments: Set[Tuple[str, str]],
    essential_valves: Set[Tuple[str, str]],
) -> ReducedSwitch:
    """Build the application-specific switch from synthesis outputs."""
    return ReducedSwitch(
        parent=parent,
        used_segments=frozenset(segment_key(a, b) for a, b in used_segments),
        essential_valves=frozenset(segment_key(a, b) for a, b in essential_valves),
    )
