"""Contamination analysis for arbitrary switch designs.

The paper's comparison with Columba's spine switch and Ma's GRU switch
is qualitative: route the same application flows on those structures
and observe which sites conflicting fluids are forced to share. This
module makes that analysis executable for *any*
:class:`~repro.switches.base.SwitchModel`: flows are routed naively on
shortest paths (those designs offer little or no routing choice), and
the report lists every polluted node/segment plus the collision and
leak risks that arise when flows execute in parallel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import networkx as nx

from repro.core.spec import Flow
from repro.errors import ReproError
from repro.switches.base import SwitchModel
from repro.switches.paths import Path, path_from_vertices


@dataclass
class ContaminationReport:
    """Outcome of analyzing one routed flow assignment."""

    switch_name: str
    flow_paths: Dict[int, Path]
    polluted_nodes: Set[str] = field(default_factory=set)
    polluted_segments: Set[Tuple[str, str]] = field(default_factory=set)
    contaminated_pairs: Set[FrozenSet[int]] = field(default_factory=set)
    unvalved_shared_segments: Set[Tuple[str, str]] = field(default_factory=set)

    @property
    def is_contamination_free(self) -> bool:
        return not self.polluted_nodes and not self.polluted_segments

    @property
    def num_polluted_sites(self) -> int:
        return len(self.polluted_nodes) + len(self.polluted_segments)

    def summary(self) -> str:
        if self.is_contamination_free:
            return f"{self.switch_name}: contamination-free"
        return (
            f"{self.switch_name}: {len(self.contaminated_pairs)} conflicting pair(s) "
            f"polluted at {len(self.polluted_nodes)} node(s) and "
            f"{len(self.polluted_segments)} segment(s)"
        )


def route_shortest(switch: SwitchModel, binding: Dict[str, str],
                   flows: List[Flow]) -> Dict[int, Path]:
    """Route every flow on its (unique lexicographically-first) shortest
    path — how a spine or GRU switch would carry it, with no synthesis."""
    paths: Dict[int, Path] = {}
    counter = itertools.count(1)
    for f in flows:
        src = binding[f.source]
        dst = binding[f.target]
        try:
            vertices = nx.shortest_path(switch.graph, src, dst, weight="length")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise ReproError(f"cannot route {f} on {switch.name}: {exc}") from exc
        paths[f.id] = path_from_vertices(switch, next(counter), vertices)
    return paths


def analyze_contamination(
    switch: SwitchModel,
    flow_paths: Dict[int, Path],
    conflicts: Set[FrozenSet[int]],
) -> ContaminationReport:
    """Find every site where conflicting flows overlap.

    Additionally records shared segments that carry *no* valve
    (``unvalved_shared_segments``): on a valve-free spine, parallel
    flows cannot be kept apart even when their fluids do not conflict —
    the paper's second criticism of the spine design.
    """
    report = ContaminationReport(switch_name=switch.name, flow_paths=flow_paths)
    for pair in conflicts:
        i, j = sorted(pair)
        pi, pj = flow_paths[i], flow_paths[j]
        shared_nodes = set(pi.nodes) & set(pj.nodes)
        shared_segs = set(pi.segments) & set(pj.segments)
        if shared_nodes or shared_segs:
            report.contaminated_pairs.add(pair)
            report.polluted_nodes |= shared_nodes
            report.polluted_segments |= shared_segs
    for i, j in itertools.combinations(sorted(flow_paths), 2):
        for key in set(flow_paths[i].segments) & set(flow_paths[j].segments):
            if key not in switch.valves:
                report.unvalved_shared_segments.add(key)
    return report


def spine_pollution_profile(switch: SwitchModel,
                            flow_paths: Dict[int, Path]) -> Dict[Tuple[str, str], int]:
    """How many flows traverse each segment (the paper's 'most polluted
    spine segment is used by every flow' observation)."""
    counts: Dict[Tuple[str, str], int] = {}
    for path in flow_paths.values():
        for key in path.segments:
            counts[key] = counts.get(key, 0) + 1
    return counts
