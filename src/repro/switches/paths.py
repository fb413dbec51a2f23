"""Candidate path enumeration (§3.1).

The paper pre-generates, for each pair of flow pins, a set of shortest
routing paths through the switch, and the IQP assigns every flow to
exactly one of them. :func:`enumerate_paths` reproduces this: for every
*ordered* pin pair it yields all length-minimal paths (optionally with
a slack so near-shortest alternatives are available too).

Enumeration results are memoized per ordered pin pair, keyed on the
switch's *structural* signature
(:meth:`~repro.switches.base.SwitchModel.structure_key`) rather than
object identity: the case factories and the artificial suite build a
fresh switch instance per spec, but almost all of them share a handful
of structures. A catalog for any pin subset of a known structure is
assembled from the memoized pairs, so fixed-binding draws that bind
different pins still enumerate each pair only once. Paths are
immutable and are shared across catalogs wherever their catalog index
agrees; :func:`path_cache_info` exposes hit/miss counters and
:func:`clear_path_cache` resets the memo (used by tests).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import SwitchModelError
from repro.switches.base import MAJOR_KINDS, NodeKind, SwitchModel, segment_key


@dataclass(frozen=True)
class Path:
    """One candidate routing path between two pins.

    ``vertices`` includes the source pin first and the target pin last;
    ``nodes`` is the set of intermediate switch nodes, ``segments`` the
    set of traversed segment keys, and ``length`` the channel length of
    the path in millimetres.
    """

    index: int
    source_pin: str
    target_pin: str
    vertices: Tuple[str, ...]
    nodes: FrozenSet[str]
    segments: FrozenSet[Tuple[str, str]]
    length: float

    def uses_node(self, node: str) -> bool:
        return node in self.nodes

    def uses_segment(self, a: str, b: str) -> bool:
        return segment_key(a, b) in self.segments

    def major_nodes(self, switch: SwitchModel) -> FrozenSet[str]:
        """Restrict to the paper's node set (centers/arms/junctions)."""
        return frozenset(n for n in self.nodes if switch.kinds[n] in MAJOR_KINDS)

    def __str__(self) -> str:
        return "->".join(self.vertices)


class PathCatalog:
    """All candidate paths of a switch, indexed by pin pair.

    Built once per synthesis run; constraint builders iterate either
    over all paths or over the paths of a single ordered pin pair.
    """

    def __init__(self, switch: SwitchModel, paths: List[Path]) -> None:
        self.switch = switch
        self.paths = paths
        self._by_pair: Dict[Tuple[str, str], List[Path]] = {}
        for p in paths:
            self._by_pair.setdefault((p.source_pin, p.target_pin), []).append(p)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    def between(self, source_pin: str, target_pin: str) -> List[Path]:
        """Candidate paths from one pin to another (possibly empty)."""
        return self._by_pair.get((source_pin, target_pin), [])

    def starting_at(self, pin: str) -> List[Path]:
        return [p for p in self.paths if p.source_pin == pin]

    def ending_at(self, pin: str) -> List[Path]:
        return [p for p in self.paths if p.target_pin == pin]

    def shortest_length(self, source_pin: str, target_pin: str) -> float:
        paths = self.between(source_pin, target_pin)
        if not paths:
            raise SwitchModelError(f"no path between {source_pin} and {target_pin}")
        return min(p.length for p in paths)


def path_from_vertices(switch: SwitchModel, index: int,
                       vertices: Sequence[str]) -> Path:
    """Rebuild a :class:`Path` from its vertex sequence.

    Segment keys and lengths come from ``switch`` itself, so a vertex
    pair that is not an actual channel of the switch raises — which is
    exactly the validation the persistent store (:mod:`repro.store`)
    relies on when decoding stored routes.
    """
    nodes = frozenset(v for v in vertices if not switch.is_pin(v))
    steps = [segment_key(a, b) for a, b in zip(vertices, vertices[1:])]
    # Summed along the route, not over the segment set: a set's order
    # follows the string hash seed, and so would the last bit of a sum.
    length = sum(switch.segments[k].length for k in steps)
    return Path(
        index=index,
        source_pin=vertices[0],
        target_pin=vertices[-1],
        vertices=tuple(vertices),
        nodes=nodes,
        segments=frozenset(steps),
        length=length,
    )


#: Memoized enumerations per ordered pin pair, grouped by the rest of
#: their key: (structure, slack, cap) -> {(source pin, target pin): the
#: pair's candidate paths, shortest first (empty when unreachable)}.
#: Grouping hashes the large structure key once per catalog rather than
#: once per pair. LRU over structures, holding at most _PATH_CACHE_MAX
#: pairs in all, so long sweeps cannot grow it without limit.
_PATH_CACHE: "OrderedDict[tuple, Dict[Tuple[str, str], Tuple[Path, ...]]]" = OrderedDict()
_PATH_CACHE_MAX = 8192
_PATH_CACHE_LOCK = threading.Lock()

# Counters live in a repro.obs metrics registry (not module-global
# ints): service workers enumerate from several threads at once, and
# instruments are the one shared-counter shape the rest of the codebase
# already uses. All updates happen under _PATH_CACHE_LOCK, so the
# counts are exact, not merely approximate.
_METRICS = None


def _path_metrics():
    global _METRICS
    if _METRICS is None:
        from repro.obs.metrics import MetricsRegistry

        _METRICS = MetricsRegistry()
    return _METRICS


def _count(name: str) -> None:
    """Bump a local instrument and mirror it to any installed tracer."""
    _path_metrics().counter(name).inc()
    tracer = _current_tracer()
    if tracer is not None:
        tracer.metrics.counter(name).inc()


def _current_tracer():
    from repro.obs.trace import current_tracer

    return current_tracer()


def path_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the path-enumeration memo.

    Counts are per catalog: ``hits`` counts catalogs assembled wholly
    from memoized pin pairs, ``misses`` catalogs that enumerated at
    least one pair. ``size`` is the number of memoized pin pairs.
    """
    metrics = _path_metrics()
    with _PATH_CACHE_LOCK:
        return {"hits": metrics.counter("path_cache_hits").value,
                "misses": metrics.counter("path_cache_misses").value,
                "size": sum(map(len, _PATH_CACHE.values())),
                "max_size": _PATH_CACHE_MAX}


def clear_path_cache() -> None:
    """Drop all memoized enumerations and reset the counters."""
    metrics = _path_metrics()
    with _PATH_CACHE_LOCK:
        _PATH_CACHE.clear()
        for name in ("path_cache_hits", "path_cache_misses"):
            metrics.counter(name).value = 0


def enumerate_paths(
    switch: SwitchModel,
    pins: Optional[Sequence[str]] = None,
    slack: float = 0.0,
    max_paths_per_pair: Optional[int] = None,
) -> PathCatalog:
    """Enumerate candidate paths between ordered pin pairs.

    ``slack`` admits paths up to ``shortest + slack`` millimetres
    (0 reproduces the paper's all-shortest-paths set);
    ``max_paths_per_pair`` optionally caps the per-pair count (paths are
    kept shortest-first). ``pins`` restricts the pin set (used by the
    fixed binding policy to enumerate only the bound pins).

    Results are memoized per pin pair of a switch structure; the
    returned catalog is always a fresh :class:`PathCatalog` bound to
    ``switch``, numbered in pin-pair order.
    """
    if slack < 0:
        raise SwitchModelError("path slack cannot be negative")
    pin_list = list(pins) if pins is not None else list(switch.pins)
    for p in pin_list:
        if not switch.is_pin(p):
            raise SwitchModelError(f"{p!r} is not a pin of {switch.name!r}")
    structure = switch.structure_key()
    slack = float(slack)
    memo_key = (structure, slack, max_paths_per_pair)
    pairs = [(src, dst) for src in pin_list for dst in pin_list if dst != src]
    with _PATH_CACHE_LOCK:
        memo = _PATH_CACHE.get(memo_key, {})
        known = {pair: memo[pair] for pair in pairs if pair in memo}
        missing = [pair for pair in dict.fromkeys(pairs) if pair not in known]
        if memo:
            _PATH_CACHE.move_to_end(memo_key)
        if not missing:
            _count("path_cache_hits")

    routes: Dict[Tuple[str, str], List[List[str]]] = {}
    if missing:
        with _PATH_CACHE_LOCK:
            _count("path_cache_misses")
        source, dist = None, {}
        for src, dst in missing:
            if src != source:
                # Single-source shortest path lengths prune the search.
                source = src
                dist = nx.single_source_dijkstra_path_length(
                    switch.graph, src, weight="length")
            routes[(src, dst)] = _pair_routes(switch, src, dst, dist, slack,
                                              max_paths_per_pair)

    paths, built = _assemble(switch, pairs, known, routes)
    # Fresh pairs join the memo. Every free-binding spec of a structure
    # asks for the full catalog, so a full catalog's renumbered pairs
    # replace the memoized ones too, and its repeats reuse the paths.
    keep = built if pins is None else {p: built[p] for p in missing}
    if keep:
        with _PATH_CACHE_LOCK:
            _remember(memo_key, keep)
    return PathCatalog(switch, paths)


def _assemble(switch: SwitchModel, pairs: Sequence[Tuple[str, str]],
              known: Dict[Tuple[str, str], Tuple[Path, ...]],
              routes: Dict[Tuple[str, str], List[List[str]]]
              ) -> Tuple[List[Path], Dict[Tuple[str, str], Tuple[Path, ...]]]:
    """One catalog's paths, each pair's in pair order, numbered from 0,
    and the pairs that got new path objects.

    ``known`` holds memoized pairs, ``routes`` the vertex sequences of
    freshly enumerated ones. A memoized tuple is reused as is where its
    numbering agrees with the catalog's, and renumbered otherwise.
    """
    paths: List[Path] = []
    built: Dict[Tuple[str, str], Tuple[Path, ...]] = {}
    for pair in pairs:
        entry = known.get(pair)
        if entry is None:
            entry = tuple(path_from_vertices(switch, len(paths) + i, vertices)
                          for i, vertices in enumerate(routes[pair]))
            built[pair] = entry
        elif entry and entry[0].index != len(paths):
            entry = tuple(
                Path(len(paths) + i, p.source_pin, p.target_pin, p.vertices,
                     p.nodes, p.segments, p.length)
                for i, p in enumerate(entry))
            built[pair] = entry
        paths.extend(entry)
    return paths, built


def _remember(memo_key: tuple,
              entries: Dict[Tuple[str, str], Tuple[Path, ...]]) -> None:
    """Memoize pin-pair entries (caller holds _PATH_CACHE_LOCK)."""
    _PATH_CACHE.setdefault(memo_key, {}).update(entries)
    _PATH_CACHE.move_to_end(memo_key)
    size = sum(map(len, _PATH_CACHE.values()))
    while size > _PATH_CACHE_MAX:
        size -= len(_PATH_CACHE.popitem(last=False)[1])


def _pair_routes(switch: SwitchModel, src: str, dst: str,
                 dist: Dict[str, float], slack: float,
                 cap: Optional[int]) -> List[List[str]]:
    """Vertex sequences of one ordered pin pair's candidate paths,
    shortest first (ties by vertex sequence); ``dist`` holds the
    shortest lengths from ``src``."""
    if dst not in dist:
        return []
    if slack == 0:
        found = [list(v) for v in nx.all_shortest_paths(
            switch.graph, src, dst, weight="length")]
    else:
        found = list(_bounded_simple_paths(switch, src, dst,
                                           dist[dst] + slack + 1e-9))
    # Pins are terminals only: a candidate path must not route *through*
    # a third pin (pins have degree 1, so this cannot happen on our
    # models, but guard against exotic subclasses).
    found = [v for v in found if all(not switch.is_pin(x) for x in v[1:-1])]
    found.sort(key=lambda v: (sum(
        switch.segments[segment_key(a, b)].length for a, b in zip(v, v[1:])), v))
    if cap is not None:
        found = found[:cap]
    return found


def _bounded_simple_paths(switch: SwitchModel, src: str, dst: str,
                          budget: float) -> Iterator[List[str]]:
    """DFS over simple paths with total length within ``budget``.

    Prunes with the exact remaining shortest distance to ``dst``, so the
    search only expands prefixes that can still meet the budget.
    """
    to_dst = nx.single_source_dijkstra_path_length(switch.graph, dst, weight="length")
    stack: List[Tuple[str, List[str], float]] = [(src, [src], 0.0)]
    while stack:
        vertex, trail, used = stack.pop()
        if vertex == dst:
            yield trail
            continue
        for nbr in switch.graph.neighbors(vertex):
            if nbr in trail:
                continue
            if switch.is_pin(nbr) and nbr != dst:
                continue
            step = switch.segments[segment_key(vertex, nbr)].length
            if nbr not in to_dst:
                continue
            if used + step + to_dst[nbr] > budget:
                continue
            stack.append((nbr, trail + [nbr], used + step))
