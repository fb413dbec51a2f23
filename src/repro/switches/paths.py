"""Candidate path enumeration (§3.1).

The paper pre-generates, for each pair of flow pins, a set of shortest
routing paths through the switch, and the IQP assigns every flow to
exactly one of them. :func:`enumerate_paths` reproduces this: for every
*ordered* pin pair it yields all length-minimal paths (optionally with
a slack so near-shortest alternatives are available too).

Enumeration results are memoized on the switch's *structural* signature
(:meth:`~repro.switches.base.SwitchModel.structure_key`) rather than
object identity: the case factories and the artificial suite build a
fresh switch instance per spec, but almost all of them share a handful
of structures, so a 90-case sweep enumerates each structure once. Paths
are immutable, so cached lists are shared safely across catalogs;
:func:`path_cache_info` exposes hit/miss counters and
:func:`clear_path_cache` resets the cache (used by tests).
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
    exactly the validation the persistent catalog cache
    (:mod:`repro.store`) relies on when decoding stored routes.
    """
    nodes = frozenset(v for v in vertices if not switch.is_pin(v))
    segs = frozenset(segment_key(a, b) for a, b in zip(vertices, vertices[1:]))
    length = sum(switch.segments[k].length for k in segs)
    return Path(
        index=index,
        source_pin=vertices[0],
        target_pin=vertices[-1],
        vertices=tuple(vertices),
        nodes=nodes,
        segments=segs,
        length=length,
    )


#: Memoized enumeration results, keyed on (structure, pins, slack, cap).
#: Bounded LRU so long artificial sweeps cannot grow it without limit.
_PATH_CACHE: "OrderedDict[tuple, Tuple[Path, ...]]" = OrderedDict()
_PATH_CACHE_MAX = 128
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
    """Hit/miss/size counters of the path-enumeration cache.

    ``hits``/``misses`` count the in-memory LRU; ``store_hits`` counts
    enumerations answered by the persistent :mod:`repro.store` catalog
    cache (those are *not* double-counted as memory hits).
    """
    metrics = _path_metrics()
    with _PATH_CACHE_LOCK:
        return {"hits": metrics.counter("path_cache_hits").value,
                "misses": metrics.counter("path_cache_misses").value,
                "store_hits": metrics.counter("path_cache_store_hits").value,
                "size": len(_PATH_CACHE), "max_size": _PATH_CACHE_MAX}


def clear_path_cache() -> None:
    """Drop all memoized enumerations and reset the counters."""
    metrics = _path_metrics()
    with _PATH_CACHE_LOCK:
        _PATH_CACHE.clear()
        for name in ("path_cache_hits", "path_cache_misses",
                     "path_cache_store_hits"):
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

    Results are memoized per switch structure; the returned catalog is
    always a fresh :class:`PathCatalog` bound to ``switch``. When a
    persistent :mod:`repro.store` is active, an in-memory miss falls
    back to the stored catalog for the same structure (Tier B), and a
    fresh enumeration is written through for future processes.
    """
    if slack < 0:
        raise SwitchModelError("path slack cannot be negative")
    cache_key = (switch.structure_key(),
                 tuple(pins) if pins is not None else None,
                 float(slack), max_paths_per_pair)
    with _PATH_CACHE_LOCK:
        cached = _PATH_CACHE.get(cache_key)
        if cached is not None:
            _count("path_cache_hits")
            _PATH_CACHE.move_to_end(cache_key)
            return PathCatalog(switch, list(cached))
    stored = _load_stored_catalog(switch, cache_key)
    if stored is not None:
        with _PATH_CACHE_LOCK:
            _count("path_cache_store_hits")
            _PATH_CACHE[cache_key] = stored
            _PATH_CACHE.move_to_end(cache_key)
            while len(_PATH_CACHE) > _PATH_CACHE_MAX:
                _PATH_CACHE.popitem(last=False)
        return PathCatalog(switch, list(stored))
    with _PATH_CACHE_LOCK:
        _count("path_cache_misses")
    pin_list = list(pins) if pins is not None else list(switch.pins)
    for p in pin_list:
        if not switch.is_pin(p):
            raise SwitchModelError(f"{p!r} is not a pin of {switch.name!r}")

    paths: List[Path] = []
    index = 0
    for src in pin_list:
        # Single-source shortest path lengths prune the simple-path search.
        dist = nx.single_source_dijkstra_path_length(switch.graph, src, weight="length")
        for dst in pin_list:
            if dst == src or dst not in dist:
                continue
            budget = dist[dst] + slack + 1e-9
            found: List[List[str]] = []
            if slack == 0:
                found = [list(v) for v in nx.all_shortest_paths(
                    switch.graph, src, dst, weight="length")]
            else:
                for vertices in _bounded_simple_paths(switch, src, dst, budget):
                    found.append(vertices)
            # Pins are terminals only: a candidate path must not route
            # *through* a third pin (pins have degree 1, so this cannot
            # happen on our models, but guard against exotic subclasses).
            found = [v for v in found
                     if all(not switch.is_pin(x) for x in v[1:-1])]
            found.sort(key=lambda v: (sum(
                switch.segments[segment_key(a, b)].length for a, b in zip(v, v[1:])), v))
            if max_paths_per_pair is not None:
                found = found[:max_paths_per_pair]
            for vertices in found:
                paths.append(path_from_vertices(switch, index, vertices))
                index += 1
    with _PATH_CACHE_LOCK:
        _PATH_CACHE[cache_key] = tuple(paths)
        _PATH_CACHE.move_to_end(cache_key)
        while len(_PATH_CACHE) > _PATH_CACHE_MAX:
            _PATH_CACHE.popitem(last=False)
    _store_catalog(cache_key, paths)
    return PathCatalog(switch, paths)


def _load_stored_catalog(switch: SwitchModel,
                         cache_key: tuple) -> Optional[Tuple[Path, ...]]:
    """Tier B read of a persistent catalog (None on miss/no store).

    Routes are rebuilt against *this* switch — vertices that do not
    form real channels raise inside :func:`path_from_vertices`, which
    quarantines the entry as corrupt instead of ever serving it.
    """
    from repro.store import active_store, artifact_key, decode_catalog

    store = active_store()
    if store is None:
        return None
    key = artifact_key("catalog", cache_key)
    payload = store.get(key, "catalog")
    if payload is None:
        return None
    try:
        return decode_catalog(switch, payload)
    except Exception:
        store.delete(key)
        return None


def _store_catalog(cache_key: tuple, paths: Sequence[Path]) -> None:
    """Tier B write-through of a fresh enumeration (never fails it)."""
    from repro.store import active_store, artifact_key, encode_catalog

    store = active_store()
    if store is None:
        return
    try:
        store.put(artifact_key("catalog", cache_key), "catalog",
                  encode_catalog(paths))
    except Exception:
        pass


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
