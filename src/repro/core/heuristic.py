"""Greedy heuristic synthesizer (baseline for the IQP ablations).

A fast, non-optimal counterpart of :func:`repro.core.synthesizer.synthesize`:

1. **Binding** — fixed: as given; clockwise: modules spread over the
   pins in the given order; unfixed: flow endpoints paired onto
   adjacent pins (source next to its first target), remaining modules
   filled in.
2. **Routing** — flows routed one by one on the shortest path that
   avoids the sites already claimed by conflicting flows.
3. **Scheduling** — first-fit coloring of the collision graph
   (two flows collide when they come from different inlets and their
   routed paths share a site).

The result is verified with the same independent verifier as the exact
synthesizer, so when the heuristic returns a solution it is a *valid*
one — just not necessarily minimal in channel length or set count.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.core.solution import SynthesisResult, SynthesisStatus
from repro.core.spec import BindingPolicy, NodePolicy, SwitchSpec
from repro.core.valves import analyze_valves
from repro.core.pressure import share_pressure
from repro.core.verify import verify_result
from repro.deadline import Deadline
from repro.switches.paths import Path, path_from_vertices
from repro.switches.reduce import reduce_switch


def synthesize_greedy(spec: SwitchSpec, verify: bool = True,
                      pressure_sharing: bool = True,
                      time_limit: Optional[float] = None) -> SynthesisResult:
    """Greedy synthesis; returns NO_SOLUTION when the heuristic fails.

    Failure does not prove infeasibility — it only means the greedy
    choices dead-ended (the exact synthesizer may still succeed).

    ``time_limit`` bounds the run: the heuristic checks the deadline
    between its stages and returns a TIMEOUT result instead of starting
    a stage it has no budget left for. Each stage is polynomial and
    fast, so the overshoot is at most one stage.
    """
    start = time.perf_counter()
    deadline = Deadline(time_limit)
    binding = _greedy_binding(spec)
    if binding is None:
        return SynthesisResult(spec, SynthesisStatus.NO_SOLUTION,
                               runtime=time.perf_counter() - start, solver="greedy")
    if deadline.expired():
        return SynthesisResult(spec, SynthesisStatus.TIMEOUT,
                               runtime=time.perf_counter() - start, solver="greedy")

    flow_paths = _greedy_routing(spec, binding)
    if flow_paths is None:
        return SynthesisResult(spec, SynthesisStatus.NO_SOLUTION,
                               runtime=time.perf_counter() - start, solver="greedy")
    if deadline.expired():
        return SynthesisResult(spec, SynthesisStatus.TIMEOUT,
                               runtime=time.perf_counter() - start, solver="greedy")

    flow_sets = _greedy_schedule(spec, flow_paths)
    used: Set[Tuple[str, str]] = set()
    for path in flow_paths.values():
        used.update(path.segments)

    result = SynthesisResult(
        spec=spec,
        status=SynthesisStatus.FEASIBLE,
        runtime=time.perf_counter() - start,
        binding=binding,
        flow_paths=flow_paths,
        flow_sets=flow_sets,
        used_segments=used,
        solver="greedy",
    )
    result.valves = analyze_valves(spec.switch, flow_paths, flow_sets)
    result.reduced = reduce_switch(spec.switch, used, result.valves.essential)
    if pressure_sharing and result.valves.essential:
        result.pressure = share_pressure(
            result.valves.status, valves=sorted(result.valves.essential),
            method="greedy",
        )
    if verify:
        verify_result(result)
    return result


# ----------------------------------------------------------------------
def _greedy_binding(spec: SwitchSpec) -> Optional[Dict[str, str]]:
    pins = spec.switch.pins
    if spec.binding is BindingPolicy.FIXED:
        return dict(spec.fixed_binding or {})
    if spec.binding is BindingPolicy.CLOCKWISE:
        order = spec.module_order or spec.modules
        # spread the modules evenly around the pin cycle
        step = len(pins) / len(order)
        binding = {}
        taken: Set[str] = set()
        for idx, m in enumerate(order):
            pin = pins[int(idx * step) % len(pins)]
            if pin in taken:
                return None
            binding[m] = pin
            taken.add(pin)
        return _into_symmetry_arc(spec, binding)
    # unfixed: put each source right before its targets around the cycle
    ordered: List[str] = []
    for f in spec.flows:
        if f.source not in ordered:
            ordered.append(f.source)
        if f.target not in ordered:
            ordered.append(f.target)
    for m in spec.modules:
        if m not in ordered:
            ordered.append(m)
    return _into_symmetry_arc(spec, {m: pins[i] for i, m in enumerate(ordered)})


def _into_symmetry_arc(spec: SwitchSpec, binding: Dict[str, str]) -> Dict[str, str]:
    """Rotate a free binding so the first module sits in the first arc.

    The exact model keeps only solutions whose first module is bound in
    the first ``n_pins // rotation_order`` pins (its rotation symmetry
    row). Rotating every pin by a multiple of that arc is a
    length-preserving automorphism of the switch, so the rotated binding
    is as good and stays usable as the exact solvers' warm start.
    """
    pins = spec.switch.pins
    rot = spec.switch.rotation_order
    if rot <= 1 or not spec.modules or spec.modules[0] not in binding:
        return binding
    arc = len(pins) // rot
    position = {p: i for i, p in enumerate(pins)}
    shift = position[binding[spec.modules[0]]] // arc * arc
    return {m: pins[(position[p] - shift) % len(pins)] for m, p in binding.items()}


def _constraint_nodes(spec: SwitchSpec, vertices) -> Set[str]:
    switch = spec.switch
    nodes = {v for v in vertices if not switch.is_pin(v)}
    if spec.node_policy is NodePolicy.PAPER:
        from repro.switches.base import MAJOR_KINDS
        nodes = {n for n in nodes if switch.kinds[n] in MAJOR_KINDS}
    return nodes


def _greedy_routing(spec: SwitchSpec,
                    binding: Dict[str, str]) -> Optional[Dict[int, Path]]:
    switch = spec.switch
    flow_paths: Dict[int, Path] = {}
    counter = itertools.count(10_000)  # synthetic path indices, unique per flow
    for f in spec.flows:
        src, dst = binding[f.source], binding[f.target]
        graph = switch.graph.copy()
        # forbid sites already claimed by conflicting flows
        for other in spec.conflicts_of(f.id):
            if other not in flow_paths:
                continue
            other_path = flow_paths[other]
            for n in _constraint_nodes(spec, other_path.vertices):
                if n in graph and n not in (src, dst):
                    graph.remove_node(n)
            for a, b in other_path.segments:
                if graph.has_edge(a, b):
                    graph.remove_edge(a, b)
        # pins other than the endpoints are dead ends anyway (degree 1)
        try:
            vertices = nx.shortest_path(graph, src, dst, weight="length")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None
        flow_paths[f.id] = path_from_vertices(switch, next(counter), vertices)
    return flow_paths


def _greedy_schedule(spec: SwitchSpec,
                     flow_paths: Dict[int, Path]) -> List[List[int]]:
    source_of = {f.id: f.source for f in spec.flows}

    def collide(i: int, j: int) -> bool:
        if source_of[i] == source_of[j]:
            return False
        pi, pj = flow_paths[i], flow_paths[j]
        if _constraint_nodes(spec, pi.vertices) & _constraint_nodes(spec, pj.vertices):
            return True
        return bool(set(pi.segments) & set(pj.segments))

    sets: List[List[int]] = []
    for f in spec.flows:
        for group in sets:
            if all(not collide(f.id, other) for other in group):
                group.append(f.id)
                break
        else:
            sets.append([f.id])
    return [sorted(g) for g in sets]


# ----------------------------------------------------------------------
def model_assignment(built, result: SynthesisResult):
    """Map a greedy result onto a built model's variables.

    Returns a complete ``{Var: value}`` assignment suitable as a warm
    start for the exact solvers, or ``None`` when the greedy solution is
    not representable in the model (a routed path missing from the path
    catalog, a set assignment outside the symmetry-broken ``w`` grid, a
    binding that is not clockwise in the required order). The caller
    re-validates the assignment against the model's constraints, so this
    function only needs to be *complete*, not to re-prove feasibility.
    """
    if result.status is not SynthesisStatus.FEASIBLE:
        return None
    if not result.binding or not result.flow_paths:
        return None
    spec = built.spec
    switch = spec.switch
    values: Dict[object, float] = {}

    def path_sites(p: Path) -> Set[Tuple[str, object]]:
        nodes = p.major_nodes(switch) if spec.node_policy is NodePolicy.PAPER \
            else p.nodes
        sites: Set[Tuple[str, object]] = {("node", n) for n in nodes}
        sites.update(("seg", k) for k in p.segments)
        return sites

    # Path choice: match each routed path to a catalog candidate by
    # endpoints and segment set (greedy paths carry synthetic indices).
    chosen: Dict[int, Path] = {}
    for f in spec.flows:
        g = result.flow_paths.get(f.id)
        if g is None:
            return None
        match = next(
            (p for p in built.allowed_paths[f.id]
             if p.source_pin == g.source_pin and p.target_pin == g.target_pin
             and p.segments == g.segments),
            None,
        )
        if match is None:
            return None
        chosen[f.id] = match
    for (fid, pidx), var in built.x.items():
        values[var] = 1.0 if chosen[fid].index == pidx else 0.0
    for (m, pin), var in built.y.items():
        values[var] = 1.0 if result.binding.get(m) == pin else 0.0
    site_cache = {fid: path_sites(p) for fid, p in chosen.items()}
    for (fid, site), var in built.a.items():
        values[var] = 1.0 if site in site_cache[fid] else 0.0

    set_of: Dict[int, int] = {}
    for s, group in enumerate(result.flow_sets):
        for fid in group:
            set_of[fid] = s
    if built.w:
        for fid, s in set_of.items():
            if (fid, s) not in built.w:
                return None
    for (fid, s), var in built.w.items():
        if fid not in set_of:
            return None
        values[var] = 1.0 if set_of[fid] == s else 0.0
    for s, var in built.u.items():
        values[var] = 1.0 if s < len(result.flow_sets) else 0.0
    used = {k for p in chosen.values() for k in p.segments}
    for key, var in built.used.items():
        values[var] = 1.0 if key in used else 0.0

    # Scheduling counters follow directly from the chosen paths/sets.
    source_of = {f.id: f.source for f in spec.flows}

    def k_count(m: str, site, s: int) -> float:
        return float(sum(
            1 for fid in chosen
            if source_of[fid] == m and set_of.get(fid) == s
            and site in site_cache[fid]
        ))

    for (m, site, s), var in built.sched_k.items():
        values[var] = k_count(m, site, s)
    for (site, s), var in built.sched_K.items():
        values[var] = sum(
            values[kvar] for (m2, site2, s2), kvar in built.sched_k.items()
            if site2 == site and s2 == s
        )
    for (m, site, s), var in built.sched_q.items():
        values[var] = 1.0 if values[built.sched_k[(m, site, s)]] == 0.0 else 0.0
    for (m, site, s), var in built.sched_b.items():
        values[var] = 1.0 if k_count(m, site, s) > 0 else 0.0

    # Clockwise auxiliaries: the wrap indicator must single out exactly
    # one descent in the cyclic pin sequence, which holds iff the
    # binding really is clockwise in the required order.
    if built.pin_index_var:
        for m, var in built.pin_index_var.items():
            pin = result.binding.get(m)
            if pin is None:
                return None
            values[var] = float(switch.pin_index(pin))
    if built.wrap_q:
        order = list(spec.module_order or [])
        if len(order) <= 1:
            for var in built.wrap_q.values():
                values[var] = 1.0
        else:
            wraps = []
            for idx, m_a in enumerate(order):
                m_b = order[(idx + 1) % len(order)]
                pa = switch.pin_index(result.binding[m_a])
                pb = switch.pin_index(result.binding[m_b])
                wraps.append(1.0 if pa >= pb else 0.0)
            if sum(wraps) != 1.0:
                return None
            for idx, m_a in enumerate(order):
                values[built.wrap_q[m_a]] = wraps[idx]
    return values
