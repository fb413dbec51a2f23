"""A model-free brute-force oracle for tiny synthesis specs.

:func:`brute_force` solves a :class:`~repro.core.spec.SwitchSpec` by
enumeration alone: it never builds the IQP of :mod:`repro.core.builder`
and never calls a solver. It scans every candidate the paper's problem
admits in ascending order of the eq. (3.7) objective and returns the
first one the independent verifier (:func:`repro.core.verify.verify_result`)
accepts:

1. bindings — the fixed map; under the clockwise policy every injective
   module→pin map whose pin indices along ``module_order`` wrap exactly
   once; under the unfixed policy every injective map;
2. routes — for each flow, every path of ``enumerate_paths(spec.switch)``
   between its two bound pins: the all-shortest-paths candidate set of
   §3.1, the same set the model draws from;
3. flow sets — every partition of the flows into at most
   ``spec.effective_max_sets()`` non-empty sets (the verifier does not
   check that cap, so the enumeration must);
4. score — ``alpha`` × the number of sets plus ``beta`` × the total
   length of the union of the used segments.

A wrong model row, a wrong linearization or a solver bug therefore
shows up as a disagreement between this function and every exact
backend. The enumeration is exponential by design, so a spec with more
than :data:`MAX_CANDIDATES` candidates is refused.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Dict, Iterator, List, Sequence

from repro.core.solution import SynthesisResult, SynthesisStatus
from repro.core.spec import BindingPolicy, ConflictForm, SwitchSpec
from repro.core.valves import analyze_valves
from repro.core.verify import verify_result
from repro.errors import SpecError, VerificationError
from repro.switches.paths import enumerate_paths
from repro.switches.reduce import reduce_switch

#: The most (binding, routes, flow sets) candidates :func:`brute_force`
#: will enumerate.
MAX_CANDIDATES = 10 ** 6


def _bindings(spec: SwitchSpec) -> Iterator[Dict[str, str]]:
    """Every module→pin map the spec's binding policy admits."""
    if spec.binding is BindingPolicy.FIXED:
        yield dict(spec.fixed_binding)
        return
    pins = spec.switch.pins  # in clockwise index order
    n = len(spec.modules)
    if spec.binding is BindingPolicy.CLOCKWISE:
        # The indices wrap exactly once iff the order is a rotation of
        # the chosen pins in ascending index order.
        order = spec.module_order
        for chosen in itertools.combinations(pins, n):
            for shift in range(n):
                yield {m: chosen[(i + shift) % n] for i, m in enumerate(order)}
        return
    for chosen in itertools.permutations(pins, n):
        yield dict(zip(spec.modules, chosen))


def _partitions(flow_ids: Sequence[int],
                max_sets: int) -> Iterator[List[List[int]]]:
    """Every partition of ``flow_ids`` into at most ``max_sets`` sets."""
    if not flow_ids:
        yield []
        return
    first = flow_ids[0]
    for part in _partitions(flow_ids[1:], max_sets):
        for i, group in enumerate(part):
            yield part[:i] + [[first] + group] + part[i + 1:]
        if len(part) < max_sets:
            yield [[first]] + part


def brute_force(spec: SwitchSpec) -> SynthesisResult:
    """Solve ``spec`` by exhaustive enumeration (see the module docstring).

    Returns an ``OPTIMAL`` result, or ``NO_SOLUTION`` when no candidate
    passes verification. Raises :class:`~repro.errors.SpecError` for a
    spec over :data:`MAX_CANDIDATES`, and for the aggregate conflict
    form, whose extra exclusions the verifier does not check.
    """
    start = time.perf_counter()
    if spec.conflict_form is not ConflictForm.PAIRWISE:
        raise SpecError(
            "brute_force enumerates the pairwise conflict form only")
    catalog = enumerate_paths(spec.switch)
    by_size: Dict[int, List[List[List[int]]]] = {}
    for part in _partitions(spec.flow_ids, spec.effective_max_sets()):
        by_size.setdefault(len(part), []).append(part)
    n_partitions = sum(len(parts) for parts in by_size.values())

    routings = []
    count = 0
    for binding in _bindings(spec):
        choices = [catalog.between(binding[f.source], binding[f.target])
                   for f in spec.flows]
        count += math.prod(len(c) for c in choices) * n_partitions
        if count > MAX_CANDIDATES:
            raise SpecError(
                f"{spec.name}: more than {MAX_CANDIDATES} candidates; "
                "brute_force is for tiny specs only")
        for paths in itertools.product(*choices):
            used = set().union(*(p.segments for p in paths))
            length = spec.switch.length_of(used)
            routings.append((length, len(routings), binding, paths))
    routings.sort(key=lambda r: r[:2])

    def scored(n_sets: int):
        for length, seq, binding, paths in routings:
            yield spec.alpha * n_sets + spec.beta * length, n_sets, seq, \
                binding, paths

    # One stream per set count, each ascending in score: their merge
    # visits every candidate in ascending score.
    candidates = heapq.merge(*(scored(k) for k in sorted(by_size)))
    for score, n_sets, _, binding, paths in candidates:
        flow_paths = {f.id: p for f, p in zip(spec.flows, paths)}
        used = set().union(*(p.segments for p in paths))
        for flow_sets in by_size[n_sets]:
            valves = analyze_valves(spec.switch, flow_paths, flow_sets)
            result = SynthesisResult(
                spec, SynthesisStatus.OPTIMAL, objective=score,
                binding=dict(binding), flow_paths=flow_paths,
                flow_sets=flow_sets, used_segments=used, valves=valves,
                reduced=reduce_switch(spec.switch, used, valves.essential),
                solver="brute_force")
            try:
                verify_result(result)
            except VerificationError:
                continue
            result.runtime = time.perf_counter() - start
            return result
    return SynthesisResult(spec, SynthesisStatus.NO_SOLUTION,
                           runtime=time.perf_counter() - start,
                           solver="brute_force")


__all__ = ["MAX_CANDIDATES", "brute_force"]
