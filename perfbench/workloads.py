"""Seeded input streams and the verdict reference for every workload.

Each workload draws its inputs from one endless, seeded stream; the
same seed always yields the same specs in the same order. Streams are
stratified: every cycle visits each cell of the workload's feature grid
in a seeded order. That keeps the input mix identical between seeds, so
a run's medians move with the program rather than with the luck of the
draw.

Verdicts are keyed by the spec's content without its name (the name
embeds the generator seed), so one reference entry covers every draw of
the same structure, whichever seed produced it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cases import CASE_REGISTRY, generate_case
from repro.core.spec import BindingPolicy, SwitchSpec
from repro.io import spec_to_dict

#: The seed the stored reference was generated for (README.md names
#: the held-out seed kept for confirming later claims).
DEFAULT_SEED = 0

WORKLOADS = ("fixed_sweep", "exact_search", "bb_search", "service_mix")

#: fixed_sweep grid: crossbar pins x flows x conflict pairs.
FIXED_GRID = [(pins, flows, conflicts)
              for pins in (8, 12, 16)
              for flows in (3, 4, 5)
              for conflicts in (0, 1, 2)]
#: exact_search / bb_search grid on 8-pin, 2-flow crossbars (100
#: distinct structures in all): binding policy x conflict pairs, and
#: for the clockwise policy whether the module order makes the two flows
#: cross. Crossing decides the search effort: crossing clockwise cases
#: are the ones with a costlier optimum or a proof of infeasibility.
#: Clockwise cells are weighted as the structures split (64 do not
#: cross, 32 do); the 4 unfixed structures get one cell per conflict
#: count.
SEARCH_GRID = [(BindingPolicy.CLOCKWISE, conflicts, False)
               for conflicts in (0, 1) for _ in range(2)] \
    + [(BindingPolicy.CLOCKWISE, conflicts, True) for conflicts in (0, 1)] \
    + [(BindingPolicy.UNFIXED, conflicts, None) for conflicts in (0, 1)]
#: Inputs per stratified cycle; in-process runs end on a cycle boundary
#: so every run solves the same mix.
CYCLE = {"fixed_sweep": len(FIXED_GRID) + len(CASE_REGISTRY),
         "exact_search": 2 * len(SEARCH_GRID),
         "bb_search": 2 * len(SEARCH_GRID)}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def content_key(spec: SwitchSpec) -> str:
    """Digest of the spec's structure, ignoring its name."""
    data = spec_to_dict(spec)
    data.pop("name", None)
    canonical = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def fixed_stream(seed: int) -> Iterator[SwitchSpec]:
    """fixed_sweep inputs: every grid cell plus every application case
    once per cycle, all under the fixed binding policy."""
    rng = random.Random(f"fixed_sweep:{seed}")
    while True:
        cycle: List[Tuple[str, object]] = \
            [("grid", cell) for cell in FIXED_GRID] \
            + [("app", name) for name in sorted(CASE_REGISTRY)]
        rng.shuffle(cycle)
        for kind, item in cycle:
            if kind == "app":
                yield CASE_REGISTRY[item](BindingPolicy.FIXED)
                continue
            pins, flows, conflicts = item
            yield generate_case(
                rng.randrange(2 ** 31), switch_size=pins, n_flows=flows,
                n_inlets=2 if flows < 5 else 3, n_conflicts=conflicts,
                binding=BindingPolicy.FIXED)


def service_stream(seed: int) -> Iterator[SwitchSpec]:
    """service_mix inputs: the fixed_sweep stream without repeats.

    The platform deduplicates identical submissions on its journal, so
    a repeated application case would be answered as a journal replay
    rather than a store hit or a solve.
    """
    seen = set()
    for spec in fixed_stream(seed):
        key = (spec.name, content_key(spec))
        if key not in seen:
            seen.add(key)
            yield spec


def search_stream(seed: int) -> Iterator[SwitchSpec]:
    """exact_search inputs; bb_search works through a prefix of the
    same stream, so both workloads solve the same specs in order.

    Every cycle is the fixed :func:`search_panel` in a seeded order.
    Branch-and-bound effort differs up to 25-fold between structures of
    one grid cell (2 to 131 nodes, 0.1 to 3.2 s on a 2-core host), and a
    15 s run solves only about 30 of them. Drawn afresh per seed, the
    structures would set a run's medians more than the program does.
    """
    rng = random.Random(f"search:{seed}")
    panel = search_panel()

    def cycles() -> Iterator[SwitchSpec]:
        while True:
            cycle = list(panel)
            rng.shuffle(cycle)
            yield from cycle

    return cycles()


def search_panel() -> List[SwitchSpec]:
    """Two distinct structures per :data:`SEARCH_GRID` cell, drawn once
    from a fixed generator (16 specs, the same for every seed)."""
    rng = random.Random("search:panel")
    panel: Dict[str, SwitchSpec] = {}
    for policy, conflicts, cross in SEARCH_GRID:
        found = 0
        while found < 2:
            spec = generate_case(
                rng.randrange(2 ** 31), switch_size=8, n_flows=2,
                n_inlets=2, n_conflicts=conflicts, binding=policy)
            key = content_key(spec)
            if key not in panel and (cross is None
                                     or flows_cross(spec) == cross):
                panel[key] = spec
                found += 1
    return list(panel.values())


def flows_cross(spec: SwitchSpec) -> bool:
    """Whether the two flows' end points interleave in the clockwise
    module order, so their paths must cross inside the switch."""
    position = {m: i for i, m in enumerate(spec.module_order)}
    (a, b), (c, d) = [sorted((position[f.source], position[f.target]))
                      for f in spec.flows]
    return (a < c < b) != (a < d < b)


def stream(workload: str, seed: int) -> Iterator[SwitchSpec]:
    if workload == "fixed_sweep":
        return fixed_stream(seed)
    if workload == "service_mix":
        return service_stream(seed)
    return search_stream(seed)


def warmup_specs(workload: str) -> List[SwitchSpec]:
    """Inputs that absorb lazy set-up before timing (never timed).

    One cheap case per switch size and policy the workload uses. They
    are the same for every seed, so set-up time does not vary with the
    draw, and their names keep them apart from every timed input.
    """
    if workload in ("fixed_sweep", "service_mix"):
        return [generate_case(-pins, switch_size=pins, n_flows=3,
                              n_inlets=2, binding=BindingPolicy.FIXED)
                for pins in (8, 12, 16)]
    return [generate_case(seed, switch_size=8, n_flows=2, n_inlets=2,
                          binding=policy)
            for seed, policy in ((-2, BindingPolicy.CLOCKWISE),
                                 (-1, BindingPolicy.UNFIXED))]


# -- verdict reference ----------------------------------------------------

Verdict = Tuple[str, Optional[float]]


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Verdict]:
    data = json.loads(Path(path).read_text())
    return {key: (entry[0], entry[1]) for key, entry in data["verdicts"].items()}


def verdict_mismatch(reference: Dict[str, Verdict], spec: SwitchSpec,
                     status: str, objective: Optional[float]) -> Optional[str]:
    """Why a verdict disagrees with the reference (None when it agrees
    or the spec has no reference entry)."""
    expected = reference.get(content_key(spec))
    if expected is None:
        return None
    ref_status, ref_objective = expected
    if status != ref_status:
        return f"{spec.name}: status {status!r}, reference {ref_status!r}"
    if ref_objective is not None:
        if objective is None or abs(objective - ref_objective) \
                > 1e-6 * max(1.0, abs(ref_objective)):
            return (f"{spec.name}: objective {objective!r}, "
                    f"reference {ref_objective!r}")
    return None
