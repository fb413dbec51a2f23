"""Synthesis result types (the paper's problem output, §2.3)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.spec import SwitchSpec
from repro.perf import PhaseTimings
from repro.switches.paths import Path
from repro.switches.reduce import ReducedSwitch


class SynthesisStatus(enum.Enum):
    """Outcome of a synthesis run."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"        # incumbent found but optimality unproven
    NO_SOLUTION = "no solution"  # proven infeasible (as in Table 4.1)
    TIMEOUT = "timeout"          # stopped with no incumbent
    ERROR = "error"              # captured crash (on_error="capture")

    @property
    def solved(self) -> bool:
        return self in (SynthesisStatus.OPTIMAL, SynthesisStatus.FEASIBLE)


@dataclass
class ValveAnalysis:
    """Essential-valve identification and per-set status sequences (§3.5).

    ``status`` maps every valve on a *used* segment to its sequence over
    the flow sets, each entry one of ``"O"`` (open), ``"C"`` (closed) or
    ``"X"`` (don't care). A valve is *essential* iff it must close in at
    least one flow set.
    """

    status: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    essential: Set[Tuple[str, str]] = field(default_factory=set)

    @property
    def num_essential(self) -> int:
        return len(self.essential)

    def sequence(self, a: str, b: str) -> List[str]:
        key = (a, b) if a <= b else (b, a)
        return self.status[key]


@dataclass
class PressureSharingResult:
    """Valve groups able to share one pressure source each (§3.5)."""

    groups: List[List[Tuple[str, str]]]
    method: str  # "ilp" or "greedy"
    #: True when the ILP was requested but timed out (or crashed) and
    #: the greedy cover was substituted; the grouping is then valid but
    #: possibly not minimum.
    degraded: bool = False

    @property
    def num_control_inlets(self) -> int:
        return len(self.groups)

    def group_of(self, valve: Tuple[str, str]) -> int:
        for idx, group in enumerate(self.groups):
            if valve in group:
                return idx
        raise KeyError(f"valve {valve} not covered by any pressure group")


@dataclass
class SynthesisResult:
    """Everything the paper reports for one synthesized switch.

    Mirrors §2.3's output list: parallel-executable flow sets, routing
    paths, module-pin binding, used channels with total length, kept
    valves with pressure-sharing groups, and the program runtime.
    """

    spec: SwitchSpec
    status: SynthesisStatus
    runtime: float = 0.0
    objective: Optional[float] = None
    binding: Dict[str, str] = field(default_factory=dict)          # module -> pin
    flow_paths: Dict[int, Path] = field(default_factory=dict)      # flow id -> path
    flow_sets: List[List[int]] = field(default_factory=list)       # set -> flow ids
    used_segments: Set[Tuple[str, str]] = field(default_factory=set)
    valves: Optional[ValveAnalysis] = None
    pressure: Optional[PressureSharingResult] = None
    reduced: Optional[ReducedSwitch] = None
    solver: str = ""
    #: Wall-clock breakdown by pipeline phase (catalog / build /
    #: linearize / presolve / solve / extract / analyze / verify).
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: Search statistics from the solver backend (nodes, lp_calls,
    #: lp_iterations, cuts, incumbent_seeded, resolve_cache_hit, ...).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Why the run failed or degraded: the captured exception text for
    #: ``status=ERROR`` results, or the original failure that the
    #: degradation ladder recovered from (``None`` on clean runs).
    error: Optional[str] = None

    # -- the metrics of Tables 4.1-4.3 -----------------------------------
    @property
    def flow_channel_length(self) -> float:
        """L — total used flow channel length, mm."""
        return self.spec.switch.length_of(self.used_segments)

    @property
    def num_flow_sets(self) -> int:
        """#s — number of parallel-executable flow sets."""
        return len(self.flow_sets)

    @property
    def num_valves(self) -> int:
        """#v — essential valves kept in the reduced switch."""
        return self.valves.num_essential if self.valves else 0

    @property
    def num_control_inlets(self) -> Optional[int]:
        return self.pressure.num_control_inlets if self.pressure else None

    def set_of_flow(self, fid: int) -> int:
        for idx, group in enumerate(self.flow_sets):
            if fid in group:
                return idx
        raise KeyError(f"flow {fid} is not scheduled")

    def pin_of(self, module: str) -> str:
        return self.binding[module]

    def table_row(self) -> Dict[str, object]:
        """One row in the style of the paper's result tables."""
        if not self.status.solved:
            return {
                "case": self.spec.name,
                "#m": len(self.spec.modules),
                "sw. size": self.spec.switch.size_label,
                "binding": self.spec.binding.value,
                "T(s)": round(self.runtime, 3),
                "result": self.status.value,
            }
        return {
            "case": self.spec.name,
            "#m": len(self.spec.modules),
            "sw. size": self.spec.switch.size_label,
            "binding": self.spec.binding.value,
            "T(s)": round(self.runtime, 3),
            "L(mm)": round(self.flow_channel_length, 2),
            "#v": self.num_valves,
            "#s": self.num_flow_sets,
        }

    def __repr__(self) -> str:
        if not self.status.solved:
            return f"SynthesisResult({self.spec.name!r}, {self.status.value})"
        return (
            f"SynthesisResult({self.spec.name!r}, {self.status.value}, "
            f"L={self.flow_channel_length:.1f}mm, #v={self.num_valves}, "
            f"#s={self.num_flow_sets}, T={self.runtime:.2f}s)"
        )
