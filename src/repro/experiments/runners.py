"""Programmatic reproduction of the paper's experiments.

Each runner regenerates one table or figure of the evaluation section
and returns an :class:`~repro.experiments.report.ExperimentReport`;
``python -m repro.experiments <name>`` drives them from the command
line. The pytest-benchmark harness in ``benchmarks/`` additionally
asserts the expected shapes; these runners are the user-facing path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.analysis import (
    analyze_contamination,
    baseline_report,
    routing_space_report,
    wash_plan_for_result,
)
from repro.cases import (
    chip_sw1,
    chip_sw2,
    example_4_2,
    kinase_sw1,
    kinase_sw2,
    mrna_isolation,
    nucleic_acid,
    suite_90,
)
from repro.control import control_strategy_rows
from repro.core import BindingPolicy, SynthesisOptions, synthesize
from repro.experiments.report import ExperimentReport
from repro.opt.incremental import SolveContext
from repro.render import render_result, save_svg
from repro.sim import estimate_execution_time, simulate
from repro.switches import CrossbarSwitch, GRUSwitch, SpineSwitch

POLICIES = [BindingPolicy.CLOCKWISE, BindingPolicy.FIXED, BindingPolicy.UNFIXED]


def _options(time_limit: float,
             backend: Optional[str] = None) -> SynthesisOptions:
    opts = SynthesisOptions(time_limit=time_limit)
    if backend:
        # Free-form spec: plain names and worker-count forms such as
        # "parallel_bb:4" both resolve through the backend registry.
        opts.backend = backend
    return opts


def run_table_4_1(time_limit: float = 60,
                  outdir: Optional[Union[str, Path]] = None,
                  backend: Optional[str] = None) -> ExperimentReport:
    """Table 4.1 — contamination-avoidance cases under all policies."""
    report = ExperimentReport("table_4_1", "Table 4.1 — contamination avoidance")
    # One context per report: each case's three policy variants differ
    # structurally, but repeated runs and policy-internal re-solves
    # share compiled models and warm starts through it.
    context = SolveContext()
    for factory in (chip_sw1, nucleic_acid, mrna_isolation):
        for policy in POLICIES:
            spec = factory(policy)
            result = synthesize(spec, _options(time_limit, backend),
                                context=context)
            report.rows.append(result.table_row())
            if result.status.solved:
                check = analyze_contamination(
                    spec.switch, result.flow_paths, spec.conflicts)
                if not check.is_contamination_free:
                    report.note(f"!! {spec.name}/{policy.value} contaminated")
    report.note("paper: ChIP solves under all policies; nucleic acid and "
                "mRNA only under unfixed")
    if outdir:
        report.save(outdir)
    return report


def run_table_4_2(time_limit: float = 300,
                  outdir: Optional[Union[str, Path]] = None,
                  backend: Optional[str] = None) -> ExperimentReport:
    """Table 4.2 / Figure 4.4 — the flow-scheduling example."""
    report = ExperimentReport("table_4_2", "Table 4.2 — scheduling example")
    report.add_row(source="paper", **{"#s": 3, "#v": 15, "L(mm)": 21.2})
    result = synthesize(example_4_2(), _options(time_limit, backend))
    if result.status.solved:
        report.add_row(source="measured", **{
            "#s": result.num_flow_sets,
            "#v": result.num_valves,
            "L(mm)": round(result.flow_channel_length, 1),
        })
        timing = estimate_execution_time(result)
        report.note(f"estimated routing time: {timing.summary()}")
        if outdir:
            path = Path(outdir) / "fig_4_4_example.svg"
            save_svg(render_result(result), path)
            report.artifacts.append(str(path))
    else:
        report.note(f"solver: {result.status.value}")
    if outdir:
        report.save(outdir)
    return report


def run_table_4_3(time_limit: float = 60, include_heavy: bool = False,
                  outdir: Optional[Union[str, Path]] = None,
                  backend: Optional[str] = None) -> ExperimentReport:
    """Table 4.3 — binding-policy comparison."""
    report = ExperimentReport("table_4_3", "Table 4.3 — binding policies")
    context = SolveContext()
    for factory in (kinase_sw1, kinase_sw2, chip_sw1, chip_sw2):
        for policy in POLICIES:
            if factory is chip_sw2 and policy is not BindingPolicy.FIXED \
                    and not include_heavy:
                continue
            result = synthesize(factory(policy), _options(time_limit, backend),
                                context=context)
            report.rows.append(result.table_row())
    report.note("paper shape: fixed fastest & longest L; clockwise/unfixed "
                "equal optimal L; runtime grows with #modules")
    if outdir:
        report.save(outdir)
    return report


def run_figures_4_1_4_2(time_limit: float = 60,
                        outdir: Union[str, Path] = "experiment_output",
                        backend: Optional[str] = None) -> ExperimentReport:
    """Figures 4.1 and 4.2 — synthesized switches vs. spine baselines."""
    report = ExperimentReport("figures_4_1_4_2",
                              "Figures 4.1/4.2 — proposed vs spine")
    outdir = Path(outdir)
    for factory in (chip_sw1, nucleic_acid, mrna_isolation):
        spec = factory(BindingPolicy.UNFIXED)
        result = synthesize(spec, _options(time_limit, backend))
        if result.status.solved:
            path = outdir / f"{report.name}_{factory.__name__}.svg"
            outdir.mkdir(parents=True, exist_ok=True)
            save_svg(render_result(result), path)
            report.artifacts.append(str(path))
            report.add_row(panel=f"proposed/{factory.__name__}",
                           **{"contamination-free": True})
        spine = SpineSwitch(len(spec.modules))
        base = baseline_report(spine, spec)
        report.add_row(panel=f"spine/{factory.__name__}",
                       **{"contamination-free": base.is_contamination_free})
    report.save(outdir)
    return report


def run_artificial(count: int = 18, time_limit: float = 20,
                   outdir: Optional[Union[str, Path]] = None,
                   backend: Optional[str] = None) -> ExperimentReport:
    """§4.2 — the artificial scheduling suite (subset by default).

    ``backend`` can parallelize *within* each solve (``"parallel_bb:4"``);
    :func:`repro.experiments.run_batch` fans independent cases out over
    processes.
    """
    report = ExperimentReport("artificial", "§4.2 — artificial cases")
    specs = suite_90()
    step = max(1, len(specs) // count)
    options = _options(time_limit, backend)
    solved = crashed = 0
    for spec in specs[::step]:
        # A crash becomes an error row: one crashing case must not
        # discard the rows of the others.
        try:
            result = synthesize(spec, options)
        except Exception as exc:
            crashed += 1
            report.rows.append({
                "case": spec.name,
                "#m": len(spec.modules),
                "sw. size": spec.switch.size_label,
                "binding": spec.binding.value,
                "result": "error",
                "error": f"{type(exc).__name__}: {exc}",
            })
            continue
        report.rows.append(result.table_row())
        if result.status.solved:
            solved += 1
    failed = len(report.rows) - solved
    report.note(f"solved {solved}, failed {failed} of {solved + failed} run")
    if crashed:
        report.note(f"!! {crashed} case(s) crashed (see their 'error' column)")
    if outdir:
        report.save(outdir)
    return report


def run_routing_space(outdir: Optional[Union[str, Path]] = None
                      ) -> ExperimentReport:
    """§2.1 — quantitative routing-space comparison."""
    report = ExperimentReport("routing_space", "§2.1 — routing space")
    for switch in (CrossbarSwitch(8), GRUSwitch(8), SpineSwitch(8)):
        report.rows.append(routing_space_report(switch).row())
    if outdir:
        report.save(outdir)
    return report


def run_dynamic_validation(time_limit: float = 60,
                           outdir: Optional[Union[str, Path]] = None,
                           backend: Optional[str] = None) -> ExperimentReport:
    """Beyond the paper — execute every solved case in the simulator."""
    report = ExperimentReport("dynamic", "dynamic validation")
    context = SolveContext()
    for factory, policy in ((chip_sw1, BindingPolicy.FIXED),
                            (nucleic_acid, BindingPolicy.UNFIXED),
                            (mrna_isolation, BindingPolicy.UNFIXED)):
        spec = factory(policy)
        result = synthesize(spec, _options(time_limit, backend),
                            context=context)
        if not result.status.solved:
            report.add_row(case=spec.name, outcome=result.status.value)
            continue
        sim = simulate(result)
        wash = wash_plan_for_result(result)
        report.add_row(
            case=spec.name,
            outcome="clean" if sim.is_clean else sim.summary(),
            **{"wash phases": wash.num_phases},
        )
    if outdir:
        report.save(outdir)
    return report


#: Registry used by the CLI.
RUNNERS: Dict[str, Callable[..., ExperimentReport]] = {
    "table_4_1": run_table_4_1,
    "table_4_2": run_table_4_2,
    "table_4_3": run_table_4_3,
    "figures": run_figures_4_1_4_2,
    "artificial": run_artificial,
    "routing_space": run_routing_space,
    "dynamic": run_dynamic_validation,
}
