"""Ablations over the design choices called out in DESIGN.md.

* scheduling encoding: the paper's K/k/q′ counters vs. the compact
  indicator encoding — identical optima, different solve times;
* node policy: the paper's major-node set vs. all intersections;
* conflict form: per-pair vs. the thesis' literal aggregate sum;
* solvers: HiGHS vs. our branch-and-bound on an identical small model,
  vs. the model-free enumerator that never builds the model;
* exact synthesis vs. the greedy heuristic.
"""

import pytest

from conftest import bench_options, run_once, write_report
from repro.analysis import format_table
from repro.cases import generate_case, nucleic_acid
from repro.core import (
    BindingPolicy,
    ConflictForm,
    NodePolicy,
    SchedulingForm,
    SynthesisStatus,
    synthesize,
    synthesize_greedy,
)
from repro.testing import brute_force

_rows = []


def _base_case(**overrides):
    # seed 61 is feasible under every node policy / conflict form, so
    # the ablations compare objectives instead of feasibility noise
    return generate_case(seed=61, switch_size=8, n_flows=3, n_inlets=2,
                         n_conflicts=1, binding=BindingPolicy.FIXED,
                         **overrides)


@pytest.mark.parametrize("form", list(SchedulingForm), ids=lambda f: f.value)
def test_ablation_scheduling_form(benchmark, form):
    spec = _base_case(scheduling_form=form)
    result = run_once(benchmark, synthesize, spec, bench_options())
    assert result.status is SynthesisStatus.OPTIMAL
    _rows.append({"ablation": f"scheduling={form.value}",
                  "objective": round(result.objective, 3),
                  "T(s)": round(result.runtime, 3)})


def test_ablation_scheduling_forms_same_optimum(benchmark):
    def solve_both():
        a = synthesize(_base_case(scheduling_form=SchedulingForm.PAPER),
                       bench_options())
        b = synthesize(_base_case(scheduling_form=SchedulingForm.COMPACT),
                       bench_options())
        return a, b

    a, b = run_once(benchmark, solve_both)
    assert a.objective == pytest.approx(b.objective)


@pytest.mark.parametrize("policy", list(NodePolicy), ids=lambda p: p.value)
def test_ablation_node_policy(benchmark, policy):
    spec = _base_case(node_policy=policy)
    result = run_once(benchmark, synthesize, spec, bench_options())
    assert result.status is SynthesisStatus.OPTIMAL
    _rows.append({"ablation": f"nodes={policy.value}",
                  "objective": round(result.objective, 3),
                  "T(s)": round(result.runtime, 3)})


def test_ablation_node_policy_all_is_stricter(benchmark):
    """ALL counts the corner intersections too, so its optimum is never
    better than the paper's relaxed node set."""
    def solve_both():
        relaxed = synthesize(_base_case(node_policy=NodePolicy.PAPER),
                             bench_options())
        strict = synthesize(_base_case(node_policy=NodePolicy.ALL),
                            bench_options())
        return relaxed, strict

    relaxed, strict = run_once(benchmark, solve_both)
    assert relaxed.status.solved
    if strict.status.solved:
        assert strict.objective >= relaxed.objective - 1e-6


@pytest.mark.parametrize("form", list(ConflictForm), ids=lambda f: f.value)
def test_ablation_conflict_form(benchmark, form):
    spec = _base_case(conflict_form=form)
    result = run_once(benchmark, synthesize, spec, bench_options())
    status = result.status.value
    obj = round(result.objective, 3) if result.status.solved else None
    _rows.append({"ablation": f"conflicts={form.value}",
                  "objective": obj, "T(s)": round(result.runtime, 3),
                  "status": status})


@pytest.mark.parametrize("solver", ["highs", "branch_bound", "brute_force"])
def test_ablation_solver_backends(benchmark, solver):
    """Both exact backends and the enumerator agree on a small
    fixed-binding case."""
    spec = generate_case(seed=5, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=1, binding=BindingPolicy.FIXED)
    if solver == "brute_force":
        result = run_once(benchmark, brute_force, spec)
    else:
        result = run_once(benchmark, synthesize, spec,
                          bench_options(backend=solver, time_limit=120))
    assert result.status is SynthesisStatus.OPTIMAL, solver
    _rows.append({"ablation": f"solver={solver}",
                  "objective": round(result.objective, 3),
                  "T(s)": round(result.runtime, 3)})
    seen = [r for r in _rows if r["ablation"].startswith("solver=")]
    objectives = {r["objective"] for r in seen}
    assert len(objectives) == 1, f"solvers disagree: {seen}"


@pytest.mark.parametrize("slack", [0.0, 2.0], ids=["shortest-only", "slack-2mm"])
def test_ablation_path_slack(benchmark, slack):
    """Detour routing (beyond the paper's shortest-only candidate set):
    enlarging the route pool never changes the optimum on this family —
    infeasibility is structural (corner sharing / planar interleaving),
    which validates the paper's §3.1 design choice."""
    from repro.core import SynthesisOptions

    spec = _base_case()
    result = run_once(benchmark, synthesize, spec,
                      bench_options(path_slack=slack))
    assert result.status is SynthesisStatus.OPTIMAL
    _rows.append({"ablation": f"path_slack={slack}",
                  "objective": round(result.objective, 3),
                  "T(s)": round(result.runtime, 3)})
    slack_rows = [r for r in _rows if r["ablation"].startswith("path_slack=")]
    assert len({r["objective"] for r in slack_rows}) == 1


def test_ablation_exact_vs_greedy(benchmark, output_dir):
    spec_exact = nucleic_acid(BindingPolicy.UNFIXED)
    spec_greedy = nucleic_acid(BindingPolicy.UNFIXED)

    def solve_both():
        return (synthesize(spec_exact, bench_options()),
                synthesize_greedy(spec_greedy))

    exact, greedy = run_once(benchmark, solve_both)
    assert exact.status.solved
    row = {"ablation": "exact vs greedy",
           "objective": round(exact.objective, 3),
           "T(s)": round(exact.runtime, 3)}
    if greedy.status.solved:
        greedy_obj = (spec_greedy.alpha * greedy.num_flow_sets
                      + spec_greedy.beta * greedy.flow_channel_length)
        assert exact.objective <= greedy_obj + 1e-6
        row["greedy objective"] = round(greedy_obj, 3)
    _rows.append(row)
    write_report(output_dir, "ablations", format_table(_rows))
