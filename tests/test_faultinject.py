"""Fault injection: the degradation ladder and the verifier's last line.

Every test drives the *real* pipeline through a registered
:class:`~repro.testing.FaultyBackend`, so the behaviors proven here —
crash→greedy-fallback, corrupt→VerificationError, timeout→degrade —
are the production code paths, not mocks.
"""

import pytest

from repro.cases import generate_case
from repro.core import (
    ERROR_POLICIES,
    BindingPolicy,
    SynthesisOptions,
    SynthesisStatus,
    synthesize,
)
from repro.errors import (
    InjectedFaultError,
    ReproError,
    SolverError,
    VerificationError,
)
from repro.opt.solvers import (
    available_backends,
    check_backend_name,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.testing import FaultPlan, FaultyBackend, install_faulty_backend

#: Assignment variables (paths x_, binding y_, set membership w_) —
#: zeroing one of these corrupts the extracted design; auxiliaries
#: would only perturb bookkeeping the extractor ignores.
ASSIGNMENT_VARS = r"^(x_|y_|w_)"


def good_spec():
    """A small fixed-binding case that solves OPTIMAL in well under 1s."""
    return generate_case(seed=5, switch_size=8, n_flows=3, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def opts(policy="degrade", **kw):
    kw.setdefault("backend", "faulty")
    kw.setdefault("time_limit", 60)
    return SynthesisOptions(on_error=policy, **kw)


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------
def test_plan_schedule_consumed_in_order_then_quiet():
    plan = FaultPlan(schedule=["crash", None, "corrupt"])
    assert [plan.draw() for _ in range(5)] == \
        ["crash", None, "corrupt", None, None]


def test_plan_rates_are_seed_deterministic():
    a = FaultPlan(seed=7, crash=0.3, timeout=0.3, corrupt=0.3)
    b = FaultPlan(seed=7, crash=0.3, timeout=0.3, corrupt=0.3)
    assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]


def test_plan_rejects_bad_rates_and_kinds():
    with pytest.raises(ReproError):
        FaultPlan(crash=1.5)
    with pytest.raises(ReproError):
        FaultPlan(crash=0.6, timeout=0.6)
    with pytest.raises(ReproError):
        FaultPlan(schedule=["explode"])


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
def test_register_resolve_unregister_roundtrip():
    marker = FaultyBackend(inner="branch_bound")
    register_backend("marker", lambda: marker)
    try:
        assert get_backend("marker") is marker
        assert available_backends()["marker"] is True
    finally:
        unregister_backend("marker")
    with pytest.raises(ReproError):
        get_backend("marker")


def test_register_cannot_shadow_builtin():
    with pytest.raises(ReproError):
        register_backend("highs", lambda: FaultyBackend())
    with pytest.raises(ReproError):
        register_backend("auto", lambda: FaultyBackend())


def test_register_duplicate_needs_replace():
    register_backend("dup", lambda: FaultyBackend())
    try:
        with pytest.raises(ReproError):
            register_backend("dup", lambda: FaultyBackend())
        register_backend("dup", lambda: FaultyBackend(), replace=True)
    finally:
        unregister_backend("dup")


# ----------------------------------------------------------------------
# the degradation ladder, end to end
# ----------------------------------------------------------------------
def test_no_faults_is_a_transparent_passthrough():
    baseline = synthesize(good_spec(), SynthesisOptions(time_limit=60))
    assert baseline.status is SynthesisStatus.OPTIMAL
    with install_faulty_backend(plan=FaultPlan()) as wrapper:
        result = synthesize(good_spec(), opts())
    assert result.status is SynthesisStatus.OPTIMAL
    assert result.objective == pytest.approx(baseline.objective)
    assert result.binding == baseline.binding
    assert result.flow_paths == baseline.flow_paths
    assert "degraded" not in result.counters
    assert set(wrapper.injected) == {"none"}


def test_crash_degrades_to_validated_greedy():
    with install_faulty_backend(plan=FaultPlan(schedule=["crash"])):
        result = synthesize(good_spec(), opts("degrade"))
    assert result.status is SynthesisStatus.FEASIBLE
    assert result.solver == "greedy(degraded)"
    assert result.counters.get("degraded") == 1
    assert "InjectedFaultError" in result.error


def test_crash_captured_as_error_row():
    with install_faulty_backend(plan=FaultPlan(schedule=["crash"])):
        result = synthesize(good_spec(), opts("capture"))
    assert result.status is SynthesisStatus.ERROR
    assert not result.status.solved
    assert "InjectedFaultError" in result.error


def test_crash_propagates_under_raise_policy():
    with install_faulty_backend(plan=FaultPlan(schedule=["crash"])):
        with pytest.raises(InjectedFaultError):
            synthesize(good_spec(), opts("raise"))


def test_injected_timeout_degrades():
    with install_faulty_backend(plan=FaultPlan(schedule=["timeout"])):
        result = synthesize(good_spec(), opts("degrade"))
    assert result.status is SynthesisStatus.FEASIBLE
    assert result.solver == "greedy(degraded)"
    assert result.counters.get("degraded") == 1


def test_pressure_phase_crash_degrades_only_the_cover():
    # First solve clean, second (the pressure ILP) crashes: the main
    # result must stay OPTIMAL with a greedy cover substituted.
    with install_faulty_backend(plan=FaultPlan(schedule=[None, "crash"])):
        result = synthesize(good_spec(), opts("degrade"))
    assert result.status is SynthesisStatus.OPTIMAL
    assert result.counters.get("pressure_degraded") == 1
    assert result.pressure is not None
    assert result.pressure.degraded
    assert result.pressure.method == "greedy"


# ----------------------------------------------------------------------
# corruption vs the verifier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_every_corruption_is_caught_by_the_verifier(seed):
    """No corrupted assignment survives: verify_result always raises."""
    plan = FaultPlan(seed=seed, schedule=["corrupt"])
    with install_faulty_backend(plan=plan, corrupt_vars=ASSIGNMENT_VARS):
        with pytest.raises(VerificationError):
            synthesize(good_spec(), opts("raise"))


def test_corruption_under_degrade_falls_back_to_greedy():
    plan = FaultPlan(schedule=["corrupt"])
    with install_faulty_backend(plan=plan, corrupt_vars=ASSIGNMENT_VARS):
        result = synthesize(good_spec(), opts("degrade"))
    assert result.status is SynthesisStatus.FEASIBLE
    assert result.solver == "greedy(degraded)"
    assert "VerificationError" in result.error


def test_fixed_seed_fault_runs_are_reproducible():
    def run():
        plan = FaultPlan(seed=11, crash=0.3, corrupt=0.3)
        with install_faulty_backend(plan=plan,
                                    corrupt_vars=ASSIGNMENT_VARS) as w:
            result = synthesize(good_spec(), opts("degrade"))
            return result.status, result.solver, result.objective, w.injected

    first, second = run(), run()
    assert first == second


# ----------------------------------------------------------------------
# backend names are checked before anything runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["nope", "portfolio", "backtrack",
                                  "parallel_bb:0"])
def test_unknown_backend_name_raises_under_every_policy(name):
    """A misspelt or deleted backend name is a caller error: it must not
    degrade to the greedy heuristic or come back as an error row."""
    for policy in ERROR_POLICIES:
        with pytest.raises(SolverError):
            synthesize(good_spec(), opts(policy, backend=name))


def test_registered_and_builtin_names_pass_the_check():
    for name in ("auto", "highs", "branch_bound", "parallel_bb",
                 "parallel_bb:2"):
        check_backend_name(name)
    with install_faulty_backend():
        result = synthesize(good_spec(), opts("raise"))
    assert result.status is SynthesisStatus.OPTIMAL


# ----------------------------------------------------------------------
# the event stream sees every fired fault
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["crash", "timeout", "corrupt"])
def test_fired_faults_emit_typed_events(kind):
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with install_faulty_backend(plan=FaultPlan(schedule=[kind])):
        with use_tracer(tracer):
            try:
                synthesize(good_spec(), opts("degrade"))
            except ReproError:
                pass  # only the telemetry is under test here
    fired = [r for r in tracer.records(with_metrics=False)
             if r["type"] == "event" and r["name"] == "fault_injected"]
    assert len(fired) == 1
    attrs = fired[0]["attrs"]
    assert attrs["kind"] == kind
    assert attrs["solve"] == 1
    assert "backend" in attrs and "model" in attrs
    # the degradation the fault provoked is visible in the same stream
    if kind in ("crash", "timeout"):
        degrades = [r for r in tracer.records(with_metrics=False)
                    if r["type"] == "event" and r["name"] == "degrade"]
        assert degrades and degrades[0]["attrs"]["where"] == "synthesize"


def test_unfired_plan_emits_no_fault_events():
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with install_faulty_backend(plan=FaultPlan()):
        with use_tracer(tracer):
            synthesize(good_spec(), opts())
    assert not [r for r in tracer.records(with_metrics=False)
                if r["type"] == "event" and r["name"] == "fault_injected"]
