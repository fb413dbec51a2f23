"""Property-based tests: synthesis invariants over random generated cases.

Uses the artificial case generator and re-checks every invariant with
the independent verifier plus a few oracle comparisons (exact vs greedy,
and exact synthesis on two backends vs the model-free enumerator
:func:`repro.testing.brute_force`).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cases import generate_case
from repro.core import (
    BindingPolicy,
    SynthesisOptions,
    SynthesisStatus,
    synthesize,
    synthesize_greedy,
    verify_result,
)
from repro.core.verify import verify_contamination_freedom, verify_schedule
from repro.repair.engine import mask_spec, parse_faults
from repro.switches import CrossbarSwitch
from repro.testing import brute_force

FAST = SynthesisOptions(time_limit=30)

case_params = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10_000),
    "n_flows": st.integers(min_value=1, max_value=3),
    "n_inlets": st.integers(min_value=1, max_value=2),
    "n_conflicts": st.integers(min_value=0, max_value=2),
    "binding": st.sampled_from([BindingPolicy.FIXED]),
})


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case_params)
def test_synthesis_invariants_random_fixed_cases(params):
    """Any solved random fixed-binding case passes full verification;
    infeasible outcomes are accepted (random fixed maps can interleave
    conflicting flows)."""
    spec = generate_case(switch_size=8, **params)
    res = synthesize(spec, FAST)
    if res.status.solved:
        verify_result(res)
        # sets never exceed flows; L never exceeds the full switch
        assert 1 <= res.num_flow_sets <= len(spec.flows)
        assert res.flow_channel_length <= spec.switch.total_length() + 1e-9
    else:
        assert res.status in (SynthesisStatus.NO_SOLUTION,
                              SynthesisStatus.TIMEOUT)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_greedy_feasible_implies_exact_feasible(seed):
    """If the greedy heuristic finds a solution, the exact model must
    too, and at an objective at least as good."""
    spec_g = generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                           n_conflicts=1, binding=BindingPolicy.FIXED)
    greedy = synthesize_greedy(spec_g)
    if not greedy.status.solved:
        return
    spec_e = generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                           n_conflicts=1, binding=BindingPolicy.FIXED)
    exact = synthesize(spec_e, FAST)
    assert exact.status.solved
    greedy_obj = (spec_g.alpha * greedy.num_flow_sets
                  + spec_g.beta * greedy.flow_channel_length)
    assert exact.objective <= greedy_obj + 1e-6


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=5_000))
def test_unfixed_dominates_fixed(seed):
    """The unfixed policy explores a superset of the fixed policy's
    solutions, so its optimum is never worse."""
    fixed = generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                          n_conflicts=0, binding=BindingPolicy.FIXED)
    unfixed = generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                            n_conflicts=0, binding=BindingPolicy.UNFIXED)
    res_f = synthesize(fixed, FAST)
    res_u = synthesize(unfixed, FAST)
    assert res_u.status.solved
    if res_f.status.solved:
        assert res_u.objective <= res_f.objective + 1e-6


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=1),
       st.sampled_from(list(BindingPolicy)))
def test_exact_synthesis_matches_the_enumerator(seed, n_conflicts, binding):
    """Both exact backends reach the optimum the enumerator finds without
    the model: same status, same objective within 1e-6."""
    def spec():
        return generate_case(seed=seed, switch_size=8, n_flows=2,
                             n_inlets=2, n_conflicts=n_conflicts,
                             binding=binding)

    expected = brute_force(spec())
    for backend in ("highs", "branch_bound"):
        result = synthesize(spec(), SynthesisOptions(
            backend=backend, mip_gap=1e-9, time_limit=60, on_error="raise"))
        assert result.status is expected.status, backend
        if expected.status is SynthesisStatus.OPTIMAL:
            assert result.objective == pytest.approx(
                expected.objective, rel=1e-6), backend


@pytest.mark.parametrize("pin", CrossbarSwitch(8).pins)
def test_stuck_closed_pin_stub_matches_the_enumerator(pin):
    """The single-fault model of field-programmable valve arrays: a
    stuck-closed valve on one pin's stub leaves that pin with no live
    segment, and the free-binding model must skip its stub row."""
    (stub,) = CrossbarSwitch(8).segments_at(pin)
    spec = mask_spec(
        generate_case(0, switch_size=8, n_flows=2, n_inlets=2,
                      binding=BindingPolicy.UNFIXED),
        parse_faults(f"{stub.a}-{stub.b}:stuck_closed"))
    expected = brute_force(spec)
    result = synthesize(spec, SynthesisOptions(
        backend="highs", mip_gap=1e-9, time_limit=60, on_error="raise"))
    assert result.status is expected.status
    if expected.status is SynthesisStatus.OPTIMAL:
        assert result.objective == pytest.approx(expected.objective, rel=1e-6)


@pytest.mark.parametrize("binding", [BindingPolicy.UNFIXED,
                                     BindingPolicy.CLOCKWISE])
@pytest.mark.parametrize("seed", range(3))
def test_stuck_closed_arc_stubs_match_the_enumerator(seed, binding):
    """Two faults at once: stuck-closed valves on the stubs of T1 and T2,
    the 8-pin crossbar's fundamental arc. The fault breaks the rotation
    symmetry, so the model must not keep the first module in that arc,
    where it could no longer reach any flow."""
    switch = CrossbarSwitch(8)
    faults = ";".join(f"{s.a}-{s.b}:stuck_closed"
                      for pin in ("T1", "T2") for s in switch.segments_at(pin))
    spec = mask_spec(
        generate_case(seed, switch_size=8, n_flows=2, n_inlets=2,
                      binding=binding),
        parse_faults(faults))
    expected = brute_force(spec)
    result = synthesize(spec, SynthesisOptions(
        backend="highs", mip_gap=1e-9, time_limit=60, on_error="raise"))
    assert result.status is expected.status
    if expected.status is SynthesisStatus.OPTIMAL:
        assert result.objective == pytest.approx(expected.objective, rel=1e-6)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=5_000))
def test_removing_conflicts_never_hurts(seed):
    """Dropping all conflict constraints can only improve the optimum."""
    with_c = generate_case(seed=seed, switch_size=8, n_flows=3, n_inlets=2,
                           n_conflicts=2, binding=BindingPolicy.FIXED)
    without_c = generate_case(seed=seed, switch_size=8, n_flows=3, n_inlets=2,
                              n_conflicts=2, binding=BindingPolicy.FIXED,
                              conflicts=set())
    res_w = synthesize(with_c, FAST)
    res_o = synthesize(without_c, FAST)
    assert res_o.status.solved
    if res_w.status.solved:
        assert res_o.objective <= res_w.objective + 1e-6


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=3_000))
def test_larger_switch_never_worse_runtime_feasibility(seed):
    """§4.2 observation: the same case solves on both the 8-pin and the
    12-pin switch; feasibility carries over to the larger model."""
    small = generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                          n_conflicts=1, binding=BindingPolicy.UNFIXED)
    large = generate_case(seed=seed, switch_size=12, n_flows=2, n_inlets=2,
                          n_conflicts=1, binding=BindingPolicy.UNFIXED)
    res_s = synthesize(small, FAST)
    res_l = synthesize(large, FAST)
    if res_s.status.solved:
        assert res_l.status.solved
