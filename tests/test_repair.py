"""Tests for fault-aware self-healing synthesis (repro.repair).

Covers the compact fault syntax, fault detection through the tick
engine, the repair loop (masking, re-synthesis, verification), the
determinism contract across parallel_bb worker counts, and the verdict
when a mask leaves a repair no solution.
"""

import pytest

from repro.cases import generate_case
from repro.core import (
    BindingPolicy,
    SynthesisOptions,
    SynthesisStatus,
    synthesize,
)
from repro.core.verify import verify_result
from repro.errors import RepairError
from repro.repair import (
    as_mask,
    detect_faults,
    mask_spec,
    parse_faults,
    repair,
)
from repro.sim.faults import FaultKind, ValveFault, stuck_closed

OPTS = SynthesisOptions(time_limit=60)


def solved_case(seed=0, **kwargs):
    kwargs.setdefault("switch_size", 8)
    kwargs.setdefault("n_flows", 2)
    kwargs.setdefault("n_inlets", 2)
    kwargs.setdefault("n_conflicts", 0)
    kwargs.setdefault("binding", BindingPolicy.FIXED)
    spec = generate_case(seed=seed, **kwargs)
    result = synthesize(spec, OPTS)
    assert result.status.solved
    return result


def internal_used_segment(result):
    """A routed segment whose endpoints are both junctions, so masking
    it forces a reroute without stranding a bound pin."""
    switch = result.spec.switch
    return next(k for k in sorted(result.used_segments)
                if not switch.is_pin(k[0]) and not switch.is_pin(k[1]))


# ----------------------------------------------------------------------
# fault syntax
# ----------------------------------------------------------------------
def test_parse_faults_full_syntax():
    faults = parse_faults("T1-TL:stuck_closed; C-L:blocked@2 ;A-B:open")
    assert [f.kind for f in faults] == [
        FaultKind.STUCK_CLOSED, FaultKind.BLOCKED_SEGMENT,
        FaultKind.STUCK_OPEN]
    assert faults[1].segment == ("C", "L")
    assert faults[1].onset == 2
    assert faults[0].onset == 0


def test_parse_faults_defaults_to_stuck_closed():
    (fault,) = parse_faults("A-B")
    assert fault.kind is FaultKind.STUCK_CLOSED


@pytest.mark.parametrize("bad", ["", ";;", "AB:open", "A-B:melted",
                                 "A-B:open@soon"])
def test_parse_faults_rejects_malformed(bad):
    with pytest.raises(RepairError):
        parse_faults(bad)


def test_as_mask_and_mask_spec():
    result = solved_case()
    seg = internal_used_segment(result)
    mask = as_mask([stuck_closed(*seg)])
    assert mask.dead_segments == {seg}
    assert as_mask(mask) is mask
    degraded = mask_spec(result.spec, mask)
    assert degraded.switch.health == mask
    assert seg not in degraded.switch.segments
    with pytest.raises(RepairError, match="empty"):
        mask_spec(result.spec, [])


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
def test_detect_classifies_impacted_and_benign():
    result = solved_case()
    used = internal_used_segment(result)
    unused = next(k for k in sorted(result.spec.switch.segments)
                  if k not in result.used_segments)
    detection = detect_faults(
        result, [stuck_closed(*used), stuck_closed(*unused)])
    assert detection.detected
    assert detection.impacted_flows
    assert [f.segment for f in detection.benign_faults] == [unused]
    assert "impacted" in detection.summary()


def test_detect_mid_campaign_onset_is_observable():
    result = solved_case()
    seg = internal_used_segment(result)
    late = ValveFault(seg, FaultKind.STUCK_CLOSED, onset=1)
    detection = detect_faults(result, [late])
    assert detection.detected
    # the fault plan is preserved verbatim, onset included
    assert detection.faults[0].onset == 1


def test_detect_requires_faults_and_a_solved_result():
    result = solved_case()
    with pytest.raises(RepairError):
        detect_faults(result, [])
    import dataclasses

    broken = dataclasses.replace(result, status=SynthesisStatus.ERROR)
    with pytest.raises(RepairError):
        detect_faults(broken, [stuck_closed("A", "B")])


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
def test_repair_reroutes_around_the_fault_and_verifies():
    prior = solved_case()
    seg = internal_used_segment(prior)
    outcome = repair(prior, [stuck_closed(*seg)], OPTS)
    assert outcome.solved
    assert not outcome.degraded
    assert outcome.rerouted_flows  # the fault hit a used segment
    assert seg in outcome.mask.dead_segments
    verify_result(outcome.repaired)
    for path in outcome.repaired.flow_paths.values():
        assert not (set(path.segments) & outcome.mask.dead_segments)


def test_repair_on_benign_fault_keeps_every_flow():
    prior = solved_case()
    unused = next(k for k in sorted(prior.spec.switch.segments)
                  if k not in prior.used_segments
                  and not prior.spec.switch.is_pin(k[0])
                  and not prior.spec.switch.is_pin(k[1]))
    outcome = repair(prior, [stuck_closed(*unused)], OPTS)
    assert outcome.solved
    assert not outcome.rerouted_flows
    assert set(outcome.surviving_flows) == set(prior.flow_paths)
    assert outcome.repaired.objective == prior.objective


def test_repair_masks_accumulate_across_rounds():
    prior = solved_case()
    first = internal_used_segment(prior)
    once = repair(prior, [stuck_closed(*first)], OPTS)
    assert once.solved
    second = internal_used_segment(once.repaired)
    assert second != first
    twice = repair(once.repaired, [stuck_closed(*second)], OPTS)
    assert twice.solved
    assert twice.mask.dead_segments == {first, second}
    verify_result(twice.repaired)


def test_repair_requires_a_solved_prior():
    prior = solved_case()
    import dataclasses

    broken = dataclasses.replace(prior, status=SynthesisStatus.ERROR)
    with pytest.raises(RepairError, match="solved prior"):
        repair(broken, [stuck_closed("A", "B")])


def test_repair_reports_infeasible_when_mask_strands_a_bound_pin():
    prior = solved_case()
    switch = prior.spec.switch
    pin = next(iter(prior.binding.values()))
    (stub,) = [k for k in switch.segments if pin in k]
    outcome = repair(prior, [stuck_closed(*stub)], OPTS)
    assert pin in outcome.reachability.dead_pins
    # A stranded fixed-binding flow is a proven "no solution", as the
    # enumerator says, never an error.
    assert outcome.status is SynthesisStatus.NO_SOLUTION
    assert outcome.repaired.error is None


# ----------------------------------------------------------------------
# determinism across worker counts
# ----------------------------------------------------------------------
def test_repair_is_deterministic_across_parallel_bb_workers():
    prior = solved_case()
    seg = internal_used_segment(prior)
    fingerprints = []
    for workers in (1, 2, 4):
        opts = SynthesisOptions(backend=f"parallel_bb:{workers}",
                                time_limit=60)
        outcome = repair(prior, [stuck_closed(*seg)], opts)
        assert outcome.solved
        verify_result(outcome.repaired)
        fingerprints.append((
            outcome.repaired.objective,
            outcome.repaired.binding,
            {f: p.vertices for f, p in
             outcome.repaired.flow_paths.items()},
            outcome.repaired.counters.get("node_order_hash"),
        ))
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
