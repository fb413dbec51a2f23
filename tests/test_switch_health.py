"""Tests for generalized valve arrays and hardware health masks.

Covers the HealthMask algebra (canonicalization, merge, digest), the
masking of crossbar and FPVA-grid structures (pruned segments/valves,
fresh structure keys, idempotence), reachability re-validation on the
degraded structure, and masked path enumeration.
"""

import pytest

from repro.errors import SwitchModelError
from repro.switches import (
    CrossbarSwitch,
    FPVAGrid,
    HealthMask,
    apply_health_mask,
    clear_path_cache,
    enumerate_paths,
    make_fpva,
    reachability_report,
)
from repro.switches.base import segment_key
from repro.switches.crossbar import SIZES
from repro.switches.validate import validate_switch


def internal_segment(switch):
    """A segment with no pin endpoint (masking it never strands a pin)."""
    return next(k for k in sorted(switch.segments)
                if not switch.is_pin(k[0]) and not switch.is_pin(k[1]))


# ----------------------------------------------------------------------
# HealthMask algebra
# ----------------------------------------------------------------------
def test_mask_canonicalizes_endpoints():
    mask = HealthMask(stuck_closed=frozenset({("Z", "A")}))
    assert mask.stuck_closed == {segment_key("A", "Z")}
    assert mask.kind_of("A", "Z") == "stuck_closed"
    assert mask.kind_of("Z", "A") == "stuck_closed"
    assert mask.kind_of("A", "B") is None


def test_mask_from_triples_roundtrip_and_digest_is_order_free():
    a = HealthMask.from_triples(
        [("C", "L", "stuck_open"), ("A", "B", "blocked_segment")])
    b = HealthMask.from_triples(
        [("B", "A", "blocked_segment"), ("L", "C", "stuck_open")])
    assert a == b
    assert a.digest() == b.digest()
    assert a.triples() == [("A", "B", "blocked_segment"),
                           ("C", "L", "stuck_open")]
    assert HealthMask.from_triples(a.triples()) == a


def test_mask_rejects_unknown_kind():
    with pytest.raises(SwitchModelError, match="unknown fault kind"):
        HealthMask.from_triples([("A", "B", "melted")])


def test_mask_from_faults_accepts_sim_valvefaults():
    from repro.sim import blocked_segment, stuck_closed, stuck_open

    mask = HealthMask.from_faults([
        stuck_open("L", "C"), stuck_closed("A", "B"),
        blocked_segment("X", "Y", onset=3),
    ])
    assert mask.stuck_open == {("C", "L")}
    assert mask.stuck_closed == {("A", "B")}
    assert mask.blocked == {("X", "Y")}
    assert len(mask.dead_segments) == 3


def test_mask_merge_unions_kinds():
    a = HealthMask.from_triples([("A", "B", "stuck_open")])
    b = HealthMask.from_triples([("C", "D", "stuck_closed")])
    merged = a.merge(b)
    assert merged.dead_segments == {("A", "B"), ("C", "D")}
    assert merged.digest() != a.digest() != b.digest()
    assert HealthMask().is_empty
    assert not merged.is_empty


# ----------------------------------------------------------------------
# masking a structure
# ----------------------------------------------------------------------
def test_with_health_prunes_segments_valves_and_graph():
    switch = CrossbarSwitch(8)
    seg = internal_segment(switch)
    masked = switch.with_health(
        HealthMask.from_triples([(*seg, "stuck_closed")]))
    assert seg not in masked.segments
    assert seg not in masked.valves
    assert not masked.graph.has_edge(*seg)
    assert len(masked.segments) == len(switch.segments) - 1
    assert masked.structure_key() != switch.structure_key()
    assert masked.health.kind_of(*seg) == "stuck_closed"
    # the original is untouched
    assert seg in switch.segments
    assert switch.health is None


def test_with_health_is_idempotent_and_merges_from_pristine():
    switch = CrossbarSwitch(8)
    segs = sorted(switch.segments)
    first = HealthMask.from_triples([(*internal_segment(switch), "blocked_segment")])
    once = switch.with_health(first)
    twice = once.with_health(first)
    assert twice.health == once.health
    assert set(twice.segments) == set(once.segments)
    # a second fault accumulates onto the pristine structure
    other = next(k for k in segs
                 if k != internal_segment(switch))
    more = once.with_health(HealthMask.from_triples([(*other, "stuck_open")]))
    assert more.health.dead_segments == \
        first.dead_segments | {other}
    assert len(more.segments) == len(switch.segments) - 2


def test_with_health_rejects_unknown_segments():
    switch = CrossbarSwitch(8)
    with pytest.raises(SwitchModelError, match="not in"):
        switch.with_health(
            HealthMask.from_triples([("NO", "PE", "stuck_closed")]))


def test_empty_mask_is_a_no_op():
    switch = CrossbarSwitch(8)
    assert switch.with_health(HealthMask()) is switch


def test_masked_copy_has_no_rotation_symmetry():
    switch = CrossbarSwitch(8)
    masked = switch.with_health(
        HealthMask.from_triples([(*internal_segment(switch), "stuck_open")]))
    assert switch.rotation_order == 4
    assert masked.rotation_order == 1
    assert switch.with_health(HealthMask()).rotation_order == 4


def test_apply_health_mask_requires_a_mask():
    with pytest.raises(SwitchModelError, match="HealthMask"):
        apply_health_mask(CrossbarSwitch(8), {("A", "B")})


# ----------------------------------------------------------------------
# reachability on the degraded structure
# ----------------------------------------------------------------------
def test_reachability_clean_on_healthy_switch():
    report = reachability_report(CrossbarSwitch(8))
    assert report.fully_connected
    assert report.dead_pins == ()
    assert report.unreachable_pairs == ()


def test_masking_a_pin_stub_strands_the_pin():
    switch = CrossbarSwitch(8)
    pin = switch.pins[0]
    (stub,) = [k for k in switch.segments if pin in k]
    masked = switch.with_health(
        HealthMask.from_triples([(*stub, "blocked_segment")]))
    report = reachability_report(masked)
    assert report.dead_pins == (pin,)
    assert not report.fully_connected


def test_disconnecting_mask_reports_unreachable_pairs():
    grid = make_fpva(2, 2)  # 4 junctions, 4 pins: a single square
    # cut the square into two halves: g0_0-g0_1 and g1_0-g1_1
    masked = grid.with_health(HealthMask.from_triples([
        ("g0_0", "g0_1", "stuck_closed"),
        ("g1_0", "g1_1", "stuck_closed"),
    ]))
    report = reachability_report(masked)
    assert report.dead_pins == ()
    assert report.unreachable_pairs
    for a, b in report.unreachable_pairs:
        assert a != b


# ----------------------------------------------------------------------
# generalized valve arrays
# ----------------------------------------------------------------------
def test_fpva_grid_structure():
    grid = FPVAGrid(3, 4)
    assert grid.n_pins == 2 * 3 + 2 * 4 - 4
    assert len(grid.nodes) == 12
    # lattice edges + one stub per pin
    assert len(grid.segments) == (3 * 3 + 2 * 4) + grid.n_pins
    assert len(grid.valves) == len(grid.segments)
    validate_switch(grid)


def test_fpva_grid_rejects_degenerate_sizes():
    with pytest.raises(SwitchModelError):
        FPVAGrid(1, 4)
    with pytest.raises(SwitchModelError):
        make_fpva(2, 1)


def test_scaled_crossbars_validate():
    assert set(SIZES) == {8, 12, 16, 24, 32}
    for pins in (24, 32):
        switch = CrossbarSwitch(pins)
        assert switch.n_pins == pins
        validate_switch(switch)


# ----------------------------------------------------------------------
# masked path enumeration
# ----------------------------------------------------------------------
def test_masked_catalog_avoids_dead_segments_and_recovers_reachability():
    clear_path_cache()
    switch = CrossbarSwitch(8)
    seg = internal_segment(switch)
    masked = switch.with_health(
        HealthMask.from_triples([(*seg, "stuck_open")]))
    healthy_paths = enumerate_paths(switch)
    masked_paths = enumerate_paths(masked)
    clear_path_cache()
    assert all(seg not in p.segments for p in masked_paths)
    assert any(seg in p.segments for p in healthy_paths)
    assert len(masked_paths) < len(healthy_paths)
    # every surviving pin pair still appears in the masked catalog
    assert reachability_report(masked).fully_connected
    pairs = {(p.source_pin, p.target_pin) for p in masked_paths}
    healthy_pairs = {(p.source_pin, p.target_pin) for p in healthy_paths}
    assert pairs == healthy_pairs
