"""Tests for candidate path enumeration (repro.switches.paths)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SwitchModelError
from repro.switches import CrossbarSwitch, enumerate_paths
from repro.switches.base import segment_key


@pytest.fixture(scope="module")
def sw8():
    return CrossbarSwitch(8)


@pytest.fixture(scope="module")
def catalog8(sw8):
    return enumerate_paths(sw8)


def test_every_ordered_pin_pair_covered(sw8, catalog8):
    for a in sw8.pins:
        for b in sw8.pins:
            if a == b:
                continue
            assert catalog8.between(a, b), f"no path {a}->{b}"


def test_paths_are_shortest(sw8, catalog8):
    import networkx as nx
    for a in sw8.pins:
        dist = nx.single_source_dijkstra_path_length(sw8.graph, a, weight="length")
        for b in sw8.pins:
            if a == b:
                continue
            for p in catalog8.between(a, b):
                assert p.length == pytest.approx(dist[b])


def test_path_structure(sw8, catalog8):
    for p in catalog8:
        assert p.vertices[0] == p.source_pin
        assert p.vertices[-1] == p.target_pin
        # consecutive vertices joined by actual segments
        for a, b in zip(p.vertices, p.vertices[1:]):
            assert segment_key(a, b) in sw8.segments
        # nodes exclude pins
        assert all(not sw8.is_pin(n) for n in p.nodes)
        # segment set consistent with the vertex sequence
        assert p.segments == frozenset(
            segment_key(a, b) for a, b in zip(p.vertices, p.vertices[1:])
        )
        # no intermediate pins
        assert all(not sw8.is_pin(v) for v in p.vertices[1:-1])


def test_path_length_consistency(sw8, catalog8):
    for p in catalog8:
        assert p.length == pytest.approx(
            sum(sw8.segments[k].length for k in p.segments)
        )


def test_path_length_is_summed_along_the_route(sw8, catalog8):
    for p in catalog8:
        assert p.length == sum(sw8.segment(a, b).length
                               for a, b in zip(p.vertices, p.vertices[1:]))


def test_path_lengths_do_not_depend_on_the_hash_seed():
    """Segment sets iterate in string-hash order; a length summed over
    one differs in its last bit between interpreters (B1->B2 on the
    8-pin crossbar read 3.4 in one and 3.4000000000000004 in another)."""
    import os
    import subprocess
    import sys
    from pathlib import Path as FsPath

    import repro

    script = ("from repro.switches import CrossbarSwitch, enumerate_paths\n"
              "for n in (8, 12, 16):\n"
              "    for p in enumerate_paths(CrossbarSwitch(n)):\n"
              "        print(p, repr(p.length))\n")
    src = str(FsPath(repro.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": str(seed),
                            "PYTHONPATH": src}).stdout
        for seed in (1, 2)
    ]
    assert outputs[0] and outputs[0] == outputs[1]


def test_unique_indices(catalog8):
    indices = [p.index for p in catalog8]
    assert len(set(indices)) == len(indices)


def test_major_nodes_subset(sw8, catalog8):
    for p in catalog8:
        majors = p.major_nodes(sw8)
        assert majors <= p.nodes
        assert all(sw8.kinds[n].value in ("center", "arm") for n in majors)


def test_uses_node_and_segment(sw8, catalog8):
    p = catalog8.between("T1", "B1")[0]
    assert p.uses_node("TL") or p.uses_node("L") or p.uses_node("C")
    a, b = next(iter(p.segments))
    assert p.uses_segment(a, b) and p.uses_segment(b, a)


def test_slack_enumerates_more_paths(sw8):
    strict = enumerate_paths(sw8)
    slack = enumerate_paths(sw8, slack=2.0)
    assert len(slack) > len(strict)
    # slack paths stay within budget
    for a in sw8.pins:
        for b in sw8.pins:
            if a == b:
                continue
            shortest = strict.shortest_length(a, b)
            for p in slack.between(a, b):
                assert p.length <= shortest + 2.0 + 1e-9
                assert len(set(p.vertices)) == len(p.vertices)  # simple


def test_slack_paths_sorted_shortest_first(sw8):
    cat = enumerate_paths(sw8, slack=2.0)
    for a in sw8.pins:
        for b in sw8.pins:
            if a == b:
                continue
            lengths = [p.length for p in cat.between(a, b)]
            assert lengths == sorted(lengths)


def test_max_paths_per_pair(sw8):
    capped = enumerate_paths(sw8, slack=2.0, max_paths_per_pair=1)
    for a in sw8.pins:
        for b in sw8.pins:
            if a == b:
                continue
            paths = capped.between(a, b)
            assert len(paths) == 1
            # the kept path is a shortest one
            assert paths[0].length == pytest.approx(
                enumerate_paths(sw8).shortest_length(a, b)
            )


def test_pin_restriction(sw8):
    cat = enumerate_paths(sw8, pins=["T1", "B1"])
    starts = {p.source_pin for p in cat}
    ends = {p.target_pin for p in cat}
    assert starts == {"T1", "B1"}
    assert ends == {"T1", "B1"}


def test_invalid_inputs(sw8):
    with pytest.raises(SwitchModelError):
        enumerate_paths(sw8, slack=-1.0)
    with pytest.raises(SwitchModelError):
        enumerate_paths(sw8, pins=["C"])  # a node, not a pin
    with pytest.raises(SwitchModelError):
        enumerate_paths(sw8).shortest_length("T1", "T1")


def test_starting_and_ending_at(catalog8):
    starting = catalog8.starting_at("T1")
    assert starting and all(p.source_pin == "T1" for p in starting)
    ending = catalog8.ending_at("B2")
    assert ending and all(p.target_pin == "B2" for p in ending)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([8, 12]), st.floats(min_value=0.0, max_value=3.0))
def test_enumeration_invariants_property(n_pins, slack):
    """Property: any slack, any size — paths are simple, within budget,
    and cover every ordered pin pair."""
    sw = CrossbarSwitch(n_pins)
    cat = enumerate_paths(sw, slack=slack)
    shortest = enumerate_paths(sw)
    for a in sw.pins:
        for b in sw.pins:
            if a == b:
                continue
            base = shortest.shortest_length(a, b)
            paths = cat.between(a, b)
            assert paths
            for p in paths:
                assert p.length <= base + slack + 1e-6
                assert len(set(p.vertices)) == len(p.vertices)


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------

def test_cache_hits_on_equal_structure():
    from repro.switches import clear_path_cache, path_cache_info

    clear_path_cache()
    first = enumerate_paths(CrossbarSwitch(8))
    second = enumerate_paths(CrossbarSwitch(8))   # fresh instance, same structure
    info = path_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    # cached Path objects are shared, catalogs are fresh per switch
    assert second.paths[0] is first.paths[0]
    assert second is not first
    assert [str(p) for p in second] == [str(p) for p in first]
    clear_path_cache()


def test_cache_distinguishes_parameters(sw8):
    from repro.switches import clear_path_cache, path_cache_info

    clear_path_cache()
    enumerate_paths(sw8)
    enumerate_paths(sw8, slack=2.0)
    enumerate_paths(sw8, max_paths_per_pair=1)
    assert path_cache_info()["misses"] == 3
    assert path_cache_info()["hits"] == 0
    clear_path_cache()


def test_pin_subset_of_a_known_structure_is_a_hit(sw8):
    """The memo is per pin pair: after the full catalog, any pin subset
    is assembled from memoized pairs, renumbered exactly as a cold
    enumeration of that subset numbers it."""
    from repro.switches import clear_path_cache, path_cache_info

    subset = ["B2", "T1", "R1", "L2"]
    clear_path_cache()
    cold = enumerate_paths(sw8, pins=subset)
    clear_path_cache()
    enumerate_paths(sw8)
    warm = enumerate_paths(CrossbarSwitch(8), pins=subset)
    info = path_cache_info()
    clear_path_cache()
    assert (info["hits"], info["misses"]) == (1, 1)
    assert warm.paths == cold.paths
    assert [p.index for p in warm] == list(range(len(warm)))


def test_memo_is_bounded(sw8, monkeypatch):
    from repro.switches import clear_path_cache, path_cache_info
    from repro.switches import paths as paths_module

    monkeypatch.setattr(paths_module, "_PATH_CACHE_MAX", 60)
    clear_path_cache()
    enumerate_paths(sw8)                       # 56 pairs
    enumerate_paths(CrossbarSwitch(12))        # 132 more: evicts the 8-pin
    assert path_cache_info()["size"] <= 60
    enumerate_paths(sw8, pins=sw8.pins[:3])
    assert path_cache_info()["misses"] == 3
    clear_path_cache()


def test_cache_distinguishes_structures():
    from repro.switches import CrossbarSwitch as CB, clear_path_cache, path_cache_info

    clear_path_cache()
    enumerate_paths(CB(8))
    enumerate_paths(CB(12))
    assert path_cache_info()["misses"] == 2
    clear_path_cache()


def test_structure_key_stable_across_instances():
    a, b = CrossbarSwitch(8), CrossbarSwitch(8)
    assert a is not b
    assert a.structure_key() == b.structure_key()
    assert a.structure_key() != CrossbarSwitch(12).structure_key()


def test_cached_catalog_binds_requesting_switch():
    from repro.switches import clear_path_cache

    clear_path_cache()
    enumerate_paths(CrossbarSwitch(8))
    sw = CrossbarSwitch(8)
    catalog = enumerate_paths(sw)
    assert catalog.switch is sw
    clear_path_cache()
