"""Clique/cover cutting planes: validity and LP-bound strengthening."""

from __future__ import annotations

import pytest

import repro.core.builder as builder_mod
from repro.cases import generate_case
from repro.core import SynthesisOptions, synthesize
from repro.core.builder import SynthesisModelBuilder
from repro.core.synthesizer import build_catalog
from repro.opt import Model, SolveStatus
from repro.opt.cuts import (
    atmost_one_pairs,
    clique_cuts,
    conflict_cliques,
    cut_rows,
)
from repro.opt.incremental import IncrementalLP
from repro.opt.solvers.branch_bound import BranchBoundBackend


def _eight_pin_conflict_spec():
    """An 8-pin case whose conflict graph contains a size-4 clique."""
    return generate_case(seed=7, switch_size=8, n_flows=4, n_inlets=4,
                         n_conflicts=6, name="clique8")


def _triangle_model():
    """Three mutually-exclusive binaries stated pairwise only."""
    m = Model("triangle")
    x = [m.add_binary(f"x{i}") for i in range(3)]
    m.add_constr(x[0] + x[1] <= 1)
    m.add_constr(x[0] + x[2] <= 1)
    m.add_constr(x[1] + x[2] <= 1)
    m.set_objective(x[0] + x[1] + x[2], "max")
    return m, x


def test_conflict_cliques_from_pair_set():
    pairs = {frozenset((1, 2)), frozenset((1, 3)), frozenset((2, 3)),
             frozenset((3, 4))}
    assert conflict_cliques(pairs) == [(1, 2, 3)]
    assert conflict_cliques(pairs, min_size=2) == [(1, 2, 3), (3, 4)]
    assert conflict_cliques(set()) == []


def test_atmost_one_pairs_reads_only_two_term_binary_rows():
    m = Model("pairs")
    x = [m.add_binary(f"x{i}") for i in range(3)]
    k = m.add_integer("k", 0, 5)
    m.add_constr(x[0] + x[1] <= 1)
    m.add_constr(x[0] + x[1] + x[2] <= 1)   # three terms: not a pair row
    m.add_constr(x[2] + k <= 1)             # non-binary partner: skipped
    m.add_constr(x[1] + x[2] <= 2)          # rhs != 1: skipped
    m.set_objective(x[0], "max")
    pairs = atmost_one_pairs(m.compiled())
    assert [(sorted(p)) for p in pairs] == [[x[0].index, x[1].index]]


def test_clique_cuts_found_and_cached():
    m, x = _triangle_model()
    form = m.compiled()
    cliques = clique_cuts(form)
    assert cliques == [tuple(sorted(v.index for v in x))]
    assert clique_cuts(form) is cliques  # cached on the compiled model


def test_clique_cut_tightens_lp_bound_vs_pairwise():
    m, _ = _triangle_model()
    form = m.compiled()
    lp = IncrementalLP(form)
    root = lp.solve()
    assert root.status == 0
    # The pairwise relaxation admits x_i = 1/2: objective 1.5 (max).
    assert form.report_objective(root.fun) == pytest.approx(1.5)
    lp.add_cuts(*cut_rows(form, clique_cuts(form)))
    cut = lp.solve()
    assert cut.status == 0
    assert form.report_objective(cut.fun) == pytest.approx(1.0)
    # The true integral optimum is 1: the cut closed the gap entirely
    # without excluding it.
    sol = m.solve(backend="highs")
    assert sol.objective == pytest.approx(1.0)


def test_clique_rows_never_cut_off_integral_optimum_8pin():
    """Builder clique rows keep the 8-pin optimum exactly."""
    spec = _eight_pin_conflict_spec()
    assert conflict_cliques(spec.conflicts), "case must contain a conflict clique"
    options = SynthesisOptions(time_limit=120)

    # Reference optimum: the same model *without* any clique/cover
    # strengthening rows.
    orig_cliques = builder_mod.conflict_cliques
    orig_cover = SynthesisModelBuilder._set_cover_cuts
    builder_mod.conflict_cliques = lambda *a, **k: []
    SynthesisModelBuilder._set_cover_cuts = lambda self, *a, **k: None
    try:
        plain = synthesize(spec, options)
    finally:
        builder_mod.conflict_cliques = orig_cliques
        SynthesisModelBuilder._set_cover_cuts = orig_cover

    strengthened = synthesize(spec, options)
    assert plain.status.solved and strengthened.status.solved
    assert strengthened.objective == pytest.approx(plain.objective)

    # The plain model's optimal integral point satisfies every clique
    # cut derived from the strengthened compiled form.
    catalog = build_catalog(spec, options)
    built = SynthesisModelBuilder(spec, catalog).build()
    form = built.model.compiled()
    for clique in clique_cuts(form):
        names = [form.variables[j].name for j in clique]
        # Map names onto the usage indicators of the plain solution: a
        # variable absent from a clique's support stays 0.
        total = 0.0
        for name in names:
            if name.startswith("a_f"):
                fid = int(name.split("_")[1][1:])
                tag = name.split("_", 2)[2]
                path = plain.flow_paths.get(fid)
                if path is None:
                    continue
                if tag.startswith("e_"):
                    a, b = tag[2:].split("__")
                    total += 1.0 if (a, b) in path.segments or (b, a) in path.segments else 0.0
        assert total <= 1.0 + 1e-9


def test_branch_bound_with_cuts_matches_highs_on_conflict_case():
    spec = _eight_pin_conflict_spec()
    options = SynthesisOptions(time_limit=120)
    catalog = build_catalog(spec, options)
    built = SynthesisModelBuilder(spec, catalog).build()
    reference = built.model.solve(backend="highs", mip_gap=1e-6)
    assert reference.status is SolveStatus.OPTIMAL

    with_cuts = built.model.solve(backend="branch_bound", mip_gap=1e-6)
    assert with_cuts.status is SolveStatus.OPTIMAL
    assert with_cuts.objective == pytest.approx(reference.objective)


def test_branch_bound_cut_counter_reported():
    m, _ = _triangle_model()
    sol = BranchBoundBackend().solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.counters["cuts"] == 1
    assert sol.counters["lp_calls"] >= 1
