"""White-box tests for the IQP builder (repro.core.builder)."""

import pytest

from repro.cases import generate_case
from repro.core import (
    BindingPolicy,
    Flow,
    NodePolicy,
    SchedulingForm,
    SwitchSpec,
    conflict_pair,
)
from repro.core.builder import SynthesisModelBuilder
from repro.core.synthesizer import SynthesisOptions, build_catalog
from repro.opt.incremental import IncrementalLP
from repro.switches import CrossbarSwitch


def build(spec, **opts):
    catalog = build_catalog(spec, SynthesisOptions(**opts))
    return SynthesisModelBuilder(spec, catalog).build()


def fixed_spec(**overrides):
    kwargs = dict(
        switch=CrossbarSwitch(8),
        modules=["i1", "i2", "o1", "o2"],
        flows=[Flow(1, "i1", "o1"), Flow(2, "i2", "o2")],
        binding=BindingPolicy.FIXED,
        fixed_binding={"i1": "T1", "o1": "B1", "i2": "T2", "o2": "B2"},
    )
    kwargs.update(overrides)
    return SwitchSpec(**kwargs)


def test_fixed_policy_restricts_catalog():
    """Under fixed binding the catalog covers only the bound pins, which
    is why the paper's fixed runs are orders of magnitude faster."""
    built = build(fixed_spec())
    starts = {p.source_pin for p in built.catalog}
    assert starts <= {"T1", "T2", "B1", "B2"}
    full = build_catalog(fixed_spec(binding=BindingPolicy.UNFIXED,
                                    fixed_binding=None),
                         SynthesisOptions())
    assert len(built.catalog) < len(full)


def test_x_variables_one_per_allowed_path():
    built = build(fixed_spec())
    for f in built.spec.flows:
        allowed = built.allowed_paths[f.id]
        assert len(allowed) >= 1
        for p in allowed:
            assert (f.id, p.index) in built.x


def test_y_variables_cover_all_module_pin_pairs():
    spec = fixed_spec()
    built = build(spec)
    assert len(built.y) == len(spec.modules) * spec.switch.n_pins


def test_sites_cover_nodes_and_segments():
    spec = fixed_spec()
    built = build(spec)
    kinds = {s[0] for s in built.sites}
    assert kinds == {"node", "seg"}
    node_sites = [s for s in built.sites if s[0] == "node"]
    assert len(node_sites) == len(spec.switch.all_nodes())


def test_paper_node_policy_shrinks_sites():
    all_sites = build(fixed_spec(node_policy=NodePolicy.ALL)).sites
    paper_sites = build(fixed_spec(node_policy=NodePolicy.PAPER)).sites
    assert len(paper_sites) < len(all_sites)
    paper_nodes = {s[1] for s in paper_sites if s[0] == "node"}
    assert paper_nodes == {"C", "T", "R", "B", "L"}


def test_set_variables_triangular_symmetry():
    """Flow at rank r may only enter sets 0..r."""
    spec = fixed_spec()
    built = build(spec)
    for rank, f in enumerate(spec.flows):
        for s in range(spec.effective_max_sets()):
            present = (f.id, s) in built.w
            assert present == (s <= rank)


def test_rotation_symmetry_constraint_only_for_free_policies():
    names_fixed = {c.name for c in build(fixed_spec()).model.constraints}
    assert "rot_symmetry" not in names_fixed
    spec = fixed_spec(binding=BindingPolicy.UNFIXED, fixed_binding=None)
    names_unfixed = {c.name for c in build(spec).model.constraints}
    assert "rot_symmetry" in names_unfixed


def test_clockwise_adds_pin_index_machinery():
    spec = fixed_spec(binding=BindingPolicy.CLOCKWISE, fixed_binding=None,
                      module_order=["i1", "o1", "i2", "o2"])
    built = build(spec)
    assert set(built.pin_index_var) == set(spec.modules)
    assert set(built.wrap_q) == set(spec.modules)
    names = {c.name for c in built.model.constraints}
    assert "cw_wrap" in names


def test_scheduling_forms_model_sizes():
    """The compact form never has more variables than the paper form."""
    paper = build(fixed_spec(scheduling_form=SchedulingForm.PAPER))
    compact = build(fixed_spec(scheduling_form=SchedulingForm.COMPACT))
    assert compact.model.num_vars <= paper.model.num_vars


def test_conflict_constraints_emitted_per_pair_site():
    # diagonal transports whose candidate paths overlap in the middle,
    # so both flows can reach shared sites and constraints materialize
    spec = fixed_spec(
        fixed_binding={"i1": "T1", "o1": "B2", "i2": "T2", "o2": "B1"},
        conflicts={conflict_pair(1, 2)},
    )
    built = build(spec)
    cf_names = [c.name for c in built.model.constraints
                if c.name.startswith("cf_")]
    assert cf_names
    # only sites reachable by both flows get a constraint
    for name in cf_names:
        assert name.startswith("cf_1_2_")


def test_objective_structure():
    spec = fixed_spec(alpha=3.0, beta=7.0)
    built = build(spec)
    model = built.model
    assert model.minimize
    # objective references the set indicators and the used-segment vars
    obj_vars = set(model.objective.terms)
    assert set(built.u.values()) <= obj_vars
    assert set(built.used.values()) <= obj_vars


def test_no_flows_builds_binding_only_model():
    spec = fixed_spec(flows=[])
    built = build(spec)
    assert not built.x and not built.w and not built.u
    assert built.model.num_constraints > 0  # binding constraints remain
    sol = built.model.solve()
    assert sol.is_optimal


def _stub_rows(model):
    return [c for c in model.constraints if c.name.startswith("stub_")]


def _root_bound(model):
    """The LP relaxation bound of ``model`` with integrality dropped."""
    form = model.compiled()
    res = IncrementalLP(form).solve()
    assert res.status == 0
    return form.obj_sign * res.fun + form.obj_offset


@pytest.mark.parametrize("policy", [BindingPolicy.CLOCKWISE,
                                    BindingPolicy.UNFIXED],
                         ids=lambda p: p.value)
def test_pin_stub_rows_lift_the_root_bound(policy):
    """One set plus four stubs of 0.7 mm (alpha + beta * 2.8 = 281): the
    LP pays for a stub on every pin a flow's module sits on. Without the
    rows it can put two modules half on one pin (bound 141)."""
    spec = generate_case(0, switch_size=8, n_flows=2, n_inlets=2,
                         binding=policy)
    built = build(spec)
    assert len(_stub_rows(built.model)) == spec.switch.n_pins
    assert _root_bound(built.model) == pytest.approx(281.0, abs=1e-6)


def test_fixed_binding_gets_no_pin_stub_rows():
    assert not _stub_rows(build(fixed_spec()).model)


def test_module_without_a_flow_stays_out_of_pin_stub_rows():
    """A module that is no flow's endpoint may sit on a pin without
    using its stub, so its binding variables appear in no stub row."""
    spec = fixed_spec(modules=["i1", "i2", "o1", "o2", "spare"],
                      binding=BindingPolicy.UNFIXED, fixed_binding=None)
    built = build(spec)
    rows = _stub_rows(built.model)
    assert len(rows) == spec.switch.n_pins
    in_rows = {v for c in rows for v in c.expr.terms}
    spare = {built.y[("spare", p)] for p in spec.switch.pins}
    assert not in_rows & spare
    flow_modules = {built.y[(m, p)] for m in ("i1", "i2", "o1", "o2")
                    for p in spec.switch.pins}
    assert flow_modules <= in_rows
