"""IncrementalLP engines: history-free hot starts and the probe fallback.

Branch-and-bound restores a node's own basis before solving its
children, and ``parallel_bb`` starts every subtree task cold. Both rely
on one property checked here: an LP's result (status, solution and
iteration count) depends only on its bounds and its starting basis, not
on what the instance solved before.
"""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy, SynthesisOptions
from repro.core.builder import SynthesisModelBuilder
from repro.core.synthesizer import build_catalog
from repro.opt import Model, incremental
from repro.opt.incremental import IncrementalLP

needs_highs = pytest.mark.skipif(
    incremental._HIGHS is None, reason="scipy lacks the HiGHS binding")
#: Engines these tests can force, whatever the session runs on.
ENGINES = ("highs", "linprog") if incremental._HIGHS is not None \
    else ("linprog",)


@pytest.fixture(scope="module")
def form():
    """An 8-pin 2-flow clockwise synthesis relaxation: about 650
    columns and 940 rows, with a fractional root."""
    spec = generate_case(0, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=1, binding=BindingPolicy.CLOCKWISE)
    built = SynthesisModelBuilder(
        spec, build_catalog(spec, SynthesisOptions())).build()
    return built.model.compiled()


def _fractional(form, x):
    idx = np.where(form.branch_integrality == 1)[0]
    return [int(j) for j in idx if abs(x[j] - round(x[j])) > 1e-6]


def _engine_lp(monkeypatch, engine, compiled):
    monkeypatch.setattr(incremental, "LP_ENGINE", engine)
    return IncrementalLP(compiled)


@pytest.mark.parametrize("engine", ENGINES)
def test_same_node_same_lp_after_different_histories(form, engine,
                                                      monkeypatch):
    lp = _engine_lp(monkeypatch, engine, form)
    root = lp.solve()
    assert root.status == 0
    root_basis = lp.basis()
    j, k = _fractional(form, root.x)[:2]
    node = [(j, True, 0.0)]

    lp.set_bounds(node)
    lp.set_basis(root_basis)
    first = lp.solve()

    # A different history: other nodes, other bases, then the same node.
    for chain in ([(k, False, 1.0)], [(j, False, 1.0), (k, True, 0.0)]):
        lp.set_bounds(chain)
        lp.solve()
    lp.set_bounds(node)
    lp.set_basis(root_basis)
    again = lp.solve()

    assert (again.status, again.nit) == (first.status, first.nit)
    assert np.array_equal(again.x, first.x)

    # A cold start after that history equals a fresh instance's first
    # solve — the rule parallel_bb's task roots rely on.
    lp.set_bounds([])
    lp.cold_start()
    cold = lp.solve()
    assert (cold.status, cold.nit) == (root.status, root.nit)
    assert np.array_equal(cold.x, root.x)


@needs_highs
def test_child_hot_started_from_parent_basis_takes_fewer_iterations(
        form, monkeypatch):
    """Over every feasible child of the root, starting from the root's
    basis takes fewer simplex iterations in total than starting cold.
    One child alone can go either way, so the claim is on the sum."""
    lp = _engine_lp(monkeypatch, "highs", form)
    root = lp.solve()
    root_basis = lp.basis()
    fresh = _engine_lp(monkeypatch, "highs", form)
    hot_nit = cold_nit = feasible = 0
    for j in _fractional(form, root.x):
        value = root.x[j]
        for child in ([(j, True, float(np.floor(value)))],
                      [(j, False, float(np.ceil(value)))]):
            lp.set_bounds(child)
            lp.set_basis(root_basis)
            hot = lp.solve()
            fresh.set_bounds(child)
            fresh.cold_start()
            cold = fresh.solve()
            assert hot.status == cold.status
            if cold.status != 0:
                continue
            assert hot.fun == pytest.approx(cold.fun, rel=1e-9)
            feasible += 1
            hot_nit += hot.nit
            cold_nit += cold.nit
    assert feasible
    assert hot_nit < cold_nit


@needs_highs
def test_engines_agree_on_status_and_objective(monkeypatch):
    m = Model("tiny")
    x = m.add_integer("x", 0, 3)
    y = m.add_integer("y", 0, 3)
    m.add_constr(2 * x + 2 * y <= 5)
    m.set_objective(x + y, "max")
    compiled = m.compiled()
    outcomes = {}
    for engine in ("highs", "linprog"):
        lp = _engine_lp(monkeypatch, engine, compiled)
        optimal = lp.solve()
        lp.set_bounds([(0, False, 3.0), (1, False, 3.0)])  # 12 > 5
        infeasible = lp.solve()
        outcomes[engine] = (optimal.status, round(optimal.fun, 9),
                            infeasible.status, infeasible.x)
        assert lp.lp_calls == 2
    assert outcomes["highs"] == outcomes["linprog"] == (0, -2.5, 2, None)


def test_probe_falls_back_when_the_binding_lacks_a_method(monkeypatch):
    highspy = pytest.importorskip("scipy.optimize._highspy")

    class Partial:
        def run(self):  # the binding without getBasis and the rest
            pass

    fake = types.SimpleNamespace(_Highs=Partial)
    monkeypatch.setattr(highspy, "_core", fake, raising=False)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", fake)
    assert incremental._probe_highs() is None


def test_probe_falls_back_when_the_binding_is_missing(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    assert incremental._probe_highs() is None
