"""Public API surface tests: the README's promises hold."""

import importlib
import inspect

import pytest

import repro


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_runs():
    """The exact snippet from the README / module docstring."""
    from repro import BindingPolicy, Flow, SwitchSpec, synthesize
    from repro.switches import CrossbarSwitch

    spec = SwitchSpec(
        switch=CrossbarSwitch(8),
        modules=["sample", "buffer", "mixer1", "mixer2"],
        flows=[Flow(1, "sample", "mixer1"), Flow(2, "buffer", "mixer2")],
        conflicts={frozenset({1, 2})},
        binding=BindingPolicy.UNFIXED,
    )
    result = synthesize(spec)
    assert result.status.solved
    row = result.table_row()
    assert row["#s"] >= 1


@pytest.mark.parametrize("module", [
    "repro.opt",
    "repro.geometry",
    "repro.switches",
    "repro.core",
    "repro.analysis",
    "repro.render",
    "repro.cases",
    "repro.io",
    "repro.sim",
    "repro.control",
    "repro.chip",
    "repro.experiments",
    "repro.obs",
    "repro.service",
])
def test_subpackages_importable_with_all(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("module", [
    "repro.opt.expr", "repro.opt.model", "repro.opt.compile",
    "repro.core.builder", "repro.core.synthesizer", "repro.core.spec",
    "repro.core.pressure", "repro.core.valves", "repro.core.verify",
    "repro.switches.crossbar", "repro.switches.paths",
    "repro.sim.engine", "repro.control.routing", "repro.analysis.washing",
])
def test_public_functions_documented(module):
    """Every public callable in the core modules carries a docstring."""
    mod = importlib.import_module(module)
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module}.{name} lacks a docstring"
