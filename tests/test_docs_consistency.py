"""Anti-rot checks: the documentation references real code.

Docs drift silently; these tests fail loudly instead. Every module path
mentioned in DESIGN.md/README.md must import, every benchmark file the
experiment index points at must exist, the repository layout the
README promises must be on disk, and every backend name a doc passes
must exist.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _doc(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def test_design_module_references_import():
    text = _doc("DESIGN.md")
    modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text))
    assert modules, "DESIGN.md should reference repro modules"
    for dotted in sorted(modules):
        importlib.import_module(dotted)


def test_design_bench_targets_exist():
    text = _doc("DESIGN.md")
    benches = set(re.findall(r"`(benchmarks/[a-z_0-9]+\.py)`", text))
    assert benches
    for rel in sorted(benches):
        assert (ROOT / rel).exists(), rel


def test_readme_promised_layout_exists():
    for rel in ("src/repro/opt", "src/repro/geometry", "src/repro/switches",
                "src/repro/core", "src/repro/analysis", "src/repro/sim",
                "src/repro/control", "src/repro/chip", "src/repro/render",
                "src/repro/cases", "src/repro/io", "src/repro/experiments",
                "tests", "benchmarks", "examples", "docs",
                "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
        assert (ROOT / rel).exists(), rel


def test_readme_examples_exist():
    text = _doc("README.md")
    scripts = set(re.findall(r"python (examples/[a-z_0-9]+\.py)", text))
    assert len(scripts) >= 5
    for rel in sorted(scripts):
        assert (ROOT / rel).exists(), rel


def test_experiments_md_covers_every_bench_file():
    text = _doc("EXPERIMENTS.md")
    bench_files = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
    mentioned = set(re.findall(r"test_[a-z_0-9]+\.py", text))
    # every experiment harness except the opt micro-benchmarks (library
    # machinery, not a paper experiment) is documented
    missing = bench_files - mentioned - {"test_opt_micro.py"}
    assert not missing, f"EXPERIMENTS.md misses {sorted(missing)}"


def test_docs_directory_contents():
    docs = {p.name for p in (ROOT / "docs").glob("*.md")}
    assert {"architecture.md", "mathematical_model.md",
            "switch_models.md", "api_tour.md",
            "reproduction_notes.md", "observability.md"} <= docs


def test_math_doc_references_real_symbols():
    text = (ROOT / "docs" / "mathematical_model.md").read_text()
    from repro.core.builder import SynthesisModelBuilder

    for method in re.findall(r"SynthesisModelBuilder\.(_[a-z_]+)", text):
        assert hasattr(SynthesisModelBuilder, method), method


def test_docs_name_only_real_backends():
    """``backend="x"``, ``backends=["x", ...]``, ``--backend x`` and
    ``--backends x,y`` in the docs all name a backend that exists."""
    from repro.opt.solvers import BUILTIN_BACKENDS
    from repro.testing import install_faulty_backend

    faulty = inspect.signature(
        install_faulty_backend).parameters["backend_name"].default
    docs = [ROOT / name for name in ("README.md", "DESIGN.md",
                                     "EXPERIMENTS.md")]
    docs += sorted((ROOT / "docs").glob("*.md"))
    found = []
    for path in docs:
        text = path.read_text(encoding="utf-8")
        names = re.findall(r"backend=[\"']([^\"']*)[\"']", text)
        for group in re.findall(r"backends=\[([^\]]*)\]", text):
            names += re.findall(r"[\"']([^\"']*)[\"']", group)
        for group in re.findall(r"--backends?[ =]([\w:,]+)", text):
            names += group.split(",")
        found += [(path.name, name) for name in names]
    assert found

    def known(name: str) -> bool:
        base, sep, workers = name.partition(":")
        if sep and not workers.isdigit():
            return False
        return name in ("auto", faulty) or base in BUILTIN_BACKENDS

    unknown = [(doc, name) for doc, name in found if not known(name)]
    assert not unknown, f"docs name unknown backends: {unknown}"


def test_observability_doc_lists_the_published_counts():
    """The published-count table of docs/observability.md names exactly
    the counts a traced ``synthesize`` publishes, in the same order."""
    from repro.core.synthesizer import PUBLISHED_COUNTS

    text = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    section = text.split("#### Published per-run counts", 1)[1]
    table = section.split("\n\n", 2)[1]
    names = tuple(re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE))
    assert names == PUBLISHED_COUNTS
