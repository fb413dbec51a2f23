"""Smoke tests: the fast example scripts run end to end.

The solver-heavy examples (chip_synthesis, flow_scheduling full mode)
are exercised by the benchmark harness instead; here we run the ones
that finish in seconds, exactly as a user would. Each runs in a temporary
directory, so the SVGs it writes under ``examples/output/`` never touch
the tracked copies.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"


def run_example(script, tmp_path):
    """Run one example with ``tmp_path`` as its working directory."""
    (tmp_path / "examples" / "output").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env,
    )

FAST_EXAMPLES = [
    "quickstart.py",
    "pressure_sharing.py",
    "fault_injection.py",
    "baseline_comparison.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, tmp_path):
    proc = run_example(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_output_contents(tmp_path):
    proc = run_example("quickstart.py", tmp_path)
    assert "status: optimal" in proc.stdout
    assert "binding" in proc.stdout
    svg = tmp_path / "examples" / "output" / "quickstart.svg"
    assert svg.exists()


def test_every_example_has_a_docstring_and_main():
    for script in EXAMPLES.glob("*.py"):
        source = script.read_text(encoding="utf-8")
        assert source.lstrip().startswith(('#!', '"""')), script.name
        assert "def main(" in source, script.name
        assert '__name__ == "__main__"' in source, script.name
