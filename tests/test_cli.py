"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main


def test_cases_command(capsys):
    assert main(["cases"]) == 0
    out = capsys.readouterr().out
    assert "chip_sw1" in out and "nucleic_acid" in out


def test_show_switch(capsys, tmp_path):
    svg = tmp_path / "sw.svg"
    assert main(["show-switch", "8", "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert "20 segments" in out
    assert svg.exists()


def test_synthesize_registry_case(capsys, tmp_path):
    svg = tmp_path / "out.svg"
    result_json = tmp_path / "out.json"
    code = main([
        "synthesize", "kinase_sw1", "--policy", "fixed",
        "--svg", str(svg), "--json", str(result_json),
        "--time-limit", "60",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "kinase activity sw.1" in out
    assert svg.exists()
    data = json.loads(result_json.read_text())
    assert data["status"] == "optimal"


def test_synthesize_json_spec(capsys, tmp_path):
    case_path = tmp_path / "case.json"
    assert main(["export-case", "kinase_sw1", "--policy", "fixed",
                 "-o", str(case_path)]) == 0
    capsys.readouterr()
    assert main(["synthesize", str(case_path), "--time-limit", "60"]) == 0
    out = capsys.readouterr().out
    assert "binding:" in out


def test_synthesize_infeasible_case_exit_code(capsys):
    code = main(["synthesize", "nucleic_acid", "--policy", "fixed",
                 "--time-limit", "60"])
    assert code == 1
    out = capsys.readouterr().out
    assert "no solution" in out


def test_repair_that_strands_a_bound_pin_prints_its_status(capsys):
    # B1 carries module i_11 under chip_sw1's fixed binding.
    code = main(["repair", "chip_sw1", "--policy", "fixed",
                 "--faults", "B1-BL:closed", "--time-limit", "60"])
    assert code == 1
    out = capsys.readouterr().out
    assert "repair failed: no solution" in out
    assert "None" not in out


def test_unknown_case_errors(capsys):
    code = main(["synthesize", "not_a_case"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown case" in err


def test_policy_with_json_spec_rejected(tmp_path, capsys):
    case_path = tmp_path / "case.json"
    main(["export-case", "kinase_sw1", "--policy", "fixed", "-o", str(case_path)])
    capsys.readouterr()
    code = main(["synthesize", str(case_path), "--policy", "unfixed"])
    assert code == 2


def test_compare_command(capsys):
    code = main(["compare", "nucleic_acid", "--time-limit", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "proposed (synthesized)" in out
    assert "spine" in out


def test_simulate_command(capsys):
    code = main(["simulate", "kinase_sw1", "--policy", "fixed",
                 "--time-limit", "60", "--faults"])
    assert code == 0
    out = capsys.readouterr().out
    assert "delivered" in out
    assert "routing time" in out


def test_simulate_infeasible_case(capsys):
    code = main(["simulate", "nucleic_acid", "--policy", "fixed",
                 "--time-limit", "60"])
    assert code == 1


def test_layout_command(capsys, tmp_path):
    svg = tmp_path / "chip.svg"
    code = main(["layout", "kinase_sw1", "--policy", "fixed",
                 "--time-limit", "60", "--svg", str(svg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mm^2" in out
    assert svg.exists()
