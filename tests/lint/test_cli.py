"""CLI behavior: exit codes, formats, baseline workflow, delegation."""

from __future__ import annotations

import json

import pytest

from repro.lint.cli import main

_VIOLATION = "import time\nt = time.time()\n"


@pytest.fixture
def bad_file(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(_VIOLATION)
    return target


def test_clean_run_exits_zero(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    assert main([str(target)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one(bad_file, capsys):
    assert main([str(bad_file)]) == 1
    out = capsys.readouterr().out
    assert "DET003" in out


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_json_format(bad_file, capsys):
    assert main(["--format", "json", str(bad_file)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro.lint"
    assert payload["counts"] == {"DET003": 1}


def test_json_report_file_written_alongside_text(bad_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["--json-report", str(report), str(bad_file)]) == 1
    payload = json.loads(report.read_text())
    assert payload["ok"] is False
    assert "DET003" in capsys.readouterr().out  # stdout stayed text


def test_update_baseline_then_clean(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(
        ["--baseline", str(baseline), "--update-baseline", str(bad_file)]
    ) == 0
    assert baseline.exists()
    # with the baseline applied the same tree is green
    assert main(["--baseline", str(baseline), str(bad_file)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_update_baseline_requires_baseline(bad_file, capsys):
    assert main(["--update-baseline", str(bad_file)]) == 2
    assert "requires --baseline" in capsys.readouterr().err


def test_malformed_baseline_exits_two(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"version": 99, "findings": {}}))
    assert main(["--baseline", str(baseline), str(bad_file)]) == 2
    assert "version" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "DET001", "DET002", "DET003", "DET004", "DET005",
        "TEL001", "PAR001", "NUM001", "NUM002",
    ):
        assert rule_id in out
    assert "contract:" in out


def test_repro_cli_lint_subcommand_delegates(bad_file, capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", str(bad_file)]) == 1
    assert "DET003" in capsys.readouterr().out
    assert repro_main(["lint", "--list-rules"]) == 0
