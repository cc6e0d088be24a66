"""Unit tests for the CI benchmark gate (``scripts/check_bench.py``).

The gate is plain stdlib and lives outside the package, so it is loaded
here straight from its file path.  Covered: the self-calibrated compare
(pass / regression / missing / extra verdicts) and the markdown diff
table, which must reach stdout *and* ``$GITHUB_STEP_SUMMARY`` on both
pass and fail.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _results_file(tmp_path, medians, name="results.json"):
    """Write a minimal pytest-benchmark JSON with the given medians."""
    payload = {
        "benchmarks": [
            {"fullname": fullname, "stats": {"median": median}}
            for fullname, median in medians.items()
        ]
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _baseline_file(tmp_path, medians):
    path = tmp_path / "baseline.json"
    check_bench.write_baseline(path, medians, source="test")
    return path


def test_compare_within_tolerance_passes():
    """A uniform machine-speed shift is absorbed by the calibration."""
    baseline = {"benchmarks": {"a": {"median": 0.010}, "b": {"median": 0.020}}}
    failures, factor, rows = check_bench.compare(
        {"a": 0.020, "b": 0.040}, baseline, tolerance=0.30
    )
    assert failures == 0
    assert factor == pytest.approx(2.0)
    assert [row["verdict"] for row in rows] == ["ok", "ok"]


def test_compare_flags_relative_regression():
    """One benchmark 2x over its calibrated baseline fails, the rest pass."""
    baseline = {
        "benchmarks": {
            "a": {"median": 0.010},
            "b": {"median": 0.010},
            "c": {"median": 0.010},
        }
    }
    failures, _factor, rows = check_bench.compare(
        {"a": 0.010, "b": 0.010, "c": 0.020}, baseline, tolerance=0.30
    )
    assert failures == 1
    verdicts = {row["name"]: row["verdict"] for row in rows}
    assert verdicts["c"].startswith("FAIL")
    assert verdicts["a"] == "ok"


def _city_baseline():
    """The committed two-row city-scale baseline and its median seconds."""
    path = _SCRIPT.parent.parent / "BENCH_city_baseline.json"
    baseline = json.loads(path.read_text(encoding="utf-8"))
    medians = {name: entry["median"] for name, entry in baseline["benchmarks"].items()}
    assert len(medians) == 2
    return baseline, medians


def test_two_row_baseline_fails_one_slower_row():
    """A 1.6x slower tick beside an unchanged importer fails.

    The median of two ratios is their mean, which would calibrate away half
    of the tick's regression (+23 %, a pass); the smallest ratio keeps it.
    """
    baseline, medians = _city_baseline()
    slower = {
        name: median * (1.6 if "tick_latency" in name else 1.0)
        for name, median in medians.items()
    }
    failures, factor, rows = check_bench.compare(slower, baseline, tolerance=0.30)
    assert failures == 1
    assert factor == pytest.approx(1.0)
    verdicts = {row["name"]: row["verdict"] for row in rows}
    assert all(
        verdict.startswith("FAIL") == ("tick_latency" in name)
        for name, verdict in verdicts.items()
    )


def test_two_row_baseline_absorbs_a_uniform_host_slowdown():
    """Both rows 1.3x slower is a slower machine, not a regression."""
    baseline, medians = _city_baseline()
    failures, factor, rows = check_bench.compare(
        {name: median * 1.3 for name, median in medians.items()}, baseline, tolerance=0.30
    )
    assert failures == 0
    assert factor == pytest.approx(1.3)
    assert [row["verdict"] for row in rows] == ["ok", "ok"]


def test_compare_reports_missing_and_extra():
    """Baseline/run set drift shows up as dedicated rows; missing fails."""
    baseline = {"benchmarks": {"a": {"median": 0.010}, "gone": {"median": 0.010}}}
    failures, _factor, rows = check_bench.compare(
        {"a": 0.010, "fresh": 0.010}, baseline, tolerance=0.30
    )
    assert failures == 1  # "gone" missing from the run
    verdicts = {row["name"]: row["verdict"] for row in rows}
    assert "missing" in verdicts["gone"]
    assert "new benchmark" in verdicts["fresh"]
    missing_row = next(row for row in rows if row["name"] == "gone")
    assert missing_row["current_ms"] is None and missing_row["delta"] is None


def test_markdown_table_lists_every_benchmark():
    """The rendered table carries one row per benchmark plus the verdict."""
    baseline = {"benchmarks": {"a": {"median": 0.010}, "b": {"median": 0.010}}}
    failures, factor, rows = check_bench.compare(
        {"a": 0.010, "b": 0.030}, baseline, tolerance=0.30
    )
    table = check_bench.render_markdown(
        factor, rows, failures, tolerance=0.30, baseline_name="BENCH_baseline.json"
    )
    assert "### Benchmark gate: FAIL (1 benchmark(s))" in table
    assert "`BENCH_baseline.json`" in table
    assert "| benchmark | current (ms) | calibrated baseline (ms) | delta | verdict |" in table
    assert "| `a` |" in table and "| `b` |" in table
    assert "FAIL" in table


def test_main_pass_emits_table_to_stdout_and_step_summary(tmp_path, capsys, monkeypatch):
    """On pass, the diff table reaches stdout and $GITHUB_STEP_SUMMARY."""
    results = _results_file(tmp_path, {"a": 0.010, "b": 0.020})
    baseline = _baseline_file(tmp_path, {"a": 0.010, "b": 0.020})
    summary = tmp_path / "step_summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    exit_code = check_bench.main([str(results), "--baseline", str(baseline)])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "### Benchmark gate: PASS" in out
    assert "benchmark gate passed" in out
    assert "### Benchmark gate: PASS" in summary.read_text(encoding="utf-8")


def test_main_fail_emits_table_to_stdout_and_step_summary(tmp_path, capsys, monkeypatch):
    """On fail, the table still lands in both sinks and the exit code is 1."""
    results = _results_file(tmp_path, {"a": 0.010, "b": 0.010, "c": 0.050})
    baseline = _baseline_file(tmp_path, {"a": 0.010, "b": 0.010, "c": 0.010})
    summary = tmp_path / "step_summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    exit_code = check_bench.main([str(results), "--baseline", str(baseline)])
    assert exit_code == 1
    out = capsys.readouterr().out
    assert "### Benchmark gate: FAIL" in out
    assert "regressed beyond tolerance" in out
    assert "### Benchmark gate: FAIL" in summary.read_text(encoding="utf-8")


def test_main_without_step_summary_still_prints(tmp_path, capsys, monkeypatch):
    """No $GITHUB_STEP_SUMMARY (local runs): stdout alone gets the table."""
    results = _results_file(tmp_path, {"a": 0.010})
    baseline = _baseline_file(tmp_path, {"a": 0.010})
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    exit_code = check_bench.main([str(results), "--baseline", str(baseline)])
    assert exit_code == 0
    assert "### Benchmark gate: PASS" in capsys.readouterr().out


def test_update_rewrites_baseline(tmp_path, capsys):
    """--update rewrites the baseline file from the results medians."""
    results = _results_file(tmp_path, {"a": 0.0125})
    baseline = tmp_path / "baseline.json"
    exit_code = check_bench.main(
        [str(results), "--baseline", str(baseline), "--update"]
    )
    assert exit_code == 0
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["benchmarks"]["a"]["median"] == pytest.approx(0.0125)
    assert "baseline rewritten" in capsys.readouterr().out
