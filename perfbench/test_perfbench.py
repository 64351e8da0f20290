"""Tests of the benchmark itself: its checkers, its tracer, and tiny runs.

    python3 -m pytest -q perfbench

Each checker must pass kgdelta's real output and reject a corrupted copy.
The tiny runs go through the same code as the measured ones, on inputs
small enough to take a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
import workloads
from traced import Tracer

TINY = workloads.TINY


@pytest.fixture()
def runner(tmp_path):
    return run.Runner(run.ROOT, tmp_path, time.monotonic() + run.RUN_BUDGET_S)


@pytest.fixture()
def tiny_scan(runner):
    call = runner.kgdelta(workloads.scan_argv(TINY["scan"], "tiny.csv"))
    assert call.exit_code == 0, call.stderr
    return (runner.workdir / "tiny.csv").read_text()


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[2:]]


def _replace_row(text: str, index: int, row: list[str]) -> str:
    lines = text.splitlines(keepends=True)
    lines[2 + index] = ",".join(row) + "\n"
    return "".join(lines)


def test_benchmark_json_names_every_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_scan_checker_accepts_the_program_output(tiny_scan):
    assert checks.check_scan_csv(tiny_scan, TINY["scan"]) == []
    codes = {row[2] for row in _rows(tiny_scan)}
    assert {"RealPair", "ImaginaryPair", "ZeroOnly", "EmbeddedPair"} <= codes


def test_scan_checker_rejects_a_flipped_region_code(tiny_scan):
    rows = _rows(tiny_scan)
    i = next(i for i, r in enumerate(rows) if r[2] == "ZeroOnly")
    rows[i][2] = "RealPair"
    problems = checks.check_scan_csv(_replace_row(tiny_scan, i, rows[i]), TINY["scan"])
    assert any("region RealPair" in p for p in problems), problems


def test_scan_checker_rejects_a_shifted_eigenvalue(tiny_scan):
    # off omega = 0, only the determinant residual can catch the shift
    rows = _rows(tiny_scan)
    i = next(i for i, r in enumerate(rows) if r[2] == "RealPair" and float(r[0]) != 0.0)
    rows[i][3] = repr(float(rows[i][3]) + 1e-6)
    problems = checks.check_scan_csv(_replace_row(tiny_scan, i, rows[i]), TINY["scan"])
    assert any("|D(lambda=" in p for p in problems), problems


def test_scan_checker_rejects_a_missing_row(tiny_scan):
    lines = tiny_scan.splitlines(keepends=True)
    problems = checks.check_scan_csv("".join(lines[:-1]), TINY["scan"])
    assert any("rows, grid has" in p for p in problems), problems


def test_simulate_checker_rejects_a_rate_off_by_two_percent(runner):
    spec = TINY["unstable"]
    call = runner.kgdelta(workloads.simulate_argv(spec, 5, "u"))
    assert call.exit_code == 0, call.stderr
    summary = json.loads((runner.workdir / "u.json").read_text())
    series = (runner.workdir / "u.csv").read_text()
    assert checks.check_simulate(summary, series, spec, 5) == []
    summary["fitted_rate"] *= 1.02
    problems = checks.check_simulate(summary, series, spec, 5)
    assert any("not within 1%" in p for p in problems), problems


def test_simulate_checker_rejects_a_stable_run_that_grew(runner):
    spec = TINY["stable"]
    call = runner.kgdelta(workloads.simulate_argv(spec, 5, "s"))
    assert call.exit_code == 0, call.stderr
    summary = json.loads((runner.workdir / "s.json").read_text())
    series = (runner.workdir / "s.csv").read_text()
    assert checks.check_simulate(summary, series, spec, 5) == []
    lines = series.splitlines(keepends=True)
    t, e, q, d = lines[-1].rstrip("\n").split(",")
    lines[-1] = f"{t},{e},{q},{4 * float(lines[1].split(',')[3])!r}\n"
    problems = checks.check_simulate(summary, "".join(lines), spec, 5)
    assert any("orbital distance grew" in p for p in problems), problems


def test_validate_checker_rejects_the_perturbed_run(runner):
    spec = TINY["validate"]
    clean = runner.kgdelta(workloads.validate_argv(spec))
    assert checks.check_validate(clean.stdout, clean.exit_code, spec["grid"], spec["sweep"]) == []
    assert checks.check_validate_negative(clean.stdout, clean.exit_code) != []
    bad = runner.kgdelta(workloads.validate_argv(spec, perturb_q=1e-3))
    assert bad.exit_code == 1
    assert checks.check_validate(bad.stdout, bad.exit_code, spec["grid"], spec["sweep"]) != []
    assert checks.check_validate_negative(bad.stdout, bad.exit_code) == []


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()

    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def outer():
        inner()
        inner()
        time.sleep(0.002)

    tracer.wrap("outer", outer)()
    own = tracer.self_times()
    top = tracer.spans("outer", "")[0]
    kids = tracer.spans("inner", "")
    assert [tracer.parents[i] for i in kids] == [top, top]
    assert own[top] == pytest.approx(tracer.duration(top) - sum(tracer.duration(i) for i in kids))
    assert 0.0015 < own[top] < tracer.duration(top)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_each_workload_runs_at_a_tiny_size(name, capsys):
    result = run.run_one(name, seed=3, seconds=0, trace=False, spec=TINY, root=run.ROOT)
    assert result["correct"], capsys.readouterr().out
    assert result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_at_a_tiny_size(capsys):
    result = run.run_one("region_scan", seed=3, seconds=0, trace=True, spec=TINY, root=run.ROOT)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "region_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
