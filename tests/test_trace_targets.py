"""The benchmark's trace wraps kgdelta by name: those names must exist.

``perfbench/traced.py`` patches ``(owner, attribute)`` pairs of ``kgdelta.cli``,
``kgdelta.dispersion`` and ``kgdelta.lattice``.  A renamed or deleted one
would otherwise surface only in the benchmark's own tests.  The module is
loaded from its file without writing bytecode next to it, and the benchmark
modules it imports are taken out of ``sys.modules`` again.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import kgdelta.cli as cli
import kgdelta.dispersion as dispersion
import kgdelta.lattice as lattice
from kgdelta import ModelParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def traced(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_traced", PERFBENCH / "traced.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


def test_every_traced_target_exists(traced):
    targets = traced.targets(cli, dispersion, lattice)
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_one_candidate_roots_span_per_classification(traced):
    # the trace divides by the number of candidate_roots spans, so the
    # classifier must reach candidate_roots through the module attribute
    tracer = traced.Tracer()
    with tracer.installed(traced.targets(cli, dispersion, lattice)):
        for m in (1.0, 2.0):
            dispersion.classify_point_spectrum(ModelParams(m, 0.5 * m, 0.2))
    assert len(tracer.spans("dispersion.candidate_roots", "")) == 2


def test_scan_reaches_the_scalar_path_through_module_attributes(traced, tmp_path):
    # the trace divides by the spans of the scan's scalar fallback, so the
    # scan must reach it through cli's and dispersion's attributes; the cell
    # (0, 0) of this 3 x 3 grid is KolokolovCritical and takes that path
    tracer = traced.Tracer()
    argv = ["scan", "--omega-min", "0", "--omega-max", "0.1", "--omega-step", "0.05",
            "--kappa-min", "0", "--kappa-max", "0.1", "--kappa-step", "0.05", "-o", str(tmp_path / "map.csv")]
    with tracer.installed(traced.targets(cli, dispersion, lattice)):
        assert cli.main(argv) == 0
    for name in ("cli.write_scan_csv", "cli.scan_rows"):
        assert len(tracer.spans(name, "")) == 1, name
    for name in ("dispersion.classify_point_spectrum", "cli.region_code_from_report", "dispersion.cubic_data",
                 "dispersion.cubic_roots", "dispersion.candidate_roots"):
        assert tracer.spans(name, ""), name

    def ancestors(i):
        while (i := tracer.parents[i]) >= 0:
            yield i

    # traced.py takes the serial cells/s from the scan_rows span and csv_write_ms
    # from write_scan_csv minus it: the classification must run inside scan_rows,
    # and scan_rows inside write_scan_csv
    [rows], [write] = tracer.spans("cli.scan_rows", ""), tracer.spans("cli.write_scan_csv", "")
    for i in tracer.spans("dispersion.classify_point_spectrum", ""):
        assert rows in ancestors(i)
    assert write in ancestors(rows)
    assert tracer.starts[write] <= tracer.starts[rows] < tracer.ends[rows] <= tracer.ends[write]


def test_one_oracle_span_per_oracle_point(traced, capsys):
    # the trace divides by the oracle_mismatches and axis_scan_roots spans, so
    # the oracle suite must still make one of each per point, 3 x 3 here; its
    # brackets per point count the brentq spans, one per bracket, and the
    # oracle must reach brentq through the module attribute
    tracer = traced.Tracer()
    with tracer.installed(traced.targets(cli, dispersion, lattice)):
        assert cli.main(["validate", "--grid", "3", "--sweep", "10"]) == 0
    assert "oracle-root-agreement: PASS (9 checks, 0 failed)" in capsys.readouterr().out
    for name in ("dispersion.oracle_mismatches", "dispersion.axis_scan_roots"):
        assert len(tracer.spans(name, "")) == 9, name
    assert len(tracer.spans("scipy.brentq", "")) == 2


def test_one_lattice_span_per_step_and_per_record(traced, tmp_path):
    # the trace divides by the step spans and by the energy, charge and
    # orbital_distance spans, so a simulate must make one per step and one
    # of each per record
    tracer = traced.Tracer()
    argv = ["simulate", "-m", "1", "-w", "0.5", "-k", "0.3", "-T", "1", "--record-every", "7",
            "-o", str(tmp_path / "run")]
    with tracer.installed(traced.targets(cli, dispersion, lattice)):
        assert cli.main(argv) == 0
    dt = json.loads((tmp_path / "run.json").read_text())["dt"]
    n_steps = int(round(1.0 / dt))
    records = 1 + len([i for i in range(1, n_steps + 1) if i % 7 == 0 or i == n_steps])
    assert n_steps % 7 != 0
    assert len(tracer.spans("lattice.step", "")) == n_steps
    for name in ("lattice.energy", "lattice.charge", "lattice.orbital_distance"):
        assert len(tracer.spans(name, "")) == records, name
