import ast
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgdelta
from kgdelta.cli import (
    MAX_SCAN_CELLS,
    RegionCode,
    ScanConfig,
    main,
    region_code,
    run_validation,
    scan_rows,
    write_scan_csv,
)
from kgdelta.cli import _row_blocks, _scan_cell, _spectrum_text, _suite_closed_forms
from kgdelta.dispersion import (
    _REGIONS,
    ClassificationError,
    _classify_arrays,
    _distinct_bits,
    _region_cells,
    classify_point_spectrum,
    virtual_level_exponent,
    virtual_level_frequency,
)
from kgdelta.lattice import DefectLattice


class TestSpectrumCommand:
    def test_real_pair_json(self, capsys):
        assert main(["spectrum", "-m", "1", "-w", "0", "-k", "1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        vals = sorted(v[0] for v in (e["value"] for e in data["point_spectrum"]))
        assert vals[0] == pytest.approx(-2.828427, abs=1e-6)
        assert vals[-1] == pytest.approx(2.828427, abs=1e-6)
        assert data["jordan_at_zero"] == {"geometric": 1, "algebraic": 2}
        assert data["verdict"] == "unstable"

    def test_embedded_pair_text(self, capsys):
        assert main(["spectrum", "-m", "1", "-w", "0.5", "-k", "0"]) == 0
        out = capsys.readouterr().out
        assert "geometric 2, algebraic 2" in out
        assert "embedded" in out
        assert "stable" in out

    def test_verbose_text_lists_every_candidate(self, capsys):
        assert main(["spectrum", "-m", "1", "-w", "0.5", "-k", "0.1", "--verbose"]) == 0
        out = capsys.readouterr().out.splitlines()
        report = classify_point_spectrum(kgdelta.ModelParams(1.0, 0.5, 0.1))
        lines = [f"  candidate {c.to_jsonable()}" for c in report.candidates]
        assert len(lines) == 6
        assert out == _spectrum_text(report).splitlines() + lines

    def test_virtual_level_text(self, capsys):
        omega = virtual_level_frequency(1.0, 0.2)
        assert main(["spectrum", "-m", "1", "-w", repr(omega), "-k", "0.2"]) == 0
        out = capsys.readouterr().out.splitlines()
        report = classify_point_spectrum(kgdelta.ModelParams(1.0, omega, 0.2))
        assert report.virtual_levels == (complex(0.0, 1.0 - omega), complex(0.0, omega - 1.0))
        lines = [f"virtual level at {v:.9g}" for v in report.virtual_levels]
        assert lines == ["virtual level at 0+0.484210526j", "virtual level at 0-0.484210526j"]
        assert [line for line in out if line.startswith("virtual level at ")] == lines
        assert "flags: virtual-level" in out

    def test_kappa_line_band_gives_embedded_pair(self, capsys):
        # |kappa| below the 1e-10 band is the decoupled line kappa = 0
        assert main(["spectrum", "-m", "1", "-w", "0.95", "-k=-1e-12", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        embedded = [e["value"] for e in data["point_spectrum"] if e["embedded"]]
        assert sorted(v[1] for v in embedded) == pytest.approx([-1.9, 1.9], abs=1e-9)
        assert data["flags"] == ["embedded"]

    def test_small_kappa_on_cut_root_is_flagged(self, capsys):
        assert main(["spectrum", "-m", "1", "-w", "0.95", "-k=-1e-6"]) == 0
        out = capsys.readouterr().out
        assert "flags: on-cut-resonance" in out
        assert not any(line.startswith("eigenvalue ") for line in out.splitlines())

    def test_kolokolov_band_inside_kappa_line_band(self, capsys):
        # both bands hold; kappa > omega^2 leaves no imaginary pair to report
        assert main(["spectrum", "-m", "1", "-w", "5e-6", "-k", "8e-11"]) == 0
        assert "flags: kolokolov-critical" in capsys.readouterr().out

    def test_kappa_line_pair_resolved_at_small_mass(self, capsys):
        # omega/m = 1e-4, as at m = 1 where the pair +-2i*omega is reported
        assert main(["spectrum", "-m", "1e-3", "-w", "1e-7", "-k", "0", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["flags"] == []
        pair = sorted(e["value"][1] for e in data["point_spectrum"][1:])
        assert pair == pytest.approx([-2e-7, 2e-7], rel=1e-7)

    def test_kappa_line_origin_band_relative_to_mass(self, capsys):
        # omega/m = 5e-5 on kappa = 0 is outside the 1e-10 band at any mass
        for m, w in (("1", "5e-5"), ("1e-6", "5e-11")):
            assert main(["spectrum", "-m", m, "-w", w, "-k", "0", "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["flags"] == []
            pair = sorted(e["value"][1] for e in data["point_spectrum"] if e["value"][1] != 0.0)
            assert pair == pytest.approx([-2.0 * float(w), 2.0 * float(w)], rel=1e-6)

    def test_virtual_level_band_relative_to_mass(self, capsys):
        # omega/m = 0.8 lies 1e-4 m off the virtual-level curve at kappa = 0.4999
        for m, w in (("1", "0.8"), ("1e-6", "0.8e-6")):
            assert main(["spectrum", "-m", m, "-w", w, "-k", "0.4999", "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["virtual_levels"] == []
            assert "virtual-level" not in data["flags"]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the in-gap root 3e-8 above the virtual-level curve is not certified")
    def test_point_just_above_the_virtual_level_curve(self):
        assert main(["spectrum", "-m", "1", "-w", "0.9", "-k", "0.603834871531"]) == 0

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["spectrum", "-m", "1", "-w", "1.5", "-k", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_kappa_overflowing_the_cubic_exits_2(self, capsys):
        assert main(["spectrum", "-m", "1", "-w", "0.1", "-k", "1e80"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the cubic's coefficients overflow float64")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["spectrum", "-m", "2", "-w", "0.1", "-k", "1e80"], ["validate", "--at", "2,0.1,1e80"]]
    )
    def test_kappa_overflow_names_the_mass(self, capsys, argv):
        # the classifier works on the cubic at m = 1, but the message names the mass asked for
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: the cubic's coefficients overflow float64 at m = 2, kappa = 1e+80\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_eigenvalues_overflowing_float64_exit_2(self, capsys, fmt):
        # the pair is +-sqrt(5)/2 m, past float64 at m = 1.7e308
        assert main(["spectrum", "-m", "1.7e308", "-w", "0", "-k", "0.25", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the eigenvalues overflow float64 at m = 1.7e+308, omega = 0, kappa = 0.25\n"

    @pytest.mark.parametrize("m", ["1e-30", "1e28"])
    def test_masses_far_from_one_are_classified_in_units_of_m(self, capsys, m):
        # the physical cubic's discriminant underflows at 1e-30 and its
        # coefficients overflow at 1e28; the pair is +-sqrt(5)/2 m
        assert main(["spectrum", "-m", m, "-w", "0", "-k", "0.25", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        values = [e["value"] for e in data["point_spectrum"]]
        want = math.sqrt(1.25) * float(m)
        assert values[1][0] == pytest.approx(want, rel=1e-15) and values[2][0] == -values[1][0]
        assert [v[1] for v in values] == [0.0, 0.0, 0.0]

    def test_json_with_overflowing_audit_values_exits_2(self, capsys):
        # m^2 times the residual and its scale leaves float64 from m of order 1e154,
        # and JSON has no NaN or Infinity; the eigenvalues still fit
        argv = ["spectrum", "-m", "1e200", "-w", "0", "-k", "0.25", "--format", "json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(name))
        assert data["point_spectrum"][1]["value"] == [math.sqrt(1.25) * 1e200, 0.0]
        assert main(argv + ["--verbose"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values are not JSON compliant")

    def test_text_with_overflowing_audit_values_holds_no_nan(self, capsys):
        # m^2 is infinite here: a zero part of x and y stays zero, not inf * 0
        assert main(["spectrum", "-m", "1e200", "-w", "0", "-k", "0.1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "'x': [inf, 0.0]" in out
        assert "nan" not in out

    def test_verbose_audit_trail(self, capsys):
        assert main(
            ["spectrum", "-m", "1", "-w", "0", "-k", "1", "--format", "json", "--verbose"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        sheets = {c["sheet"] for c in data["candidates"]}
        assert any(c["accepted"] for c in data["candidates"])
        assert "++" in sheets


class TestRegionPredicate:
    @pytest.mark.parametrize(
        "omega,kappa,want",
        [
            (0.5, 0.5, RegionCode.REAL_PAIR),
            (0.6, 0.32, RegionCode.IMAGINARY_PAIR),
            # below the virtual-level curve value K(0.6) = 0.2899, so only zero
            (0.6, 0.2, RegionCode.ZERO_ONLY),
            (0.2, -1.0, RegionCode.ZERO_ONLY),
            (0.5, 0.25, RegionCode.KOLOKOLOV_CRITICAL),
            (0.5, 0.0, RegionCode.EMBEDDED_PAIR),
            (0.2, 0.0, RegionCode.IMAGINARY_PAIR),
            (0.0, 0.0, RegionCode.KOLOKOLOV_CRITICAL),
            (0.0, -0.5, RegionCode.VIRTUAL_LEVEL_BOUNDARY),
            (0.8, 0.5, RegionCode.VIRTUAL_LEVEL_BOUNDARY),
            # (1 + 2 kappa)^2 overflows, so the virtual-level curve is NaN
            (0.5, 1e200, RegionCode.REAL_PAIR),
            (0.5, -1e200, RegionCode.ZERO_ONLY),
        ],
    )
    def test_cases(self, omega, kappa, want):
        assert region_code(1.0, omega, kappa) is want


def _scan_lines(cfg):
    """The data lines ``scan_rows`` writes for ``cfg``."""
    out = io.StringIO()
    scan_rows(cfg, out)
    return out.getvalue().splitlines()


def _cell_rows(m, cells, band):
    """The data lines ``_row_blocks`` forms for ``cells``, in order."""
    return [row for rows in _row_blocks(m, cells, band, Counter()) for row in rows]


def small_config():
    return ScanConfig(
        m=1.0,
        omega_min=-0.8,
        omega_max=0.8,
        omega_step=0.1,
        kappa_min=-1.0,
        kappa_max=1.0,
        kappa_step=0.125,
    )


class TestScan:
    def test_rows_match_predicate(self):
        cfg = small_config()
        for line in _scan_lines(cfg):
            parts = line.split(",")
            w, k, code = float(parts[0]), float(parts[1]), parts[2]
            assert code == region_code(cfg.m, w, k, cfg.band).value

    def test_file_output_and_schema(self, tmp_path):
        path = tmp_path / "map.csv"
        write_scan_csv(small_config(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# kgdelta-scan schema=1 config=")
        assert lines[1] == (
            "omega,kappa,region_code,lambda_re,lambda_im,Delta,K_omega,T_kappa,Omega_kappa"
        )
        assert len(lines) == 2 + 17 * 17

    def test_byte_identical_repeat_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scan_csv(small_config(), str(a))
        write_scan_csv(small_config(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_frequency_reflection_symmetry(self):
        cfg = small_config()
        rows = {}
        for line in _scan_lines(cfg):
            parts = line.split(",")
            lam = complex(float(parts[3]), float(parts[4]))
            rows[(parts[0], parts[1])] = (parts[2], abs(lam))
        for (w, k), (code, lam_abs) in rows.items():
            mirrored = rows[(f"{-float(w):.12g}" if float(w) != 0 else w, k)]
            assert mirrored[0] == code
            assert mirrored[1] == pytest.approx(lam_abs, rel=1e-9)

    def test_no_isolated_code_islands(self):
        # needs the default scan resolution: coarser grids legitimately show
        # single-cell slices of the thin imaginary wedge near its tip
        cfg = ScanConfig(
            m=1.0,
            omega_min=-0.96,
            omega_max=0.96,
            omega_step=0.02,
            kappa_min=-2.0,
            kappa_max=2.0,
            kappa_step=0.05,
        )
        omegas, kappas = cfg.omegas(), cfg.kappas()
        grid = {}
        for line in _scan_lines(cfg):
            parts = line.split(",")
            grid[(float(parts[0]), float(parts[1]))] = parts[2]
        boundary = {RegionCode.KOLOKOLOV_CRITICAL.value, RegionCode.VIRTUAL_LEVEL_BOUNDARY.value}
        # interior cells only: at the window edge a thin diagonal strip can
        # have its like-coded continuation clipped off by the scan range
        for i in range(1, len(omegas) - 1):
            for j in range(1, len(kappas) - 1):
                w, k = omegas[i], kappas[j]
                code = grid[(w, k)]
                if code in boundary:
                    continue
                neighbors = [
                    grid[(omegas[i - 1], k)],
                    grid[(omegas[i + 1], k)],
                    grid[(w, kappas[j - 1])],
                    grid[(w, kappas[j + 1])],
                ]
                assert code in neighbors

    def test_cli_entry(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        rc = main(
            [
                "scan",
                "--omega-min", "-0.4", "--omega-max", "0.4", "--omega-step", "0.2",
                "--kappa-min", "-0.5", "--kappa-max", "0.5", "--kappa-step", "0.25",
                "-o", str(path), "--threads", "1",
            ]
        )
        assert rc == 0
        assert path.exists()
        assert "wrote 25 cells" in capsys.readouterr().out

    def test_kolokolov_cell_inside_kappa_line_band(self):
        from kgdelta.cli import _scan_cell

        assert _scan_cell(1.0, 5e-4, 8e-7, 1e-6).split(",")[2] == "KolokolovCritical"

    def test_small_kappa_window(self, tmp_path, capsys):
        # off kappa = 0 the embedded pair is a resonance grazing the cut
        path = tmp_path / "z.csv"
        rc = main(
            [
                "scan",
                "--omega-min", "0.5", "--omega-max", "0.6", "--omega-step", "0.05",
                "--kappa-min=-1e-4", "--kappa-max", "1e-4", "--kappa-step", "2e-5",
                "-o", str(path), "--threads", "1",
            ]
        )
        assert rc == 0
        assert "wrote 33 cells" in capsys.readouterr().out
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert {r[2] for r in rows if float(r[1]) == 0.0} == {"EmbeddedPair"}
        assert {r[2] for r in rows if float(r[1]) != 0.0} == {"ZeroOnly"}

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--kappa-max", "inf", "grid bounds and steps must be finite"),
            ("--kappa-min", "-inf", "grid bounds and steps must be finite"),
            ("--omega-min", "nan", "grid bounds and steps must be finite"),
            ("--kappa-step", "nan", "grid bounds and steps must be finite"),
            ("--omega-step", "inf", "grid bounds and steps must be finite"),
            ("--kappa-step", "0", "grid steps must be positive"),
            ("--band", "nan", "band must be >= 0, got nan"),
            ("--band", "-1", "band must be >= 0, got -1.0"),
            ("--omega-min", "0.6", "omega_min must not exceed omega_max"),
            ("--kappa-max", "-0.6", "kappa_min must not exceed kappa_max"),
            ("--kappa-max", "1e300", "scan grid exceeds MAX_SCAN_CELLS = 2000000 cells"),
            ("--omega-max", "1", "omega range must stay inside (-m, m)"),
            # refused before any cell is classified
            ("--mass", "inf", "mass must be positive and finite, got inf"),
            ("--mass", "nan", "mass must be positive and finite, got nan"),
            ("--mass", "0", "mass must be positive and finite, got 0.0"),
            ("--mass", "-1", "mass must be positive and finite, got -1.0"),
        ],
    )
    def test_inputs_outside_domain_exit_2(self, tmp_path, capsys, flag, value, message):
        grid = {
            "--omega-min": "-0.4", "--omega-max": "0.4", "--omega-step": "0.2",
            "--kappa-min": "-0.5", "--kappa-max": "0.5", "--kappa-step": "0.25",
        }
        grid[flag] = value
        argv = ["scan", "-o", str(tmp_path / "bad.csv"), "--threads", "1"]
        assert main(argv + [f"{f}={v}" for f, v in grid.items()]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_reaching_an_overflowing_kappa_exits_2(self, tmp_path, capsys):
        argv = [
            "scan", "-o", str(tmp_path / "huge.csv"),
            "--omega-min=0", "--omega-max=0.1", "--omega-step=0.1",
            "--kappa-min=0", "--kappa-max=1e80", "--kappa-step=5e79",
        ]
        assert main(argv) == 2
        assert "error: the cubic's coefficients overflow float64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_mass_overflowing_the_discriminant_exits_2(self, tmp_path, capsys):
        # the cells are classified at m = 1, but Delta scales as m^12
        argv = [
            "scan", "-m", "1e28", "-o", str(tmp_path / "heavy.csv"),
            "--omega-min=-5e27", "--omega-max=5e27", "--omega-step=2.5e27",
            "--kappa-min=-1", "--kappa-max=1", "--kappa-step=0.5",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the cubic's coefficients overflow float64 at m = 1e+28")
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_mass_overflowing_the_pairs_exits_2_without_a_warning(self, tmp_path, capsys):
        # m times a pair overflows at cells whose Delta, m^12 times the unit one, does too
        argv = [
            "scan", "-m", "1e308", "-o", str(tmp_path / "heavy.csv"),
            "--omega-min=-0.5", "--omega-max=0.5", "--omega-step=0.25",
            "--kappa-min=-1", "--kappa-max=1", "--kappa-step=0.5",
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the cubic's coefficients overflow float64 at m = 1e+308")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # the target is a directory, so the rename onto it fails after the write
        target = tmp_path / "map.csv"
        (target / "kept").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            write_scan_csv(small_config(), str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["map.csv"]
        assert [p.name for p in target.iterdir()] == ["kept"]

    def test_unwritable_output_names_its_path_before_any_cell(self, tmp_path, monkeypatch, capsys):
        # the temp file is made first, so no block is classified; the error
        # names the path given, not the temp file beside it
        calls = []
        classify = kgdelta.cli._classify_arrays
        monkeypatch.setattr(kgdelta.cli, "_classify_arrays", lambda *a: calls.append(1) or classify(*a))
        monkeypatch.chdir(tmp_path)
        argv = ["scan", "--omega-min", "0", "--omega-max", "0.1", "--omega-step", "0.05",
                "--kappa-min", "0", "--kappa-max", "0.1", "--kappa-step", "0.05", "-o", "missing/map.csv"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing/map.csv" in err and ".scan-" not in err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_scan_raising_mid_grid_leaves_no_file(self, tmp_path, monkeypatch):
        # the temp file exists from the first block on, so a later raise unlinks it
        calls = []
        classify = kgdelta.cli._classify_arrays

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("second block")
            return classify(*args)

        monkeypatch.setattr(kgdelta.cli, "_classify_arrays", failing)
        cfg = ScanConfig(m=1.0, omega_min=-0.96, omega_max=0.96, omega_step=0.02,
                         kappa_min=-2.0, kappa_max=2.0, kappa_step=0.05)
        with pytest.raises(RuntimeError, match="second block"):
            write_scan_csv(cfg, str(tmp_path / "map.csv"))
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "axis, grid",
        [
            # 6 cells written as 0 at kappa 0.5, and 6 under the 2 strings 1.5 and 1.50000000001
            ("omega", ["--omega-min", "0", "--omega-max", "1e-13", "--omega-step", "2e-14",
                       "--kappa-min", "0.5", "--kappa-max", "0.5", "--kappa-step", "0.1"]),
            ("kappa", ["--omega-min", "0", "--omega-max", "0", "--omega-step", "0.1",
                       "--kappa-min", "1.5", "--kappa-max", "1.500000000005", "--kappa-step", "1e-12"]),
        ],
    )
    def test_grid_finer_than_its_written_values_is_refused(self, tmp_path, monkeypatch, capsys, axis, grid):
        calls = []
        monkeypatch.setattr(kgdelta.cli, "_classify_arrays", lambda *a: calls.append(1))
        assert main(["scan", *grid, "-o", str(tmp_path / "map.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the {axis} grid is finer than the 12 digits its values are written with\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_memory_is_one_block_at_any_grid_size(self, tmp_path):
        # the rows go to the file block by block: a scan that kept every line
        # peaked 2.7 times higher at 31,137 cells than at 7,857
        def peak(kappa_step: float) -> int:
            cfg = ScanConfig(m=1.0, omega_min=-0.96, omega_max=0.96, omega_step=0.02,
                             kappa_min=-2.0, kappa_max=2.0, kappa_step=kappa_step)
            tracemalloc.start()
            try:
                write_scan_csv(cfg, str(tmp_path / f"{kappa_step}.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(0.05), peak(0.0125)
        for kappa_step, cells in ((0.05, 7_857), (0.0125, 31_137)):
            assert len((tmp_path / f"{kappa_step}.csv").read_text().splitlines()) == 2 + cells
        assert large < 1.25 * small

    def test_cell_cap_fails_before_building_the_grid(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_SCAN_CELLS"):
            ScanConfig(
                m=1.0, omega_min=0.0, omega_max=0.0, omega_step=0.1,
                kappa_min=0.0, kappa_max=1e300, kappa_step=1.0,
            )
        assert time.perf_counter() - start < 1.0

    def test_cell_cap_admits_a_million_cell_zoom(self):
        cfg = ScanConfig(
            m=1.0, omega_min=0.5, omega_max=0.9995, omega_step=0.0005,
            kappa_min=0.0, kappa_max=0.6993, kappa_step=0.0007,
        )
        assert len(cfg.omegas()) * len(cfg.kappas()) == 1_000_000 < MAX_SCAN_CELLS

    def test_reports_scalar_cells_and_rate(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        argv = [
            "scan",
            "--omega-min", "-0.4", "--omega-max", "0.4", "--omega-step", "0.2",
            "--kappa-min", "-0.5", "--kappa-max", "0.5", "--kappa-step", "0.25",
            "-o", str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"wrote 25 cells to {path}"
        words = out[1].split()
        # the cell (0, 0) is on the Kolokolov curve, so at least it is scalar
        assert 1 <= int(words[0]) <= 25 and words[1:4] == ["of", "25", "cells"]
        assert out[1].endswith(" cells/s") and float(words[-2]) > 0

    @pytest.mark.parametrize("axis", ["omega", "kappa"])
    def test_no_negative_zero_on_the_grid(self, tmp_path, axis):
        # -0.9 + 3 * 0.3 rounds to -0.0, which %.12g would write as -0
        grid = {"omega": ("-0.4", "0.4", "0.2"), "kappa": ("-0.5", "0.5", "0.25")}
        grid[axis] = ("-0.9", "0.9", "0.3")
        argv = ["scan", "-o", str(tmp_path / "z.csv")]
        for name, (lo, hi, step) in grid.items():
            argv += [f"--{name}-min={lo}", f"--{name}-max={hi}", f"--{name}-step={step}"]
        assert main(argv) == 0
        rows = [line.split(",") for line in (tmp_path / "z.csv").read_text().splitlines()[2:]]
        column = 0 if axis == "omega" else 1
        assert "0" in {r[column] for r in rows}
        assert not [r for r in rows if "-0" in (r[0], r[1], r[8])]

    def test_region_histogram_matches_the_csv(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        argv = [
            "scan",
            "--omega-min", "-0.96", "--omega-max", "0.96", "--omega-step", "0.08",
            "--kappa-min", "-2", "--kappa-max", "2", "--kappa-step", "0.1",
            "-o", str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        n = 25 * 41
        assert len(out) == 3
        assert out[0] == f"wrote {n} cells to {path}"
        assert out[1].startswith(f"{out[1].split()[0]} of {n} cells took the scalar classifier; ")
        assert out[2].startswith("regions: ")
        entries = [e.split(" ") for e in out[2][len("regions: "):].split(", ")]
        assert [name for name, _ in entries] == [code.value for code in RegionCode]
        counts = {name: int(count) for name, count in entries}
        assert sum(counts.values()) == n
        column = Counter(line.split(",")[2] for line in path.read_text().splitlines()[2:])
        assert counts == {code.value: column[code.value] for code in RegionCode}

    def test_scan_builds_each_axis_list_twice(self, tmp_path, capsys, monkeypatch):
        # once for the grid check and once for the cells: the printed count
        # is the sum of the tally's region counts, not a third pair of lists
        calls = []
        grid_values = kgdelta.cli._grid_values
        monkeypatch.setattr(kgdelta.cli, "_grid_values", lambda *a: calls.append(a) or grid_values(*a))
        path = tmp_path / "cells.csv"
        argv = [
            "scan",
            "--omega-min", "-0.4", "--omega-max", "0.4", "--omega-step", "0.2",
            "--kappa-min", "-0.5", "--kappa-max", "0.5", "--kappa-step", "0.25",
            "-o", str(path),
        ]
        assert main(argv) == 0
        assert Counter(calls) == {(-0.4, 0.4, 0.2): 2, (-0.5, 0.5, 0.25): 2}
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3 and out[0] == f"wrote 25 cells to {path}"
        assert " of 25 cells took the scalar classifier; " in out[1]


def _scalar_row(m, omega, kappa, band):
    try:
        return _scan_cell(m, omega, kappa, band)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


class TestArrayScan:
    """The scan's array path against the scalar classifier, cell by cell.

    A row the array path writes must be the bytes ``_scan_cell`` writes, and
    a cell on which ``_scan_cell`` raises must raise the same type.
    """

    def test_readme_grid_row_for_row(self):
        cfg = ScanConfig(
            m=1.0, omega_min=-0.96, omega_max=0.96, omega_step=0.02,
            kappa_min=-2.0, kappa_max=2.0, kappa_step=0.05,
        )
        out = io.StringIO()
        tally = scan_rows(cfg, out)
        rows = out.getvalue().splitlines()
        want = [_scan_cell(cfg.m, w, k, cfg.band) for w in cfg.omegas() for k in cfg.kappas()]
        assert rows == want
        # the array path decides all but a few percent of the cells
        assert 0 < tally["scalar"] <= 0.05 * len(rows)

    def test_boundary_cells_reach_the_scalar_classifier(self):
        assert _classify_arrays(1.0, np.array([5e-4]), np.array([8e-7]), 1e-6)[0].tolist() == [-1]
        cfg = ScanConfig(
            m=1.0, omega_min=-0.96, omega_max=0.96, omega_step=0.02,
            kappa_min=-2.0, kappa_max=2.0, kappa_step=0.05,
        )
        cells = [(w, k) for w in cfg.omegas() for k in cfg.kappas()]
        codes, _, _ = _classify_arrays(cfg.m, *map(np.array, zip(*cells)), cfg.band)
        boundary = {RegionCode.KOLOKOLOV_CRITICAL, RegionCode.VIRTUAL_LEVEL_BOUNDARY}
        on_curves = [i for i, (w, k) in enumerate(cells) if region_code(cfg.m, w, k, cfg.band) in boundary]
        assert (0.0, 0.0) in [cells[i] for i in on_curves]
        assert codes[on_curves].tolist() == [-1] * len(on_curves)

    @pytest.mark.parametrize("band", [1e-6, 1e-10])
    def test_dense_zooms_onto_the_critical_curves(self, band):
        zooms = [
            # the virtual-level curve omega = (1 + 2 kappa)^2 / (3 + 4 kappa)
            ScanConfig(m=1.0, omega_min=0.5, omega_max=0.98, omega_step=0.002,
                       kappa_min=0.0, kappa_max=0.7, kappa_step=0.005),
            # the Kolokolov curve kappa = omega^2 and the line kappa = 0
            ScanConfig(m=1.0, omega_min=-0.3, omega_max=0.3, omega_step=0.003,
                       kappa_min=-0.6, kappa_max=0.1, kappa_step=0.004),
        ]
        rng = random.Random(11)
        # 3e-8 above the virtual-level curve: a boundary cell at the default
        # band, and one the classifier cannot certify at band 1e-10
        cells = [(0.9, 0.603834871531)]
        for cfg in zooms:
            grid = [(w, k) for w in cfg.omegas() for k in cfg.kappas()]
            cells += rng.sample(grid, 1500)
        want = [_scalar_row(1.0, w, k, band) for w, k in cells]
        if band == 1e-6:
            assert want[0].split(",")[2] == "VirtualLevelBoundary"
        else:
            assert want[0] is ClassificationError
        for cell, exc in zip(cells, want):
            if isinstance(exc, type):
                with pytest.raises(exc):
                    _cell_rows(1.0, [cell], band)
        fine = [(cell, row) for cell, row in zip(cells, want) if isinstance(row, str)]
        assert _cell_rows(1.0, [cell for cell, _ in fine], band) == [row for _, row in fine]

    @pytest.mark.parametrize("band", [1e-6, 1e-10])
    @pytest.mark.parametrize(
        "kappas",
        [[0.0], [-1.0], [1e-7, -1e-7, 3e-8, -3e-9, 1e-12, -1e-15]],
        ids=["kappa-zero", "kappa-minus-one", "small-kappa"],
    )
    def test_discriminant_band_row_for_row(self, band, kappas):
        # strips that lie (almost) wholly in the double-root band of
        # cubic_roots, which the array path decides with the scalar formulas
        omegas = [round(-0.96 + 0.005 * i, 12) for i in range(385)]
        cells = [(w, k) for k in kappas for w in omegas]
        want = [_scalar_row(1.0, w, k, band) for w, k in cells]
        fine = [(cell, row) for cell, row in zip(cells, want) if isinstance(row, str)]
        assert len(fine) >= 0.99 * len(cells)
        assert _cell_rows(1.0, [cell for cell, _ in fine], band) == [row for _, row in fine]
        codes, _, _ = _classify_arrays(1.0, *map(np.array, zip(*cells)), band)
        assert np.count_nonzero(codes < 0) <= 0.01 * len(cells)

    def test_signed_zero_cells_keep_their_own_bytes(self):
        # the axis columns are formatted once per value, and -0.0 == 0.0
        cells = [(0.0, 0.0), (-0.0, 0.5), (0.0, -0.0), (-0.0, -0.0), (0.5, -0.0), (0.5, 0.0), (-0.0, 0.5)]
        rows = _cell_rows(1.0, cells, 1e-6)
        assert rows == [_scan_cell(1.0, w, k, 1e-6) for w, k in cells]
        assert rows[1].startswith("-0,0.5,") and rows[4].startswith("0.5,-0,")

    @pytest.mark.parametrize("m", [1e-3, 7.0, 1e20])
    def test_other_masses_row_for_row(self, m):
        # both paths classify at m = 1 and form Delta as m^12 times its value there
        cfg = ScanConfig(
            m=m, omega_min=-0.96 * m, omega_max=0.96 * m, omega_step=0.02 * m,
            kappa_min=-2.0, kappa_max=2.0, kappa_step=0.05,
        )
        cells = [(w, k) for w in cfg.omegas() for k in cfg.kappas()][::7]
        assert _cell_rows(m, cells, cfg.band) == [_scan_cell(m, w, k, cfg.band) for w, k in cells]

    def test_readme_grid_scalar_count(self):
        # the cells left to the scalar classifier: the boundary codes
        # (KolokolovCritical, VirtualLevelBoundary) and near misses
        cfg = ScanConfig(
            m=1.0, omega_min=-0.96, omega_max=0.96, omega_step=0.02,
            kappa_min=-2.0, kappa_max=2.0, kappa_step=0.05,
        )
        tally = scan_rows(cfg, io.StringIO())
        assert tally["scalar"] == 6


@st.composite
def _cells_near_the_curves(draw):
    """A mass and up to 24 cells, many within 1e-9 of kappa = 0, omega^2/m^2 or K(omega)."""
    m = draw(st.sampled_from([1e-3, 1.0, 7.0]))
    signed_zero = st.sampled_from([0.0, -0.0])
    # a few omega/m values, shared by several cells as on a grid
    us = draw(st.lists(st.floats(-0.999, 0.999) | signed_zero, min_size=1, max_size=4))
    # offsets of every scale up to 1e-9, so that some land next to the band edges
    scaled = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-12.0, -9.0))
    cells = []
    for _ in range(draw(st.integers(1, 24))):
        u = draw(st.sampled_from(us))
        off = draw(st.floats(-1e-9, 1e-9) | scaled | signed_zero)
        near = draw(st.sampled_from(["free", "zero", "kolokolov", "virtual"]))
        if near == "free":
            kappa = draw(st.floats(-3.0, 3.0))
        elif near == "zero":
            kappa = off  # 0.0 + off would turn a -0.0 into 0.0
        else:
            kappa = (u * u if near == "kolokolov" else virtual_level_exponent(1.0, u)) + off
        cells.append((m * u, kappa))
    return m, cells


class TestArrayPathProperty:
    """Random cells next to the critical curves: the array path is the scalar one."""

    @settings(max_examples=120, deadline=None)
    @given(case=_cells_near_the_curves(), band=st.sampled_from([1e-6, 1e-10]))
    def test_rows_are_the_scalar_rows(self, case, band):
        m, cells = case
        want = [_scalar_row(m, w, k, band) for w, k in cells]
        for cell, row in zip(cells, want):
            if isinstance(row, type):
                with pytest.raises(row):
                    _cell_rows(m, [cell], band)
        fine = [(cell, row) for cell, row in zip(cells, want) if isinstance(row, str)]
        assert _cell_rows(m, [cell for cell, _ in fine], band) == [row for _, row in fine]

    @settings(max_examples=200, deadline=None)
    @given(case=_cells_near_the_curves(), band=st.sampled_from([1e-6, 1e-10]))
    def test_region_rules_are_the_scalar_rules(self, case, band):
        m, cells = case
        wu, wi = _distinct_bits(np.array([w for w, _ in cells]))
        ku, ki = _distinct_bits(np.array([k for _, k in cells]))
        got = _region_cells(np.abs(wu / m), wi, ku, ki, band)
        assert [_REGIONS[i] for i in got.tolist()] == [region_code(m, w, k, band) for w, k in cells]


class TestSimulateCommand:
    def test_unwritable_output_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        # the lattice_stable arguments took half a second to find out
        calls = Counter()
        classify, step = kgdelta.cli.classify_point_spectrum, DefectLattice.step
        monkeypatch.setattr(kgdelta.cli, "classify_point_spectrum",
                            lambda *a, **k: calls.update(["classify"]) or classify(*a, **k))
        monkeypatch.setattr(DefectLattice, "step", lambda *a: calls.update(["step"]) or step(*a))
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "-m", "1", "-w", "0.6", "-k", "0.1", "-g", "1", "--eps", "1e-3", "-T", "50",
                "--record-every", "25", "-o", "missing/run"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing/run.csv" in err and ".simulate-" not in err
        assert calls == Counter()
        assert list(tmp_path.iterdir()) == []

    def test_stationary_run(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        rc = main(
            [
                "simulate", "-m", "1", "-w", "0", "-k", "-0.25", "-g", "1",
                "--eps", "0", "-T", "2", "-o", prefix, "--record-every", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted: stable" in out
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["schema"] == 1
        assert summary["verdict_agreement"] is True
        assert summary["observed"] == "stationary"
        assert summary["max_orbital_distance"] <= 1e-9
        csv_lines = (tmp_path / "run.csv").read_text().splitlines()
        assert csv_lines[0] == "t,energy,charge,orbital_distance"
        assert summary["fitted_rate"] is None and summary["energy_drift_fit"] is None

    def test_energy_drift_fit_is_the_drift_up_to_the_fit_window_end(self, tmp_path):
        # the lattice_unstable arguments: the tail past the window drifts 3 times more at seed 0
        argv = ["simulate", "-m", "1", "-w", "0", "-k", "0.25", "-g", "1", "--eps", "1e-6", "-T", "15",
                "--record-every", "1", "-o", str(tmp_path / "run")]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["fitted_rate"] is not None
        assert 0.0 < summary["energy_drift_fit"] <= 1e-6
        assert summary["energy_drift_fit"] < summary["energy_drift"]

    def test_blowup_exit_code(self, tmp_path):
        # seed 2 puts the perturbation on the blow-up side of the unstable
        # manifold; at seed 0 this run reaches the horizon
        prefix = str(tmp_path / "blow")
        rc = main(
            [
                "simulate", "-m", "1", "-w", "0", "-k", "1", "-g", "2", "--seed", "2",
                "--eps", "1e-2", "-T", "30", "-o", prefix, "--record-every", "10",
            ]
        )
        assert rc == 3
        summary = json.loads((tmp_path / "blow.json").read_text())
        assert summary["aborted"] is True
        assert summary["verdict_predicted"] == "unstable"

    def test_overflow_stops_as_growing(self, tmp_path, capsys):
        # kappa = 10: the coupling overflows while max|psi| is still below the
        # guard, and the run stops there, before inf enters the state; seed 4
        # puts the perturbation on the blow-up side of the unstable manifold,
        # and there the overflow comes before the guard
        prefix = str(tmp_path / "over")
        argv = ["simulate", "-m", "1", "-w", "0.6", "-k", "10", "-T", "2", "--seed", "4", "-o", prefix]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "predicted: unstable; observed: growing; agreement: True"
        assert captured.err == ""
        text = (tmp_path / "over.json").read_text()
        summary = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
        assert summary["aborted"] is True and summary["observed"] == "growing"
        assert "nan" not in (tmp_path / "over.csv").read_text()

    def test_invalid_params_exit_2(self):
        assert main(["simulate", "-m", "1", "-w", "2", "-k", "1", "-T", "1"]) == 2

    def test_summary_times_stepping_and_diagnostics(self, tmp_path):
        prefix = str(tmp_path / "timed")
        assert main(["simulate", "-m", "1", "-w", "0.6", "-k", "0.1", "-T", "1", "-o", prefix]) == 0
        summary = json.loads((tmp_path / "timed.json").read_text())
        for key in ("step_s", "diagnostics_s", "steps_per_s"):
            assert math.isfinite(summary[key]) and summary[key] >= 0.0, key
        assert summary["steps_per_s"] > 0.0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["-T", "1", "--record-every", "0"], "record_every must be >= 1"),
            (["-T", "1", "--dt", "0"], "time step must be finite and > 0"),
            (["-T", "1", "--dt", "-0.01"], "time step must be finite and > 0"),
            (["-T", "1", "--dt", "nan"], "time step must be finite and > 0"),
            (["-T", "inf"], "horizon must be finite and >= 0"),
            (["-T", "-5"], "horizon must be finite and >= 0"),
            (["-T", "0"], "horizon must be finite and > 0"),
            (["-T", "1", "--eps", "nan"], "perturbation size must be finite and >= 0"),
            (["-T", "1", "--eps", "inf"], "perturbation size must be finite and >= 0"),
            (["-T", "1", "--grid-h", "0"], "grid spacing must be finite and > 0"),
            (["-T", "1", "--grid-h", "nan"], "grid spacing must be finite and > 0"),
            (["-T", "1", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (["-T", "1", "--dt", "1e-300"], "horizon/dt = 1e+300 exceeds MAX_LATTICE_STEPS = 1000000 steps"),
            # an initial state past float64, and one whose energy's |psi(0)|^2 overflows
            (["-T", "1", "--eps", "1e300"], "the initial state overflows float64 at perturbation size 1e+300"),
            (["-T", "1", "--eps", "1e150"], "the initial state overflows float64 at perturbation size 1e+150"),
        ],
    )
    def test_run_inputs_outside_domain_exit_2(self, tmp_path, capsys, flags, message):
        prefix = str(tmp_path / "bad")
        assert main(["simulate", "-m", "1", "-w", "0.6", "-k", "0.1", *flags, "-o", prefix]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lattice_above_node_cap_exit_2(self, tmp_path, capsys):
        # 2,121,323 nodes: the decay length 1/kap = 707 sets the walls
        prefix = str(tmp_path / "big")
        assert main(["simulate", "-m", "1", "-w", "0.999999", "-k", "0.1", "-T", "10", "-o", prefix]) == 2
        assert "needs more than MAX_LATTICE_NODES = 1000000 nodes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_point_the_classifier_cannot_certify_writes_nothing(self, tmp_path, capsys):
        # kappa - K(0.9) = 3e-8: the in-gap root is too close to the threshold
        prefix = str(tmp_path / "run")
        argv = ["simulate", "-m", "1", "-w", "0.9", "-k", "0.603834871531", "-T", "2", "-o", prefix]
        assert main(argv) == 2
        assert "error: no accepted in-gap imaginary root" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.json").exists()

    def test_kappa_disagreeing_with_nonlinearity_exit_2(self, tmp_path, capsys):
        # the coupling g*tau has effective exponent 1, not the stated 0
        rc = main(
            [
                "simulate", "-m", "1", "-w", "0.3", "-k", "0", "-T", "20",
                "--nonlinearity", '{"type":"power","g":2,"kappa":1}',
                "-o", str(tmp_path / "bad"),
            ]
        )
        assert rc == 2
        assert "error: -k 0 disagrees" in capsys.readouterr().err
        assert not (tmp_path / "bad.json").exists()

    def test_table_crossing_only_by_extrapolation_exit_2(self, tmp_path, capsys):
        # 0.6 is the exponent of the extrapolated root C^2 = 3 past tau = 2
        table = '{"type":"table","tau":[0.5,1,1.5,2],"a":[1,1.2,1.4,1.6]}'
        rc = main(
            [
                "simulate", "-m", "1", "-w", "0", "-k", "0.6", "-T", "1", "--eps", "0",
                "--nonlinearity", table, "-o", str(tmp_path / "tab"),
            ]
        )
        assert rc == 2
        assert "no sign change for C^2 in [0.5, 2]" in capsys.readouterr().err
        assert not (tmp_path / "tab.json").exists()

    def test_table_coupling_takes_the_printed_exponent(self, tmp_path, capsys):
        # a table's exponent comes from the interpolant's slope at the solved
        # amplitude; the 12 digits the error prints must pass the check
        table = '{"type":"table","tau":[0.5,1,1.5,2],"a":[1.6,1.72,1.8,1.85]}'
        argv = ["simulate", "-m", "1", "-w", "0.5", "-T", "2", "--eps", "0",
                "--nonlinearity", table, "-o", str(tmp_path / "tab"), "--record-every", "10"]
        assert main(argv + ["-k", "0.1"]) == 2
        err = capsys.readouterr().err
        k_eff = err.split("effective exponent ")[1].split()[0]
        assert main(argv + ["-k", k_eff]) == 0
        summary = json.loads((tmp_path / "tab.json").read_text())
        assert summary["verdict_predicted"] == "stable"

    def test_nonlinearity_config_flag(self, tmp_path):
        prefix = str(tmp_path / "cfg")
        rc = main(
            [
                "simulate", "-m", "1", "-w", "0", "-k", "-0.25",
                "--nonlinearity", '{"type": "power", "g": 1.0, "kappa": -0.25}',
                "--eps", "0", "-T", "1", "-o", prefix, "--record-every", "20",
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "cfg.json").read_text())
        assert summary["nonlinearity"] == {"type": "power", "g": 1.0, "kappa": -0.25}


class TestValidateCommand:
    def test_default_suites_pass(self, capsys):
        rc = run_validation(m=1.0, grid=5, sweep=10)
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation passed" in out
        assert out.count("PASS") == 4

    def test_suite_times_line_precedes_the_verdict(self, capsys):
        rc = run_validation(m=1.0, grid=3, sweep=4)
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[-1] == "validation passed"
        names = [line.split(":")[0] for line in lines[:4]]
        assert lines[:4] == [
            "oracle-root-agreement: PASS (9 checks, 0 failed)",
            "closed-form-special-cases: PASS (8 checks, 0 failed)",
            "algebraic-identities: PASS (110 checks, 0 failed)",
            "virtual-level-residuals: PASS (20 checks, 0 failed)",
        ]
        assert lines[-2].startswith("suite times: ")
        entries = lines[-2][len("suite times: "):].split(", ")
        assert [e.split(" ")[0] for e in entries] == names
        for e in entries:
            _, seconds, unit = e.split(" ")
            assert float(seconds) >= 0.0 and unit == "s"

    @pytest.mark.parametrize(
        "args",
        [["--grid", "0"], ["--sweep", "0"], ["--grid", "0", "--sweep", "-3"], ["--grid", "1415"],
         ["-m", "inf"], ["-m", "0"], ["--perturb-q", "nan"], ["--at", "1,0.5,0.2", "--perturb-q", "nan"],
         ["--sweep", "1000001"]],
    )
    def test_bad_arguments_exit_2_before_any_suite(self, capsys, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["validate", *args])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in captured.err

    def test_closed_form_sweeps_run_in_blocks(self):
        def peak(sweep: int) -> int:
            tracemalloc.start()
            try:
                assert list(_suite_closed_forms(sweep, 0.0)) == []
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 800 cells fill one block; 6,000 cells at once took 7 times that
        assert peak(3000) < 1.5 * peak(400)

    def test_failures_are_streamed_not_kept(self):
        # under the fault every closed-form check fails; a suite that kept its
        # messages took twice the memory at 6,000 of them as at 800
        def peak(sweep: int) -> int:
            tracemalloc.start()
            try:
                assert sum(1 for _ in _suite_closed_forms(sweep, 1e-3)) == 2 * sweep
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3000) < 1.5 * peak(400)

    @pytest.mark.parametrize("m", ["5e-324", "1e-320"])
    def test_subnormal_mass_exits_2_before_any_suite(self, capsys, m):
        # the suites place their frequencies at fractions of m, which a
        # subnormal m rounds away; 1e-320 used to pass, 5e-324 blamed a cell
        assert main(["validate", "-m", m, "--grid", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: validate needs a normal mass, at least 2.2250738585072014e-308: got m = {m}\n"

    def test_smallest_normal_mass_passes(self, capsys):
        assert main(["validate", "-m", "2.2250738585072014e-308", "--grid", "9"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "validation passed"

    @pytest.mark.parametrize("grid, sweep", [(5, 10), (3, 4), (5, 4)])
    def test_fault_injection_detected(self, capsys, grid, sweep):
        rc = run_validation(m=1.0, grid=grid, sweep=sweep, perturb_q=1e-3)
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_fault_injection_detected_at_another_mass(self, capsys):
        # the fault goes into the cubic in units of m, so it shows at any mass
        assert main(["validate", "-m", "7", "--grid", "9", "--perturb-q", "1e-3"]) == 1
        out = capsys.readouterr().out
        assert "oracle-root-agreement: FAIL" in out
        assert "closed-form-special-cases: FAIL" in out
        assert out.splitlines()[-1] == "validation FAILED"

    def test_single_point_virtual_level(self, capsys):
        rc = main(["validate", "--at", "1,0.8,0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "virtual-level residual" in out
        assert "PASS" in out

    @pytest.mark.parametrize(
        "args",
        [["-m", "1e-9"], ["-m", "0.01", "--grid", "21"], ["-m", "0.01", "--grid", "3"],
         ["-m", "0.16"], ["-m", "7"], ["-m", "1e6"],
         ["-m", "1e-300"], ["-m", "1e-100"], ["-m", "1e-30"], ["-m", "1e24"], ["-m", "1e30"],
         ["-m", "1e70"]],
    )
    def test_suites_pass_at_any_mass(self, capsys, args):
        # the oracle and the suites work in units of m; at 0.01 with grid 3 the
        # level relation meets z within 1e-6 of 1, where z's rounding dominates
        assert main(["validate", *args]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "validation passed"

    @pytest.mark.parametrize(
        "at", ["1e-6,0,0.5", "1e-6,8e-7,0.5", "1,0.0005,0", "1e-300,0,0.5", "1e200,0,0.5"]
    )
    def test_single_points_at_any_mass(self, capsys, at):
        # the cubic pipeline works in units of m, so neither m^2 underflowing
        # nor the physical cubic overflowing stops it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["validate", "--at", at])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert rc == 0 and captured.out.splitlines()[-1] == "PASS"

    @pytest.mark.parametrize("m", [1e-300, 1e70])
    def test_extreme_masses_raise_no_runtime_warning(self, capsys, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_validation(m=m, grid=9) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "validation passed"

    @pytest.mark.parametrize("m", ["1e80", "1e100"])
    def test_identities_run_in_units_of_m(self, capsys, m):
        # in physical units the level relation's z * w^2 overflowed from m of order 1e77
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["validate", "-m", m, "--grid", "9"]) == 0
        assert "algebraic-identities: PASS (110 checks, 0 failed)" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("m", [0.02, 3.0])
    def test_oracle_mass_range_ends_are_admitted(self, capsys, m):
        assert main(["validate", "--at", f"{m!r},{0.3 * m!r},0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="accepted_roots also returns a spurious 0.0019899495040i there")
    def test_single_point_next_to_the_origin(self):
        # mpmath (60 digits) has the one in-gap root 0.0019899748841631143i
        assert main(["validate", "--at", "1,0.001,1e-8"]) == 0

    @pytest.mark.parametrize("kappa", ["1e12", "1e17"])
    def test_single_point_at_large_kappa(self, kappa):
        # the pipeline's +-sqrt(3) kappa lie beyond the scan's window, and the
        # scan finds no other root
        assert main(["validate", "--at", f"1,0.5,{kappa}"]) == 0

    def test_single_point_honors_fault_injection(self, capsys):
        assert main(["validate", "--at", "1,0.5,0.2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"
        assert main(["validate", "--at", "1,0.5,0.2", "--perturb-q", "1e-3"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "  gap-axis: scan found extra root 0.456173454" in out
        assert out[-1] == "FAIL"

    @pytest.mark.parametrize(
        "flags, named",
        [(["-m", "5"], "-m"), (["--mass", "5"], "-m"), (["--grid", "0"], "--grid"),
         (["--sweep", "10"], "--sweep"), (["--grid", "0", "-m", "5"], "-m")],
    )
    def test_single_point_refuses_suite_flags(self, capsys, flags, named):
        assert main(["validate", "--at", "1,0.5,0.2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f": {named} cannot go with it" in captured.err

    # exit code and SHA-256 of stdout without its "suite times:" line, as the
    # oracle suite printed them when it ran the cubic pipeline point by point;
    # under the fault both closed-form sweeps fail all 100 checks
    OUTPUT_SHA256 = {
        ("--grid", "21", "--sweep", "50"):
            (0, "7729934fa0f60d69d40ac0edb79f6fa3a9bd363b391ca5ba0ffa2488c9a71540"),
        ("--grid", "21", "--sweep", "50", "--perturb-q", "1e-3"):
            (1, "ead06914935e2a247caf25f3caa696736e73611f0781ed43ab109f4803747b59"),
    }

    @pytest.mark.parametrize("args", list(OUTPUT_SHA256), ids=" ".join)
    def test_output_is_pinned(self, capsys, args):
        code, want = self.OUTPUT_SHA256[args]
        assert main(["validate", *args]) == code
        lines = capsys.readouterr().out.splitlines(keepends=True)
        body = "".join(line for line in lines if not line.startswith("suite times:"))
        assert hashlib.sha256(body.encode()).hexdigest() == want


def test_console_entry_point_runs():
    # A fresh interpreter runs __main__.py of the package under test: the
    # directory holding it is src/ in a checkout and site-packages in an install.
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "kgdelta", "spectrum", "-m", "1", "-w", "0.5", "-k", "0.1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    # kappa = 0.1 < omega^2/m^2 = 0.25
    assert "orbital stability: stable" in proc.stdout.splitlines()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_without_traceback(unbuffered):
    # the read end is closed before the child writes, as `| head -1` can do;
    # buffered, the write fails only when stdout is flushed
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "kgdelta", "validate", "--grid", "3", "--sweep", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": str(package_root)},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == ""


def test_closed_stdout_at_start_is_not_an_error():
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "kgdelta", "spectrum", "-m", "1", "-w", "0.5", "-k", "0.1"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [["scan", "--omega-min", "0", "--omega-max", "0.1", "--omega-step", "0.05",
      "--kappa-min", "0", "--kappa-max", "0.1", "--kappa-step", "0.05", "-o", "{}/map.csv"],
     ["simulate", "-m", "1", "-w", "0.5", "-k", "0.1", "-T", "0.5", "-o", "{}/run"]],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_exits_2_without_traceback(tmp_path, capsys, argv):
    # exit 1 means a failed validation, so a path that cannot be written is
    # reported like any other bad argument
    missing = tmp_path / "missing"
    assert main([a.format(missing) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config",
    ['{"type":"power"}', '{"type":"power","g":1,"kappa":null}', '{"type":"table","tau":[0,1]}',
     '"power"', "null", "[1]"],
)
def test_malformed_nonlinearity_config_exits_2_without_traceback(tmp_path, capsys, config):
    argv = ["simulate", "-m", "1", "-w", "0.5", "-k", "0.1", "-T", "0.5", "-o", str(tmp_path / "run"),
            "--nonlinearity", config]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"type":"power","g":"2","kappa":"0.1"}', "'g' must be a finite number, got '2'"),
        ('{"type":"power","g":true,"kappa":0.1}', "'g' must be a finite number, got True"),
        ('{"type":"power","g":1,"kappa":"0.1"}', "'kappa' must be a finite number, got '0.1'"),
        ('{"type":"power","g":1,"kappa":false}', "'kappa' must be a finite number, got False"),
        ('{"type":"table","tau":[null,1,2],"a":[1,2,3]}', "'tau' must be a list of finite numbers, got [None, 1, 2]"),
        ('{"type":"table","tau":[0,1,2],"a":[1,"2",3]}', "'a' must be a list of finite numbers, got [1, '2', 3]"),
        ('{"type":"table","tau":[0,1,2],"a":[1,NaN,3]}', "'a' must be a list of finite numbers, got [1, nan, 3]"),
        ('{"type":"table","tau":[0,Infinity,2],"a":[1,2,3]}', "'tau' must be a list of finite numbers, got [0, inf, 2]"),
        ('{"type":"table","tau":[2,1,0.5],"a":[4,2,1]}', "'tau' must be strictly increasing, got [2, 1, 0.5]"),
        ('{"type":"table","tau":[0.5,1,1],"a":[4,2,1]}', "'tau' must be strictly increasing, got [0.5, 1, 1]"),
    ],
    ids=["str-g", "bool-g", "str-kappa", "bool-kappa", "null-entry", "str-entry", "nan-entry", "inf-entry",
         "decreasing-tau", "repeated-tau"],
)
def test_nonlinearity_config_takes_only_finite_json_numbers(tmp_path, capsys, config, message):
    argv = ["simulate", "-m", "1", "-w", "0.5", "-k", "0.1", "-T", "0.5", "-o", str(tmp_path / "run"),
            "--nonlinearity", config]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: the nonlinearity config's {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_writes_neither_file_when_one_cannot_be_written(tmp_path, capsys):
    # run.json is a directory: the run.csv of a finished run was left behind
    (tmp_path / "run.json").mkdir()
    argv = ["simulate", "-m", "1", "-w", "0.5", "-k", "0.1", "-T", "0.5", "-o", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path / 'run.json'}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    assert list((tmp_path / "run.json").iterdir()) == []


def test_output_files_get_the_mode_of_a_new_file(tmp_path):
    # the temporary files they are renamed from are made private
    (tmp_path / "plain").write_text("")
    assert main(["simulate", "-m", "1", "-w", "0.5", "-k", "0.1", "-T", "0.5", "-o", str(tmp_path / "run")]) == 0
    assert main(["scan", "--omega-min", "0", "--omega-max", "0.1", "--omega-step", "0.05", "--kappa-min", "0",
                 "--kappa-max", "0.1", "--kappa-step", "0.05", "-o", str(tmp_path / "map.csv")]) == 0
    modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["plain", "run.csv", "run.json", "map.csv"], modes["plain"])


# The child runs the module named by its first argument as ``python -m``
# does, and reports at exit whether the collector was frozen.
_RUN_AS_MAIN = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"collector frozen: {gc.get_freeze_count() > 0}", file=sys.stderr))
runpy.run_module(sys.argv.pop(1), run_name="__main__")
"""


def _untimed(out: str) -> str:
    """``out`` without the lines and figures that hold wall times."""
    lines = [line for line in out.splitlines(keepends=True) if not line.startswith("suite times:")]
    return re.sub(r"; [0-9]+ cells/s$", "", "".join(lines), flags=re.M)


_EXITS = [
    (["spectrum", "-m", "1", "-w", "0.5", "-k", "0.1"], 0),
    (["validate", "--grid", "3", "--sweep", "10", "--perturb-q", "1e-3"], 1),
    (["spectrum", "-m", "-1", "-w", "0", "-k", "0.1"], 2),
    (["--help"], 0),
    (["no-such-command"], 2),
    (["scan", "--omega-min", "-0.4", "--omega-max", "0.4", "--omega-step", "0.2",
      "--kappa-min", "-0.5", "--kappa-max", "0.5", "--kappa-step", "0.25", "-o", "cells.csv"], 0),
]


@pytest.mark.parametrize("module, argv, code", [
    *(pytest.param("kgdelta", argv, code, id=f"{' '.join(argv)}-{code}") for argv, code in _EXITS),
    pytest.param("kgdelta.cli", *_EXITS[0], id="kgdelta.cli spectrum -m 1 -w 0.5 -k 0.1-0"),
])
def test_module_run_freezes_the_collector_on_every_exit(tmp_path, monkeypatch, capsys, module, argv, code):
    # the same exit code and output as main in-process, argparse's SystemExit
    # included, and the collector frozen before the interpreter's teardown
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    (tmp_path / "child").mkdir()
    (tmp_path / "in-process").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN, module, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path / "child",
        env={**os.environ, "PYTHONPATH": str(package_root), "COLUMNS": "80"},
    )
    monkeypatch.chdir(tmp_path / "in-process")
    monkeypatch.setenv("COLUMNS", "80")
    try:
        want_code = main(argv)
    except SystemExit as exc:
        want_code = exc.code
    want = capsys.readouterr()
    assert (proc.returncode, want_code) == (code, code)
    assert _untimed(proc.stdout) == _untimed(want.out)
    err = proc.stderr.splitlines()
    assert err[-1] == "collector frozen: True"
    assert err[:-1] == want.err.splitlines()
    if argv[0] == "spectrum" and code == 2:
        assert err[0] == "error: mass must be positive and finite, got -1.0"
    if argv[0] == "scan":
        assert (tmp_path / "child" / "cells.csv").read_bytes() == (tmp_path / "in-process" / "cells.csv").read_bytes()


def test_module_cli_executes_its_file_once():
    # python -m kgdelta.cli runs cli.py as __main__; an import of kgdelta.cli
    # on the way to the entry point would execute the file a second time
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    child = """
import atexit, runpy, sys
atexit.register(lambda: print(f"kgdelta.cli imported: {'kgdelta.cli' in sys.modules}", file=sys.stderr))
runpy.run_module("kgdelta.cli", run_name="__main__")
"""
    proc = subprocess.run(
        [sys.executable, "-c", child, "spectrum", "-m", "1", "-w", "0.5", "-k", "0.1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "orbital stability: stable" in proc.stdout.splitlines()
    assert proc.stderr.splitlines() == ["kgdelta.cli imported: False"]


def test_console_script_is_the_module_entry():
    # the kgdelta script and python -m kgdelta run the same function
    tomllib = pytest.importorskip("tomllib")
    import kgdelta.__main__ as entry

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["kgdelta"]
    assert target == "kgdelta.__main__:run"
    module, _, name = target.partition(":")
    script_entry = getattr(importlib.import_module(module), name)
    tree = ast.parse(Path(entry.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in guard.body] == ["sys.exit(run())"]
    assert script_entry is entry.run


def test_every_third_party_import_is_declared():
    # `pip install -e .[test]` must bring every module that src/ and tests/ import
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + [r for extra in project["optional-dependencies"].values() for r in extra]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}
    imported = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    local = {"kgdelta"} | {path.stem for path in (root / "tests").glob("*.py")}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "scipy", "pytest", "hypothesis", "mpmath"} <= third_party
    assert third_party <= declared


def test_power_coupling_commands_load_no_scipy(tmp_path):
    # scipy is imported only for table couplings; a fresh interpreter shows
    # what each command really loads
    script = f"""
import json, sys
from kgdelta.cli import main
out = {str(tmp_path)!r}
runs = [
    ["spectrum", "-m", "1", "-w", "0.5", "-k", "0.1", "--format", "json"],
    ["scan", "--omega-min", "-0.5", "--omega-max", "0.5", "--omega-step", "0.25",
     "--kappa-min", "-1", "--kappa-max", "1", "--kappa-step", "0.5", "-o", out + "/s.csv", "--threads", "2"],
    ["simulate", "-m", "1", "-w", "0.6", "-k", "0.1", "-T", "0.5", "-o", out + "/p"],
    ["validate", "--grid", "3", "--sweep", "10"],
]
codes = [main(argv) for argv in runs]
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
table = '{{"type": "table", "tau": [0, 2, 4, 6], "a": [0, 1, 2, 3]}}'
codes.append(main(["simulate", "-m", "1", "-w", "0", "-k", "1", "-T", "0.5", "--eps", "0",
                   "--nonlinearity", table, "-o", out + "/t"]))
print(json.dumps({{"codes": codes, "before": before, "after": sorted(sys.modules)}}))
"""
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert got["before"] == []
    # the table a = tau/2 is interpolated, and its potential integrated
    assert {"scipy.interpolate", "scipy.integrate"} <= set(got["after"])


def test_scan_loads_no_scipy_and_no_hashlib(tmp_path):
    # a module a scan does not need costs every scan its import and its
    # memory: hashlib alone adds about 3.8 MB to the peak RSS
    script = f"""
import json, sys
from kgdelta.cli import main
code = main(["scan", "--omega-min", "-0.96", "--omega-max", "0.96", "--omega-step", "0.24",
             "--kappa-min", "-2", "--kappa-max", "2", "--kappa-step", "0.25", "-o", {str(tmp_path / "s.csv")!r}])
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert [m for m in got["modules"] if m.split(".")[0] in ("scipy", "hashlib", "_hashlib")] == []


def test_simulate_loads_no_numpy_random_and_no_hashlib(tmp_path):
    # numpy.random loads secrets, hmac and hashlib with OpenSSL, about 6 MB
    # of every simulate's peak RSS for the perturbation's 32 numbers; an
    # unstable run with --eps > 0 draws the perturbation and fits the rate
    script = f"""
import json, sys
from kgdelta.cli import main
code = main(["simulate", "-m", "1", "-w", "0", "-k", "1", "-g", "2", "--eps", "1e-6", "-T", "10",
             "-o", {str(tmp_path / "u")!r}])
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert json.loads((tmp_path / "u.json").read_text())["fitted_rate"] is not None
    unwanted = ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib")
    assert [m for m in got["modules"] if m in unwanted or m.startswith("numpy.random.")] == []


def test_validate_loads_no_numpy_ma():
    # np.unique imports numpy.ma (through np.ma.is_masked), about 13 ms of
    # every validate
    script = """
import json, sys
from kgdelta.cli import main
code = main(["validate", "--grid", "3", "--sweep", "10"])
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "numpy.ma": False}


class TestGoldenContract:
    """The scan CSV and the verbose spectrum JSON, pinned byte for byte.

    The scan is the README grid, written serially.  The spectrum points are
    those of ``TestClassification`` in ``test_dispersion.py``.  A change that
    moves a row or a value on purpose updates the hash here and logs the move
    in CHANGES.md.
    """

    README_GRID_SHA256 = "cf7a1fc9772c4f8507f5238fa89acdeaf304344dbf2c6a2ad8223e9f8322e9ff"
    SPECTRUM_SHA256 = {
        ("1", "0.5", "0"): "93ad7345604d90ca073672a6dc3101d1400ff750a11af13c3e21f243b03b8425",
        ("1", "0", "1"): "70c3270e187ff91ed187db2820bca23333e0c35e48e4d409b4bb3bd12923bbef",
        ("1", "0.9", "-0.3"): "b82511a86c2cdf643d0882e754dc1e7fd55653ee7cb00c04bc886d71004cddb4",
        ("1", "0.8", "0.5"): "309a4355c0e8e1090a171b8703866c706a6744ca016ad3ec52d9af807639c053",
        ("1", "0", "-0.5"): "41f8dac760bf40244a179416a31e1741e0a3424f61193846535a84f0c78f71ad",
        ("1", "0.4", "0"): "ac1627e720826ed962e7427e4e656f4e32a16370053c431efec6f96d493e742e",
    }

    def test_readme_grid_csv(self, tmp_path):
        cfg = ScanConfig(
            m=1.0, omega_min=-0.96, omega_max=0.96, omega_step=0.02,
            kappa_min=-2.0, kappa_max=2.0, kappa_step=0.05,
        )
        path = tmp_path / "readme.csv"
        write_scan_csv(cfg, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.README_GRID_SHA256

    def test_spectrum_json(self, capsys):
        for (m, w, k), want in self.SPECTRUM_SHA256.items():
            argv = ["spectrum", "-m", m, "-w", w, f"-k={k}", "--format", "json", "--verbose"]
            assert main(argv) == 0
            got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            assert got == want, (m, w, k)
