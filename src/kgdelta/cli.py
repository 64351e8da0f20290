"""Command-line frontend: spectrum queries, region scans, simulation, validation.

Four subcommands:

* ``spectrum``  single-point spectral report (JSON or human readable);
* ``scan``      region map of the ``(omega, kappa)`` plane as CSV;
* ``simulate``  time-domain run with verdict/rate comparison;
* ``validate``  cross-oracle checks between the closed forms, the cubic
  pipeline, and the dense axis scans.

Exit codes: 0 success, 1 validation failure, 2 invalid parameters or an
output file that cannot be written (found before any work), 3 simulation
aborted by the blow-up guard, 141 (128 + SIGPIPE) standard output closed by
its reader.  Scans run serially: blocks of cells go through the array
classifier, and the few cells it leaves open through the scalar one, so
output files are byte-identical to a cell-by-cell scan.  :func:`scan_rows`
writes each block's rows to its stream as they are formed and returns the
tally ``scan`` prints; :func:`write_scan_csv` gives it the file.  What is
left per cell is that scalar fallback and the three ``%.12g`` value
columns; the axis columns are formatted once per value.  A grid finer than
the 12 digits its values are written with is refused before any cell is
classified.  ``--threads`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import itertools
import json
import math
import os
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np

from .dispersion import (
    BOUNDARY_TOL,
    D_eval,
    PHYSICAL,
    RegionCode,
    SpectrumReport,
    accepted_cells,
    accepted_roots,
    classify_point_spectrum,
    collision_exponent_frequency,
    cubic_data,
    oracle_mismatches,
    region_code,
    residual_scale,
    virtual_level_exponent,
    virtual_level_frequency,
)
from .dispersion import _REGIONS, _classify_arrays, _delta_at_mass, _distinct_bits, _if, _unit
from .lattice import DefectLattice, Grid
from .model import ModelParams, PowerLaw, effective_kappa, nonlinearity_from_config, solve_amplitude
from .spectra import Verdict, lambda_pm, scalar_eigenvalue

__all__ = [
    "RegionCode",
    "ScanConfig",
    "region_code",
    "region_code_from_report",
    "scan_rows",
    "write_scan_csv",
    "run_validation",
    "main",
    "run",
]


def region_code_from_report(report: SpectrumReport) -> RegionCode:
    """The region code a spectral report was assembled for."""
    return report.region


#: Most cells one scan may have: twice the 1e6-cell zooms onto a critical
#: curve, 250 times the README grid.  Its rows are written block by block.
MAX_SCAN_CELLS = 2_000_000


@dataclass(frozen=True)
class ScanConfig:
    """Grid and tolerances of a region scan."""

    m: float
    omega_min: float
    omega_max: float
    omega_step: float
    kappa_min: float
    kappa_max: float
    kappa_step: float
    band: float = 1e-6

    def __post_init__(self) -> None:
        ModelParams(m=self.m, omega=0.0)  # raises unless m is positive and finite
        grid = (
            self.omega_min, self.omega_max, self.omega_step,
            self.kappa_min, self.kappa_max, self.kappa_step,
        )
        if not all(math.isfinite(x) for x in grid):
            raise ValueError("grid bounds and steps must be finite")
        if self.omega_step <= 0.0 or self.kappa_step <= 0.0:
            raise ValueError("grid steps must be positive")
        if not self.band >= 0.0:
            raise ValueError(f"band must be >= 0, got {self.band}")
        if self.omega_min > self.omega_max:
            raise ValueError("omega_min must not exceed omega_max")
        if self.kappa_min > self.kappa_max:
            raise ValueError("kappa_min must not exceed kappa_max")
        spans = (
            (self.omega_max - self.omega_min) / self.omega_step,
            (self.kappa_max - self.kappa_min) / self.kappa_step,
        )
        # the sizes _grid_values will have, counted before any list is built
        cells = math.prod(round(s) + 1 if math.isfinite(s) else math.inf for s in spans)
        if cells > MAX_SCAN_CELLS:
            raise ValueError(f"scan grid exceeds MAX_SCAN_CELLS = {MAX_SCAN_CELLS} cells")
        if max(abs(self.omega_min), abs(self.omega_max)) >= self.m:
            raise ValueError("omega range must stay inside (-m, m)")
        # the values are snapped to 12 decimals and written to 12 digits: a
        # finer grid would write cells of one value under several, or several
        # under one, so each written value must lie within step/1000 of its own
        for axis, (lo, hi, step) in (("omega", grid[:3]), ("kappa", grid[3:])):
            values = _grid_values(lo, hi, step)
            if any(abs(float(_fmt(v)) - (lo + i * step)) > step / 1000 for i, v in enumerate(values)):
                raise ValueError(f"the {axis} grid is finer than the 12 digits its values are written with")

    def omegas(self) -> list[float]:
        return _grid_values(self.omega_min, self.omega_max, self.omega_step)

    def kappas(self) -> list[float]:
        return _grid_values(self.kappa_min, self.kappa_max, self.kappa_step)


def _grid_values(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step)) + 1
    # snap to 12 decimals so decimal-specified grids hit the special lines
    # (kappa = 0 in particular) exactly instead of at float-noise offsets
    # (and + 0.0 turns a -0.0 from the rounding into 0.0, which prints as 0)
    return [round(lo + i * step, 12) + 0.0 for i in range(n) if lo + i * step <= hi + 0.5 * step]


SCAN_COLUMNS = "omega,kappa,region_code,lambda_re,lambda_im,Delta,K_omega,T_kappa,Omega_kappa"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _upper(z, where=_if):
    """``z`` or ``-z``, whichever lies in the right half plane or on the upper imaginary axis; numbers or arrays."""
    return where((z.real > 0.0) | ((z.real == 0.0) & (z.imag >= 0.0)), z, -z)


def _omega_fields(m: float, omega: float) -> tuple[str, str]:
    """The columns that depend on ``omega`` alone: ``omega`` and ``K_omega``."""
    return _fmt(omega), _fmt(virtual_level_exponent(m, omega))


def _kappa_fields(m: float, kappa: float) -> tuple[str, str]:
    """The columns that depend on ``kappa`` alone: ``kappa``, and ``T_kappa,Omega_kappa``."""
    t, omega = virtual_level_frequency(m, kappa), collision_exponent_frequency(m, kappa)
    return _fmt(kappa), f"{t:.12g},{omega:.12g}"


def _row(w: tuple[str, str], k: tuple[str, str], code: str, re: float, im: float, delta: float) -> str:
    """One CSV data line from its axis columns ``w`` and ``k`` and its classification."""
    return f"{w[0]},{k[0]},{code},{re:.12g},{im:.12g},{delta:.12g},{w[1]},{k[1]}"


def _classify_scalar(
    m: float, omega: float, kappa: float, band: float
) -> tuple[RegionCode, complex, float]:
    """Region code, representative eigenvalue and ``delta`` from the scalar classifier."""
    p = ModelParams(m=m, omega=omega, kappa=kappa)
    report = classify_point_spectrum(p, boundary_tol=band)
    code = region_code_from_report(report)
    # the pair's upper member, else the upper virtual level, else zero
    lam = _upper((report.nonzero_values() or report.virtual_levels or (0j,))[0])
    delta = _delta_at_mass(m, cubic_data(_unit(p)).delta)
    return code, lam, delta if math.isfinite(delta) else cubic_data(p).delta  # CubicOverflow past float64


def _scan_cell(m: float, omega: float, kappa: float, band: float) -> str:
    """One CSV data line through the scalar classifier."""
    code, lam, delta = _classify_scalar(m, omega, kappa, band)
    return _row(_omega_fields(m, omega), _kappa_fields(m, kappa), code.value, lam.real, lam.imag, delta)


def _axis_fields(cache: dict, fields, m: float, values: np.ndarray) -> tuple[list, np.ndarray]:
    """``fields(m, v)`` of each distinct value, formed once per bit pattern in ``cache``
    (``%.12g`` writes ``-0.0`` as ``-0``), and where each value is among them."""
    distinct, where = _distinct_bits(values)
    bits = distinct.view(np.int64).tolist()
    return [cache.get(b) or cache.setdefault(b, fields(m, v)) for b, v in zip(bits, distinct.tolist())], where


#: Cells per array call of the scan, eight rows of the README grid.  Arrays
#: over that whole grid at once take the CLI's peak memory from 32 to 47 MB.
_BLOCK_CELLS = 648


def _blocks(cells: Iterable[tuple[float, float]]) -> Iterator[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Consecutive blocks of at most ``_BLOCK_CELLS`` cells, each as ``(omegas, kappas)``."""
    cells = iter(cells)
    while block := list(itertools.islice(cells, _BLOCK_CELLS)):
        yield tuple(zip(*block))


def _row_blocks(m: float, cells: Iterable[tuple[float, float]], band: float, tally: Counter) -> Iterator[list[str]]:
    """The CSV data lines of ``(omega, kappa)`` cells, one list per block, in order.

    Blocks of cells go through the array classifier, the cells it leaves open
    through the scalar one; ``tally`` counts those (``"scalar"``) and the cells
    of each :class:`RegionCode`.  The axis columns are formatted once per value.
    """
    omega_cols: dict = {}
    kappa_cols: dict = {}
    names = [code.value for code in _REGIONS]
    for omegas, kappas in _blocks(cells):
        ws, ks = np.array(omegas, dtype=float), np.array(kappas, dtype=float)
        codes, pairs, deltas = _classify_arrays(m, ws, ks, band)
        lams = _upper(pairs, np.where)
        scalar = np.flatnonzero(codes < 0).tolist()
        for i in scalar:
            code, lams[i], deltas[i] = _classify_scalar(m, omegas[i], kappas[i], band)
            codes[i] = _REGIONS.index(code)
        tally["scalar"] += len(scalar)
        tally.update(dict(zip(_REGIONS, np.bincount(codes, minlength=len(_REGIONS)).tolist())))
        w_cols, wi = _axis_fields(omega_cols, _omega_fields, m, ws)
        k_cols, ki = _axis_fields(kappa_cols, _kappa_fields, m, ks)
        values = lams.real.tolist(), lams.imag.tolist(), deltas.tolist()
        rows = zip(wi.tolist(), ki.tolist(), codes.tolist(), *values)
        yield [_row(w_cols[a], k_cols[b], names[c], re, im, d) for a, b, c, re, im, d in rows]


def scan_rows(cfg: ScanConfig, out: TextIO) -> Counter:
    """Write the scan's CSV data lines to ``out``, row-major in omega then
    kappa and newline-terminated, block by block; returns their tally (see
    :func:`_row_blocks`)."""
    tally: Counter = Counter()
    kappas = cfg.kappas()
    cells = ((w, k) for w in cfg.omegas() for k in kappas)
    for lines in _row_blocks(cfg.m, cells, cfg.band, tally):
        out.write("\n".join(lines) + "\n")
    return tally


def _temp_file_beside(path: str, prefix: str) -> str:
    """An empty temporary file in ``path``'s directory, with the mode a new file there gets.

    Its error names ``path``, as does the one for a ``path`` that is a
    directory, which the rename onto it would only find after the work.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=prefix, suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    os.close(fd)
    umask = os.umask(0o022)
    os.umask(umask)
    os.chmod(tmp, 0o666 & ~umask)  # mkstemp's is 0o600
    return tmp


@contextlib.contextmanager
def _replacing(prefix: str, *paths: str) -> Iterator[list[str]]:
    """Temporary files beside ``paths``, made before the block and renamed onto them once it completes.

    A path that cannot be written fails before the block does any work
    (:func:`_temp_file_beside`); where the block raises, the temporary files
    are removed and no path is touched.
    """
    temps: list[str] = []
    try:
        for path in paths:
            temps.append(_temp_file_beside(path, prefix))
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def write_scan_csv(cfg: ScanConfig, path: str) -> Counter:
    """Write the region map, via a temp file renamed on completion.

    The temp file is made before the first cell is classified.  Returns the
    tally of :func:`scan_rows`: ``"scalar"``, the number of cells that took
    the scalar classifier, and the number of cells of each :class:`RegionCode`.
    """
    header = "# kgdelta-scan schema=1 config=" + json.dumps(asdict(cfg), sort_keys=True)
    with _replacing(".scan-", path) as (tmp,), open(tmp, "w", newline="") as fh:
        fh.write(header + "\n" + SCAN_COLUMNS + "\n")
        return scan_rows(cfg, fh)


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def _suite_oracle(m: float, n: int, perturb_q: float) -> Iterator[str]:
    # the pipeline roots of a block of points come from one array call, the
    # scan's block size bounding its memory
    cells = ((m * round(float(w), 12), round(float(k), 12))
             for w in np.linspace(-0.9, 0.9, n) for k in np.linspace(-1.9, 1.9, n))
    for ws, ks in _blocks(cells):
        for w, k, roots in zip(ws, ks, accepted_cells(m, ws, ks, perturb_q)):
            p = ModelParams(m=m, omega=w, kappa=k)
            for msg in oracle_mismatches(p, roots):
                yield f"(omega={p.omega:g}, kappa={p.kappa:g}) {msg}"


def _suite_closed_forms(n: int, perturb_q: float) -> Iterator[str]:
    # in units of m, as the other suites (the pairs overflow near m ~ 1e308);
    # both sweeps take their roots, and the fault, from accepted_cells in the
    # oracle suite's blocks
    tol = 1e-9
    cells = itertools.chain(
        ((0.0, -0.49 + (3.0 + 0.49) * i / n) for i in range(1, n + 1)),
        ((round(0.95 * i / (n + 1), 12), 0.0) for i in range(1, n + 1)),
    )

    def is_pair(got: list[complex], want: complex) -> bool:
        return len(got) == 2 and len([z for z in got if abs(z - want) <= tol or abs(z + want) <= tol]) == 2

    for ws, ks in _blocks(cells):
        for w, k, got in zip(ws, ks, accepted_cells(1.0, ws, ks, perturb_q)):
            if w == 0.0:  # the kappa = 0 sweep has omega > 0
                want = 2.0 * (math.sqrt(k * (1.0 + k)) if k > 0 else 1j * math.sqrt(-k * (1.0 + k)))
                if not is_pair(got, want):
                    yield f"omega=0, kappa={k:g}: expected +-{want:g}, pipeline gave {got}"
                continue
            # the classifier marks the pair embedded where this region is EmbeddedPair
            region = region_code(1.0, w, 0.0, BOUNDARY_TOL)
            if not is_pair(got, 2j * w) or (region is RegionCode.EMBEDDED_PAIR) != (w >= 1.0 / 3.0):
                yield f"kappa=0, omega={w:g}: expected +-{2j * w:g}, pipeline gave {got} in {region.value}"


def _suite_identities(n: int) -> Iterator[str]:
    # in units of m, as the other suites (the level relation overflows from m ~ 1e77)
    for w in np.linspace(-0.9, 0.9, n):
        for k in np.linspace(-0.45, 2.0, n):
            p = ModelParams(m=1.0, omega=float(w), kappa=float(k))
            lam = lambda_pm(p)
            s = scalar_eigenvalue(p)
            if lam is None or s is None:
                continue
            lo, hi = lam
            vieta_prod = abs(lo * hi - s) / (1.0 + abs(s))
            vieta_sum = abs(lo + hi - (s + w * w + 1.0)) / (1.0 + abs(s))
            if vieta_prod > 1e-12 or vieta_sum > 1e-12:
                yield f"Vieta violated at omega/m={w:g}, kappa={k:g}"
            for z in (lo, hi):
                if abs(z - 1.0) > 1e-6:
                    term = z * w * w / (1.0 - z)
                    # 8 ulps of z, magnified by d(term)/dz = w^2 / (1 - z)^2
                    slack = 8.0 * sys.float_info.epsilon * abs(term * z / (1.0 - z))
                    if abs(z + term - s) > 1e-10 * (1.0 + abs(s)) + slack:
                        yield f"level relation violated at omega/m={w:g}, kappa={k:g}"
    for i in range(n):
        k = -0.5 + (1.0 / math.sqrt(2.0) + 0.5) * i / n
        t = virtual_level_frequency(1.0, k)
        back = virtual_level_exponent(1.0, t)
        if abs(back - k) > 1e-10:
            yield f"curve inverse violated at kappa={k:g}: K(T)={back:.12g}"


def _threshold_residual(p: ModelParams) -> tuple[float, float]:
    """``|D|`` at the gap threshold ``i(m - |omega|)`` on the physical sheet, and its scale."""
    lam = 1j * (p.m - abs(p.omega))
    return abs(D_eval(p, lam, PHYSICAL)), residual_scale(p, lam)


def _suite_virtual_levels(n: int) -> Iterator[str]:
    # D(m l; m, m w, kappa) = m^2 D(l; 1, w, kappa): the relative residual is
    # taken in units of m, at m = 1
    for i in range(1, n + 1):
        k = -0.49 + (0.70 + 0.49) * i / n
        p = ModelParams(m=1.0, omega=virtual_level_frequency(1.0, k), kappa=k)
        resid, scale = _threshold_residual(p)
        if resid > 1e-10 * scale:
            yield f"kappa={k:g}: |D| = {resid:.3e} > 1e-10 * {scale:.3e}"


#: Failure messages a suite prints; the rest are only counted.
_SHOWN_FAILURES = 10


def run_validation(m: float = 1.0, grid: int = 9, sweep: int = 50, perturb_q: float = 0.0) -> int:
    """Run the cross-validation suites; returns the process exit code.

    Arguments are checked before any suite runs: a bad one raises
    ``ValueError`` and prints nothing.  ``m`` must be a normal float64,
    finite and at least ``sys.float_info.min``.  Each suite yields its
    failure messages as it finds them; the first ten are printed and the
    rest only counted.  The last lines are the wall time of each suite and
    the overall verdict.
    """
    if not (grid >= 1 and sweep >= 1):
        raise ValueError(f"grid and sweep must be at least 1, got grid={grid}, sweep={sweep}")
    if grid * grid > MAX_SCAN_CELLS:
        raise ValueError(f"oracle grid exceeds MAX_SCAN_CELLS = {MAX_SCAN_CELLS} cells")
    if 2 * sweep > MAX_SCAN_CELLS:
        raise ValueError(f"the two closed-form sweeps exceed MAX_SCAN_CELLS = {MAX_SCAN_CELLS} cells")
    if not math.isfinite(perturb_q):
        raise ValueError(f"perturb_q must be finite, got {perturb_q}")
    ModelParams(m=m, omega=0.0)  # raises unless m is positive and finite
    if m < sys.float_info.min:
        # the suites place their frequencies at fractions of m, which a
        # subnormal m rounds away (0.9 * 5e-324 is 5e-324)
        raise ValueError(f"validate needs a normal mass, at least {sys.float_info.min!r}: got m = {m!r}")
    g = max(grid, 10)
    # name, checks, failure messages; a suite runs as its messages are drawn
    suites = [
        ("oracle-root-agreement", grid * grid, _suite_oracle(m, grid, perturb_q)),
        ("closed-form-special-cases", 2 * sweep, _suite_closed_forms(sweep, perturb_q)),
        ("algebraic-identities", g * g + g, _suite_identities(g)),
        ("virtual-level-residuals", 20, _suite_virtual_levels(20)),
    ]
    total_fail = 0
    times: list[str] = []
    for name, checks, fails in suites:
        start = time.perf_counter()
        shown = list(itertools.islice(fails, _SHOWN_FAILURES))
        failed = len(shown) + sum(1 for _ in fails)
        times.append(f"{name} {time.perf_counter() - start:.3g} s")
        total_fail += failed
        print(f"{name}: {'FAIL' if failed else 'PASS'} ({checks} checks, {failed} failed)")
        for msg in shown:
            print(f"  {msg}")
        if failed > _SHOWN_FAILURES:
            print(f"  ... and {failed - _SHOWN_FAILURES} more")
    print(f"suite times: {', '.join(times)}")
    print(f"validation {'passed' if total_fail == 0 else 'FAILED'}")
    return 0 if total_fail == 0 else 1


def _validate_at(p: ModelParams, perturb_q: float) -> int:
    """The oracle, and next to the virtual-level curve its residual, at one point."""
    failures = oracle_mismatches(p, accepted_roots(p, perturb_q))
    for msg in failures:
        print(f"  {msg}")
    t = virtual_level_frequency(p.m, p.kappa)
    if not math.isnan(t) and abs(abs(p.omega) - t) <= 1e-6 * p.m:
        resid, scale = _threshold_residual(p)
        print(f"virtual-level residual |D({p.m - abs(p.omega):g}i)| = {resid:.3e} (scale {scale:.3e})")
        if resid > 1e-10 * scale:
            failures.append("virtual-level residual out of tolerance")
    report = classify_point_spectrum(p)
    print(f"point spectrum: {[e.to_jsonable() for e in report.points.entries]}")
    print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def _spectrum_text(report: SpectrumReport) -> str:
    p = report.params
    gap = p.m - abs(p.omega)
    lines = [
        f"m = {p.m:g}, omega = {p.omega:g}, kappa = {p.kappa:g}",
        f"essential spectrum (imaginary parts): gap (-{gap:g}, {gap:g}), "
        f"thresholds {report.ess.thresholds}",
        f"zero eigenvalue: geometric {report.jordan_at_zero.geometric}, "
        f"algebraic {report.jordan_at_zero.algebraic}",
    ]
    for e in report.points.entries:
        if e.value == 0:
            continue
        tag = " (embedded)" if e.embedded else ""
        lines.append(f"eigenvalue {e.value:.9g}{tag}")
    for v in report.virtual_levels:
        lines.append(f"virtual level at {v:.9g}")
    if report.flags:
        lines.append("flags: " + ", ".join(report.flags))
    lines.append(f"orbital stability: {report.verdict.value}")
    return "\n".join(lines)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    p = ModelParams(m=args.mass, omega=args.omega, kappa=args.kappa)
    report = classify_point_spectrum(p)
    if args.format == "json":
        print(report.to_json(verbose=args.verbose))
    else:
        print(_spectrum_text(report))
        if args.verbose:
            for c in report.candidates:
                print(f"  candidate {c.to_jsonable()}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    cfg = ScanConfig(
        m=args.mass,
        omega_min=args.omega_min,
        omega_max=args.omega_max,
        omega_step=args.omega_step,
        kappa_min=args.kappa_min,
        kappa_max=args.kappa_max,
        kappa_step=args.kappa_step,
        band=args.band,
    )
    start = time.perf_counter()
    tally = write_scan_csv(cfg, args.output)
    elapsed = time.perf_counter() - start
    n = sum(tally[code] for code in RegionCode)
    print(f"wrote {n} cells to {args.output}")
    print(f"{tally['scalar']} of {n} cells took the scalar classifier; {n / elapsed:.0f} cells/s")
    print("regions: " + ", ".join(f"{code.value} {tally[code]}" for code in RegionCode))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    p = ModelParams(m=args.mass, omega=args.omega, kappa=args.kappa)
    if args.nonlinearity:
        nl = nonlinearity_from_config(json.loads(args.nonlinearity))
        # the spectral prediction uses -k, the lattice the coupling itself
        k_eff = effective_kappa(nl, solve_amplitude(nl, p))
        if not math.isclose(k_eff, p.kappa, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"-k {p.kappa:g} disagrees with the coupling's effective exponent "
                f"{k_eff:.12g} at its amplitude"
            )
    else:
        nl = PowerLaw(g=args.coupling, kappa=args.kappa)
    csv_path, json_path = args.output + ".csv", args.output + ".json"
    # both files are made before any work, and neither appears unless both are written
    with _replacing(".simulate-", csv_path, json_path) as (csv_tmp, json_tmp):
        # classified first: a point the classifier cannot certify writes no files
        spec = classify_point_spectrum(p)
        predicted = spec.verdict
        predicted_rate = max((z.real for z in spec.nonzero_values() if z.real > 0), default=None)
        grid = Grid.for_run(p, horizon=args.horizon, target_h=args.grid_h, half_length=args.half_length)
        sim = DefectLattice(nl, p, grid)
        report = sim.run_experiment(
            epsilon=args.eps,
            horizon=args.horizon,
            dt=args.dt,
            seed=args.seed,
            record_every=args.record_every,
        )
        report.write_csv(csv_tmp)

        d = report.orbital_distance
        initial, peak = float(d[0]), float(np.max(d))
        if report.aborted:
            # the blow-up guard stopped the run
            observed = "growing"
        elif initial > 0.0:
            observed = "growing" if peak > 100.0 * initial else "bounded"
        else:
            observed = "stationary" if peak <= 1e-9 else "drifting"
        agreement = (predicted is Verdict.STABLE) == (observed in ("bounded", "stationary"))

        summary = report.summary()
        summary.update(
            {
                "verdict_predicted": predicted.value,
                "observed": observed,
                "verdict_agreement": agreement,
                "predicted_rate": predicted_rate,
                "series_csv": os.path.basename(csv_path),
            }
        )
        with open(json_tmp, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(f"predicted: {predicted.value}; observed: {observed}; agreement: {agreement}")
    if report.fitted_rate is not None:
        pr = f"{predicted_rate:.6g}" if predicted_rate is not None else "n/a"
        print(f"fitted growth rate {report.fitted_rate:.6g} vs predicted {pr}")
    print(f"energy drift {report.energy_drift:.3e}, charge drift {report.charge_drift:.3e}")
    print(f"wrote {csv_path} and {json_path}")
    return 3 if report.aborted else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not math.isfinite(args.perturb_q):
        raise ValueError(f"perturb_q must be finite, got {args.perturb_q}")
    if args.at is not None:
        for flag, value in (("-m", args.mass), ("--grid", args.grid), ("--sweep", args.sweep)):
            if value is not None:
                raise ValueError(f"--at runs no suite and takes m from its point: {flag} cannot go with it")
        parts = [float(s) for s in args.at.split(",")]
        if len(parts) != 3:
            raise ValueError("--at expects 'm,omega,kappa'")
        return _validate_at(ModelParams(*parts), args.perturb_q)
    return run_validation(
        m=1.0 if args.mass is None else args.mass,
        grid=9 if args.grid is None else args.grid,
        sweep=50 if args.sweep is None else args.sweep,
        perturb_q=args.perturb_q,
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kgdelta", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectral report at one parameter point")
    sp.add_argument("-m", "--mass", type=float, required=True)
    sp.add_argument("-w", "--omega", type=float, required=True)
    sp.add_argument("-k", "--kappa", type=float, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--verbose", action="store_true", help="include the root-candidate audit trail")
    sp.set_defaults(func=_cmd_spectrum)

    sc = sub.add_parser("scan", help="region map of the (omega, kappa) plane")
    sc.add_argument("-m", "--mass", type=float, default=1.0)
    sc.add_argument("--omega-min", type=float, required=True)
    sc.add_argument("--omega-max", type=float, required=True)
    sc.add_argument("--omega-step", type=float, required=True)
    sc.add_argument("--kappa-min", type=float, required=True)
    sc.add_argument("--kappa-max", type=float, required=True)
    sc.add_argument("--kappa-step", type=float, required=True)
    sc.add_argument("-o", "--output", required=True)
    sc.add_argument("--band", type=float, default=1e-6, help="boundary tolerance band")
    sc.add_argument("--threads", type=int, default=None, help="accepted and ignored: scans are serial")
    sc.set_defaults(func=_cmd_scan)

    sm = sub.add_parser("simulate", help="time-domain experiment on the lattice")
    sm.add_argument("-m", "--mass", type=float, required=True)
    sm.add_argument("-w", "--omega", type=float, required=True)
    sm.add_argument("-k", "--kappa", type=float, required=True)
    sm.add_argument("-g", "--coupling", type=float, default=1.0)
    sm.add_argument(
        "--nonlinearity",
        type=str,
        default=None,
        help='coupling config overriding -g, e.g. \'{"type": "power", "g": 2.0, "kappa": 1.0}\''
        " (-k must state its effective exponent at the wave amplitude)",
    )
    sm.add_argument("--eps", type=float, default=1e-6, help="perturbation energy norm")
    sm.add_argument("-T", "--horizon", type=float, required=True)
    sm.add_argument("--dt", type=float, default=None)
    sm.add_argument("--grid-h", type=float, default=None)
    sm.add_argument("-L", "--half-length", type=float, default=None)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--record-every", type=int, default=1)
    sm.add_argument("-o", "--output", default="run", help="output path prefix")
    sm.set_defaults(func=_cmd_simulate)

    va = sub.add_parser("validate", help="cross-oracle validation suites")
    # None marks a flag not given, which --at refuses
    va.add_argument("-m", "--mass", type=float, default=None, help="mass of the suites (default 1)")
    va.add_argument("--grid", type=int, default=None, help="oracle grid size per axis (default 9)")
    va.add_argument("--sweep", type=int, default=None, help="points per closed-form sweep (default 50)")
    va.add_argument("--perturb-q", type=float, default=0.0, help="fault injection (negative control)")
    va.add_argument("--at", type=str, default=None, help="single point 'm,omega,kappa'")
    va.set_defaults(func=_cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`kgdelta validate | head -1`): no
        # traceback, and not exit 1, which means a failed validation; stdout
        # goes to devnull so the interpreter's last flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, RuntimeError, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry point of the ``kgdelta`` command, ``python -m kgdelta`` and ``python -m kgdelta.cli``.

    Returns :func:`main`'s exit code.  On every way out, argparse's
    ``SystemExit`` included, it then freezes the collector: the interpreter's
    shutdown would otherwise run collection passes over the ~22k objects that
    numpy and kgdelta made at import, about 30 ms a call.  The freeze comes
    after the work, so it moves neither a run's peak memory nor its
    collections.  Code that calls ``main`` in-process gets no freeze.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
