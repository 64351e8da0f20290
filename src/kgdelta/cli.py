"""Command-line frontend: spectrum queries, region scans, simulation, validation.

Four subcommands:

* ``spectrum``  single-point spectral report (JSON or human readable);
* ``scan``      region map of the ``(omega, kappa)`` plane as CSV;
* ``simulate``  time-domain run with verdict/rate comparison;
* ``validate``  cross-oracle checks between the closed forms, the cubic
  pipeline, and the dense axis scans.

Exit codes: 0 success, 1 validation failure, 2 invalid parameters,
3 simulation aborted by the blow-up guard, 141 (128 + SIGPIPE) standard
output closed by its reader.  Scans run serially: blocks of cells go
through the array classifier ``classify_cells``, and the few cells it
leaves open through the scalar one, so output files are byte-identical to a
cell-by-cell scan.  ``--threads`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .dispersion import (
    CubicData,
    D_eval,
    PHYSICAL,
    RegionCode,
    SpectrumReport,
    check_oracle_mass,
    classify_cells,
    classify_point_spectrum,
    collision_exponent_frequency,
    cubic_data,
    oracle_mismatches,
    region_code,
    residual_scale,
    virtual_level_exponent,
    virtual_level_frequency,
)
from .lattice import DefectLattice, Grid
from .model import ModelParams, PowerLaw, effective_kappa, nonlinearity_from_config, solve_amplitude
from .spectra import Verdict

__all__ = [
    "RegionCode",
    "ScanConfig",
    "region_code",
    "region_code_from_report",
    "scan_rows",
    "write_scan_csv",
    "run_validation",
    "main",
]


def region_code_from_report(report: SpectrumReport) -> RegionCode:
    """The region code a spectral report was assembled for."""
    return report.region


#: Most cells one scan may have: twice the 1e6-cell zooms onto a critical
#: curve, 250 times the README grid.  Its CSV lines take about 0.35 GB.
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


def _representative(values: tuple[complex, ...], virtual: tuple[complex, ...]) -> complex:
    # the eigenvalue in the right half plane (or on the upper imaginary axis)
    # of largest modulus, else the upper virtual level, else zero
    nonzero = [z for z in values if z.real > 0 or (z.real == 0 and z.imag > 0)]
    if nonzero:
        return max(nonzero, key=abs)
    if virtual:
        return max(virtual, key=lambda z: z.imag)
    return 0j


def _omega_fields(m: float, omega: float) -> tuple[str, str]:
    """The columns that depend on ``omega`` alone: ``omega`` and ``K_omega``."""
    return _fmt(omega), _fmt(virtual_level_exponent(m, omega))


def _kappa_fields(m: float, kappa: float) -> tuple[str, str, str]:
    """The columns that depend on ``kappa`` alone: ``kappa``, ``T_kappa``, ``Omega_kappa``."""
    return (
        _fmt(kappa),
        _fmt(virtual_level_frequency(m, kappa)),
        _fmt(collision_exponent_frequency(m, kappa)),
    )


def _row(
    omega_fields: tuple[str, str],
    kappa_fields: tuple[str, str, str],
    code: RegionCode,
    lam: complex,
    delta: float,
) -> str:
    """One CSV data line from its axis columns and its classification."""
    omega, k_omega = omega_fields
    kappa, t_kappa, omega_kappa = kappa_fields
    fields = (
        omega, kappa, code.value, _fmt(lam.real), _fmt(lam.imag), _fmt(delta),
        k_omega, t_kappa, omega_kappa,
    )
    return ",".join(fields)


def _classify_scalar(
    m: float, omega: float, kappa: float, band: float
) -> tuple[RegionCode, complex, float]:
    """Region code, representative eigenvalue and ``delta`` from the scalar classifier."""
    p = ModelParams(m=m, omega=omega, kappa=kappa)
    report = classify_point_spectrum(p, boundary_tol=band)
    code = region_code_from_report(report)
    lam = _representative(report.nonzero_values(), report.virtual_levels)
    return code, lam, cubic_data(p).delta


def _scan_cell(m: float, omega: float, kappa: float, band: float) -> str:
    """One CSV data line through the scalar classifier."""
    code, lam, delta = _classify_scalar(m, omega, kappa, band)
    return _row(_omega_fields(m, omega), _kappa_fields(m, kappa), code, lam, delta)


def _axis_columns(cache: dict, fields, m: float, value: float) -> tuple[str, ...]:
    """``fields(m, value)``, formed once per ``value`` in ``cache``."""
    # -0.0 == 0.0, but %.12g writes the first as -0, so the sign is in the key
    key = (value, math.copysign(1.0, value))
    cols = cache.get(key)
    if cols is None:
        cols = cache[key] = fields(m, value)
    return cols


#: Cells per array call of the scan, eight rows of the README grid.  Arrays
#: over that whole grid at once take the CLI's peak memory from 32 to 47 MB.
_BLOCK_CELLS = 648


def _cell_rows(
    m: float, cells: Iterable[tuple[float, float]], band: float, tally: Counter | None = None
) -> list[str]:
    """The CSV data lines of ``(omega, kappa)`` cells, in order.

    Blocks of cells go through :func:`classify_cells`; a cell it leaves open
    goes through the scalar classifier, and ``tally["scalar"]`` counts those.
    ``tally`` also counts the cells of each :class:`RegionCode`.  The columns
    that depend on one axis alone are formatted once per value of that axis.
    """
    lines: list[str] = []
    omega_cols: dict = {}
    kappa_cols: dict = {}
    cells = iter(cells)
    while block := list(itertools.islice(cells, _BLOCK_CELLS)):
        ws, ks = (list(axis) for axis in zip(*block))
        for (w, k), res in zip(block, classify_cells(m, ws, ks, band)):
            if res is None:
                code, lam, delta = _classify_scalar(m, w, k, band)
            else:
                code, pair, delta = res
                lam = 0j if pair is None else _representative((pair, -pair), ())
            if tally is not None:
                tally["scalar"] += res is None
                tally[code] += 1
            w_cols = _axis_columns(omega_cols, _omega_fields, m, w)
            k_cols = _axis_columns(kappa_cols, _kappa_fields, m, k)
            lines.append(_row(w_cols, k_cols, code, lam, delta))
    return lines


def scan_rows(cfg: ScanConfig, tally: Counter | None = None) -> list[str]:
    """All CSV data lines of the scan, row-major in omega then kappa."""
    kappas = cfg.kappas()
    cells = ((w, k) for w in cfg.omegas() for k in kappas)
    return _cell_rows(cfg.m, cells, cfg.band, tally)


def write_scan_csv(cfg: ScanConfig, path: str) -> Counter:
    """Write the region map, via a temp file renamed on completion.

    Returns the tally of :func:`scan_rows`: ``"scalar"``, the number of cells
    that took the scalar classifier, and the number of cells of each
    :class:`RegionCode`.
    """
    tally: Counter = Counter()
    lines = scan_rows(cfg, tally)
    header = "# kgdelta-scan schema=1 config=" + json.dumps(asdict(cfg), sort_keys=True)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scan-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(header + "\n")
            fh.write(SCAN_COLUMNS + "\n")
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return tally


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def _perturbed_data(p: ModelParams, q_offset: float) -> CubicData | None:
    if q_offset == 0.0:
        return None
    cd = cubic_data(p)
    q = cd.q + q_offset * (1.0 + abs(cd.q))
    return CubicData(c=cd.c, p=cd.p, q=q, delta=-4.0 * cd.p**3 - 27.0 * q * q)


def _suite_oracle(m: float, n: int, perturb_q: float) -> tuple[int, list[str]]:
    fails: list[str] = []
    checks = 0
    for w in np.linspace(-0.9 * m, 0.9 * m, n):
        for k in np.linspace(-1.9, 1.9, n):
            p = ModelParams(m=m, omega=round(float(w), 12), kappa=round(float(k), 12))
            checks += 1
            for msg in oracle_mismatches(p, data=_perturbed_data(p, perturb_q)):
                fails.append(f"(omega={p.omega:g}, kappa={p.kappa:g}) {msg}")
    return checks, fails


def _suite_closed_forms(m: float, n: int, perturb_q: float) -> tuple[int, list[str]]:
    from .dispersion import accepted_roots

    fails: list[str] = []
    for i in range(1, n + 1):
        k = -0.49 + (3.0 + 0.49) * i / n
        p = ModelParams(m=m, omega=0.0, kappa=k)
        want = 2.0 * m * (
            math.sqrt(k * (1.0 + k)) if k > 0 else 1j * math.sqrt(-k * (1.0 + k))
        )
        got = accepted_roots(p, data=_perturbed_data(p, perturb_q))
        hit = [z for z in got if abs(z - want) <= 1e-9 or abs(z + want) <= 1e-9]
        if len(got) != 2 or len(hit) != 2:
            fails.append(f"omega=0, kappa={k:g}: expected +-{want:g}, pipeline gave {got}")
    for i in range(1, n + 1):
        w = 0.95 * m * i / (n + 1)
        p = ModelParams(m=m, omega=round(w, 12), kappa=0.0)
        rep = classify_point_spectrum(p)
        vals = sorted(rep.nonzero_values(), key=lambda z: z.imag)
        ok = (
            len(vals) == 2
            and abs(vals[1] - 2j * w) <= 1e-9
            and abs(vals[0] + 2j * w) <= 1e-9
            and all(e.embedded == (abs(w) >= m / 3.0) for e in rep.points.entries if e.value != 0)
        )
        if not ok:
            fails.append(f"kappa=0, omega={w:g}: classifier returned {vals}")
    return 2 * n, fails


def _suite_identities(m: float, n: int) -> tuple[int, list[str]]:
    from .spectra import lambda_pm, scalar_eigenvalue

    fails: list[str] = []
    checks = 0
    for w in np.linspace(-0.9 * m, 0.9 * m, n):
        for k in np.linspace(-0.45, 2.0, n):
            p = ModelParams(m=m, omega=float(w), kappa=float(k))
            lam = lambda_pm(p)
            s = scalar_eigenvalue(p)
            checks += 1
            if lam is None or s is None:
                continue
            lo, hi = lam
            vieta_prod = abs(lo * hi - s) / (1.0 + abs(s))
            vieta_sum = abs(lo + hi - (s + w * w + 1.0)) / (1.0 + abs(s))
            if vieta_prod > 1e-12 or vieta_sum > 1e-12:
                fails.append(f"Vieta violated at omega={w:g}, kappa={k:g}")
            for z in (lo, hi):
                if abs(z - 1.0) > 1e-6:
                    moebius = z + z * w * w / (1.0 - z)
                    if abs(moebius - s) > 1e-10 * (1.0 + abs(s)):
                        fails.append(f"level relation violated at omega={w:g}, kappa={k:g}")
    for i in range(n):
        k = -0.5 + (1.0 / math.sqrt(2.0) + 0.5) * i / n
        t = virtual_level_frequency(m, k)
        back = virtual_level_exponent(m, t)
        checks += 1
        if abs(back - k) > 1e-10:
            fails.append(f"curve inverse violated at kappa={k:g}: K(T)={back:.12g}")
    return checks, fails


def _suite_virtual_levels(m: float, n: int) -> tuple[int, list[str]]:
    fails: list[str] = []
    for i in range(1, n + 1):
        k = -0.49 + (0.70 + 0.49) * i / n
        t = virtual_level_frequency(m, k)
        p = ModelParams(m=m, omega=t, kappa=k)
        lam = 1j * (m - t)
        resid = abs(D_eval(p, lam, PHYSICAL))
        scale = residual_scale(p, lam)
        if resid > 1e-10 * scale:
            fails.append(f"kappa={k:g}: |D| = {resid:.3e} > 1e-10 * {scale:.3e}")
    return n, fails


def run_validation(
    m: float = 1.0,
    grid: int = 9,
    sweep: int = 50,
    perturb_q: float = 0.0,
    at: tuple[float, float, float] | None = None,
) -> int:
    """Run the cross-validation suites; returns the process exit code.

    Arguments are checked before any suite runs: a bad one raises
    ``ValueError`` and prints nothing.  The last lines are the wall time of
    each suite and the overall verdict.
    """
    if at is not None:
        return _validate_at(at)
    if not (grid >= 1 and sweep >= 1):
        raise ValueError(f"grid and sweep must be at least 1, got grid={grid}, sweep={sweep}")
    if grid * grid > MAX_SCAN_CELLS:
        raise ValueError(f"oracle grid exceeds MAX_SCAN_CELLS = {MAX_SCAN_CELLS} cells")
    if not math.isfinite(perturb_q):
        raise ValueError(f"perturb_q must be finite, got {perturb_q}")
    ModelParams(m=m, omega=0.0)  # raises unless m is positive and finite
    check_oracle_mass(m)
    suites = [
        ("oracle-root-agreement", lambda: _suite_oracle(m, grid, perturb_q)),
        ("closed-form-special-cases", lambda: _suite_closed_forms(m, sweep, perturb_q)),
        ("algebraic-identities", lambda: _suite_identities(m, max(grid, 10))),
        ("virtual-level-residuals", lambda: _suite_virtual_levels(m, 20)),
    ]
    total_fail = 0
    times: list[str] = []
    for name, fn in suites:
        start = time.perf_counter()
        checks, fails = fn()
        times.append(f"{name} {time.perf_counter() - start:.3g} s")
        total_fail += len(fails)
        status = "PASS" if not fails else "FAIL"
        print(f"{name}: {status} ({checks} checks, {len(fails)} failed)")
        for msg in fails[:10]:
            print(f"  {msg}")
        if len(fails) > 10:
            print(f"  ... and {len(fails) - 10} more")
    print(f"suite times: {', '.join(times)}")
    print(f"validation {'passed' if total_fail == 0 else 'FAILED'}")
    return 0 if total_fail == 0 else 1


def _validate_at(at: tuple[float, float, float]) -> int:
    m, w, k = at
    p = ModelParams(m=m, omega=w, kappa=k)
    check_oracle_mass(m)
    failures = oracle_mismatches(p)
    for msg in failures:
        print(f"  {msg}")
    t = virtual_level_frequency(m, k)
    if not math.isnan(t) and abs(abs(w) - t) <= 1e-6:
        lam = 1j * (m - abs(w))
        resid = abs(D_eval(p, lam, PHYSICAL))
        scale = residual_scale(p, lam)
        print(f"virtual-level residual |D({lam.imag:g}i)| = {resid:.3e} (scale {scale:.3e})")
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
    n = len(cfg.omegas()) * len(cfg.kappas())
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
    grid = Grid.for_run(p, horizon=args.horizon, target_h=args.grid_h, half_length=args.half_length)
    sim = DefectLattice(nl, p, grid)
    report = sim.run_experiment(
        epsilon=args.eps,
        horizon=args.horizon,
        dt=args.dt,
        seed=args.seed,
        record_every=args.record_every,
    )
    csv_path = args.output + ".csv"
    json_path = args.output + ".json"
    report.write_csv(csv_path)

    spec = classify_point_spectrum(p)
    predicted = spec.verdict
    predicted_rate = max(
        (z.real for z in spec.nonzero_values() if z.real > 0), default=None
    )
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
    with open(json_path, "w") as fh:
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
    at = None
    if args.at is not None:
        parts = [float(s) for s in args.at.split(",")]
        if len(parts) != 3:
            raise ValueError("--at expects 'm,omega,kappa'")
        at = (parts[0], parts[1], parts[2])
    return run_validation(
        m=args.mass, grid=args.grid, sweep=args.sweep, perturb_q=args.perturb_q, at=at
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
    va.add_argument("-m", "--mass", type=float, default=1.0)
    va.add_argument("--grid", type=int, default=9, help="oracle grid size per axis")
    va.add_argument("--sweep", type=int, default=50, help="points per closed-form sweep")
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
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
