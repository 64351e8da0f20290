"""Checks of kgdelta's outputs, computed apart from the program.

Nothing here imports kgdelta.  The region inequalities, the critical curves,
the closed-form eigenvalues and the dispersion determinant on the physical
sheet are written out again from the paper's formulas, so a fault in the
program cannot hide behind the same fault in its checker.

Every checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re

#: Half-width of the bands around the critical curves inside which a cell
#: is not held to one region.  The scan's own default band is 1e-6; doubling
#: it keeps float noise at the band edge from moving a cell in or out.
BAND = 2e-6

#: Tolerance of the critical-curve columns against their closed forms.
CURVE_TOL = 1e-11

#: Largest accepted ``|D(lambda)|`` relative to the sum of its term magnitudes.
DET_TOL = 1e-8

#: Tolerance of eigenvalues that have a closed form.
CLOSED_FORM_TOL = 1e-9

SCAN_COLUMNS = [
    "omega", "kappa", "region_code", "lambda_re", "lambda_im",
    "Delta", "K_omega", "T_kappa", "Omega_kappa",
]

VALIDATE_SUITES = (
    "oracle-root-agreement",
    "closed-form-special-cases",
    "algebraic-identities",
    "virtual-level-residuals",
)


# ---------------------------------------------------------------------------
# the paper's closed forms
# ---------------------------------------------------------------------------


def kolokolov_kappa(m: float, omega: float) -> float:
    """The stability threshold ``omega^2/m^2``: stable iff ``kappa`` is below it."""
    return (omega / m) ** 2


def virtual_kappa(m: float, omega: float) -> float:
    """``K(omega) = (2s-1)/(2-2s)``, ``s = sqrt(|omega|/(m+|omega|))``."""
    s = math.sqrt(abs(omega) / (m + abs(omega)))
    return (2.0 * s - 1.0) / (2.0 - 2.0 * s)


def virtual_omega(m: float, kappa: float) -> float:
    """``T(kappa) = m (1+2 kappa)^2 / (3+4 kappa)``, NaN at ``kappa = -3/4``."""
    den = 3.0 + 4.0 * kappa
    return math.nan if den == 0.0 else m * (1.0 + 2.0 * kappa) ** 2 / den


def collision_omega(m: float, kappa: float) -> float:
    """``Omega(kappa) = m sqrt(kappa)``, NaN for ``kappa < 0``."""
    return math.nan if kappa < 0.0 else m * math.sqrt(kappa)


def zero_frequency_eigenvalue(m: float, kappa: float) -> complex:
    """Nonzero eigenvalue at ``omega = 0``: ``2m sqrt(kappa (1 + kappa))``."""
    return 2.0 * m * cmath.sqrt(kappa * (1.0 + kappa))


def stable(m: float, omega: float, kappa: float) -> bool:
    return kappa < kolokolov_kappa(m, omega)


def determinant(m: float, omega: float, kappa: float, lam: complex) -> tuple[complex, float]:
    """``D(lambda)`` on the physical sheet and the sum of its term magnitudes.

    ``D = alpha^2 (1+kappa)^2 - 2 (nu_+ + nu_-) alpha (1+kappa) + 4 nu_+ nu_-
    - alpha^2 kappa^2`` with ``alpha = 2 sqrt(m^2 - omega^2)`` and
    ``nu_pm = sqrt(m^2 - (omega +- i lambda)^2)`` taken with positive real
    part.  Only real ``lambda`` and ``lambda`` inside the spectral gap are
    passed here, where neither radicand touches the branch cut.
    """
    alpha = 2.0 * math.sqrt(m * m - omega * omega)
    wp = omega + 1j * lam
    wm = omega - 1j * lam
    nup = cmath.sqrt(m * m - wp * wp)
    num = cmath.sqrt(m * m - wm * wm)
    terms = (
        alpha * alpha * (1.0 + kappa) ** 2,
        -2.0 * (nup + num) * alpha * (1.0 + kappa),
        4.0 * nup * num,
        -alpha * alpha * kappa * kappa,
    )
    return sum(terms), sum(abs(t) for t in terms)


def _strict_region(m: float, omega: float, kappa: float) -> str:
    if kappa - kolokolov_kappa(m, omega) > 0.0:
        return "RealPair"
    if kappa > virtual_kappa(m, omega):
        return "ImaginaryPair"
    return "ZeroOnly"


def expected_regions(m: float, omega: float, kappa: float) -> set[str]:
    """Region codes a cell may carry.

    Outside the boundary bands the set holds exactly one code.  Inside a
    band it holds the boundary code and the codes on either side of the curve.
    """
    aw = abs(omega)
    if kappa == 0.0:
        if omega == 0.0:
            return {"KolokolovCritical"}
        if abs(aw - m / 3.0) <= BAND:
            return {"EmbeddedPair", "ImaginaryPair"}
        # the decoupled line: the pair +-2i|omega| is embedded once it
        # reaches the gap edge m - |omega|
        return {"EmbeddedPair"} if aw > m / 3.0 else {"ImaginaryPair"}
    near_kol = abs(kappa - kolokolov_kappa(m, omega)) <= BAND
    t = virtual_omega(m, kappa)
    near_vl = (-0.5 - BAND <= kappa < 1.0 / math.sqrt(2.0)) and (
        abs(kappa - virtual_kappa(m, omega)) <= BAND or abs(aw - t) <= BAND
    )
    if not (near_kol or near_vl or abs(kappa) <= BAND):
        return {_strict_region(m, omega, kappa)}
    codes = {
        _strict_region(m, omega, kappa - 2.0 * BAND),
        _strict_region(m, omega, kappa + 2.0 * BAND),
    }
    if near_kol or abs(kappa) <= BAND:
        codes.add("KolokolovCritical")
    if near_vl:
        codes.add("VirtualLevelBoundary")
    if abs(kappa) <= BAND:
        codes.add("EmbeddedPair" if aw >= m / 3.0 else "ImaginaryPair")
    return codes


# ---------------------------------------------------------------------------
# region scan CSV
# ---------------------------------------------------------------------------


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    return [lo + i * step for i in range(n)]


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol * max(1.0, abs(want))


def check_scan_csv(text: str, grid: dict) -> list[str]:
    """Check a ``kgdelta scan`` CSV against the paper, cell by cell.

    ``grid`` holds ``m`` and the omega and kappa ranges the scan was asked
    for.  Returns one line per problem; at most 20 are listed in full.
    """
    problems: list[str] = []
    lines = text.split("\n")
    if not lines or not lines[0].startswith("# kgdelta-scan schema=1 config="):
        return ["scan CSV: missing schema-1 header line"]
    try:
        config = json.loads(lines[0].split("config=", 1)[1])
    except ValueError:
        return ["scan CSV: header config is not JSON"]
    for key, want in grid.items():
        if config.get(key) != want:
            problems.append(f"scan CSV: header {key}={config.get(key)!r}, asked {want!r}")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows or rows[0] != SCAN_COLUMNS:
        return problems + ["scan CSV: wrong column header"]
    rows = rows[1:]
    m = grid["m"]
    omegas = grid_values(grid["omega_min"], grid["omega_max"], grid["omega_step"])
    kappas = grid_values(grid["kappa_min"], grid["kappa_max"], grid["kappa_step"])
    if len(rows) != len(omegas) * len(kappas):
        return problems + [
            f"scan CSV: {len(rows)} rows, grid has {len(omegas)} x {len(kappas)} cells"
        ]
    bad: list[str] = []
    for i, row in enumerate(rows):
        want_w = omegas[i // len(kappas)]
        want_k = kappas[i % len(kappas)]
        try:
            bad.extend(_check_scan_row(row, m, want_w, want_k))
        except (ValueError, IndexError) as exc:
            bad.append(f"row {i}: unreadable ({exc})")
    problems.extend(bad[:20])
    if len(bad) > 20:
        problems.append(f"... and {len(bad) - 20} more bad cells")
    return problems


def _check_scan_row(row: list[str], m: float, want_w: float, want_k: float) -> list[str]:
    if len(row) != len(SCAN_COLUMNS):
        return [f"cell {row}: {len(row)} fields"]
    w, k = float(row[0]), float(row[1])
    code = row[2]
    lam = complex(float(row[3]), float(row[4]))
    at = f"(omega={row[0]}, kappa={row[1]})"
    out: list[str] = []
    if abs(w - want_w) > 1e-9 or abs(k - want_k) > 1e-9:
        return [f"{at}: expected the cell (omega={want_w:.12g}, kappa={want_k:.12g})"]
    for col, want in (
        (6, virtual_kappa(m, w)),
        (7, virtual_omega(m, k)),
        (8, collision_omega(m, k)),
    ):
        if not _close(float(row[col]), want, CURVE_TOL):
            out.append(f"{at}: {SCAN_COLUMNS[col]}={row[col]}, closed form {want:.15g}")

    allowed = expected_regions(m, w, k)
    if code not in allowed:
        out.append(f"{at}: region {code}, expected one of {sorted(allowed)}")
    gap = m - abs(w)
    if code in ("ZeroOnly", "KolokolovCritical"):
        if lam != 0:
            out.append(f"{at}: {code} cell reports lambda={lam}")
    elif code == "VirtualLevelBoundary":
        if abs(lam - 1j * gap) > CLOSED_FORM_TOL:
            out.append(f"{at}: virtual level at {lam}, expected i(m-|omega|)={gap:.12g}i")
    elif code in ("RealPair", "ImaginaryPair", "EmbeddedPair"):
        out.extend(_check_eigenvalue(at, code, m, w, k, lam, gap))
    else:
        out.append(f"{at}: unknown region code {code!r}")
    return out


def _check_eigenvalue(
    at: str, code: str, m: float, w: float, k: float, lam: complex, gap: float
) -> list[str]:
    out: list[str] = []
    if k == 0.0:
        want = 2j * abs(w)
        if abs(lam - want) > CLOSED_FORM_TOL:
            out.append(f"{at}: decoupled line gives {lam}, expected 2i|omega|={want}")
        return out
    if code == "EmbeddedPair":
        return [f"{at}: embedded pair off the line kappa = 0"]
    if code == "RealPair" and not (lam.imag == 0.0 and lam.real > 0.0):
        out.append(f"{at}: RealPair with lambda={lam}")
    if code == "ImaginaryPair" and not (lam.real == 0.0 and 0.0 < lam.imag < gap):
        out.append(f"{at}: ImaginaryPair with lambda={lam} outside the gap (0, {gap:.6g})")
    if out:
        return out
    d, scale = determinant(m, w, k, lam)
    if not abs(d) <= DET_TOL * scale:
        out.append(f"{at}: |D(lambda={lam})| = {abs(d):.3e} > {DET_TOL:g} * {scale:.3e}")
    if w == 0.0:
        want = zero_frequency_eigenvalue(m, k)
        if abs(lam - want) > CLOSED_FORM_TOL * (1.0 + abs(want)):
            out.append(f"{at}: omega=0 gives {lam}, expected 2m sqrt(kappa(1+kappa))={want}")
    return out


# ---------------------------------------------------------------------------
# validate output
# ---------------------------------------------------------------------------

_SUITE_LINE = re.compile(r"^([a-z-]+): (PASS|FAIL) \((\d+) checks, (\d+) failed\)$")


def validate_expected_checks(grid: int, sweep: int) -> dict[str, int]:
    """Check counts of the four suites, from the ``validate`` arguments."""
    g = max(grid, 10)
    return {
        "oracle-root-agreement": grid * grid,
        "closed-form-special-cases": 2 * sweep,
        "algebraic-identities": g * g + g,
        "virtual-level-residuals": 20,
    }


def parse_validate(stdout: str) -> dict[str, tuple[str, int, int]]:
    """Suite name -> (status, checks, failed), as ``validate`` printed them."""
    out: dict[str, tuple[str, int, int]] = {}
    for line in stdout.splitlines():
        hit = _SUITE_LINE.match(line)
        if hit:
            out[hit.group(1)] = (hit.group(2), int(hit.group(3)), int(hit.group(4)))
    return out


def check_validate(stdout: str, exit_code: int, grid: int, sweep: int) -> list[str]:
    """A clean ``validate`` run: exit 0, every suite PASS with its expected count."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"validate exited {exit_code}")
    suites = parse_validate(stdout)
    for name, want in validate_expected_checks(grid, sweep).items():
        if name not in suites:
            problems.append(f"validate: no line for suite {name}")
            continue
        status, checks, failed = suites[name]
        if status != "PASS" or failed != 0:
            problems.append(f"validate: {name} {status} with {failed} failed")
        if checks != want:
            problems.append(f"validate: {name} ran {checks} checks, arguments give {want}")
    if "validation passed" not in stdout.splitlines():
        problems.append("validate: no 'validation passed' line")
    return problems


def check_validate_negative(stdout: str, exit_code: int) -> list[str]:
    """The ``--perturb-q`` control: the injected fault must be caught."""
    problems: list[str] = []
    if exit_code != 1:
        problems.append(f"perturbed validate exited {exit_code}, expected 1")
    if not any(s[0] == "FAIL" for s in parse_validate(stdout).values()):
        problems.append("perturbed validate: no suite reported FAIL")
    return problems


# ---------------------------------------------------------------------------
# simulate outputs
# ---------------------------------------------------------------------------


def read_series(text: str) -> dict[str, list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def check_simulate(summary: dict, series_text: str, run: dict, seed: int) -> list[str]:
    """Check one ``simulate`` run's JSON summary and series CSV.

    ``run`` holds the arguments the run was given (``omega``, ``kappa``,
    ``eps``, ``horizon``).  Stable runs must stay bounded with tight
    conservation; unstable runs must fit the closed-form growth rate.
    """
    m = run["m"]
    w, k = run["omega"], run["kappa"]
    problems: list[str] = []
    want_stable = stable(m, w, k)
    want_verdict = "stable" if want_stable else "unstable"
    for key in ("verdict", "verdict_predicted"):
        if summary.get(key) != want_verdict:
            problems.append(f"{key}={summary.get(key)!r}, kappa < omega^2/m^2 gives {want_verdict}")
    if summary.get("seed") != seed:
        problems.append(f"seed {summary.get('seed')!r}, asked {seed}")
    if summary.get("aborted") is not False:
        problems.append("run aborted by the blow-up guard")
    try:
        series = read_series(series_text)
        dist = series["orbital_distance"]
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"series CSV unreadable ({exc})"]
    if not dist or abs(series["t"][-1] - run["horizon"]) > 1e-6 * run["horizon"]:
        problems.append("series does not reach the horizon")
        return problems
    if want_stable:
        if summary.get("observed") != "bounded":
            problems.append(f"observed {summary.get('observed')!r}, expected 'bounded'")
        if not summary.get("energy_drift", math.inf) <= 1e-6:
            problems.append(f"energy drift {summary.get('energy_drift')} > 1e-6")
        if not summary.get("charge_drift", math.inf) <= 1e-12:
            problems.append(f"charge drift {summary.get('charge_drift')} > 1e-12")
        if not max(dist) <= 3.0 * dist[0]:
            problems.append(f"orbital distance grew from {dist[0]:.6g} to {max(dist):.6g}")
    else:
        want_rate = zero_frequency_eigenvalue(m, k).real if w == 0.0 else None
        rate = summary.get("fitted_rate")
        if want_rate is None or not want_rate > 0.0:
            problems.append("unstable runs are checked at omega = 0, kappa > 0 only")
        elif not isinstance(rate, (int, float)):
            problems.append("no growth rate was fitted")
        elif abs(rate - want_rate) > 0.01 * want_rate:
            problems.append(f"fitted rate {rate:.6g} is not within 1% of {want_rate:.6g}")
    return problems
