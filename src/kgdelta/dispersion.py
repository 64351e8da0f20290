"""Dispersion determinant of the linearized flow on its four-sheet cover.

Away from the defect, decaying solutions of the linearized equation are
combinations of ``exp(-nu |x|)`` with two admissible exponents

    nu_pm(lambda) = sqrt(m^2 - (omega +- i*lambda)^2),

each carrying a two-valued branch choice, so the matching problem lives on a
four-sheet cover of the spectral plane.  The derivative jump at ``x = 0`` is
satisfiable exactly where the determinant

    D(lambda) = alpha^2 (1+kappa)^2 - 2 (nu_+ + nu_-) alpha (1+kappa)
                + 4 nu_+ nu_- - alpha^2 kappa^2

vanishes.  Roots on the sheet with ``Re nu_pm > 0`` (the *physical* sheet,
branch cuts on the imaginary axis beyond ``+-i(m - |omega|)`` resp.
``+-i(m + |omega|)``) are eigenvalues; roots elsewhere are resonances.  On
the cuts themselves the determinant is taken as the limit from
``Re lambda > 0``.

Squaring away both radicals turns ``D = 0`` into a real cubic in
``x = lambda^2`` (after cancelling the ever-present root at ``x = 0``).  The
squaring steps inject spurious roots, so every cubic root is re-tested
against ``D`` itself on all four sheets: the pre-squaring radical identity
picks the branch and a scale-aware residual decides acceptance.  The
classifier then assembles the point spectrum, embedded eigenvalues, virtual
levels at the gap thresholds, and the stability verdict into a
:class:`SpectrumReport`.  For scans, :func:`classify_cells` runs the same
pipeline as numpy arrays over many cells at once, the discriminant band
of the cubic included, and leaves each cell it cannot decide with margin to
the scalar classifier.  Both paths call the same helpers, each formula
written once for numbers or arrays; the array path keeps the scalar bits of
``c, p, q, delta``, the roots and ``lambda``.
"""

from __future__ import annotations

import cmath
import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, brentq
from .spectra import (
    JordanBlock,
    PointSpectrum,
    RealIntervalSet,
    SpectralPoint,
    Verdict,
    sigma_ess_A,
    stability_verdict,
    zero_jordan_structure,
)

__all__ = [
    "SheetSelector",
    "PHYSICAL",
    "ALL_SHEETS",
    "RootCandidate",
    "CubicData",
    "CriticalCurves",
    "RegionCode",
    "SpectrumReport",
    "ClassificationError",
    "CubicOverflow",
    "UnresolvableMass",
    "nu_pm",
    "D_eval",
    "residual_scale",
    "Q_eval",
    "cubic_data",
    "cubic_roots",
    "candidate_roots",
    "accepted_roots",
    "critical_curves",
    "collision_exponent_frequency",
    "virtual_level_frequency",
    "virtual_level_exponent",
    "region_code",
    "classify_point_spectrum",
    "classify_cells",
    "axis_scan_roots",
    "check_oracle_mass",
    "oracle_mismatches",
]

#: Relative residual below which a candidate counts as a root of D.
ACCEPT_TOL = 1e-9
#: Looser bound for the pre-squaring identity, a near miss and a sheet label.
_NEAR_TOL = math.sqrt(ACCEPT_TOL)

#: Half-band (in classification defect) around the critical curves inside
#: which the discontinuous classification is reported as a boundary case.
BOUNDARY_TOL = 1e-10

#: Resolution of the cubic pipeline in ``x = lambda^2``, relative to
#: ``max(m^2, |c|)``: a root closer to ``x = 0`` is not told from the one there.
_X_FLOOR = 1e-13

#: Mesh step of the axis-scan oracle, and the end of its real axis over ``m``.
_ORACLE_STEP = 1e-3
_ORACLE_REAL_END = 3.0
#: Masses whose roots that absolute step resolves.  Below 0.02 roots of the
#: validate grids fall under the first mesh point (141 of 143 are compared at
#: m = 0.01 on the 21 x 21 grid, 94 at m = 1e-3).  Above 3, points next to the
#: origin that agree at m = 1 start to disagree, and from m = 7 the grids
#: fail where D has a fourth-order zero at lambda = 0 (omega = kappa = 0).
_ORACLE_MASS_RANGE = (0.02, 3.0)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Margin, relative to each test's own scale, that :func:`classify_cells`
#: keeps from every acceptance threshold.  Its numpy evaluation of ``D`` and
#: of the pre-squaring identity differs from the scalar one by a few ulps of
#: that scale; a cell with a decision inside the margin goes to the scalar
#: classifier.
_GRID_MARGIN = 1e-12


class ClassificationError(RuntimeError):
    """The cubic pipeline and the analytic region predicates disagree."""


class UnresolvableMass(ValueError):
    """The axis-scan oracle's mesh does not resolve the roots at this mass."""


def check_oracle_mass(m: float) -> None:
    """Raise :class:`UnresolvableMass` unless ``m`` lies in the oracle's mass range."""
    lo, hi = _ORACLE_MASS_RANGE
    if not lo <= m <= hi:
        raise UnresolvableMass(
            f"the axis-scan oracle resolves masses in [{lo:g}, {hi:g}] "
            f"(mesh step {_ORACLE_STEP:g}), got m = {m:g}"
        )


class CubicOverflow(ValueError, OverflowError):
    """The cubic's coefficients overflow float64 (from ``|kappa|`` about 4e25 at ``m = 1``).

    A ``ValueError``, so the command line exits 2 with ``error: ...``, and
    still the ``OverflowError`` that Python's ``**`` raised.
    """


@dataclass(frozen=True)
class SheetSelector:
    """Branch signs ``(s_plus, s_minus)`` multiplying the two exponents.

    ``(+1, +1)`` is the physical sheet (both decay rates have positive real
    part off the cuts); the other three sign pairs are the unphysical sheets
    where resonances live.
    """

    s_plus: int
    s_minus: int

    def __post_init__(self) -> None:
        if self.s_plus not in (1, -1) or self.s_minus not in (1, -1):
            raise ValueError("sheet signs must be +1 or -1")

    def label(self) -> str:
        return ("+" if self.s_plus == 1 else "-") + ("+" if self.s_minus == 1 else "-")


PHYSICAL = SheetSelector(1, 1)
ALL_SHEETS = (
    PHYSICAL,
    SheetSelector(1, -1),
    SheetSelector(-1, 1),
    SheetSelector(-1, -1),
)


def _nu_principal(m: float, w: complex, plus_branch: bool) -> complex:
    """One exponent ``sqrt(m^2 - w^2)`` with the physical-branch convention.

    For ``w`` off the real axis this is the principal square root (positive
    real part).  When ``m^2 - w^2`` lands on the negative real axis (cut:
    ``lambda`` purely imaginary beyond a threshold) the value is the limit of
    the principal branch from ``Re lambda > 0``; which side that is depends
    on the sign of ``Re w`` and on which of the two exponents is being taken.
    """
    z = m * m - w * w
    if z.imag == 0.0 and z.real < 0.0:
        r = math.sqrt(-z.real)
        sign = -w.real if plus_branch else w.real
        return complex(0.0, math.copysign(r, sign))
    return cmath.sqrt(z)


def nu_pm(
    p: ModelParams, lam: complex, sheet: SheetSelector = PHYSICAL
) -> tuple[complex, complex]:
    """Both decay exponents at spectral parameter ``lam`` on ``sheet``."""
    lam = complex(lam)
    nup = _nu_principal(p.m, complex(p.omega) + 1j * lam, True)
    num = _nu_principal(p.m, complex(p.omega) - 1j * lam, False)
    return sheet.s_plus * nup, sheet.s_minus * num


def _D_from_nus(a, k, nup, num):
    """``D`` from the exponents at coupling ``a = alpha``; numbers or arrays."""
    return a * a * (1.0 + k) ** 2 - 2.0 * (nup + num) * a * (1.0 + k) + 4.0 * nup * num - a * a * k * k


def _scale_from_nus(a, k, nup, num):
    """:func:`residual_scale` from the exponents; numbers or arrays."""
    return (
        a * a * (1.0 + k) ** 2
        + a * a * k * k
        + 4.0 * (abs(nup) + abs(num)) * a * abs(1.0 + k)
        + 4.0 * abs(nup * num)
    )


def D_eval(p: ModelParams, lam: complex, sheet: SheetSelector = PHYSICAL) -> complex:
    """Dispersion determinant at ``lam`` on the chosen sheet."""
    nup, num = nu_pm(p, lam, sheet)
    return _D_from_nus(p.alpha, p.kappa, nup, num)


def residual_scale(p: ModelParams, lam: complex) -> float:
    """Natural magnitude of the determinant's terms at ``lam``.

    The four terms of ``D`` vary over many orders of magnitude across the
    parameter plane, so root acceptance compares ``|D|`` against this sum of
    term magnitudes rather than against an absolute number.  It sees only
    ``|nu_pm|``, which is the same on every sheet.
    """
    nup, num = nu_pm(p, lam)
    return _scale_from_nus(p.alpha, p.kappa, nup, num)


def Q_eval(p: ModelParams, big_lambda: float) -> float:
    """On-axis resolvent trace used as an independent root locator.

    For ``lambda = -i*big_lambda`` inside the spectral gap the determinant
    factors as ``D = (alpha - 2 nu_+)(alpha - 2 nu_-) (1 + kappa*kap*Q)`` with

        Q(L) = 1/(kap - sqrt(m^2-(omega+L)^2)) + 1/(kap - sqrt(m^2-(omega-L)^2)),

    so nonzero in-gap eigenvalues solve ``1 + kappa*kap*Q(L) = 0``.  Valid for
    ``0 < L < m - |omega|``; raises on the pole at ``L = 2|omega|`` where the
    second denominator vanishes.
    """
    m, w = p.m, p.omega
    gap = m - abs(w)
    if not 0.0 < big_lambda < gap:
        raise ValueError(f"argument must lie in (0, {gap}), got {big_lambda}")
    kap = p.decay_rate
    d1 = kap - math.sqrt(m * m - (w + big_lambda) ** 2)
    d2 = kap - math.sqrt(m * m - (w - big_lambda) ** 2)
    if d1 == 0.0 or d2 == 0.0:
        raise ValueError(f"pole of the trace at |lambda| = 2|omega| (got {big_lambda})")
    return 1.0 / d1 + 1.0 / d2


@dataclass(frozen=True)
class CubicData:
    """Coefficients of the depressed cubic ``y^3 + p y + q`` in ``x = lambda^2``.

    ``x = y - 2c/3``; ``delta`` is the discriminant ``-4p^3 - 27q^2``.
    """

    c: float
    p: float
    q: float
    delta: float


def _cubic_terms(m, a, k, pw=pow):
    """``(c, p, q, delta)`` at ``a = alpha``, on numbers or arrays.

    Every power is ``pw(base, exponent)``: Python's ``pow``, which raises
    ``OverflowError``, or on arrays that same ``pow`` per element.
    """
    a2 = pw(a, 2)
    c = 4.0 * m * m - a2 * (1.0 + k + 0.5 * k * k)
    r = 0.25 * a2 * a2 * k * k * (1.0 - k * k)  # alpha^4 kappa^2 (1 - kappa^2) / 4
    p = -c * c / 3.0 + r
    q = -2.0 * pw(c, 3) / 27.0 + c * r / 3.0 - pw(a2, 3) * pw(1.0 + k, 2) * pw(k, 4) / 8.0
    delta = -4.0 * pw(p, 3) - 27.0 * q * q
    return c, p, q, delta


def cubic_data(params: ModelParams) -> CubicData:
    k = params.kappa
    try:
        return CubicData(*_cubic_terms(params.m, params.alpha, k))
    except OverflowError:
        raise CubicOverflow(f"the cubic's coefficients overflow float64 at kappa = {k:g}") from None


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def cubic_roots(cd: CubicData) -> tuple[complex, complex, complex]:
    """All three roots of ``y^3 + p y + q = 0``, multiplicity-aware.

    Three real roots (trigonometric form) for positive discriminant, one real
    plus a conjugate pair (Cardano with cancellation-safe cube roots) for
    negative, and explicit double/triple-root formulas inside a relative
    band around zero discriminant, where both generic methods lose digits.
    The eigenvalue collisions of interest sit exactly in that band.
    """
    p, q = cd.p, cd.q
    scale = max(abs(p) ** 3, q * q)
    if scale == 0.0:
        return (0j, 0j, 0j)
    if abs(cd.delta) <= 1e-12 * scale:
        # double root at -3q/(2p), simple at 3q/p (p = 0 forces q = 0 here)
        yd = -1.5 * q / p
        ys = 3.0 * q / p
        return (complex(ys), complex(yd), complex(yd))
    if cd.delta > 0.0:
        amp = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * amp)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        return tuple(
            complex(amp * math.cos(theta - 2.0 * math.pi * j / 3.0)) for j in range(3)
        )  # type: ignore[return-value]
    d = math.sqrt(-cd.delta / 108.0)
    t = -0.5 * q
    u3 = t + d if abs(t + d) >= abs(t - d) else t - d
    u = _cbrt(u3)
    v = -p / (3.0 * u)
    y1 = u + v
    re = -0.5 * y1
    im = 0.5 * math.sqrt(3.0) * abs(u - v)
    return (complex(y1), complex(re, im), complex(re, -im))


@dataclass(frozen=True)
class RootCandidate:
    """One ``lambda`` candidate from the cubic pipeline, with its audit data.

    ``sheet`` is the sheet on which the candidate actually annihilates the
    determinant (``None`` if none does within tolerance); ``residual`` is
    ``|D|`` there, and ``scale`` the term-magnitude normalizer it was judged
    against.  ``source`` indexes the cubic root, ``x = lambda^2`` and ``y``
    record the pipeline values that produced the candidate.
    """

    lam: complex
    sheet: SheetSelector | None
    residual: float
    scale: float
    accepted: bool
    source: int
    x: complex
    y: complex

    def to_jsonable(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "sheet": self.sheet.label() if self.sheet is not None else "off-all-sheets",
            "residual": self.residual,
            "scale": self.scale,
            "accepted": self.accepted,
            "source": self.source,
            "x": [self.x.real, self.x.imag],
            "y": [self.y.real, self.y.imag],
        }


def _presquare_sign_ok(
    p: ModelParams, cd: CubicData, lam: complex, nup: complex, num: complex
) -> bool:
    """Check the radical identity that was squared away, with its sign.

    The sum of exponents on a root sheet must equal one of the two quadratic
    branches ``(alpha(1+kappa) +- sqrt(alpha^2(1-kappa)^2 + 8 x))/2``; the
    branch fixes the sign of the pre-squaring identity in ``x``.  A candidate
    whose physical exponent sum matches neither branch identity is spurious.
    """
    a, k = p.alpha, p.kappa
    x = lam * lam
    disc = cmath.sqrt(a * a * (1.0 - k) ** 2 + 8.0 * x)
    d_plus, d_minus = _branch_distances(a, k, nup + num, disc)
    gap, scale = _identity_gap(a, k, cd.c, x, 1.0 if d_plus <= d_minus else -1.0, disc)
    return gap <= _NEAR_TOL * scale


def _branch_distances(a, k, sigma, disc):
    """Distances of the exponent sum ``sigma`` from the branches ``(a(1+k) +- disc)/2``."""
    return abs(sigma - 0.5 * (a * (1.0 + k) + disc)), abs(sigma - 0.5 * (a * (1.0 + k) - disc))


def _identity_gap(a, k, c, x, s, disc):
    """``|lhs - rhs|`` of the pre-squaring identity on branch ``s``, and its scale.

    Only the product ``s*disc`` enters, and ``s`` follows the sign of ``disc``.
    """
    rhs = s * a**3 * (1.0 + k) * k * k / 8.0 * disc
    gap = abs(x * x + c * x + a**4 * k * k * (1.0 - k * k) / 8.0 - rhs)
    scale = abs(x * x) + abs(c * x) + a**4 * k * k * (1.0 + k * k) / 8.0 + abs(rhs) + 1e-300
    return gap, scale


def _physical_fit(
    p: ModelParams, cd: CubicData, lam: complex
) -> tuple[complex, complex, float, float, bool]:
    """Exponents, residual scale, ``|D|`` and the acceptance test at ``lam``."""
    nup, num = nu_pm(p, lam, PHYSICAL)
    a, k = p.alpha, p.kappa
    scale = _scale_from_nus(a, k, nup, num)
    res = abs(_D_from_nus(a, k, nup, num))
    ok = res <= ACCEPT_TOL * scale and _presquare_sign_ok(p, cd, lam, nup, num)
    return nup, num, scale, res, ok


def _refine_near_miss(
    p: ModelParams, cd: CubicData, lam: complex, nup: complex, num: complex
) -> complex | None:
    """Up to two analytic Newton steps on the physical-sheet ``D`` from ``lam``.

    Real candidates step in R and imaginary ones in iR, where ``D`` is analytic
    under the cut-limit convention.  Returns the first iterate that passes the
    acceptance test, or ``None``.  No iterate may leave ``1e-7 |lam|`` of the
    cubic's root, which a double root of the cubic only has to about
    ``sqrt(eps)``: a spurious candidate must not be dragged onto some other
    root of ``D``.  A root next to a threshold, where ``dD/dlambda`` blows up,
    needs the second step.
    """
    cur = lam
    for _ in range(2):
        try:
            dnup = -1j * (p.omega + 1j * cur) / nup
            dnum = 1j * (p.omega - 1j * cur) / num
            slope = -2.0 * p.alpha * (1.0 + p.kappa) * (dnup + dnum) + 4.0 * (dnup * num + nup * dnum)
            step = -_D_from_nus(p.alpha, p.kappa, nup, num) / slope
        except ZeroDivisionError:  # a threshold (nu = 0) or a flat determinant
            return None
        if lam.imag == 0.0:
            step = complex(step.real, 0.0)
        elif lam.real == 0.0:
            step = complex(0.0, step.imag)
        cur = cur + step
        if not abs(cur - lam) < 1e-7 * abs(lam):
            return None
        nup, num, _, _, ok = _physical_fit(p, cd, cur)
        if ok:
            return cur
    return None


def candidate_roots(params: ModelParams, data: CubicData | None = None) -> list[RootCandidate]:
    """All ``lambda`` candidates from the cubic reduction, assessed sheet by sheet.

    Every cubic root ``y`` gives ``x = y - 2c/3`` and, for ``x != 0``, the two
    candidates ``+-sqrt(x)``, each accepted on the physical sheet iff the
    pre-squaring identity holds and the relative residual is below ``ACCEPT_TOL``.
    Near its double and triple roots (the latter at ``omega = 0, kappa =
    -1/2``) the cubic loses digits that only ``D`` recovers, so a near miss
    (relative residual up to ``sqrt(ACCEPT_TOL)``) is refined on ``D`` and
    accepted if the refined point passes the same test.  Rejected candidates
    stay where the cubic put them and carry the label of whichever sheet fits
    them best (resonances), or ``None``.  The root at ``lambda = 0`` is never
    emitted: the cubic was derived after cancelling it, and its multiplicity
    is the Jordan data's job.
    """
    cd = cubic_data(params) if data is None else data
    a, k = params.alpha, params.kappa
    x_floor = _X_FLOOR * max(params.m * params.m, abs(cd.c))
    out: list[RootCandidate] = []
    for idx, y in enumerate(cubic_roots(cd)):
        x = y - 2.0 * cd.c / 3.0
        if abs(x) <= x_floor:
            continue
        principal = cmath.sqrt(x)
        for lam in (principal, -principal):
            nup, num, scale, res_phys, ok = _physical_fit(params, cd, lam)
            if not ok and ACCEPT_TOL * scale < res_phys <= _NEAR_TOL * scale:
                refined = _refine_near_miss(params, cd, lam, nup, num)
                if refined is not None:
                    lam = refined
                    nup, num, scale, res_phys, ok = _physical_fit(params, cd, lam)
            if ok:
                out.append(
                    RootCandidate(lam, PHYSICAL, res_phys, scale, True, idx, x, y)
                )
                continue
            # the residual scale sees only |nu+-|, which no sheet flip changes
            best_sheet: SheetSelector | None = None
            best_res = math.inf
            for sheet in ALL_SHEETS:
                if sheet is PHYSICAL:
                    r = res_phys
                else:
                    r = abs(_D_from_nus(a, k, sheet.s_plus * nup, sheet.s_minus * num))
                if r / scale < best_res:
                    best_res, best_sheet = r / scale, sheet
            if best_res > _NEAR_TOL:
                best_sheet = None
            out.append(
                RootCandidate(lam, best_sheet, best_res * scale, scale, False, idx, x, y)
            )
    return out


def _distinct(values: list[complex]) -> list[complex]:
    roots: list[complex] = []
    for z in values:
        if not any(abs(z - r) <= 1e-8 * (1.0 + abs(r)) for r in roots):
            roots.append(z)
    return roots


def accepted_roots(params: ModelParams, data: CubicData | None = None) -> list[complex]:
    """Deduplicated physical-sheet roots from the cubic pipeline."""
    return _distinct([c.lam for c in candidate_roots(params, data=data) if c.accepted])


# ---------------------------------------------------------------------------
# critical curves in the (omega, kappa) plane
# ---------------------------------------------------------------------------


def collision_exponent_frequency(m: float, kappa: float) -> float:
    """Frequency ``m*sqrt(kappa)`` at which the nonzero pair collides at zero.

    Defined for ``kappa >= 0`` (NaN otherwise); equivalently the curve
    ``kappa = omega^2/m^2`` where the stability verdict flips.
    """
    if kappa < 0.0:
        return math.nan
    return m * math.sqrt(kappa)


def virtual_level_frequency(m: float, kappa: float) -> float:
    """Frequency ``m (1+2 kappa)^2 / (3+4 kappa)`` of the virtual-level curve.

    For ``kappa in [-1/2, 1/sqrt(2))`` this lies in ``[0, m)`` and is where the
    in-gap pair reaches the thresholds ``+-i(m-|omega|)``.  NaN at the pole
    ``kappa = -3/4``.
    """
    den = 3.0 + 4.0 * kappa
    if den == 0.0:
        return math.nan
    return m * (1.0 + 2.0 * kappa) ** 2 / den


def virtual_level_exponent(m: float, omega: float) -> float:
    """Exponent value ``K`` with a virtual level at frequency ``omega``.

    Functional inverse of :func:`virtual_level_frequency` on
    ``kappa in [-1/2, 1/sqrt(2))``; negative for ``|omega| < m/3``, zero at
    ``m/3``, and increasing to ``1/sqrt(2)`` as ``|omega| -> m``.
    """
    s = math.sqrt(abs(omega) / (m + abs(omega)))
    return (2.0 * s - 1.0) / (2.0 - 2.0 * s)


class RegionCode(enum.Enum):
    """Qualitative content of the point spectrum at one parameter cell."""

    ZERO_ONLY = "ZeroOnly"
    REAL_PAIR = "RealPair"
    IMAGINARY_PAIR = "ImaginaryPair"
    EMBEDDED_PAIR = "EmbeddedPair"
    KOLOKOLOV_CRITICAL = "KolokolovCritical"
    VIRTUAL_LEVEL_BOUNDARY = "VirtualLevelBoundary"


def region_code(m: float, omega: float, kappa: float, band: float = 1e-6) -> RegionCode:
    """Analytic region predicate, straight from the curve inequalities.

    Only ``kappa`` against ``omega^2/m^2`` and the virtual-level curve, and
    the line ``kappa = 0`` enter, with one limit of the cubic pipeline: on the
    line a pair with ``x = 4 omega^2 <= _X_FLOOR m^2`` is the curve origin.
    ``band`` is the half-width of the boundary bands, measured in ``kappa``
    and in ``|omega|/m`` (the virtual-level band in both), reported as
    explicit boundary codes.  ``|kappa| <= band`` is the line ``kappa = 0``,
    except where a point off the exact line also lies in another band.
    """
    aw = abs(omega)
    if kappa == 0.0:
        # the line meets the Kolokolov curve at the origin, where the band is
        # measured in omega/m (off the line the Kolokolov band covers it)
        if aw <= band * m or 4.0 * omega * omega <= _X_FLOOR * m * m:
            return RegionCode.KOLOKOLOV_CRITICAL
    else:
        kol_defect = kappa - (omega / m) ** 2
        if abs(kol_defect) <= band:
            return RegionCode.KOLOKOLOV_CRITICAL
        kv = virtual_level_exponent(m, omega)
        if -0.5 - band <= kappa < _INV_SQRT2 and (
            abs(kappa - kv) <= band or abs(aw - virtual_level_frequency(m, kappa)) <= band * m
        ):
            return RegionCode.VIRTUAL_LEVEL_BOUNDARY
        if abs(kappa) > band:
            if kol_defect > 0.0:
                return RegionCode.REAL_PAIR
            return RegionCode.IMAGINARY_PAIR if kappa > kv else RegionCode.ZERO_ONLY
    # on the line the decoupled pair +-2i*omega is embedded from m - |omega| on
    return RegionCode.EMBEDDED_PAIR if 2.0 * aw >= m - aw else RegionCode.IMAGINARY_PAIR


@dataclass(frozen=True)
class CriticalCurves:
    """The three curve values through one parameter point.

    ``collision_omega``: frequency where the pair collides at zero for this
    ``kappa`` (NaN for ``kappa < 0``); ``virtual_omega``: frequency of the
    virtual-level curve for this ``kappa`` (NaN at ``kappa=-3/4``);
    ``virtual_kappa``: exponent placing a virtual level at this ``omega``.
    """

    collision_omega: float
    virtual_omega: float
    virtual_kappa: float


def critical_curves(p: ModelParams) -> CriticalCurves:
    return CriticalCurves(
        collision_omega=collision_exponent_frequency(p.m, p.kappa),
        virtual_omega=virtual_level_frequency(p.m, p.kappa),
        virtual_kappa=virtual_level_exponent(p.m, p.omega),
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectral picture of the linearization at one parameter point."""

    params: ModelParams
    ess: RealIntervalSet
    points: PointSpectrum
    jordan_at_zero: JordanBlock
    verdict: Verdict
    virtual_levels: tuple[complex, ...]
    flags: tuple[str, ...]
    candidates: tuple[RootCandidate, ...]
    region: RegionCode  # the region_code it was built for; not in the JSON

    def nonzero_values(self) -> tuple[complex, ...]:
        return tuple(e.value for e in self.points.entries if e.value != 0)

    def to_dict(self, verbose: bool = False) -> dict:
        out = {
            "schema": 1,
            "params": {"m": self.params.m, "omega": self.params.omega, "kappa": self.params.kappa},
            "ess_intervals": self.ess.to_jsonable(),
            "thresholds": list(self.ess.thresholds),
            "point_spectrum": self.points.to_jsonable(),
            "jordan_at_zero": self.jordan_at_zero.to_jsonable(),
            "verdict": self.verdict.value,
            "virtual_levels": [[v.real, v.imag] for v in self.virtual_levels],
            "flags": list(self.flags),
        }
        if verbose:
            out["candidates"] = [c.to_jsonable() for c in self.candidates]
        return out

    def to_json(self, verbose: bool = False) -> str:
        return json.dumps(self.to_dict(verbose=verbose), indent=2)


def _check_symmetry(values: list[complex]) -> None:
    # point spectrum must be invariant under lam -> -lam and lam -> conj(lam)
    for v in values:
        for image in (-v, v.conjugate(), -v.conjugate()):
            if not any(abs(image - u) <= 1e-8 * (1.0 + abs(v)) for u in values):
                raise ClassificationError(
                    f"accepted spectrum breaks +-/conjugation symmetry at {v}"
                )


def _region_pair(
    region: RegionCode, accepted: list[complex], m: float, w: float, k: float
) -> tuple[complex | None, list[str]]:
    """The upper value of the nonzero pair ``region`` calls for, and its flags.

    The value is ``None`` in ZeroOnly and on the boundary codes; the flags are
    ZeroOnly's grazing flags.  Raises :class:`ClassificationError` where the
    accepted roots do not fit the region.
    """
    gap = m - abs(w)

    def _pick(predicate, what: str) -> complex:
        sel = [z for z in accepted if predicate(z)]
        if not sel:
            raise ClassificationError(
                f"no accepted {what} root at (m={m}, omega={w}, kappa={k}); "
                f"accepted={accepted}"
            )
        return max(sel, key=abs)

    if region is RegionCode.REAL_PAIR:
        return _pick(lambda z: abs(z.imag) <= 1e-8 * abs(z) and z.real > 0, "real"), []
    if region is RegionCode.ZERO_ONLY:
        # kappa <= K(omega) off the line kappa = 0: the nonzero pair has
        # crossed onto an unphysical sheet.  Grazing acceptance is tolerated
        # and flagged: roots within float resolution of the gap threshold
        # (virtual-level remnants), roots within the resolution of the
        # ever-present double root at zero (only in a ~1e-7 shell around
        # kappa = -1, where a resonance crosses zero), and roots on the cut
        # beyond the threshold (for small |kappa| the resonance left by the
        # embedded pair +-2i*omega of kappa = 0 is closer to it than the
        # residual resolves).
        flags: list[str] = []
        near_threshold = [
            z for z in accepted if abs(abs(z.imag) - gap) <= 1e-6 * (1.0 + gap)
        ]
        zero_cluster = [
            z for z in accepted if abs(z) <= 1e-4 * m and z not in near_threshold
        ]
        others = [z for z in accepted if z not in near_threshold and z not in zero_cluster]
        on_cut = [z for z in others if abs(z.real) <= 1e-8 * abs(z) and abs(z.imag) > gap]
        if near_threshold:
            flags.append("near-threshold")
        if zero_cluster:
            flags.append("zero-cluster")
        if on_cut:
            flags.append("on-cut-resonance")
        stray = [z for z in others if z not in on_cut]
        if stray:
            raise ClassificationError(
                f"unexpected accepted roots {stray} at (m={m}, omega={w}, kappa={k})"
            )
        return None, flags
    if region in (RegionCode.IMAGINARY_PAIR, RegionCode.EMBEDDED_PAIR):
        # an imaginary pair: inside the gap, or on the line kappa = 0 the
        # decoupled pair +-2i*omega, embedded once it reaches the threshold
        what = "embedded imaginary" if region is RegionCode.EMBEDDED_PAIR else "in-gap imaginary"
        return _pick(lambda z: abs(z.real) <= 1e-8 * abs(z) and 0.0 < z.imag, what), []
    return None, []


def classify_point_spectrum(p: ModelParams, boundary_tol: float = BOUNDARY_TOL) -> SpectrumReport:
    """Point spectrum, embedded eigenvalues and virtual levels at ``p``.

    The region of the ``(omega, kappa)`` plane is decided by
    :func:`region_code` with band ``boundary_tol``, while the nonzero
    eigenvalue *values* come from the cubic pipeline; a disagreement between
    the two raises :class:`ClassificationError`.  Inside the boundary bands
    the discontinuous classification is replaced by an explicit boundary
    report (flags ``"kolokolov-critical"`` / ``"virtual-level"``), because
    silent tie-breaking would make parameter scans irreproducible.
    """
    m, w, k = p.m, p.omega, p.kappa
    gap = m - abs(w)
    ess = sigma_ess_A(p)
    jordan = zero_jordan_structure(p)
    verdict = stability_verdict(p)
    cands = candidate_roots(p)
    accepted = _distinct([c.lam for c in cands if c.accepted])
    region = region_code(m, w, k, boundary_tol)

    entries: list[SpectralPoint] = [
        SpectralPoint(0j, geometric_mult=jordan.geometric, algebraic_mult=jordan.algebraic)
    ]
    virtual: tuple[complex, ...] = ()
    lam, flags = _region_pair(region, accepted, m, w, k)

    if region is RegionCode.KOLOKOLOV_CRITICAL:
        flags.append("kolokolov-critical")
    elif region is RegionCode.VIRTUAL_LEVEL_BOUNDARY:
        virtual = (complex(0.0, gap), complex(0.0, -gap))
        flags.append("virtual-level")
        if abs(w) <= boundary_tol * m and abs(k + 0.5) <= boundary_tol:
            # omega = 0, kappa = -1/2: both gap thresholds coincide at +-i*m
            flags.append("threshold-overlap")
    elif lam is not None:
        # a real pair, an in-gap imaginary pair, or the embedded pair of the
        # line kappa = 0 (a real pair has |kappa| > boundary_tol)
        embedded = region is RegionCode.EMBEDDED_PAIR
        entries.append(SpectralPoint(lam, embedded=embedded))
        entries.append(SpectralPoint(-lam, embedded=embedded))
        if embedded:
            flags.append("embedded")
        if abs(k) <= boundary_tol and abs(abs(w) - m / 3.0) <= boundary_tol * m:
            # threshold onset: the embedded pair sits exactly at +-i*gap but
            # keeps a square-integrable eigenfunction, so it is not a virtual
            # level; flag the coincidence instead
            flags.append("virtual-level-curve-at-kappa-zero")

    _check_symmetry([e.value for e in entries])
    return SpectrumReport(
        params=p,
        ess=ess,
        points=PointSpectrum(tuple(entries)),
        jordan_at_zero=jordan,
        verdict=verdict,
        virtual_levels=virtual,
        flags=tuple(flags),
        candidates=tuple(cands),
        region=region,
    )


# ---------------------------------------------------------------------------
# many cells at once: the scan's array path
# ---------------------------------------------------------------------------


def _each(fn, values: np.ndarray, *args) -> np.ndarray:
    """``fn(v, *args)`` per element on Python numbers, NaN where it raises.

    numpy's ``**``, ``arccos``, ``cos`` and complex ``sqrt`` may differ in
    the last bit from the libm calls of the scalar pipeline, so the values
    the classification reports are formed by the same calls, one by one.
    """
    vals = values.ravel().tolist()
    try:
        out = [fn(v, *args) for v in vals]
    except (ArithmeticError, ValueError):
        out = []
        for v in vals:
            try:
                out.append(fn(v, *args))
            except (ArithmeticError, ValueError):
                out.append(math.nan)
    return np.array(out, dtype=complex if values.dtype.kind == "c" else float).reshape(values.shape)


def _nu_cells(m: float, w: np.ndarray, lr: np.ndarray, li: np.ndarray, plus: bool) -> np.ndarray:
    """:func:`_nu_principal` of ``omega +- i*lam`` on arrays.

    ``z = m^2 - (omega +- i*lam)^2`` is formed with the real operations of
    Python's complex arithmetic, so the cut test and the cut values are
    exact; elsewhere only the square root may differ in the last bits.
    """
    tr, ti = 0.0 * lr - li, 0.0 * li + lr  # 1j * lam
    wr, wi = (w + tr, 0.0 + ti) if plus else (w - tr, 0.0 - ti)
    zr = m * m - (wr * wr - wi * wi)
    zi = 0.0 - (wr * wi + wi * wr)
    cut = (zi == 0.0) & (zr < 0.0)
    z = np.empty(zr.shape, dtype=complex)
    z.real, z.imag = zr, zi
    on_cut = 1j * np.copysign(np.sqrt(-zr), -wr if plus else wr)
    return np.where(cut, on_cut, np.sqrt(z))


def classify_cells(
    m: float, omegas: list[float], kappas: list[float], band: float
) -> list[tuple[RegionCode, complex | None, float] | None]:
    """What :func:`classify_point_spectrum` decides at many cells, or ``None``.

    Cell ``i`` is ``(m, omegas[i], kappas[i])`` with boundary band ``band``.
    Its entry is the region code, the upper value of the nonzero pair the
    region calls for (``None`` in ZeroOnly) and the discriminant ``delta``,
    each to the bit what the scalar classifier and :func:`cubic_data` give.
    The cubic pipeline, the ``+-sqrt(x)`` candidates, their physical-sheet
    residuals and the pre-squaring identity run as arrays over all cells,
    through the scalar helpers: ``c, p, q, delta`` (libm ``pow`` per element),
    the roots and ``lambda`` keep the scalar bits, while ``|D|``, its scale
    and the identity may be a few ulps off.  The discriminant band of
    :func:`cubic_roots` (the whole line ``kappa = 0`` among others) is decided
    here too: its double-root formulas use only ``*`` and ``/``, and band
    membership compares the scalar bits, so it needs no margin.  A cell is
    decided here only when every other decision has a margin of
    ``_GRID_MARGIN`` of its scale; ``None`` leaves it to the scalar
    classifier: the boundary-band codes, a cubic with ``p = q = 0``, near
    misses, decisions inside the margin, and accepted roots that do not fit
    the region.
    """
    n = len(omegas)
    codes = [region_code(m, w, k, band) for w, k in zip(omegas, kappas)]
    w = np.array(omegas, dtype=float)
    k = np.array(kappas, dtype=float)
    with np.errstate(all="ignore"):
        a = 2.0 * np.sqrt((m - w) * (m + w))  # ModelParams.alpha
        c, p, q, delta = _cubic_terms(m, a, k, functools.partial(_each, pow))

        # cubic_roots: the double-root band, then the two generic branches
        cubic_scale = np.maximum(_each(pow, np.abs(p), 3), q * q)
        in_band = (np.abs(delta) <= 1e-12 * cubic_scale) & (cubic_scale != 0.0)
        split = np.abs(delta) > 1e-12 * cubic_scale
        yr = np.full((n, 3), math.nan)
        yi = np.zeros((n, 3))
        pb, qb = p[in_band], q[in_band]
        yd = -1.5 * qb / pb
        yr[in_band] = np.stack([3.0 * qb / pb, yd, yd], axis=1)
        trig = split & (delta > 0.0)
        pt, qt = p[trig], q[trig]
        amp = 2.0 * np.sqrt(-pt / 3.0)
        theta = _each(math.acos, np.clip(3.0 * qt / (pt * amp), -1.0, 1.0)) / 3.0
        for j in range(3):
            yr[trig, j] = amp * _each(math.cos, theta - 2.0 * math.pi * j / 3.0)
        card = split & (delta < 0.0)
        pc, qc = p[card], q[card]
        d = np.sqrt(-delta[card] / 108.0)
        t = -0.5 * qc
        u3 = np.where(np.abs(t + d) >= np.abs(t - d), t + d, t - d)
        u = np.copysign(_each(pow, np.abs(u3), 1.0 / 3.0), u3)
        v = -pc / (3.0 * u)
        y1 = u + v
        im = 0.5 * math.sqrt(3.0) * np.abs(u - v)
        yr[card] = np.stack([y1, -0.5 * y1, -0.5 * y1], axis=1)
        yi[card] = np.stack([np.zeros_like(im), im, -im], axis=1)

        # candidate_roots: +-sqrt(x) for x = y - 2c/3 off the root at zero
        x = np.empty((n, 3), dtype=complex)
        x.real, x.imag = yr - 2.0 * c[:, None] / 3.0, yi
        x_floor = _X_FLOOR * np.maximum(m * m, np.abs(c))[:, None]
        ax = np.abs(x)
        skip = np.repeat(ax <= x_floor, 2, axis=1)
        unsure_floor = np.abs(ax - x_floor) <= _GRID_MARGIN * x_floor
        principal = _each(cmath.sqrt, x)
        lam = np.stack([principal, -principal], axis=2).reshape(n, 6)

        # _physical_fit: |D| against its scale, and the pre-squaring identity
        a, c, k, w = a[:, None], c[:, None], k[:, None], w[:, None]
        nup = _nu_cells(m, w, lam.real, lam.imag, True)
        num = _nu_cells(m, w, lam.real, lam.imag, False)
        res = abs(_D_from_nus(a, k, nup, num))
        scale = _scale_from_nus(a, k, nup, num)
        x2 = lam * lam
        disc = np.sqrt(a * a * (1.0 - k) ** 2 + 8.0 * x2)
        sigma = nup + num
        d_plus, d_minus = _branch_distances(a, k, sigma, disc)
        span = np.abs(sigma) + np.abs(a * (1.0 + k)) + np.abs(disc)
        unsure_sign = np.abs(d_plus - d_minus) <= _GRID_MARGIN * span
        gap_id, id_scale = _identity_gap(a, k, c, x2, np.where(d_plus <= d_minus, 1.0, -1.0), disc)
        id_ok = gap_id <= (_NEAR_TOL - _GRID_MARGIN) * id_scale
        id_fails = gap_id > (_NEAR_TOL + _GRID_MARGIN) * id_scale
        small = res <= (ACCEPT_TOL - _GRID_MARGIN) * scale
        accept = ~skip & small & ~unsure_sign & id_ok
        far = res > (_NEAR_TOL + _GRID_MARGIN) * scale
        reject = skip | far | (small & ~unsure_sign & id_fails)
        open_cells = ~(split | in_band) | ~(accept | reject).all(axis=1) | unsure_floor.any(axis=1)

    out: list[tuple[RegionCode, complex | None, float] | None] = []
    boundary = (RegionCode.KOLOKOLOV_CRITICAL, RegionCode.VIRTUAL_LEVEL_BOUNDARY)
    cells = zip(codes, omegas, kappas, open_cells.tolist(), lam.tolist(), accept.tolist(), delta.tolist())
    for code, w_i, k_i, is_open, lams, oks, delta_i in cells:
        if is_open or code in boundary:
            out.append(None)
            continue
        roots = _distinct([z for z, ok in zip(lams, oks) if ok])
        try:
            pair, _ = _region_pair(code, roots, m, w_i, k_i)
            if pair is not None and pair.real and pair.imag:
                # an exactly real or imaginary pair is symmetric as it stands
                _check_symmetry([0j, pair, -pair])
        except ClassificationError:
            out.append(None)
            continue
        out.append((code, pair, delta_i))
    return out


# ---------------------------------------------------------------------------
# independent on-axis oracle: dense sign scan + Brent's method
# ---------------------------------------------------------------------------


def _real_axis_exponents(m: float, omega: float, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # for real lambda = t the two exponents are complex conjugates, so D needs
    # only Re nu_+ and |nu_+|^2; plain principal square roots agree with the
    # sheet convention
    wplus = omega + 1j * ts
    nup = np.sqrt(m * m - wplus * wplus)
    # copies, so that a cached mesh keeps no complex array alive
    return nup.real.copy(), (nup * np.conj(nup)).real.copy()


def _real_axis_values(p: ModelParams, exponents: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    re, sq = exponents
    a, k = p.alpha, p.kappa
    return a * a * (1.0 + k) ** 2 - 4.0 * re * a * (1.0 + k) + 4.0 * sq - a * a * k * k


def _gap_axis_exponents(m: float, omega: float, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # lambda = i t with 0 < t < m - |omega|: both exponents real positive
    return np.sqrt(m * m - (omega - ts) ** 2), np.sqrt(m * m - (omega + ts) ** 2)


def _gap_axis_values(p: ModelParams, exponents: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    nup, num = exponents
    a, k = p.alpha, p.kappa
    return a * a * (1.0 + k) ** 2 - 2.0 * (nup + num) * a * (1.0 + k) + 4.0 * nup * num - a * a * k * k


@functools.lru_cache(maxsize=1)
def _axis_meshes(m: float, omega: float) -> tuple[tuple, tuple]:
    """The real-axis and gap meshes at ``(m, omega)``, each with its exponents.

    Returns ``((real_mesh, real_exponents), (gap_mesh, gap_exponents))``, all
    arrays read-only.  None of it depends on ``kappa``, so a sweep over
    ``kappa`` at one ``(m, omega)`` builds it once; the cache keeps the last
    pair only (at most 96 KB at ``m = 1``, growing linearly with ``m``).
    """
    step, t_max = _ORACLE_STEP, _ORACLE_REAL_END * m
    real_mesh = np.unique(np.concatenate([np.arange(step, t_max, step), [t_max]]))
    real_ex = _real_axis_exponents(m, omega, real_mesh)

    gap = m - abs(omega)
    gcore = np.arange(step, gap, step)
    gtop = gap * (1.0 - np.geomspace(1e-12, min(0.1, step / gap), 9))
    gap_mesh = np.unique(np.concatenate([gcore, gtop]))
    gap_mesh = gap_mesh[(gap_mesh >= step) & (gap_mesh < gap)]
    gap_ex = _gap_axis_exponents(m, omega, gap_mesh)

    for arr in (real_mesh, *real_ex, gap_mesh, *gap_ex):
        arr.flags.writeable = False
    return (real_mesh, real_ex), (gap_mesh, gap_ex)


def _scan_segment(p: ModelParams, exponents, values, mesh: np.ndarray, mesh_exponents) -> list[float]:
    sgn = np.sign(values(p, mesh_exponents))
    roots: list[float] = []
    for i in np.flatnonzero((sgn[:-1] == 0.0) | (sgn[:-1] * sgn[1:] < 0.0)):
        if sgn[i] == 0.0:
            roots.append(float(mesh[i]))
        else:
            roots.append(brentq(
                lambda t: float(values(p, exponents(p.m, p.omega, np.array([t])))[0]),
                mesh[i], mesh[i + 1], xtol=1e-14, rtol=8.9e-16,
            ))
    if len(mesh) and sgn[-1] == 0.0:
        roots.append(float(mesh[-1]))
    return roots


def axis_scan_roots(p: ModelParams) -> tuple[list[float], list[float]]:
    """Roots of the determinant restrictions to the two spectral axes.

    Scans ``D(t)`` for ``t in [1e-3, 3m]`` (real axis) and ``D(i t)`` for
    ``t in [1e-3, m - |omega|)`` (inside the gap) for sign changes on a mesh
    of step ``1e-3`` and refines each bracket by Brent's method
    (:func:`~kgdelta.model.brentq`).  Both restrictions are real valued on
    the physical sheet, which is what makes this an oracle fully independent
    of the cubic reduction.  The mesh starts at one step rather than at zero:
    the determinant always has a double root at the origin, so below
    ``t ~ 1e-8`` its values drown in evaluation roundoff and sign scanning is
    meaningless there.  Log-spaced fringe points are appended just below the
    gap threshold, where the square-root singularity keeps values well
    resolved and a virtual-level collision can push a root arbitrarily close
    to the edge.  The exponents on both axes depend on ``(m, omega)`` only,
    so the meshes and their exponents are built once per ``(m, omega)``
    (:func:`_axis_meshes`) and each point combines them with its ``kappa``.
    """
    (real_mesh, real_ex), (gap_mesh, gap_ex) = _axis_meshes(p.m, p.omega)
    real_roots = _scan_segment(p, _real_axis_exponents, _real_axis_values, real_mesh, real_ex)
    gap_roots = _scan_segment(p, _gap_axis_exponents, _gap_axis_values, gap_mesh, gap_ex)
    return real_roots, gap_roots


def oracle_mismatches(p: ModelParams, data: CubicData | None = None) -> list[str]:
    """Compare cubic-pipeline roots against the dense axis scan.

    Both root sets are restricted to the scannable domains (real axis in
    ``(1e-3, 3m)``, spectral gap in ``(1e-3, gap)`` on the imaginary
    axis): embedded eigenvalues sit on the cuts outside the scan, values at
    or beyond the mesh ends cannot be bracketed, and threshold-exact values
    are boundary cases, so none of those are comparable here.  Returns one
    message per root unmatched within ``1e-6``; an empty list means full
    agreement.
    """
    t_max = _ORACLE_REAL_END * p.m
    gap = p.m - abs(p.omega)
    margin = _ORACLE_STEP * (1.0 + 1e-9)
    accepted = accepted_roots(p, data=data)
    want_real = sorted(
        z.real for z in accepted if abs(z.imag) <= 1e-8 * abs(z) and margin < z.real < t_max
    )
    want_gap = sorted(
        z.imag
        for z in accepted
        if abs(z.real) <= 1e-8 * abs(z) and margin < z.imag < gap * (1.0 - 1e-12)
    )
    got_real, got_gap = axis_scan_roots(p)

    issues: list[str] = []

    def _match(wanted: list[float], got: list[float], axis: str) -> None:
        got_left = list(got)
        for t in wanted:
            hit = next((g for g in got_left if abs(g - t) <= 1e-6), None)
            if hit is None:
                issues.append(f"{axis}: pipeline root {t:.9g} not found by scan")
            else:
                got_left.remove(hit)
        for g in got_left:
            issues.append(f"{axis}: scan found extra root {g:.9g}")

    _match(want_real, got_real, "real-axis")
    _match(want_gap, got_gap, "gap-axis")
    return issues
