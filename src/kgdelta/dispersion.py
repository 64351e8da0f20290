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
:class:`SpectrumReport`.  Many cells at once run the same pipeline as numpy
arrays, the discriminant band of the cubic included, through one entry per
result: :func:`_classify_arrays` gives the scan its region codes, pairs and
discriminants, and :func:`accepted_cells` gives the accepted roots.  Each
leaves a cell it cannot decide with margin to the scalar path.  Both paths
call the same helpers, each formula written once for numbers or arrays; the
array path keeps the scalar bits of ``c, p, q, delta``, the roots and
``lambda``.  ``D`` is homogeneous in ``m``, so both decide at
``(1, omega/m, kappa)`` (:func:`_unit`) and scale by ``m``.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
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
    "RegionCode",
    "SpectrumReport",
    "ClassificationError",
    "CubicOverflow",
    "nu_pm",
    "D_eval",
    "residual_scale",
    "Q_eval",
    "cubic_data",
    "cubic_roots",
    "candidate_roots",
    "accepted_roots",
    "collision_exponent_frequency",
    "virtual_level_frequency",
    "virtual_level_exponent",
    "region_code",
    "classify_point_spectrum",
    "accepted_cells",
    "axis_scan_roots",
    "oracle_mismatches",
]

#: Relative residual below which a candidate counts as a root of D.
ACCEPT_TOL = 1e-9
#: Looser bound for the pre-squaring identity, a near miss and a sheet label.
_NEAR_TOL = math.sqrt(ACCEPT_TOL)

#: Half-band (in classification defect) around the critical curves inside
#: which the discontinuous classification is reported as a boundary case.
BOUNDARY_TOL = 1e-10

#: Resolution of the cubic pipeline in ``x = lambda^2`` at ``m = 1``, relative
#: to ``max(1, |c|)``: a root closer to ``x = 0`` is not told from the one there.
_X_FLOOR = 1e-13

#: Mesh step of the axis-scan oracle, and the end of its real axis, over ``m``.
_ORACLE_STEP = 1e-3
_ORACLE_REAL_END = 3.0

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Margin, relative to each test's own scale, that the array path keeps from
#: every acceptance threshold.  Its numpy evaluation of ``D`` and of the
#: pre-squaring identity differs from the scalar one by a few ulps of
#: that scale; a cell with a decision inside the margin goes to the scalar
#: classifier.
_GRID_MARGIN = 1e-12


class ClassificationError(RuntimeError):
    """The cubic pipeline and the analytic region predicates disagree."""


class CubicOverflow(ValueError, OverflowError):
    """The cubic's coefficients overflow float64 (``|kappa|``, or ``m`` and so ``Delta``, of order 3e25).

    A ``ValueError``, so the command line exits 2 with ``error: ...``, and
    an ``OverflowError``, which Python's ``**`` raises for some of them.
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


def _axis_powers(a, k, pw=pow):
    """The cubic's powers of one axis: ``alpha^2, alpha^6`` at ``a = alpha``, ``(1+kappa)^2, kappa^4``."""
    a2 = pw(a, 2)
    return a2, pw(a2, 3), pw(1.0 + k, 2), pw(k, 4)


def _cubic_terms(m, k, a2, a6, k1_2, k4, pw=pow):
    """``(c, p, q, delta)`` from the :func:`_axis_powers`, on numbers or arrays.

    Every power is ``pw(base, exponent)``: Python's ``pow``, which raises
    ``OverflowError``, or on arrays that same ``pow`` per element.
    """
    c = 4.0 * m * m - a2 * (1.0 + k + 0.5 * k * k)
    r = 0.25 * a2 * a2 * k * k * (1.0 - k * k)  # alpha^4 kappa^2 (1 - kappa^2) / 4
    p = -c * c / 3.0 + r
    q = -2.0 * pw(c, 3) / 27.0 + c * r / 3.0 - a6 * k1_2 * k4 / 8.0
    delta = -4.0 * pw(p, 3) - 27.0 * q * q
    return c, p, q, delta


def _overflow(p: ModelParams) -> CubicOverflow:
    return CubicOverflow(f"the cubic's coefficients overflow float64 at m = {p.m:g}, kappa = {p.kappa:g}")


def cubic_data(params: ModelParams) -> CubicData:
    k = params.kappa
    try:
        terms = _cubic_terms(params.m, k, *_axis_powers(params.alpha, k))
        # a product that overflows gives inf or NaN where ``**`` raises
        if all(map(math.isfinite, terms)):
            return CubicData(*terms)
    except OverflowError:
        pass
    raise _overflow(params)


def _unit(p: ModelParams) -> ModelParams:
    """``p`` in units of its mass, ``(1, omega/m, kappa)``; ``p`` itself at ``m = 1``."""
    return p if p.m == 1.0 else ModelParams(1.0, p.omega / p.m, p.kappa)


def _delta_at_mass(m: float, delta):
    """``m^12 delta``, the discriminant at mass ``m`` from ``delta`` at ``m = 1``; numbers or arrays."""
    m4 = m * m * (m * m)  # inf past float64, where m**12 would raise
    return m4 * m4 * m4 * delta


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


def _times(m: float, z: complex) -> complex:
    return z if m == 1.0 else complex(m * z.real, m * z.imag)  # m * z would lose a -0.0 part


def _at_mass(cands: list[RootCandidate], m: float) -> list[RootCandidate]:
    """Candidates found at ``m = 1``, at mass ``m``: ``lam`` times ``m``, the rest times ``m^2``."""
    return cands if m == 1.0 else [RootCandidate(
        _times(m, c.lam), c.sheet, m * m * c.residual, m * m * c.scale, c.accepted, c.source,
        _times(m * m, c.x), _times(m * m, c.y)) for c in cands]


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


def candidate_roots(params: ModelParams, q_offset: float = 0.0) -> list[RootCandidate]:
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
    is the Jordan data's job.  It runs at ``_unit(params)``; a nonzero
    ``q_offset`` moves that cubic's ``q`` by ``q_offset (1 + |q|)``, a fault
    injected for ``validate --perturb-q``.
    """
    unit = _unit(params)
    try:
        cd = cubic_data(unit)
    except CubicOverflow:  # the unit cubic names m = 1
        raise _overflow(params) from None
    if q_offset != 0.0:
        q = cd.q + q_offset * (1.0 + abs(cd.q))
        cd = CubicData(cd.c, cd.p, q, -4.0 * cd.p**3 - 27.0 * q * q)
    a, k = unit.alpha, unit.kappa
    x_floor = _X_FLOOR * max(1.0, abs(cd.c))
    out: list[RootCandidate] = []
    for idx, y in enumerate(cubic_roots(cd)):
        x = y - 2.0 * cd.c / 3.0
        if abs(x) <= x_floor:
            continue
        principal = cmath.sqrt(x)
        for lam in (principal, -principal):
            nup, num, scale, res_phys, ok = _physical_fit(unit, cd, lam)
            if not ok and ACCEPT_TOL * scale < res_phys <= _NEAR_TOL * scale:
                refined = _refine_near_miss(unit, cd, lam, nup, num)
                if refined is not None:
                    lam = refined
                    nup, num, scale, res_phys, ok = _physical_fit(unit, cd, lam)
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
    return _at_mass(out, params.m)


def _same_point(z: complex, r: complex) -> bool:
    """Whether ``z`` is the spectral point ``r``, to ``1e-8`` in units of ``m``."""
    return abs(z - r) <= 1e-8 * (1.0 + abs(r))


def _distinct(values: list[complex]) -> list[complex]:
    roots: list[complex] = []
    for z in values:
        if not any(_same_point(z, r) for r in roots):
            roots.append(z)
    return roots


def _unit_candidates(p: ModelParams, q_offset: float = 0.0) -> list[RootCandidate]:
    """:func:`candidate_roots` at ``_unit(p)``; a cubic that overflows is named with ``p``'s mass."""
    try:
        return candidate_roots(_unit(p), q_offset)
    except CubicOverflow:  # the unit cubic names m = 1
        raise _overflow(p) from None


def accepted_roots(params: ModelParams, q_offset: float = 0.0) -> list[complex]:
    """Deduplicated physical-sheet roots from the cubic pipeline, told apart at ``m = 1``."""
    cands = _unit_candidates(params, q_offset)
    return [_times(params.m, z) for z in _distinct([c.lam for c in cands if c.accepted])]


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


#: The region codes in definition order; :func:`_region_index` indexes them.
_REGIONS = tuple(RegionCode)
_ZERO, _REAL, _IMAG, _EMB, _KOL, _VLB = range(len(_REGIONS))


def _if(cond, a, b):
    return a if cond else b


def _region_index(aw, aw2, kv, k, t, band, where=_if):
    """:func:`region_code`'s rules on numbers or arrays, as an index into ``_REGIONS``.

    ``aw = |omega/m|``, ``aw2 = aw**2``, ``kv = K(aw)`` and ``t = T(k)`` (NaN
    where it overflows) are at ``m = 1``.
    """
    kol_defect = k - aw2
    # the line meets the Kolokolov curve at the origin, where the band is
    # measured in omega/m (off the line the Kolokolov band covers it)
    kol = where(k == 0.0, (aw <= band) | (4.0 * aw * aw <= _X_FLOOR), abs(kol_defect) <= band)
    vlb = (k != 0.0) & (-0.5 - band <= k) & (k < _INV_SQRT2) & ((abs(k - kv) <= band) | (abs(aw - t) <= band))
    off_line = where(kol_defect > 0.0, _REAL, where(k > kv, _IMAG, _ZERO))
    # on the line the decoupled pair +-2i*omega is embedded from m - |omega| on
    on_line = where(2.0 * aw >= 1.0 - aw, _EMB, _IMAG)
    return where(kol, _KOL, where(vlb, _VLB, where((k != 0.0) & (abs(k) > band), off_line, on_line)))


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
    aw = abs(omega if m == 1.0 else _unit(ModelParams(m, omega, kappa)).omega)
    try:
        t = virtual_level_frequency(1.0, kappa)
    except OverflowError:  # (1 + 2 kappa)^2 past float64
        t = math.nan
    return _REGIONS[_region_index(aw, aw**2, virtual_level_exponent(1.0, aw), kappa, t, band)]


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
        # JSON has no NaN or Infinity, which m^2 times the audit values reach from m of order 1e154
        return json.dumps(self.to_dict(verbose=verbose), indent=2, allow_nan=False)


def _check_symmetry(values: list[complex]) -> None:
    # point spectrum must be invariant under lam -> -lam and lam -> conj(lam)
    for v in values:
        for image in (-v, v.conjugate(), -v.conjugate()):
            if not any(_same_point(u, image) for u in values):
                raise ClassificationError(
                    f"accepted spectrum breaks +-/conjugation symmetry at {v}"
                )


def _region_pair(
    region: RegionCode, accepted: list[complex], w: float, k: float
) -> tuple[complex | None, list[str]]:
    """The upper value at ``(1, w, k)`` of the nonzero pair ``region`` calls for, and its flags.

    The value is ``None`` in ZeroOnly and on the boundary codes; the flags are
    ZeroOnly's grazing flags.  Raises :class:`ClassificationError` where the
    accepted roots do not fit the region.
    """
    gap = 1.0 - abs(w)

    def _pick(predicate, what: str) -> complex:
        sel = [z for z in accepted if predicate(z)]
        if not sel:
            raise ClassificationError(
                f"no accepted {what} root at (omega/m={w}, kappa={k}); "
                f"accepted={accepted} in units of m"
            )
        z = max(sel, key=abs)
        if z.real and z.imag:  # an exactly real or imaginary pair is symmetric as it stands
            _check_symmetry([0j, z, -z])
        return z

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
            z for z in accepted if abs(z) <= 1e-4 and z not in near_threshold
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
                f"unexpected accepted roots {stray} in units of m at (omega/m={w}, kappa={k})"
            )
        return None, flags
    if region in (RegionCode.IMAGINARY_PAIR, RegionCode.EMBEDDED_PAIR):
        # an imaginary pair: inside the gap, or on the line kappa = 0 the
        # decoupled pair +-2i*omega, embedded once it reaches the threshold
        what = "embedded imaginary" if region is RegionCode.EMBEDDED_PAIR else "in-gap imaginary"
        return _pick(lambda z: abs(z.real) <= 1e-8 * abs(z) and 0.0 < z.imag, what), []
    return None, []


def classify_point_spectrum(p: ModelParams, boundary_tol: float = BOUNDARY_TOL) -> SpectrumReport:
    """Point spectrum, embedded eigenvalues and virtual levels at ``p``, decided at ``_unit(p)``.

    The region of the ``(omega, kappa)`` plane is decided by
    :func:`region_code` with band ``boundary_tol``, while the nonzero
    eigenvalue *values* come from the cubic pipeline; a disagreement between
    the two raises :class:`ClassificationError`.  Inside the boundary bands
    the discontinuous classification is replaced by an explicit boundary
    report (flags ``"kolokolov-critical"`` / ``"virtual-level"``), because
    silent tie-breaking would make parameter scans irreproducible.
    """
    m, unit = p.m, _unit(p)
    w, k = unit.omega, unit.kappa
    ess = sigma_ess_A(p)
    jordan = zero_jordan_structure(p)
    verdict = stability_verdict(p)
    cands = _unit_candidates(p)
    accepted = _distinct([c.lam for c in cands if c.accepted])
    region = region_code(1.0, w, k, boundary_tol)

    entries: list[SpectralPoint] = [
        SpectralPoint(0j, geometric_mult=jordan.geometric, algebraic_mult=jordan.algebraic)
    ]
    virtual: tuple[complex, ...] = ()
    lam, flags = _region_pair(region, accepted, w, k)

    if region is RegionCode.KOLOKOLOV_CRITICAL:
        flags.append("kolokolov-critical")
    elif region is RegionCode.VIRTUAL_LEVEL_BOUNDARY:
        virtual = (complex(0.0, m - abs(p.omega)), complex(0.0, abs(p.omega) - m))
        flags.append("virtual-level")
        if abs(w) <= boundary_tol and abs(k + 0.5) <= boundary_tol:
            # omega = 0, kappa = -1/2: both gap thresholds coincide at +-i*m
            flags.append("threshold-overlap")
    elif lam is not None:
        # a real pair, an in-gap imaginary pair, or the embedded pair of the
        # line kappa = 0 (a real pair has |kappa| > boundary_tol)
        lam = _times(m, lam)
        if not cmath.isfinite(lam):
            where = f"m = {m:g}, omega = {p.omega:g}, kappa = {k:g}"
            raise ValueError(f"the eigenvalues overflow float64 at {where}")
        embedded = region is RegionCode.EMBEDDED_PAIR
        entries.append(SpectralPoint(lam, embedded=embedded))
        entries.append(SpectralPoint(-lam, embedded=embedded))
        if embedded:
            flags.append("embedded")
        if abs(k) <= boundary_tol and abs(abs(w) - 1.0 / 3.0) <= boundary_tol:
            # threshold onset: the embedded pair sits exactly at +-i*gap but
            # keeps a square-integrable eigenfunction, so it is not a virtual
            # level; flag the coincidence instead
            flags.append("virtual-level-curve-at-kappa-zero")

    return SpectrumReport(
        params=p,
        ess=ess,
        points=PointSpectrum(tuple(entries)),
        jordan_at_zero=jordan,
        verdict=verdict,
        virtual_levels=virtual,
        flags=tuple(flags),
        candidates=tuple(_at_mass(cands, m)),
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
        out = list(map(fn, vals, *map(itertools.repeat, args)))
    except (ArithmeticError, ValueError):
        out = []
        for v in vals:
            try:
                out.append(fn(v, *args))
            except (ArithmeticError, ValueError):
                out.append(math.nan)
    return np.array(out, dtype=complex if values.dtype.kind == "c" else float).reshape(values.shape)


def _nu_cells(w: np.ndarray, lr: np.ndarray, li: np.ndarray, plus: bool) -> np.ndarray:
    """:func:`_nu_principal` of ``omega +- i*lam`` on arrays, at ``m = 1``.

    ``z = 1 - (omega +- i*lam)^2`` is formed with the real operations of
    Python's complex arithmetic, so the cut test and the cut values are
    exact; elsewhere only the square root may differ in the last bits.
    """
    tr, ti = 0.0 * lr - li, 0.0 * li + lr  # 1j * lam
    wr, wi = (w + tr, 0.0 + ti) if plus else (w - tr, 0.0 - ti)
    zr = 1.0 - (wr * wr - wi * wi)
    zi = 0.0 - (wr * wi + wi * wr)
    cut = (zi == 0.0) & (zr < 0.0)
    z = np.empty(zr.shape, dtype=complex)
    z.real, z.imag = zr, zi
    on_cut = 1j * np.copysign(np.sqrt(-zr), -wr if plus else wr)
    return np.where(cut, on_cut, np.sqrt(z))


def _distinct_bits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of ``values`` (``-0.0`` apart from ``0.0``), and where each value is."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(float), inverse


def _region_cells(aw: np.ndarray, wi: np.ndarray, k: np.ndarray, ki: np.ndarray, band: float):
    """:func:`_region_index` at the cells ``(aw[wi], k[ki])``, from distinct ``aw = |omega/m|``, ``k``."""
    kv = _each(functools.partial(virtual_level_exponent, 1.0), aw)
    t = _each(functools.partial(virtual_level_frequency, 1.0), k)
    return _region_index(aw[wi], _each(pow, aw, 2)[wi], kv[wi], k[ki], t[ki], band, np.where)


def accepted_cells(m: float, omegas: list[float], kappas: list[float], q_offset: float = 0.0) -> list[list[complex]]:
    """What :func:`accepted_roots` gives at many cells, each to the bit.

    Cell ``i`` is ``(m, omegas[i], kappas[i])``, and ``q_offset`` is
    :func:`candidate_roots`'s.  The candidates and their acceptance test run
    on arrays, as in :func:`_classify_arrays`; a cell they leave open (a cubic
    with ``p = q = 0`` or that overflows, a near miss, a decision inside the
    margin) goes to :func:`accepted_roots`.
    """
    ws, ks = np.array(omegas, float), np.array(kappas, float)
    if not (0.0 < m < math.inf and (np.abs(ws) < m).all() and np.isfinite(ks).all()):
        raise ValueError(f"cells must have |omega| < m and a finite kappa at a positive, finite m = {m}")
    _, _, lam, accept, open_cells, _ = _cell_candidates(m, ws, ks, q_offset)
    out = []
    for w, k, zs, oks, shut in zip(omegas, kappas, lam.tolist(), accept.tolist(), open_cells.tolist()):
        if shut:
            out.append(accepted_roots(ModelParams(m, w, k), q_offset))
        else:
            out.append([_times(m, z) for z in _distinct(list(itertools.compress(zs, oks)))])
    return out


def _cell_candidates(m: float, omegas: np.ndarray, kappas: np.ndarray, q_offset: float = 0.0) -> tuple:
    """:func:`candidate_roots`'s candidates and acceptance test at many cells, on arrays.

    Returns the distinct ``omega/m`` and ``kappa`` values, each with where
    the cells' values are among them; the six ``lambda`` of each cell at
    ``m = 1``, in :func:`candidate_roots`'s order; which of them are
    accepted; the cells left open (a cubic with ``p = q = 0`` or that
    overflows, near misses and decisions inside the margin); and ``delta``
    at ``m = 1``.  ``q_offset`` moves ``q`` as :func:`candidate_roots` does.
    """
    n = len(omegas)
    each_pow = functools.partial(_each, pow)
    (wu, wi), (ku, ki) = _distinct_bits(omegas), _distinct_bits(kappas)
    with np.errstate(all="ignore"):
        wu = wu / m  # _unit
        au = 2.0 * np.sqrt((1.0 - wu) * (1.0 + wu))  # ModelParams.alpha
        a2, a6, k1_2, k4 = _axis_powers(au, ku, each_pow)
        w, k, a = wu[wi], kappas, au[wi]
        c, p, q, delta = _cubic_terms(1.0, k, a2[wi], a6[wi], k1_2[ki], k4[ki], each_pow)
        if q_offset != 0.0:
            q = q + q_offset * (1.0 + np.abs(q))
            delta = -4.0 * each_pow(p, 3) - 27.0 * q * q

        # cubic_roots: the double-root band, then the two generic branches
        cubic_scale = np.maximum(each_pow(np.abs(p), 3), q * q)
        finite = np.isfinite(delta)  # elsewhere the scalar classifier raises CubicOverflow
        in_band = (np.abs(delta) <= 1e-12 * cubic_scale) & (cubic_scale != 0.0) & finite
        split = (np.abs(delta) > 1e-12 * cubic_scale) & finite
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
        u = np.copysign(each_pow(np.abs(u3), 1.0 / 3.0), u3)
        v = -pc / (3.0 * u)
        y1 = u + v
        im = 0.5 * math.sqrt(3.0) * np.abs(u - v)
        yr[card] = np.stack([y1, -0.5 * y1, -0.5 * y1], axis=1)
        yi[card] = np.stack([np.zeros_like(im), im, -im], axis=1)

        # candidate_roots: +-sqrt(x) for x = y - 2c/3 off the root at zero
        x = np.empty((n, 3), dtype=complex)
        x.real, x.imag = yr - 2.0 * c[:, None] / 3.0, yi
        x_floor = _X_FLOOR * np.maximum(1.0, np.abs(c))[:, None]
        ax = np.abs(x)
        skip = np.repeat(ax <= x_floor, 2, axis=1)
        unsure_floor = np.abs(ax - x_floor) <= _GRID_MARGIN * x_floor
        principal = _each(cmath.sqrt, x)
        lam = np.stack([principal, -principal], axis=2).reshape(n, 6)

        # _physical_fit: |D| against its scale, and the pre-squaring identity
        a, c, k, w = a[:, None], c[:, None], k[:, None], w[:, None]
        nup = _nu_cells(w, lam.real, lam.imag, True)
        num = _nu_cells(w, lam.real, lam.imag, False)
        res = abs(_D_from_nus(a, k, nup, num))
        scale = _scale_from_nus(a, k, nup, num)
        x2 = lam * lam
        disc = np.sqrt(a * a * (1.0 - k) ** 2 + 8.0 * x2)
        sigma = nup + num
        # freed for the identity test's temporaries: they set the peak memory of every block
        del nup, num, x, principal, ax, yr, yi
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
    return (wu, wi), (ku, ki), lam, accept, open_cells, delta


def _classify_arrays(m: float, omegas: np.ndarray, kappas: np.ndarray, band: float) -> tuple:
    """What :func:`classify_point_spectrum` decides at many cells, on arrays.

    Cell ``i`` is ``(m, omegas[i], kappas[i])`` with boundary band ``band``,
    inside the domain (the scan's ``ScanConfig`` checks its grid).  Returns
    the region code as an index into ``_REGIONS`` (``-1`` where the cell is
    left open), the upper value of the pair the region calls for (``0`` in
    ZeroOnly) and ``delta``, each to the bit what the scalar classifier and
    :func:`cubic_data` give.  ``c, p, q, delta``, the roots and ``lambda``
    keep the scalar bits; ``|D|``, its scale and the pre-squaring identity
    may be a few ulps off, so a cell is decided only where each test clears
    its threshold by ``_GRID_MARGIN`` of its scale.  Open are the boundary
    codes, a cubic with ``p = q = 0`` or that overflows, near misses,
    decisions inside the margin, roots that do not fit the region and a
    ``delta`` that overflows at ``m``.  :func:`_region_pair` runs cell by
    cell only where its pick is not plain.
    """
    n = len(omegas)
    (wu, wi), (ku, ki), lam, accept, open_cells, delta = _cell_candidates(m, omegas, kappas)
    with np.errstate(all="ignore"):
        codes = _region_cells(np.abs(wu), wi, ku, ki, band)
        delta = _delta_at_mass(m, delta)
    open_cells |= ~np.isfinite(delta) | (codes >= _KOL)

    # _region_pair's pick where it is plain: no accepted root in ZeroOnly, else
    # only +-z of one cubic root, z on the axis the region names
    z = lam[np.arange(n), np.argmax(accept, axis=1)]
    along, across = np.where(codes == _REAL, z.real, z.imag), np.where(codes == _REAL, z.imag, z.real)
    one_root = (accept.sum(axis=1) == 2) & accept.reshape(n, 3, 2).all(axis=2).any(axis=1)
    plain = np.where(codes == _ZERO, ~accept.any(axis=1), one_root & (across == 0.0) & (abs(z) > 1e-6))
    pairs = np.where(plain & (codes != _ZERO), np.where(along > 0.0, z, -z), 0.0)
    codes = np.where(open_cells, -1, codes)
    for i in np.flatnonzero(~plain & ~open_cells).tolist():
        roots = _distinct([z for z, ok in zip(lam[i].tolist(), accept[i].tolist()) if ok])
        try:
            got, _ = _region_pair(_REGIONS[codes[i]], roots, float(wu[wi[i]]), float(kappas[i]))
            pairs[i] = 0.0 if got is None else got
        except ClassificationError:
            codes[i] = -1
    with np.errstate(over="ignore"):  # _times; it overflows only where delta does, at open cells
        pairs.real, pairs.imag = m * pairs.real, m * pairs.imag
    return codes, pairs, delta


# ---------------------------------------------------------------------------
# independent on-axis oracle: dense sign scan + Brent's method
# ---------------------------------------------------------------------------


def _real_axis_terms(omega: float, t: float) -> tuple[float, float]:
    # x = 4 Re nu_+, y = 4|nu_+|^2 at lambda = t (conjugate exponents, principal roots on the
    # sheet).  numpy's loops fuse the square's and modulus' multiply-add, Python's complex does not
    wplus = np.array([complex(omega, t)])
    nup = np.array([cmath.sqrt(1.0 - (wplus * wplus)[0])])
    return 4.0 * nup.real[0], 4.0 * (nup * nup.conj()).real[0]


def _gap_axis_terms(omega: float, t: float) -> tuple[float, float]:
    # x = 2(nu_+ + nu_-), y = 4 nu_+ nu_- at lambda = i t in the gap; x*x is numpy's x**2, pow is not
    nup, num = math.sqrt(1.0 - (omega - t) * (omega - t)), math.sqrt(1.0 - (omega + t) * (omega + t))
    return 2.0 * (nup + num), 4.0 * nup * num


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of NaN-free floats, without the ``numpy.ma`` import ``np.unique`` makes."""
    values = np.sort(values)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


@functools.lru_cache(maxsize=1)
def _axis_meshes(omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(mesh, x, y, n_real)`` at ``(1, omega)``, the arrays read-only.

    The first ``n_real`` points of ``mesh`` are the real axis', the rest the
    gap's; ``x, y`` are :func:`_real_axis_terms` and :func:`_gap_axis_terms`
    there.  None of it depends on ``kappa``, so a ``kappa`` sweep builds it
    once; the cache keeps the last entry (at most 96 KB, at ``omega = 0``).
    """
    step, t_max = _ORACLE_STEP, _ORACLE_REAL_END
    real_mesh = _sorted_distinct(np.concatenate([np.arange(step, t_max, step), [t_max]]))
    wplus = omega + 1j * real_mesh
    nup = np.sqrt(1.0 - wplus * wplus)
    real_x, real_y = 4.0 * nup.real, 4.0 * (nup * np.conj(nup)).real

    gap = 1.0 - abs(omega)
    gtop = gap * (1.0 - np.geomspace(1e-12, min(0.1, step / gap), 9))
    gap_mesh = _sorted_distinct(np.concatenate([np.arange(step, gap, step), gtop]))
    gap_mesh = gap_mesh[(gap_mesh >= step) & (gap_mesh < gap)]
    nup, num = np.sqrt(1.0 - (omega - gap_mesh) ** 2), np.sqrt(1.0 - (omega + gap_mesh) ** 2)

    arrays = (np.concatenate([real_mesh, gap_mesh]), np.concatenate([real_x, 2.0 * (nup + num)]),
              np.concatenate([real_y, 4.0 * nup * num]))
    for arr in arrays:
        arr.flags.writeable = False
    return (*arrays, len(real_mesh))


def axis_scan_roots(p: ModelParams) -> tuple[list[float], list[float]]:
    """Roots of the determinant restrictions to the two spectral axes.

    ``D`` is homogeneous in the mass, ``D(m l; m, m w, kappa) = m^2 D(l; 1,
    w, kappa)``, so the scan runs at ``(1, omega/m, kappa)`` and returns its
    roots times ``m``.  There it scans ``D(t)`` for ``t in [1e-3, 3]`` (real
    axis) and ``D(i t)`` for ``t in [1e-3, 1 - |omega/m|)`` (inside the gap)
    for sign changes on a mesh of step ``1e-3`` and refines each bracket by
    Brent's method (:func:`~kgdelta.model.brentq`).  Both restrictions are
    real valued on the physical sheet, which makes this oracle independent of
    the cubic reduction.  The mesh starts one step from zero, where ``D``'s
    double root drowns its values in roundoff below ``t ~ 1e-8``; log-spaced
    fringe points just below the gap threshold catch a root that a
    virtual-level collision pushes to the edge.  On both axes ``D =
    alpha^2 (1+kappa)^2 - alpha (1+kappa) x + y - alpha^2 kappa^2`` with
    terms ``x, y`` of ``omega/m`` only (:func:`_axis_meshes`), so each point
    forms ``D`` on both meshes in one pass and scans it once; Brent takes the
    terms on plain floats, bit for bit.  Raises :class:`CubicOverflow` where
    a term overflows float64.
    """
    m, unit = p.m, _unit(p)
    mesh, x, y, n_real = _axis_meshes(unit.omega)
    w, a, k, k1 = unit.omega, unit.alpha, unit.kappa, 1.0 + unit.kappa
    if not math.isfinite(a * a * (k1 * k1) + a * a * k * k):  # then no term of D overflows
        raise CubicOverflow(f"the axis scan's determinant overflows float64 at m = {p.m:g}, kappa = {p.kappa:g}")
    big, small = a * a * k1 ** 2, a * a * k * k
    d = np.multiply(x, a)
    d *= k1
    np.subtract(big, d, out=d)
    d += y
    d -= small
    sgn = np.sign(d, out=d)

    def value(t: float, terms) -> float:
        xt, yt = terms(w, t)
        return big - xt * a * k1 + yt - small

    roots: tuple[list[float], list[float]] = ([], [])
    for i in np.flatnonzero(sgn[:-1] * sgn[1:] <= 0.0).tolist():
        if sgn[i] == 0.0:
            t = float(mesh[i])
        elif sgn[i + 1] == 0.0 or i == n_real - 1:
            continue  # a root on the next point, or a pair across the junction
        else:
            terms = _real_axis_terms if i < n_real else _gap_axis_terms
            t = brentq(lambda t: value(t, terms), mesh[i], mesh[i + 1], xtol=1e-14, rtol=8.9e-16)
        roots[i >= n_real].append(m * t)
    if sgn[-1] == 0.0:
        roots[len(mesh) > n_real].append(m * float(mesh[-1]))
    return roots


def oracle_mismatches(p: ModelParams, roots: list[complex]) -> list[str]:
    """Compare the cubic pipeline's roots at ``p`` against the dense axis scan.

    ``roots`` are the pipeline's physical-sheet roots at ``p``: those of
    :func:`accepted_roots`, or of :func:`accepted_cells` for many points,
    with the ``q_offset`` of an injected fault if one is being checked for.
    Both root sets are restricted to one window per axis, in units of ``m``:
    the real axis in ``(1e-3 m, 3m)`` and the spectral gap in ``(1e-3 m,
    gap)`` on the imaginary axis.  Embedded eigenvalues sit on the cuts
    outside the scan, values at or beyond the mesh ends cannot be bracketed,
    and threshold-exact values are boundary cases, so none of those are
    comparable here; a root on an edge of the window is left out of either
    set.  Returns one message per root unmatched within ``1e-6 m``; an empty
    list means full agreement.
    """
    m = p.m
    lo = _ORACLE_STEP * m * (1.0 + 1e-9)
    tol = 1e-6 * m
    got_real, got_gap = axis_scan_roots(p)

    issues: list[str] = []

    def _match(wanted: list[float], got: list[float], hi: float, axis: str) -> None:
        got_left = [g for g in got if lo < g < hi]
        for t in sorted(t for t in wanted if lo < t < hi):
            hit = next((g for g in got_left if abs(g - t) <= tol), None)
            if hit is None:
                issues.append(f"{axis}: pipeline root {t:.9g} not found by scan")
            else:
                got_left.remove(hit)
        for g in got_left:
            issues.append(f"{axis}: scan found extra root {g:.9g}")

    _match([z.real for z in roots if abs(z.imag) <= 1e-8 * abs(z)],
           got_real, _ORACLE_REAL_END * m, "real-axis")
    _match([z.imag for z in roots if abs(z.real) <= 1e-8 * abs(z)],
           got_gap, (m - abs(p.omega)) * (1.0 - 1e-12), "gap-axis")
    return issues
