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
array path keeps the scalar bits of ``c, p, q, delta``, the roots, the
candidates (:func:`_candidates`) and ``lambda``.  The candidate test is shared
too: the exponents (:func:`_nu`), ``|D|`` and its scale (:func:`_measure`),
the pre-squaring identity (:func:`_identity`) and the threshold comparisons
(:func:`_verdict`).  So are the dedupe of the accepted roots (:func:`_kept`)
and the region's pick of the eigenvalue pair (:func:`_region_pairs`), which
the scalar path runs on a row of one cell.  numpy's complex square root may differ from ``cmath``'s
in the last bits, so the array path passes ``_GRID_MARGIN`` to the
comparisons where the scalar path passes none.  ``D`` is homogeneous in
``m``, so both decide at ``(1, omega/m, kappa)`` (:func:`_unit`) and scale by
``m``.
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


def _if(cond, a, b):
    return a if cond else b


def _complex_cells(re, im):
    """``complex(re, im)`` on arrays; ``re + 1j*im`` would move a signed zero."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _nu(m, w, lr, li, plus, sqrt=math.sqrt, csqrt=cmath.sqrt, cx=complex, copysign=math.copysign, where=_if):
    """One exponent ``sqrt(m^2 - (omega +- i*lambda)^2)`` at ``lambda = lr + i*li``; numbers or arrays.

    ``z = m^2 - (omega +- i*lambda)^2`` is formed with the real operations of
    Python's complex arithmetic, so on arrays too the cut test and the cut
    values are exact; off the cut only ``csqrt`` may differ in the last bits.
    Off the cut this is the principal square root (positive real part).  When
    ``z`` lands on the negative real axis (cut: ``lambda`` purely imaginary
    beyond a threshold) the value is the limit of the principal branch from
    ``Re lambda > 0``; which side that is depends on the sign of ``Re(omega +-
    i*lambda)`` and on which of the two exponents is being taken.  ``where``
    forms both values, so the cut's is taken of ``|Re z|``.
    """
    tr, ti = 0.0 * lr - li, 0.0 * li + lr  # 1j * lambda
    wr, wi = (w + tr, 0.0 + ti) if plus else (w - tr, 0.0 - ti)
    zr = m * m - (wr * wr - wi * wi)
    zi = 0.0 - (wr * wi + wi * wr)
    on_cut = cx(0.0, copysign(sqrt(abs(zr)), -wr if plus else wr))
    return where((zi == 0.0) & (zr < 0.0), on_cut, csqrt(cx(zr, zi)))


def nu_pm(
    p: ModelParams, lam: complex, sheet: SheetSelector = PHYSICAL
) -> tuple[complex, complex]:
    """Both decay exponents at spectral parameter ``lam`` on ``sheet``."""
    lam = complex(lam)
    nup = _nu(p.m, p.omega, lam.real, lam.imag, True)
    num = _nu(p.m, p.omega, lam.real, lam.imag, False)
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


def _measure(a, k, w, lr, li, **ops):
    """Both physical exponents at ``m = 1``, ``|D|`` and its scale at ``lambda = lr + i*li``.

    Numbers or arrays, with ``ops`` the array operations of :func:`_nu`.
    """
    nup, num = _nu(1.0, w, lr, li, True, **ops), _nu(1.0, w, lr, li, False, **ops)
    return nup, num, abs(_D_from_nus(a, k, nup, num)), _scale_from_nus(a, k, nup, num)


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
    return c, p, q, _discriminant(p, q, pw)


def _discriminant(p, q, pw=pow):
    """``delta = -4p^3 - 27q^2`` of ``y^3 + p y + q``; numbers or arrays."""
    return -4.0 * pw(p, 3) - 27.0 * q * q


def _q_fault(p, q, q_offset, pw=pow):
    """``q`` moved by ``q_offset (1 + |q|)``, the fault ``validate --perturb-q`` injects, and its ``delta``."""
    q = q + q_offset * (1.0 + abs(q))
    return q, _discriminant(p, q, pw)


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


def _band(p, q, delta, pw=pow, maximum=max):
    """``max(|p|^3, q^2)`` and whether ``delta`` lies in the relative band around zero; numbers or arrays."""
    scale = maximum(pw(abs(p), 3), q * q)
    return scale, abs(delta) <= 1e-12 * scale


def _band_roots(p, q):
    """The roots inside the band: simple at ``3q/p``, double at ``-3q/(2p)``; numbers or arrays."""
    yd = -1.5 * q / p
    return 3.0 * q / p, yd, yd


def _acos(v: float) -> float:
    """``acos`` of ``v`` clipped to ``[-1, 1]``, which roundoff may leave."""
    return math.acos(min(1.0, max(-1.0, v)))


def _trig_roots(p, q, sqrt=math.sqrt, acos=_acos, cos=math.cos):
    """The three real roots for ``delta > 0``, in trigonometric form; numbers or arrays."""
    amp = 2.0 * sqrt(-p / 3.0)
    theta = acos(3.0 * q / (p * amp)) / 3.0
    return tuple(amp * cos(theta - 2.0 * math.pi * j / 3.0) for j in range(3))


def _cardano_roots(p, q, delta, sqrt=math.sqrt, pw=pow, copysign=math.copysign, where=_if):
    """For ``delta < 0``, Cardano's real root ``y1`` and its pair ``re +- i im``; numbers or arrays.

    The cube root is taken of the larger of ``t +- d``, which does not cancel.
    """
    d = sqrt(-delta / 108.0)
    t = -0.5 * q
    u3 = where(abs(t + d) >= abs(t - d), t + d, t - d)
    u = copysign(pw(abs(u3), 1.0 / 3.0), u3)
    v = -p / (3.0 * u)
    y1 = u + v
    return y1, -0.5 * y1, 0.5 * math.sqrt(3.0) * abs(u - v)


def cubic_roots(cd: CubicData) -> tuple[complex, complex, complex]:
    """All three roots of ``y^3 + p y + q = 0``, multiplicity-aware.

    Three real roots (trigonometric form) for positive discriminant, one real
    plus a conjugate pair (Cardano with cancellation-safe cube roots) for
    negative, and explicit double/triple-root formulas inside a relative
    band around zero discriminant, where both generic methods lose digits.
    The eigenvalue collisions of interest sit exactly in that band.
    """
    p, q = cd.p, cd.q
    scale, in_band = _band(p, q, cd.delta)
    if scale == 0.0:
        return (0j, 0j, 0j)
    if in_band:  # p = 0 forces q = 0 here
        return tuple(map(complex, _band_roots(p, q)))  # type: ignore[return-value]
    if cd.delta > 0.0:
        return tuple(map(complex, _trig_roots(p, q)))  # type: ignore[return-value]
    y1, re, im = _cardano_roots(p, q, cd.delta)
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
    # part by part, z real too: m * z would lose a -0.0 part, and an infinite m turn a zero into NaN
    return z if m == 1.0 else complex(m * z.real if z.real else z.real, m * z.imag if z.imag else z.imag)


def _at_mass(cands: list[RootCandidate], m: float) -> list[RootCandidate]:
    """Candidates found at ``m = 1``, at mass ``m``: ``lam`` times ``m``, the rest times ``m^2`` (:func:`_times`)."""
    return cands if m == 1.0 else [RootCandidate(
        _times(m, c.lam), c.sheet, _times(m * m, c.residual).real, m * m * c.scale, c.accepted, c.source,
        _times(m * m, c.x), _times(m * m, c.y)) for c in cands]


def _candidates(y, c, margin=0.0, sqrt=cmath.sqrt, maximum=max):
    """``x = y - 2c/3`` at a root ``y`` of the depressed cubic, and its candidates ``+-sqrt(x)``; numbers or arrays.

    Also whether ``x`` lies below ``_X_FLOOR max(1, |c|)``, where it is not
    told from the root at ``x = 0``, and whether ``|x|`` lies within
    ``margin`` of that floor (never at ``margin = 0``).
    """
    x = y - 2.0 * c / 3.0
    floor = _X_FLOOR * maximum(1.0, abs(c))
    ax = abs(x)
    root = sqrt(x)
    return x, ax <= floor, abs(ax - floor) < margin * floor, root, -root


def _identity(a, k, c, lam, sigma, csqrt=cmath.sqrt, where=_if):
    """The radical identity that was squared away, with its sign; numbers or arrays.

    The sum of exponents ``sigma`` on a root sheet must equal one of the two
    quadratic branches ``(alpha(1+kappa) +- disc)/2``, ``disc = sqrt(alpha^2
    (1-kappa)^2 + 8 x)`` at ``x = lambda^2``; the nearer branch fixes the sign
    ``s`` of the pre-squaring identity in ``x``.  A candidate whose physical
    exponent sum matches neither branch identity is spurious.  Returns ``|lhs
    - rhs|`` of the identity with its scale, and the sign's terms: how far
    apart the distances of ``sigma`` from the two branches are, and the scale
    of that difference.  Only the product ``s*disc`` enters, and ``s`` follows
    the sign of ``disc``.
    """
    x = lam * lam
    disc = csqrt(a * a * (1.0 - k) ** 2 + 8.0 * x)
    d_plus, d_minus = abs(sigma - 0.5 * (a * (1.0 + k) + disc)), abs(sigma - 0.5 * (a * (1.0 + k) - disc))
    rhs = where(d_plus <= d_minus, 1.0, -1.0) * a**3 * (1.0 + k) * k * k / 8.0 * disc
    gap = abs(x * x + c * x + a**4 * k * k * (1.0 - k * k) / 8.0 - rhs)
    scale = abs(x * x) + abs(c * x) + a**4 * k * k * (1.0 + k * k) / 8.0 + abs(rhs) + 1e-300
    return gap, scale, abs(d_plus - d_minus), abs(sigma) + abs(a * (1.0 + k)) + abs(disc)


#: :func:`_identity`'s terms where it is not formed: every comparison with them is false.
_NO_IDENTITY = (math.nan,) * 4


def _verdict(res, scale, gap, id_scale, sign_gap, span, margin=0.0):
    """Accept and reject from ``|D|``, its scale and the :func:`_identity` terms; numbers or arrays.

    Each test must clear its threshold by ``margin`` of its scale, and the
    identity's sign by ``margin`` of its span, which at ``margin = 0`` always
    holds.  Neither accepted nor rejected is a near miss, or with a margin
    undecided; NaN terms decide nothing.
    """
    small = res <= (ACCEPT_TOL - margin) * scale
    sure = small & (sign_gap >= margin * span)
    accept = sure & (gap <= (_NEAR_TOL - margin) * id_scale)
    return accept, (res > (_NEAR_TOL + margin) * scale) | (sure & (gap > (_NEAR_TOL + margin) * id_scale))


def _judge(a: float, k: float, w: float, c: float, lam: complex) -> tuple:
    """Both physical exponents, ``|D|``, its scale and the :func:`_verdict` at ``lam``, at ``(1, w, k)``."""
    nup, num, res, scale = _measure(a, k, w, lam.real, lam.imag)
    # the identity costs as much again as |D|, so only where |D| passes
    terms = _identity(a, k, c, lam, nup + num) if res <= ACCEPT_TOL * scale else _NO_IDENTITY
    return nup, num, res, scale, *_verdict(res, scale, *terms)


def _refine_near_miss(
    p: ModelParams, c: float, lam: complex, nup: complex, num: complex
) -> tuple[complex, tuple] | None:
    """Up to two analytic Newton steps on the physical-sheet ``D`` from ``lam``.

    Real candidates step in R and imaginary ones in iR, where ``D`` is analytic
    under the cut-limit convention.  Returns the first iterate that passes the
    acceptance test with its :func:`_judge` tuple, or ``None``.  No iterate
    may leave ``1e-7 |lam|`` of the cubic's root, which a double root of the
    cubic only has to about ``sqrt(eps)``: a spurious candidate must not be
    dragged onto some other root of ``D``.  A root next to a threshold, where ``dD/dlambda`` blows up,
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
        judged = nup, num, _, _, accept, _ = _judge(p.alpha, p.kappa, p.omega, c, cur)
        if accept:
            return cur, judged
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
        cd = CubicData(cd.c, cd.p, *_q_fault(cd.p, cd.q, q_offset))
    a, k, w, c = unit.alpha, unit.kappa, unit.omega, cd.c
    out: list[RootCandidate] = []
    for idx, y in enumerate(cubic_roots(cd)):
        x, skip, _, plus, minus = _candidates(y, c)
        if skip:
            continue
        for lam in (plus, minus):
            nup, num, res_phys, scale, accept, reject = _judge(a, k, w, c, lam)
            if not (accept or reject):  # a near miss
                refined = _refine_near_miss(unit, c, lam, nup, num)
                if refined is not None:
                    lam, (nup, num, res_phys, scale, accept, _) = refined
            if accept:
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


def _candidate_row(cands: list[RootCandidate]) -> tuple[np.ndarray, np.ndarray]:
    """The ``lambda`` of ``cands``, as one row of :func:`_cell_candidates`' six, and which :func:`_kept` keeps."""
    pad = 6 - len(cands)
    lam = np.array([[c.lam for c in cands] + [0j] * pad])
    return lam, _kept(lam, np.array([[c.accepted for c in cands] + [False] * pad]))


def _kept(lam: np.ndarray, accept: np.ndarray) -> np.ndarray:
    """Of each row's accepted ``lambda``, those that are distinct spectral points, to ``1e-8`` in units of ``m``.

    A candidate is dropped where it lies within ``1e-8 (1 + |r|)`` of a root
    ``r`` kept before it in its row.
    """
    kept = accept.copy()
    tol = 1e-8 * (1.0 + abs(lam))
    for j in range(1, lam.shape[1]):
        kept[:, j] &= ~(kept[:, :j] & (abs(lam[:, j, None] - lam[:, :j]) <= tol[:, :j])).any(axis=1)
    return kept


def _unit_candidates(p: ModelParams, q_offset: float = 0.0) -> list[RootCandidate]:
    """:func:`candidate_roots` at ``_unit(p)``; a cubic that overflows is named with ``p``'s mass."""
    try:
        return candidate_roots(_unit(p), q_offset)
    except CubicOverflow:  # the unit cubic names m = 1
        raise _overflow(p) from None


def accepted_roots(params: ModelParams, q_offset: float = 0.0) -> list[complex]:
    """Deduplicated physical-sheet roots from the cubic pipeline, told apart at ``m = 1``."""
    lam, kept = _candidate_row(_unit_candidates(params, q_offset))
    return [_times(params.m, z) for z in lam[kept].tolist()]


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


#: Why the kept roots do not fit a region (:func:`_region_pairs`): they do
#: (``0``), its axis holds none, its pick breaks the +-/conjugation symmetry,
#: or a root in ZeroOnly is none of its grazing kinds.
_FITS, _NO_ROOT, _ASYMMETRIC, _STRAY = range(4)

#: ZeroOnly's grazing flags, in :func:`_region_pairs`' order.
_GRAZING = ("near-threshold", "zero-cluster", "on-cut-resonance")


def _region_pairs(codes: np.ndarray, lam: np.ndarray, kept: np.ndarray, gap: np.ndarray) -> tuple:
    """The nonzero pair each cell's region calls for, from its kept roots at ``m = 1``.

    ``codes`` index ``_REGIONS``, each row of ``lam`` holds a cell's
    candidates with ``kept`` its distinct accepted ones (:func:`_kept`), and
    ``gap = 1 - |omega/m|``.  RealPair picks the kept root of largest
    modulus on the positive real axis, ImaginaryPair and EmbeddedPair on the
    upper imaginary axis, each axis to ``1e-8`` relative; an exactly real or
    imaginary pick is symmetric as it stands, any other must pass
    ``lam -> -lam, conj(lam)`` to ``1e-8 (1 + |z|)``.  ZeroOnly (``kappa <=
    K(omega)`` off the line ``kappa = 0``, the pair gone onto an unphysical
    sheet) picks nothing but tolerates grazing roots, which it flags: within
    float resolution of the gap threshold (virtual-level remnants), within
    the resolution of the double root at zero (only in a ~1e-7 shell around
    ``kappa = -1``, where a resonance crosses zero), and on the cut beyond
    the threshold (for small ``|kappa|`` the resonance left by the embedded
    pair ``+-2i*omega`` of ``kappa = 0`` is closer to it than the residual
    resolves).  Returns the picked value (``0`` where the region calls for
    none), why the roots do not fit the region (``_FITS`` where they do),
    and which kept roots are of each ``_GRAZING`` kind, in ZeroOnly cells.
    """
    re, im, size = lam.real, lam.imag, abs(lam)
    real = (codes == _REAL)[:, None]
    on_axis = kept & (abs(np.where(real, im, re)) <= 1e-8 * size) & (np.where(real, re, im) > 0.0)
    z = lam[np.arange(len(lam)), np.argmax(np.where(on_axis, size, -1.0), axis=1)]
    # [0, z, -z] is symmetric where conj(z) is one of them: |z|, 2|Re z| and 2|Im z| away
    tol = 1e-8 * (1.0 + abs(z))
    skew = (z.real != 0.0) & (z.imag != 0.0) & (abs(z) > tol) & (2.0 * abs(z.real) > tol) & (2.0 * abs(z.imag) > tol)

    gap = gap[:, None]
    zero_only = kept & (codes == _ZERO)[:, None]
    near = zero_only & (abs(abs(im) - gap) <= 1e-6 * (1.0 + gap))
    cluster = zero_only & ~near & (size <= 1e-4)
    others = zero_only & ~near & ~cluster
    on_cut = others & (abs(re) <= 1e-8 * size) & (abs(im) > gap)

    paired, found = (_REAL <= codes) & (codes <= _EMB), on_axis.any(axis=1)
    why = np.where(paired, np.where(found, _ASYMMETRIC * skew, _NO_ROOT), _STRAY * (others & ~on_cut).any(axis=1))
    return np.where(paired & found, z, 0.0), why, (near, cluster, on_cut)


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
    region = region_code(1.0, w, k, boundary_tol)
    code = _REGIONS.index(region)
    row, kept = _candidate_row(cands)
    pairs, why, grazing = _region_pairs(np.array([code]), row, kept, np.array([1.0 - abs(w)]))
    lam = pairs.item()
    if why[0] == _NO_ROOT:
        what = {_REAL: "real", _EMB: "embedded imaginary"}.get(code, "in-gap imaginary")
        raise ClassificationError(f"no accepted {what} root at (omega/m={w}, kappa={k}); "
                                  f"accepted={row[kept].tolist()} in units of m")
    if why[0] == _ASYMMETRIC:
        raise ClassificationError(f"accepted spectrum breaks +-/conjugation symmetry at {lam}")
    if why[0] == _STRAY:
        stray = row[kept & ~(grazing[0] | grazing[1] | grazing[2])].tolist()
        raise ClassificationError(f"unexpected accepted roots {stray} in units of m at (omega/m={w}, kappa={k})")

    entries: list[SpectralPoint] = [
        SpectralPoint(0j, geometric_mult=jordan.geometric, algebraic_mult=jordan.algebraic)
    ]
    virtual: tuple[complex, ...] = ()
    flags = [flag for flag, roots in zip(_GRAZING, grazing) if roots.any()]

    if region is RegionCode.KOLOKOLOV_CRITICAL:
        flags.append("kolokolov-critical")
    elif region is RegionCode.VIRTUAL_LEVEL_BOUNDARY:
        virtual = (complex(0.0, m - abs(p.omega)), complex(0.0, abs(p.omega) - m))
        flags.append("virtual-level")
        if abs(w) <= boundary_tol and abs(k + 0.5) <= boundary_tol:
            # omega = 0, kappa = -1/2: both gap thresholds coincide at +-i*m
            flags.append("threshold-overlap")
    elif lam:
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


#: :func:`_nu`'s operations on arrays.
_ARRAY_OPS = {"sqrt": np.sqrt, "csqrt": np.sqrt, "cx": _complex_cells, "copysign": np.copysign, "where": np.where}


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
    with np.errstate(all="ignore"):  # the candidates of a cubic that overflows are NaN
        kept = _kept(lam, accept)
    out = []
    for w, k, zs, oks, shut in zip(omegas, kappas, lam.tolist(), kept.tolist(), open_cells.tolist()):
        if shut:
            out.append(accepted_roots(ModelParams(m, w, k), q_offset))
        else:
            out.append([_times(m, z) for z in itertools.compress(zs, oks)])
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
            q, delta = _q_fault(p, q, q_offset, each_pow)

        # cubic_roots: the double-root band, then the two generic branches
        cubic_scale, band = _band(p, q, delta, each_pow, np.maximum)
        finite = np.isfinite(delta)  # elsewhere the scalar classifier raises CubicOverflow
        in_band = band & (cubic_scale != 0.0) & finite
        split = ~band & finite
        y = np.full((n, 3), complex(math.nan, 0.0))
        y.real[in_band] = np.stack(_band_roots(p[in_band], q[in_band]), axis=1)
        trig = split & (delta > 0.0)
        acos, cos = functools.partial(_each, _acos), functools.partial(_each, math.cos)
        y.real[trig] = np.stack(_trig_roots(p[trig], q[trig], np.sqrt, acos, cos), axis=1)
        card = split & (delta < 0.0)
        y1, re, im = _cardano_roots(p[card], q[card], delta[card], np.sqrt, each_pow, np.copysign, np.where)
        y.real[card] = np.stack([y1, re, re], axis=1)
        y.imag[card] = np.stack([np.zeros_like(im), im, -im], axis=1)

        # candidate_roots' candidates and test, with the margin
        a, c, k, w = a[:, None], c[:, None], k[:, None], w[:, None]
        csqrt = functools.partial(_each, cmath.sqrt)
        x, skip, unsure_floor, root, neg = _candidates(y, c, _GRID_MARGIN, csqrt, np.maximum)
        lam = np.stack([root, neg], axis=2).reshape(n, 6)
        nup, num, res, scale = _measure(a, k, w, lam.real, lam.imag, **_ARRAY_OPS)
        sigma = nup + num
        # freed for the identity test's temporaries: they set the peak memory of every block
        del nup, num, x, root, neg, y
        accept, reject = _verdict(res, scale, *_identity(a, k, c, lam, sigma, np.sqrt, np.where), _GRID_MARGIN)
        skip = np.repeat(skip, 2, axis=1)
        accept &= ~skip
        reject |= skip
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
    ``delta`` that overflows at ``m``.  The dedupe (:func:`_kept`) and the
    pick (:func:`_region_pairs`) are the scalar classifier's own, on a block.
    """
    (wu, wi), (ku, ki), lam, accept, open_cells, delta = _cell_candidates(m, omegas, kappas)
    with np.errstate(all="ignore"):
        codes = _region_cells(np.abs(wu), wi, ku, ki, band)
        delta = _delta_at_mass(m, delta)
        pairs, why, _ = _region_pairs(codes, lam, _kept(lam, accept), 1.0 - np.abs(wu[wi]))
    codes = np.where(open_cells | ~np.isfinite(delta) | (codes >= _KOL) | (why != _FITS), -1, codes)
    with np.errstate(over="ignore"):  # _times; it overflows only where delta does, at open cells
        pairs.real, pairs.imag = m * pairs.real, m * pairs.imag
    return codes, pairs, delta


# ---------------------------------------------------------------------------
# independent on-axis oracle: dense sign scan + Brent's method
# ---------------------------------------------------------------------------


def _real_axis_terms(omega: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x = 4 Re nu_+`` and ``y = 4|nu_+|^2`` at ``lambda = t`` on the real axis, on an array ``t``.

    The exponents are conjugate there, and principal on the physical sheet.
    numpy's complex loops fuse the square's and the modulus' multiply-add
    and Python's complex does not, so a single point goes in as an array too.
    """
    wplus = omega + 1j * t
    nup = np.sqrt(1.0 - wplus * wplus)
    return 4.0 * nup.real, 4.0 * (nup * np.conj(nup)).real


def _gap_axis_terms(omega, t, sqrt=math.sqrt):
    """``x = 2(nu_+ + nu_-)`` and ``y = 4 nu_+ nu_-`` at ``lambda = i t`` in the gap; numbers or arrays."""
    # squares as products: numpy's ** 2 multiplies, Python's calls pow
    nup, num = sqrt(1.0 - (omega - t) * (omega - t)), sqrt(1.0 - (omega + t) * (omega + t))
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

    gap = 1.0 - abs(omega)
    gtop = gap * (1.0 - np.geomspace(1e-12, min(0.1, step / gap), 9))
    gap_mesh = _sorted_distinct(np.concatenate([np.arange(step, gap, step), gtop]))
    gap_mesh = gap_mesh[(gap_mesh >= step) & (gap_mesh < gap)]

    terms = zip(_real_axis_terms(omega, real_mesh), _gap_axis_terms(omega, gap_mesh, np.sqrt))
    arrays = (np.concatenate([real_mesh, gap_mesh]), *map(np.concatenate, terms))
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
    alpha^2 (1 + 2 kappa) - alpha (1+kappa) x + y`` with terms ``x, y`` of
    ``omega/m`` only (:func:`_axis_meshes`), so each point forms ``D`` on
    both meshes in one pass and scans it once; Brent takes the same terms
    at single points, bit for bit.  Raises :class:`CubicOverflow` where
    a term overflows float64.
    """
    m, unit = p.m, _unit(p)
    mesh, x, y, n_real = _axis_meshes(unit.omega)
    w, a, k, k1 = unit.omega, unit.alpha, unit.kappa, 1.0 + unit.kappa
    if not math.isfinite(a * a * (k1 * k1) + a * a * k * k):  # then no term of D overflows
        raise CubicOverflow(f"the axis scan's determinant overflows float64 at m = {p.m:g}, kappa = {p.kappa:g}")
    # alpha^2 ((1+kappa)^2 - kappa^2), whose squares cancel as |kappa| grows
    fold = a * a * (1.0 + 2.0 * k)
    d = np.multiply(x, a)
    d *= k1
    np.subtract(fold, d, out=d)
    d += y
    sgn = np.sign(d, out=d)

    def value(t: float, real: bool) -> float:
        if real:  # one element through numpy's loops, as on the mesh
            xt, yt = (v[0] for v in _real_axis_terms(w, np.array([t])))
        else:
            xt, yt = _gap_axis_terms(w, t)
        return fold - xt * a * k1 + yt

    roots: tuple[list[float], list[float]] = ([], [])
    for i in np.flatnonzero(sgn[:-1] * sgn[1:] <= 0.0).tolist():
        if sgn[i] == 0.0:
            t = float(mesh[i])
        elif sgn[i + 1] == 0.0 or i == n_real - 1:
            continue  # a root on the next point, or a pair across the junction
        else:
            t = brentq(lambda t: value(t, i < n_real), mesh[i], mesh[i + 1], xtol=1e-14, rtol=8.9e-16)
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
