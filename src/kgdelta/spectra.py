"""Closed-form spectra of the linearization about a pinned solitary wave.

Linearizing the field equation about ``phi e^{-i omega t}`` and separating
real components reduces everything to two self-adjoint building blocks on
the line,

    L = -d^2/dx^2 + m^2 - omega^2 - alpha*(1 + 2*kappa)*delta(x),
    H = [[L + omega^2, omega], [omega, 1]],

and the full evolution generator ``A``, which is a symplectic rotation of
``H (+) H_0`` and is *not* self-adjoint.  All three spectra are known in
closed form in terms of ``(m, omega, kappa)``:

* ``L`` has essential spectrum ``[kap^2, inf)`` and, for ``kappa > -1/2``, the
  single simple bound level ``-4*kap^2*(kappa + kappa^2)``;
* ``H`` has band edges ``c_pm = (m^2+1 +- sqrt((m^2-1)^2+4 omega^2))/2`` and a
  pair of discrete levels obtained from the scalar level by a Moebius
  relation (``lambda_pm`` below);
* ``A`` has purely imaginary essential spectrum with a gap of half-width
  ``m - |omega|`` around zero, a Jordan block at zero generated by the phase
  and frequency derivatives of the wave family, and at most one pair of
  nonzero eigenvalues (computed in :mod:`kgdelta.dispersion`).

The orbital stability of the wave is decided by the sign of the charge slope
and amounts to the strict inequality ``kappa < omega^2 / m^2``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import ModelParams

__all__ = [
    "RealIntervalSet",
    "SpectralPoint",
    "PointSpectrum",
    "JordanBlock",
    "Verdict",
    "scalar_eigenvalue",
    "sigma_L",
    "c_pm",
    "lambda_pm",
    "sigma_H",
    "sigma_ess_A",
    "zero_jordan_structure",
    "stability_verdict",
]

INF = math.inf

#: Absolute tolerance for deciding the measure-zero parameter coincidences
#: kappa = 0, kappa = omega^2/m^2, kappa = -1/2 and omega = 0.  The closed
#: forms are discontinuous across these curves, so a point within this
#: distance of one is treated as lying on it.
EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class RealIntervalSet:
    """Sorted union of disjoint closed intervals, endpoints may be infinite.

    ``thresholds`` lists distinguished interior/boundary points where the
    multiplicity of the continuous spectrum changes (used for the imaginary
    axis spectrum of the full generator).
    """

    intervals: tuple[tuple[float, float], ...]
    thresholds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        prev_hi = -INF
        first = True
        for lo, hi in self.intervals:
            if not lo <= hi:
                raise ValueError(f"malformed interval ({lo}, {hi})")
            if not first and lo <= prev_hi:
                raise ValueError("intervals must be sorted and pairwise disjoint")
            prev_hi = hi
            first = False

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def to_jsonable(self) -> list[list[float | None]]:
        out: list[list[float | None]] = []
        for lo, hi in self.intervals:
            out.append([None if math.isinf(lo) else lo, None if math.isinf(hi) else hi])
        return out


@dataclass(frozen=True)
class SpectralPoint:
    """One point eigenvalue with its multiplicities.

    ``embedded`` is set when the value lies inside the essential spectrum of
    the same operator (possible only for the full generator).
    """

    value: complex
    geometric_mult: int = 1
    algebraic_mult: int = 1
    embedded: bool = False

    def __post_init__(self) -> None:
        if self.geometric_mult < 1 or self.algebraic_mult < self.geometric_mult:
            raise ValueError("multiplicities must satisfy 1 <= geometric <= algebraic")

    def to_jsonable(self) -> dict:
        v = complex(self.value)
        return {
            "value": [v.real, v.imag],
            "geometric_mult": self.geometric_mult,
            "algebraic_mult": self.algebraic_mult,
            "embedded": self.embedded,
        }


@dataclass(frozen=True)
class PointSpectrum:
    entries: tuple[SpectralPoint, ...] = ()

    def values(self) -> tuple[complex, ...]:
        return tuple(e.value for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_jsonable(self) -> list[dict]:
        return [e.to_jsonable() for e in self.entries]


@dataclass(frozen=True)
class JordanBlock:
    """Multiplicity data of the zero eigenvalue of the full generator."""

    geometric: int
    algebraic: int

    def to_jsonable(self) -> dict:
        return {"geometric": self.geometric, "algebraic": self.algebraic}


class Verdict(enum.Enum):
    """Orbital stability verdict for the solitary wave."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    #: On the critical curve kappa = omega^2/m^2 the zero eigenvalue carries a
    #: longer Jordan chain and the wave is unstable (polynomial-in-time).
    CRITICAL = "critical"

    @property
    def is_stable(self) -> bool:
        return self is Verdict.STABLE


def scalar_eigenvalue(p: ModelParams) -> float | None:
    """Bound level of the scalar defect operator, ``-4 kap^2 (kappa + kappa^2)``.

    Returns ``None`` for ``kappa <= -1/2`` (within ``EQUALITY_TOL``), where the would-be
    level merges with the edge of the continuum and ceases to be square
    integrable.
    """
    if p.kappa <= -0.5 + EQUALITY_TOL:
        return None
    k2 = p.decay_rate**2
    return -4.0 * k2 * (p.kappa + p.kappa * p.kappa)


def sigma_L(p: ModelParams) -> tuple[RealIntervalSet, PointSpectrum]:
    """Essential and point spectrum of the scalar defect operator."""
    ess = RealIntervalSet(((p.decay_rate**2, INF),))
    lvl = scalar_eigenvalue(p)
    if lvl is None:
        return ess, PointSpectrum()
    return ess, PointSpectrum((SpectralPoint(complex(lvl)),))


def c_pm(p: ModelParams) -> tuple[float, float]:
    """Band edges ``(c_minus, c_plus)`` of the 2x2 block operator.

    These are the two roots of ``z^2 - z(m^2+1) + m^2 - omega^2``; always
    ``c_minus <= min(1, m^2)`` and ``c_plus >= max(1, m^2)``.
    """
    m2 = p.m * p.m
    disc = math.sqrt((m2 - 1.0) ** 2 + 4.0 * p.omega * p.omega)
    return 0.5 * (m2 + 1.0 - disc), 0.5 * (m2 + 1.0 + disc)


def lambda_pm(p: ModelParams) -> tuple[float, float] | None:
    """Discrete levels of the block operator as a sorted pair, or ``None``.

    The two levels are the roots of ``z^2 - z*(S+omega^2+1) + S`` where ``S``
    is the scalar bound level; they are returned numerically ordered because
    the +/- of the quadratic formula does not consistently track a branch
    across parameters.  ``None`` when the scalar level is absent
    (``kappa <= -1/2``).
    """
    s = scalar_eigenvalue(p)
    if s is None:
        return None
    b = s + p.omega * p.omega + 1.0
    disc = math.sqrt(max(b * b - 4.0 * s, 0.0))
    # take the root without cancellation first, the other from the product s
    big = 0.5 * (b + math.copysign(disc, b))
    lo, hi = s / big, big
    return (lo, hi) if lo <= hi else (hi, lo)


def sigma_H(p: ModelParams) -> tuple[RealIntervalSet, PointSpectrum]:
    """Essential and point spectrum of the 2x2 block operator.

    At ``omega = 0`` the operator is block diagonal: the essential spectrum
    collapses to ``[m^2, inf)`` and the constant block contributes the level 1,
    which then carries an infinite-dimensional eigenspace (recorded here with
    multiplicity 1; the flat-block degeneracy is a feature of the exactly
    decoupled point, not of the wave family).
    """
    cm, cp = c_pm(p)
    if abs(p.omega) <= EQUALITY_TOL:
        ess = RealIntervalSet(((p.m * p.m, INF),))
    else:
        ess = RealIntervalSet(((cm, 1.0), (cp, INF)))

    if p.kappa <= -0.5 + EQUALITY_TOL:
        if abs(p.omega) <= EQUALITY_TOL:
            return ess, PointSpectrum((SpectralPoint(1.0 + 0j),))
        return ess, PointSpectrum()
    lo, hi = lambda_pm(p)  # type: ignore[misc]
    if lo == hi:
        # Possible only at omega = 0, where the two branches merge with the
        # flat-block level 1; report the merged value once.
        return ess, PointSpectrum((SpectralPoint(complex(lo)),))
    return ess, PointSpectrum((SpectralPoint(complex(lo)), SpectralPoint(complex(hi))))


def sigma_ess_A(p: ModelParams) -> RealIntervalSet:
    """Essential spectrum of the full generator, as imaginary parts.

    The spectrum is ``i * (R \\ (-gap, gap))`` with ``gap = m - |omega|``.  The
    four thresholds ``+-(m - |omega|)`` and ``+-(m + |omega|)`` are reported as
    distinguished points: the multiplicity of the continuous spectrum changes
    there, and they are where virtual levels can sit.  They coincide, and two
    are reported, where ``omega = 0`` within ``EQUALITY_TOL`` (over ``m``), as
    :func:`zero_jordan_structure` decides it.
    """
    gap = p.m - abs(p.omega)
    outer = p.m + abs(p.omega)
    if abs(p.omega) <= EQUALITY_TOL * p.m:
        thresholds: tuple[float, ...] = (-outer, outer)
    else:
        thresholds = (-outer, -gap, gap, outer)
    return RealIntervalSet(((-INF, -gap), (gap, INF)), thresholds=thresholds)


def zero_jordan_structure(p: ModelParams) -> JordanBlock:
    """Geometric and algebraic multiplicity of the zero eigenvalue of ``A``.

    The generic block is (1, 2), generated by the phase symmetry.  On the
    critical curve ``kappa = omega^2/m^2`` (frequency derivative of the charge
    vanishes) the chain extends to length 4; at ``kappa = 0`` the kernel
    itself is two-dimensional.  Equalities are decided within ``EQUALITY_TOL`` (``omega`` over ``m``).
    """
    kappa_zero = abs(p.kappa) <= EQUALITY_TOL
    omega_zero = abs(p.omega) <= EQUALITY_TOL * p.m
    on_curve = abs(p.kappa - (p.omega / p.m) ** 2) <= EQUALITY_TOL
    if kappa_zero and omega_zero:
        return JordanBlock(2, 4)
    if kappa_zero:
        return JordanBlock(2, 2)
    if on_curve:
        return JordanBlock(1, 4)
    return JordanBlock(1, 2)


def stability_verdict(p: ModelParams) -> Verdict:
    """Orbital stability of the wave: stable iff ``kappa < omega^2/m^2``.

    The boundary case is reported as :class:`Verdict.CRITICAL` (and counts as
    unstable: the instability there is driven by the length-4 Jordan chain at
    zero rather than by an exponentially growing mode).
    """
    defect = p.kappa - (p.omega / p.m) ** 2
    if abs(defect) <= EQUALITY_TOL:
        return Verdict.CRITICAL
    return Verdict.STABLE if defect < 0.0 else Verdict.UNSTABLE
