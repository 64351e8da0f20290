"""Model parameters, defect nonlinearities, and pinned solitary waves.

The field is a complex Klein-Gordon field on the line driven by a nonlinear
oscillator concentrated at the origin,

    psi_tt = psi_xx - m**2 psi + delta(x) * a(|psi(0,t)|**2) * psi(0,t),

with mass m > 0 and a real differentiable coupling function ``a``.  Standing
waves ``psi = phi(x) exp(-i omega t)`` with ``|omega| < m`` have the pinned
profile ``phi(x) = C exp(-kap |x|)`` where ``kap = sqrt(m^2 - omega^2)`` is
the spatial decay rate and the amplitude ``C > 0`` balances the derivative
jump across the defect,

    a(C**2) = 2 * kap.

Two derived numbers drive all the spectral analysis downstream: the defect
coupling ``alpha = a(C**2) = 2*kap`` and the effective exponent

    kappa = C**2 a'(C**2) / a(C**2),

which for a pure power law ``a(tau) = g tau**kappa`` is the literal exponent.
``ModelParams`` therefore carries ``(m, omega, kappa)`` and everything in
:mod:`kgdelta.spectra` and :mod:`kgdelta.dispersion` is a function of that
triple alone; the routines in this module connect it to a concrete
nonlinearity.

Sign convention for the energy: the defect force ``a(|psi|^2) psi`` is the
(positive) gradient of ``u(|psi|^2)`` with ``u(tau) = (1/2) int_0^tau a``, so
the conserved energy uses the potential ``U(psi) = -u(|psi|^2)``,

    H = (1/2) int (|psi_t|^2 + |psi_x|^2 + m^2 |psi|^2) dx + U(psi(0)).

All functions here are pure; every value type is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "Nonlinearity",
    "PowerLaw",
    "Tabulated",
    "SolitaryWave",
    "AmplitudeScan",
    "NoSolitaryWave",
    "UnrepresentableAmplitude",
    "DegenerateAmplitudeWarning",
    "solve_amplitude",
    "find_amplitudes",
    "effective_kappa",
    "charge_and_slope",
    "nonlinearity_from_config",
]


class NoSolitaryWave(ValueError):
    """The amplitude equation ``a(C^2) = 2*kap`` has no usable positive root.

    Either there is no positive root at all, or the root cannot be
    represented in float64 (:class:`UnrepresentableAmplitude`).
    """


class UnrepresentableAmplitude(NoSolitaryWave):
    """The amplitude root exists but lies outside float64 range.

    The root counts as representable only when ``C``, ``C^2`` and
    ``a'(C^2)`` are all finite normal float64 numbers, so that the
    effective exponent ``C^2 a'(C^2) / a(C^2)`` is formed to full precision.
    For a power law with a tiny exponent, ``C = (2*kap/g)**(1/(2*kappa))``
    overflows or underflows long before that.
    """


class DegenerateAmplitudeWarning(UserWarning):
    """``a'(C^2) = 0`` at the selected amplitude.

    The wave still exists, but its amplitude is not locally a smooth function
    of the frequency, so frequency-derivative formulas (charge slope) are
    unreliable there.
    """


@dataclass(frozen=True)
class ModelParams:
    """Physical triple ``(m, omega, kappa)``.

    ``m`` is the field mass, ``omega`` the solitary-wave frequency with
    ``|omega| < m``, and ``kappa`` the effective nonlinearity exponent at the
    wave amplitude (any real number; negative values mean a coupling that
    weakens with amplitude).
    """

    m: float
    omega: float
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"mass must be positive and finite, got {self.m}")
        if not (math.isfinite(self.omega) and abs(self.omega) < self.m):
            raise ValueError(
                f"frequency must satisfy |omega| < m, got omega={self.omega}, m={self.m}"
            )
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")
        # Python floats, so that a numpy scalar's ``**`` cannot return inf
        # where Python's raises OverflowError
        for name in ("m", "omega", "kappa"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def decay_rate(self) -> float:
        """Spatial decay rate ``sqrt(m^2 - omega^2)`` of the pinned profile."""
        return math.sqrt((self.m - self.omega) * (self.m + self.omega))

    @property
    def alpha(self) -> float:
        """Defect coupling at the wave amplitude, ``a(C^2) = 2*decay_rate``."""
        return 2.0 * self.decay_rate


class Nonlinearity:
    """Scalar coupling ``a`` of the point oscillator.

    Subclasses provide ``a(tau)`` and ``a_prime(tau)`` for ``tau = |psi|^2 >= 0``
    and, optionally, a closed-form antiderivative for the potential.
    """

    def a(self, tau: float) -> float:
        raise NotImplementedError

    def a_prime(self, tau: float) -> float:
        raise NotImplementedError

    def potential(self, tau: float) -> float:
        """Defect potential ``U = -(1/2) int_0^tau a(s) ds``.

        The minus sign makes the defect force in the field equation equal to
        ``-grad U``, so the energy functional is conserved along solutions.
        """
        from scipy.integrate import quad

        val, _ = quad(self.a, 0.0, tau)
        return -0.5 * val

    def describe(self) -> dict:
        """JSON-ready description (used in run summaries)."""
        return {"type": self.__class__.__name__.lower()}


@dataclass(frozen=True)
class PowerLaw(Nonlinearity):
    """Pure power coupling ``a(tau) = g * tau**kappa`` with ``g > 0``."""

    g: float
    kappa: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g) and self.g > 0.0):
            raise ValueError(f"coupling g must be positive, got {self.g}")

    def a(self, tau: float) -> float:
        return self.g * tau**self.kappa

    def a_prime(self, tau: float) -> float:
        if self.kappa == 0.0:
            return 0.0
        if tau > 0.0:
            # kappa * a / tau: tau**(kappa - 1) alone can overflow where a' does not
            return self.kappa * self.a(tau) / tau
        return self.g * self.kappa * tau ** (self.kappa - 1.0)

    def potential(self, tau: float) -> float:
        if self.kappa == -1.0:
            # int a = g*log(tau); divergent at 0, only meaningful differences
            raise ValueError("potential of a tau**-1 coupling diverges at tau=0")
        return -0.5 * self.g * tau ** (self.kappa + 1.0) / (self.kappa + 1.0)

    def describe(self) -> dict:
        return {"type": "power", "g": self.g, "kappa": self.kappa}


@dataclass(frozen=True)
class Tabulated(Nonlinearity):
    """Coupling given by callables for ``a`` and ``a'``.

    Used both for analytic couplings that are not pure powers and for
    couplings interpolated from sampled data (see
    :func:`nonlinearity_from_config`).
    """

    a_fn: Callable[[float], float]
    a_prime_fn: Callable[[float], float]

    def a(self, tau: float) -> float:
        return float(self.a_fn(tau))

    def a_prime(self, tau: float) -> float:
        return float(self.a_prime_fn(tau))

    def describe(self) -> dict:
        return {"type": "table"}


def nonlinearity_from_config(cfg: dict) -> Nonlinearity:
    """Build a coupling from its config-file form.

    ``{"type": "power", "g": 2.0, "kappa": 1.0}`` gives a :class:`PowerLaw`;
    ``{"type": "table", "tau": [...], "a": [...]}`` gives a monotone cubic
    interpolant through the samples, with the derivative taken from the
    interpolant.  Every value, and every entry of a table, must be a finite
    number: a bool, a string or a ``null`` raises ``ValueError`` naming the
    key, as does a ``tau`` that is not strictly increasing.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"the nonlinearity config must be a JSON object, got {cfg!r}")
    kind = cfg.get("type")

    def number(v) -> bool:
        # a bool is an int to Python, and float() would read a string
        try:
            return type(v) is not bool and isinstance(v, (int, float, np.integer, np.floating)) and math.isfinite(v)
        except OverflowError:
            return False

    def field(key: str, table: bool = False):
        """``cfg[key]`` as a float, or for a table as a float array, with an error that names ``key``."""
        if key not in cfg:
            raise ValueError(f"the {kind!r} nonlinearity config has no {key!r}")
        v = cfg[key]
        if not table and number(v):
            return float(v)
        if table and isinstance(v, (list, tuple, np.ndarray)) and all(map(number, v)):
            return np.asarray(v, dtype=float)
        want = "a list of finite numbers" if table else "a finite number"
        raise ValueError(f"the nonlinearity config's {key!r} must be {want}, got {v!r}")

    if kind == "power":
        return PowerLaw(g=field("g"), kappa=field("kappa"))
    if kind == "table":
        tau, vals = (field(key, table=True) for key in ("tau", "a"))
        if tau.ndim != 1 or tau.shape != vals.shape or tau.size < 2:
            raise ValueError("table coupling needs matching 1-d 'tau' and 'a' arrays")
        if not (np.diff(tau) > 0.0).all():
            raise ValueError(f"the nonlinearity config's 'tau' must be strictly increasing, got {cfg['tau']!r}")
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(tau, vals)
        return Tabulated(a_fn=interp, a_prime_fn=interp.derivative())
    raise ValueError(f"unknown nonlinearity type {kind!r}")


@dataclass(frozen=True)
class AmplitudeScan:
    """All positive roots of the amplitude equation, smallest first.

    ``amplitude`` repeats ``roots[0]`` for convenience.  ``degenerate`` marks
    roots where ``a'(C^2)`` vanishes.
    """

    amplitude: float
    roots: tuple[float, ...]
    degenerate: tuple[bool, ...]


def _is_normal(x: float) -> bool:
    return sys.float_info.min <= x <= sys.float_info.max


def _power_law_amplitude(nl: PowerLaw, target: float) -> float:
    """Closed-form root ``C = (target/g)**(1/(2*kappa))``, formed in log space."""
    if nl.kappa == 0.0:
        raise NoSolitaryWave("constant coupling fixes no amplitude: a(C^2) = g for every C")
    log_tau = (math.log(target) - math.log(nl.g)) / nl.kappa
    if log_tau <= math.log(sys.float_info.max):
        c = math.exp(0.5 * log_tau)
        tau = c * c
        if _is_normal(tau) and _is_normal(abs(nl.a_prime(tau))):
            return c
    raise UnrepresentableAmplitude(
        f"amplitude C^2 = exp({log_tau:.6g}) solving {nl.g:g} C^(2*{nl.kappa:g}) = {target:g}: "
        "C^2 or a'(C^2) is not a finite normal float64"
    )


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4,
    ported step for step from scipy's ``brentq.c`` (100 iterations at most),
    so every root is bit-identical to ``scipy.optimize.brentq``'s.  Raises
    ``ValueError`` when ``f(a)`` and ``f(b)`` share a sign or ``f`` returns
    NaN, and ``RuntimeError`` when it does not converge.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)  # inverse quadratic extrapolation
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # IEEE division gives inf or NaN, and C then bisects
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def find_amplitudes(nl: Nonlinearity, p: ModelParams) -> AmplitudeScan:
    """Locate every positive amplitude solving ``a(C^2) = 2*kap``.

    Power laws are solved in closed form.  Anything else is bracketed by a
    geometric sweep of ``tau in [1e-12, 1e6]``, cut to the samples of a table
    coupling, followed by ``brentq`` and one Newton polish per bracket.  When
    the coupling is non-monotone the equation can have several roots; they
    are all reported, smallest first.

    Raises
    ------
    UnrepresentableAmplitude
        If a power law's root has ``C``, ``C^2`` or ``a'(C^2)`` outside the
        finite normal float64 range (tiny ``|kappa|`` drives ``C`` to
        ``exp(+-700)`` and beyond).
    NoSolitaryWave
        If no sign change is found in the sweep, or the power law is constant.
    """
    target = p.alpha
    if isinstance(nl, PowerLaw):
        c = _power_law_amplitude(nl, target)
        return AmplitudeScan(amplitude=c, roots=(c,), degenerate=(False,))

    from scipy.interpolate import PchipInterpolator

    tau_lo, tau_hi = 1e-12, 1e6
    table = getattr(nl, "a_fn", None)
    if isinstance(table, PchipInterpolator):
        # beyond its samples a table only extrapolates
        tau_lo, tau_hi = max(tau_lo, float(table.x[0])), min(tau_hi, float(table.x[-1]))
        if tau_hi < tau_lo:
            raise NoSolitaryWave("the table holds no C^2 in [1e-12, 1e6]")
    taus = np.geomspace(tau_lo, tau_hi, int(16 * math.log10(tau_hi / tau_lo)) + 1)
    vals = np.array([nl.a(t) - target for t in taus])
    roots: list[float] = []
    for i in range(len(taus) - 1):
        lo, hi = vals[i], vals[i + 1]
        if lo == 0.0:
            roots.append(float(taus[i]))
        elif lo * hi < 0.0:
            roots.append(brentq(lambda t: nl.a(t) - target, taus[i], taus[i + 1], xtol=1e-300, rtol=1e-15))
    if vals[-1] == 0.0:
        roots.append(float(taus[-1]))
    if not roots:
        raise NoSolitaryWave(
            f"a(C^2) - {target:g} has no sign change for C^2 in [{tau_lo:g}, {tau_hi:g}]"
        )

    # Newton polish in tau; brentq already leaves ~1e-15 relative error.
    polished: list[float] = []
    degen: list[bool] = []
    for tau in roots:
        d = nl.a_prime(tau)
        if d != 0.0:
            step = (nl.a(tau) - target) / d
            if abs(step) < 0.5 * tau:
                tau = tau - step
        polished.append(math.sqrt(tau))
        degen.append(nl.a_prime(tau) == 0.0)
    order = np.argsort(polished)
    cs = tuple(polished[i] for i in order)
    dg = tuple(degen[i] for i in order)
    if any(dg):
        warnings.warn(
            "a'(C^2) = 0 at an amplitude root; the wave family is degenerate there",
            DegenerateAmplitudeWarning,
            stacklevel=2,
        )
    return AmplitudeScan(amplitude=cs[0], roots=cs, degenerate=dg)


def solve_amplitude(nl: Nonlinearity, p: ModelParams) -> float:
    """Amplitude ``C > 0`` of the pinned wave at ``(m, omega)``.

    Ties ``|a(C^2) - 2*kap| <= 1e-12 * (1 + 2*kap)``; for a :class:`PowerLaw`
    the closed form ``C = (2*kap/g)**(1/(2*kappa))`` is exact.  When the
    amplitude equation has several positive roots the smallest is returned;
    use :func:`find_amplitudes` for the full list.

    Raises
    ------
    UnrepresentableAmplitude
        If the root exists but ``C``, ``C^2`` or ``a'(C^2)`` is not a finite
        normal float64 number (see :func:`find_amplitudes`).
    NoSolitaryWave
        If the amplitude equation has no positive root.
    """
    return find_amplitudes(nl, p).amplitude


def effective_kappa(nl: Nonlinearity, c: float) -> float:
    """Effective exponent ``C^2 a'(C^2) / a(C^2)`` at amplitude ``c``."""
    tau = c * c
    denom = nl.a(tau)
    if denom == 0.0:
        raise ValueError("a(C^2) = 0: not a valid solitary-wave amplitude")
    return tau * nl.a_prime(tau) / denom


def charge_and_slope(nl: Nonlinearity, p: ModelParams) -> tuple[float, float | None]:
    """Charge ``Q = omega C^2 / kap`` of the wave and its frequency slope.

    The slope along the wave family is

        dQ/domega = (C^2 / kap^3) * (m^2 - omega^2 / kappa_eff),

    obtained by eliminating ``dC/domega`` through the amplitude equation.  It
    has ``kappa_eff`` in a denominator, so for ``kappa_eff = 0`` (constant-
    coupling point) the slope is reported as ``None``.  A negative slope is
    the classical sufficient condition for orbital stability and is
    equivalent to ``kappa_eff < omega^2/m^2`` here.
    """
    c = solve_amplitude(nl, p)
    kap = p.decay_rate
    q = p.omega * c * c / kap
    k_eff = effective_kappa(nl, c)
    if k_eff == 0.0:
        return q, None
    slope = (c * c / kap**3) * (p.m**2 - p.omega**2 / k_eff)
    return q, slope


@dataclass(frozen=True)
class SolitaryWave:
    """Pinned standing wave ``phi(x) = C exp(-kap|x|) e^{i theta}``."""

    params: ModelParams
    C: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.C) and self.C > 0.0):
            raise ValueError(f"amplitude must be positive, got {self.C}")

    @classmethod
    def solve(cls, nl: Nonlinearity, p: ModelParams) -> "SolitaryWave":
        return cls(params=p, C=solve_amplitude(nl, p))

    @property
    def norm_squared(self) -> float:
        """Squared L2 norm of the profile, ``C^2 / kap``."""
        return self.C * self.C / self.params.decay_rate

    @property
    def charge(self) -> float:
        """Conserved charge carried by the wave, ``omega * C^2 / kap``."""
        return self.params.omega * self.norm_squared

    def energy(self, nl: Nonlinearity) -> float:
        """Conserved energy of the wave, ``m^2 C^2 / kap + U(C^2)``."""
        return self.params.m**2 * self.norm_squared + nl.potential(self.C * self.C)

    def profile(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        """Complex profile values ``C e^{-kap|x|} e^{i theta}`` at ``xs``."""
        xs = np.asarray(xs, dtype=float)
        mag = self.C * np.exp(-self.params.decay_rate * np.abs(xs))
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        return mag * phase
