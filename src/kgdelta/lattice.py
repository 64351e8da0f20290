"""Conservative lattice simulation of the defect-driven Klein-Gordon field.

Second-order finite differences on a symmetric grid with homogeneous
Dirichlet ends, the point coupling collapsed onto the center node with
weight ``1/h``, and time stepping by the kick-drift-kick Verlet scheme for

    psi_t = pi,
    pi_t  = Lap_h psi - m^2 psi + (delta_{j,j0}/h) a(|psi_j0|^2) psi_j0.

The scheme is symplectic, time reversible, exactly phase equivariant, and
commutes with the reflection x -> -x, so energy/charge drift and parity are
honest diagnostics of the dynamics rather than artifacts.  Each step
evaluates the force once and kicks once: the force at the end of a step is
the one the next step starts with, and the closing half kick of a step and
the opening one of the next add that same force.  So the force and the
half-step momentum travel on the returned state, and its ``pi`` is formed
only when it is read; its ``psi``, and ``pi`` once formed, are read-only for
that reason.  The diagnostics take their sums as dot products, and form a
gradient once per read-only ``psi``.
No complex array is divided by a real scalar, numpy's slowest elementwise
loop here: the energy and the inner product divide the dot product of
undivided differences by ``h^2``, and the force and the energy norm multiply
a float64 view by the reciprocal, which gives the quotient's bits.  The
blow-up guard takes ``max|psi|`` only when the cheap bound
``sum |psi|^2 <= limit^2/4`` fails.

The unperturbed initial state solves the *discrete* stationary problem in
closed form (see ``DefectLattice.discrete_stationary``): a geometric profile
``A (r^|j| - r^(2N-|j|))`` whose center amplitude solves ``a(phi_0^2) =
2 kap_h`` at a lattice decay rate ``kap_h -> kap``.  That makes it a fixed
point of the semidiscrete flow to machine precision; perturbation growth
measured on top of it is then dynamical, not an O(h^2) transient.  No
global-existence claim is made: runs are finite-horizon, guarded against
blow-up, and sized so that no radiation reflected off the far ends returns
to the defect within the horizon (half-length >= 30/kap plus the horizon
allowance).
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, Nonlinearity, solve_amplitude
from .spectra import Verdict, stability_verdict

__all__ = ["Grid", "FieldState", "RunReport", "DefectLattice", "MAX_LATTICE_NODES"]

#: Most nodes a default grid may have: 160 times the larger benchmark
#: lattice, 89 times the largest test lattice (11,251).  At the cap each
#: complex field array takes 16 MB.
MAX_LATTICE_NODES = 1_000_000


def _seed(seed) -> int:
    """``seed`` as a Python int, refused unless it is an integer ``>= 0``.

    ``random.Random`` would seed a negative ``n`` as ``abs(n)``, so ``-1``
    and ``1`` would give one stream.
    """
    n = operator.index(seed)
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    return n


def _slope(t: np.ndarray, y: np.ndarray) -> float:
    """The least-squares slope of ``y`` against ``t``, on centred data.

    ``sum(t' y') / sum(t' t')`` with ``t' = t - mean(t)`` and ``y' = y -
    mean(y)``; ``np.polyfit(t, y, 1)[0]`` gives the same line through LAPACK
    ``lstsq``, which one straight line does not need.
    """
    t = t - t.mean()
    return float(np.dot(t, y - y.mean()) / np.dot(t, t))


def _past_guard(psi: np.ndarray, limit: float) -> bool:
    """``not max|psi| <= limit``: true also for a field holding nan.

    ``sum |psi|^2 <= limit^2/4`` bounds ``max|psi|`` by about ``limit/2``, so
    the exact test would pass however either side rounds, and it is skipped;
    a sum that fails the bound, nan or inf among them, takes the exact test.
    """
    return not (np.vdot(psi, psi).real <= 0.25 * limit * limit or np.max(np.abs(psi)) <= limit)


@dataclass(frozen=True)
class Grid:
    """Symmetric lattice on ``[-L, L]`` with an odd number of nodes.

    Oddness pins the center node exactly on ``x = 0`` where the defect sits.
    """

    half_length: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.half_length > 0.0 and math.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {self.n_points}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / (self.n_points - 1)

    @property
    def center(self) -> int:
        return (self.n_points - 1) // 2

    def xs(self) -> np.ndarray:
        # built from integer offsets so the array is exactly symmetric and
        # xs[center] == 0.0
        return (np.arange(self.n_points) - self.center) * self.h

    @classmethod
    def for_run(
        cls,
        p: ModelParams,
        horizon: float = 0.0,
        target_h: float | None = None,
        half_length: float | None = None,
    ) -> "Grid":
        """Default grid: ``h = 0.02/max(kap, m)``, ends out of causal reach.

        ``half_length >= 30/kap`` keeps the Dirichlet walls irrelevant for the
        profile; adding the horizon plus ``10/kap`` keeps reflected radiation
        away from the defect for the whole run.
        """
        if not (horizon >= 0.0 and math.isfinite(horizon)):
            raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
        kap = p.decay_rate
        if target_h is None:
            target_h = 0.02 / max(kap, p.m)
        elif not (target_h > 0.0 and math.isfinite(target_h)):
            raise ValueError(f"grid spacing must be finite and > 0, got {target_h}")
        if half_length is None:
            half_length = max(30.0 / kap, horizon + 10.0 / kap)
        span = 2.0 * half_length / target_h
        if not span < MAX_LATTICE_NODES:
            raise ValueError(
                f"spacing {target_h:.6g} on [-{half_length:.6g}, {half_length:.6g}] needs more "
                f"than MAX_LATTICE_NODES = {MAX_LATTICE_NODES} nodes"
            )
        n = int(math.ceil(span)) + 1
        if n % 2 == 0:
            n += 1
        return cls(half_length=half_length, n_points=max(n, 3))


class FieldState:
    """Lattice samples of the field and its velocity at one time.

    A state returned by ``DefectLattice.step`` holds the half-step momentum
    instead of ``pi``: ``pi`` is formed from it the first time it is read,
    and is read-only from then on, as the stepped ``psi`` is.  Rebinding
    ``pi`` drops the half-step momentum.
    """

    __slots__ = ("psi", "_pi", "t", "grid", "_carried", "_half", "_grad")

    def __init__(self, psi: np.ndarray, pi: np.ndarray, t: float, grid: Grid):
        self.psi = np.asarray(psi, dtype=np.complex128)
        self._pi = np.asarray(pi, dtype=np.complex128)
        self.t = t
        self.grid = grid
        # (lattice, psi, force on psi) and (dt, pi_half, array for pi) as
        # left by DefectLattice.step; (psi, psi[1:] - psi[:-1]) for a
        # read-only psi
        self._carried = self._half = self._grad = None
        n = grid.n_points
        if self.psi.shape != (n,) or self._pi.shape != (n,):
            raise ValueError("field arrays must match the grid size")

    @classmethod
    def _stepped(cls, psi: np.ndarray, t: float, grid: Grid, carried: tuple, half: tuple) -> "FieldState":
        out = cls.__new__(cls)
        out.psi, out._pi, out.t, out.grid = psi, None, t, grid
        out._carried, out._half, out._grad = carried, half, None
        return out

    @property
    def pi(self) -> np.ndarray:
        if self._pi is None:
            # pi_half + (dt/2) f: the closing half kick of the step
            dt, pi_half, pi = self._half
            np.multiply(0.5 * dt, self._carried[2], out=pi)
            np.add(pi_half, pi, out=pi)
            pi.flags.writeable = False
            self._pi = pi
        return self._pi

    @pi.setter
    def pi(self, value: np.ndarray) -> None:
        self._pi = np.asarray(value, dtype=np.complex128)
        self._half = None

    def copy(self) -> "FieldState":
        return FieldState(self.psi.copy(), self.pi.copy(), self.t, self.grid)


@dataclass
class RunReport:
    """Recorded series and fit results of one experiment."""

    times: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    orbital_distance: np.ndarray
    fitted_rate: float | None
    aborted: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.times)
        if not (len(self.energy) == len(self.charge) == len(self.orbital_distance) == n):
            raise ValueError("series lengths must agree")

    @property
    def energy_drift(self) -> float:
        e0 = self.energy[0]
        return float(np.max(np.abs(self.energy - e0)) / max(abs(e0), 1e-300))

    @property
    def charge_drift(self) -> float:
        q0 = self.charge[0]
        scale = max(abs(q0), np.max(np.abs(self.charge)), 1e-300)
        return float(np.max(np.abs(self.charge - q0)) / scale)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,energy,charge,orbital_distance\n")
            for t, e, q, d in zip(self.times, self.energy, self.charge, self.orbital_distance):
                fh.write(f"{t:.12g},{e:.12g},{q:.12g},{d:.12g}\n")

    def summary(self) -> dict:
        out = dict(self.meta)
        out.update(
            {
                "schema": 1,
                "fitted_rate": self.fitted_rate,
                "energy_drift": self.energy_drift,
                "charge_drift": self.charge_drift,
                "max_orbital_distance": float(np.max(self.orbital_distance)),
                "final_time": float(self.times[-1]),
                "aborted": self.aborted,
            }
        )
        return out


class DefectLattice:
    """One simulation setup: nonlinearity, parameters, grid."""

    def __init__(self, nl: Nonlinearity, p: ModelParams, grid: Grid):
        self.nl = nl
        self.params = p
        self.grid = grid
        h = grid.h
        if h > 0.2 / p.decay_rate:
            raise ValueError(
                f"grid spacing {h:g} too coarse to resolve decay rate {p.decay_rate:g}"
            )
        self._cfl = 0.9 * h / math.sqrt(1.0 + (p.m * h) ** 2 / 4.0)

    # -- basic numbers -----------------------------------------------------

    def cfl_limit(self) -> float:
        return self._cfl

    def default_dt(self) -> float:
        return 0.4 * self.grid.h

    # -- stationary state ---------------------------------------------------

    def discrete_stationary(self) -> FieldState:
        """The lattice stationary state, in closed form.

        The discrete equation (interior nodes, Dirichlet ends) is

            omega^2 phi_j = -(phi_{j+1} - 2 phi_j + phi_{j-1})/h^2 + m^2 phi_j
                            - (delta_{j,j0}/h) a(phi_j0^2) phi_j0.

        Off the defect it reads ``phi_{j+1} + phi_{j-1} = (2 + mu) phi_j`` with
        ``mu = (m^2 - omega^2) h^2``, so with ``N = j0`` nodes to each wall
        the profile is ``phi_j = A (r^|d| - r^(2N-|d|))``, ``d = j - j0``,
        where ``r = 1/(1 + mu/2 + sqrt(mu + mu^2/4))`` is the root of
        ``r + 1/r = 2 + mu`` below 1; it vanishes exactly at both ends.  The
        defect row is then the continuum amplitude equation ``a(C^2) = 2 kap``
        at the lattice decay rate

            kap_h = (mu + 2 (1 - q)) / (2 h),   q = phi_{j0+1}/phi_j0,

        which tends to ``kap`` as ``h -> 0``; its smallest root is ``phi_j0``
        and ``A = phi_j0 / (1 - r^(2N))``.  ``1 - r = r (mu/2 + sqrt(...))``
        and ``1 - q = (1 - r)(1 + r^(2N-1)) / (1 - r^(2N))`` are formed
        without cancellation.
        """
        p, g = self.params, self.grid
        h, n = g.h, g.center
        mu = (p.m - p.omega) * (p.m + p.omega) * h * h
        s = 0.5 * mu + math.sqrt(mu + 0.25 * mu * mu)
        r = 1.0 / (1.0 + s)
        r2n = r ** (2 * n)
        one_minus_q = r * s * (1.0 + r ** (2 * n - 1)) / (1.0 - r2n)
        kap_h = (mu + 2.0 * one_minus_q) / (2.0 * h)
        # the continuum solver at decay rate kap_h: a wave at rest of mass
        # kap_h decays at exactly kap_h, since sqrt(m*m) == m in float64
        c = solve_amplitude(self.nl, ModelParams(m=kap_h, omega=0.0, kappa=p.kappa))
        d = np.abs(np.arange(g.n_points) - n)
        psi = (c / (1.0 - r2n)) * (r**d - r ** (2 * n - d)) + 0j
        return FieldState(psi=psi, pi=-1j * p.omega * psi, t=0.0, grid=g)

    # -- dynamics ------------------------------------------------------------

    def _force(self, psi: np.ndarray) -> np.ndarray:
        p, g = self.params, self.grid
        h = g.h
        f = np.empty_like(psi)
        f[0] = f[-1] = 0.0
        # (psi[2:] - 2 psi[1:-1] + psi[:-2]) / h^2 - m^2 psi[1:-1], one ufunc
        # at a time in that order, so every node rounds as the plain
        # expression does
        lap = f[1:-1]
        np.multiply(2.0, psi[1:-1], out=lap)
        np.subtract(psi[2:], lap, out=lap)
        np.add(lap, psi[:-2], out=lap)
        # numpy divides a complex by a real as (a + b*0) * (1/h^2) and
        # (b - a*0) * (1/h^2), so the float64 view times the reciprocal gives
        # the same bits (up to the sign of a zero) at a fifth of the cost
        lv = lap.view(np.float64)
        np.multiply(lv, 1.0 / (h * h), out=lv)
        np.subtract(lap, p.m**2 * psi[1:-1], out=lap)
        c = psi[g.center]
        f[g.center] += self.nl.a(abs(c) ** 2) * c / h
        return f

    def step(self, state: FieldState, dt: float) -> FieldState:
        """One Verlet step (kick-drift-kick).  Negative ``dt`` steps backward.

        The force at the end of a step is the one the next step starts
        with, and the closing half kick of a step and the opening one of the
        next add that same force.  So the returned state carries the lattice,
        its ``psi`` (read-only), the force on it, ``dt`` and the half-step
        momentum ``pi_half``, and its ``pi = pi_half + (dt/2) f`` is formed
        only when it is read.  A step from it by this lattice with the same
        ``dt`` takes the one kick ``pi_half + dt f``.  A state built by hand,
        copied, with ``psi`` or ``pi`` rebound, or stepped with another
        ``dt`` starts with the half kick from its own ``pi``; with ``psi``
        rebound, or from another lattice, the force is computed afresh.
        """
        if abs(dt) > self._cfl * (1.0 + 1e-12):
            raise ValueError(f"dt={dt:g} violates the CFL bound {self._cfl:g}")
        carried = state._carried
        if carried is not None and carried[0] is self and carried[1] is state.psi:
            f, half = carried[2], state._half
        else:
            f, half = self._force(state.psi), None
        if half is not None and half[0] == dt:
            pi_half = np.multiply(dt, f)
            np.add(half[1], pi_half, out=pi_half)
        else:
            pi_half = np.multiply(0.5 * dt, f)
            np.add(state.pi, pi_half, out=pi_half)
        # psi + dt pi_half
        psi_new = np.multiply(dt, pi_half)
        np.add(state.psi, psi_new, out=psi_new)
        psi_new.flags.writeable = False
        f_new = self._force(psi_new)
        # pi's array is allocated here with the others: allocated at a
        # record, it and the gradient grew the heap past malloc's trim
        # threshold, freeing them a step later gave those pages back to the
        # system, and every record paid about 77 page faults at 6,251 nodes
        half = (dt, pi_half, np.empty_like(psi_new))
        return FieldState._stepped(psi_new, state.t + dt, self.grid, (self, psi_new, f_new), half)

    # -- functionals ----------------------------------------------------------

    def _gradient(self, state: FieldState) -> np.ndarray:
        """``psi[1:] - psi[:-1]``, formed once per read-only ``psi``.

        It is kept on the state for as long as ``state.psi`` is that same
        read-only array, as a stepped ``psi`` and the run's reference are;
        a writable ``psi`` gets it formed afresh on every call.
        """
        psi, kept = state.psi, state._grad
        if kept is not None and kept[0] is psi:
            return kept[1]
        d = psi[1:] - psi[:-1]
        if not psi.flags.writeable:
            d.flags.writeable = False
            state._grad = (psi, d)
        return d

    def energy(self, state: FieldState) -> float:
        h = self.grid.h
        psi, pi = state.psi, state.pi
        d = self._gradient(state)
        quad = np.vdot(pi, pi).real + np.vdot(d, d).real / (h * h)
        quad += self.params.m**2 * np.vdot(psi, psi).real
        c = psi[self.grid.center]
        return 0.5 * h * float(quad) + self.nl.potential(abs(c) ** 2)

    def charge(self, state: FieldState) -> float:
        return -self.grid.h * float(np.vdot(state.psi, state.pi).imag)

    def e_inner(self, a: FieldState, b: FieldState) -> complex:
        """Lattice H1 (+) L2 inner product, conjugate-linear in ``a``."""
        h = self.grid.h
        da, db = self._gradient(a), self._gradient(b)
        val = np.vdot(da, db) / (h * h) + np.vdot(a.psi, b.psi) + np.vdot(a.pi, b.pi)
        return h * complex(val)

    def e_norm(self, state: FieldState) -> float:
        return self._e_norm(state.psi, state.pi)

    def _e_norm(self, psi: np.ndarray, pi: np.ndarray) -> float:
        # the real part of e_inner with itself, with the gradient formed once;
        # it is d/h to the bit (see _force), so the norm that scales the
        # initial perturbation, and with it every trajectory, keeps its bits
        h = self.grid.h
        d = psi[1:] - psi[:-1]
        dv = d.view(np.float64)
        np.multiply(dv, 1.0 / h, out=dv)
        sq = np.vdot(d, d).real + np.vdot(psi, psi).real + np.vdot(pi, pi).real
        return math.sqrt(max(h * float(sq), 0.0))

    def orbital_distance(self, state: FieldState, reference: FieldState) -> float:
        """Distance from ``state`` to the phase orbit of ``reference``.

        The minimizing phase has the closed form ``theta* = arg <ref, state>``
        in the energy inner product, so no search is needed.  The norm is
        taken of the explicit difference vector rather than expanded into
        inner products: the expansion would cancel two O(|ref|^2) terms and
        floor the resolvable distance at |ref|*sqrt(eps).  A state whose
        inner product with ``reference`` is not finite is at distance ``nan``.
        The gradients of ``reference`` and ``state`` are formed once for
        each read-only ``psi`` and kept on that state while its ``psi`` is
        that array (see ``_gradient``), so a run's records share them.
        """
        z = self.e_inner(reference, state)
        if not cmath.isfinite(z):
            # CPython's abs() of a nan complex keeps a stale errno and can
            # raise OverflowError; the finite branch resets it
            return math.nan
        phase = z / abs(z) if z != 0 else 1.0 + 0j
        return self._e_norm(state.psi - phase * reference.psi, state.pi - phase * reference.pi)

    # -- perturbations and experiments -----------------------------------------

    def perturbation(self, seed: int, size: float) -> FieldState:
        """Even, compactly supported, seeded noise with energy norm ``size``.

        Eight random cosine modes under a smooth compact bump, drawn
        independently for the field and velocity components, then explicitly
        symmetrized and normalized.  Even data couples to the unstable mode
        (which is itself even) and keeps the run in the symmetric sector.
        The coefficients are standard normal draws from Python's
        ``random.Random(seed)`` (Mersenne Twister), eight real parts then
        eight imaginary parts for each component; ``seed`` must be an
        integer ``>= 0``.  Earlier versions drew from numpy's
        ``default_rng``, so series written by them differ at the same seed.
        """
        g = self.grid
        # the stdlib generator: numpy.random would load hashlib and OpenSSL,
        # about 6 MB of peak memory for 32 numbers
        rng = random.Random(_seed(seed))
        width = min(0.5 * g.half_length, 10.0 / self.params.decay_rate)
        xs = g.xs()
        env = np.where(np.abs(xs) < width, np.cos(0.5 * np.pi * xs / width) ** 2, 0.0)
        n_modes = 8

        def even_noise() -> np.ndarray:
            real = [rng.gauss(0.0, 1.0) for _ in range(n_modes)]
            imag = [rng.gauss(0.0, 1.0) for _ in range(n_modes)]
            coef = np.array(real) + 1j * np.array(imag)
            out = np.zeros(g.n_points, dtype=np.complex128)
            for k, ck in enumerate(coef, start=1):
                out += ck * np.cos(k * np.pi * xs / width)
            out *= env
            return 0.5 * (out + out[::-1])

        state = FieldState(psi=even_noise(), pi=even_noise(), t=0.0, grid=g)
        norm = self.e_norm(state)
        state.psi *= size / norm
        state.pi *= size / norm
        return state

    def run_experiment(
        self,
        epsilon: float,
        horizon: float,
        dt: float | None = None,
        seed: int = 0,
        record_every: int = 1,
        initial_phase: float = 0.0,
    ) -> RunReport:
        """Evolve a perturbed stationary state and record the diagnostics.

        Initial data is the discrete stationary wave plus ``epsilon`` times an
        energy-normalized even random perturbation (``epsilon = 0`` runs the
        fixed point itself).  If the closed-form verdict is unstable, the
        exponential rate is fitted on the window where the orbital distance
        lies in ``[10*epsilon, 0.1*|Phi|_E]``: below it phase noise dominates,
        above it the nonlinearity saturates.  On the critical curve no rate is
        fitted (the expected growth there is polynomial).  Runs abort, keeping
        the partial series, when ``max|psi|`` exceeds ``1e3`` times the wave
        amplitude or is not finite, when the energy to be recorded is not
        finite, or when a step or a record overflows float64; that record is
        dropped, so every recorded value is finite.
        ``meta`` gives the wall time of the steps with their guard
        (``step_s``), of the records (``diagnostics_s``, which includes
        forming each recorded state's ``pi``), and ``steps_per_s``.  The
        reference state is read-only, so its gradient is formed once.

        ``epsilon`` must be finite and ``>= 0``, ``horizon`` and ``dt`` finite
        and ``> 0``, ``record_every >= 1`` and ``seed`` an integer ``>= 0``;
        anything else raises ``ValueError`` (``TypeError`` for a seed that is
        not an integer) before the stationary solve.
        """
        if not (epsilon >= 0.0 and math.isfinite(epsilon)):
            raise ValueError(f"perturbation size must be finite and >= 0, got {epsilon}")
        if not (horizon > 0.0 and math.isfinite(horizon)):
            raise ValueError(f"horizon must be finite and > 0, got {horizon}")
        if dt is None:
            dt = self.default_dt()
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError(f"time step must be finite and > 0, got {dt}")
        if record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {record_every}")
        seed = _seed(seed)
        reference = self.discrete_stationary()
        # read-only, so every record takes its gradient from the first
        reference.psi.flags.writeable = False
        reference.pi.flags.writeable = False
        ref_norm = self.e_norm(reference)
        amp = float(np.max(np.abs(reference.psi)))

        state = reference.copy()
        if epsilon > 0.0:
            pert = self.perturbation(seed, epsilon)
            state.psi = state.psi + pert.psi
            state.pi = state.pi + pert.pi
        if initial_phase != 0.0:
            # phase equivariance: rotating the whole initial state must leave
            # every recorded series unchanged (distance is phase minimized)
            rot = complex(math.cos(initial_phase), math.sin(initial_phase))
            state.psi = rot * state.psi
            state.pi = rot * state.pi

        n_steps = max(int(round(horizon / dt)), 1)
        limit = 1e3 * amp
        clock = time.perf_counter
        start = clock()
        times = [0.0]
        energies = [self.energy(state)]
        charges = [self.charge(state)]
        dists = [self.orbital_distance(state, reference)]
        step_s, diagnostics_s = 0.0, clock() - start
        aborted = False
        try:
            # a field that leaves float64 within one step, past the guard, stops
            # the run where it first overflows, before inf or nan enters the state
            with np.errstate(over="raise", invalid="raise"):
                for i in range(1, n_steps + 1):
                    start = clock()
                    state = self.step(state, dt)
                    hit_guard = _past_guard(state.psi, limit)
                    stepped = clock()
                    step_s += stepped - start
                    if i % record_every == 0 or i == n_steps or hit_guard:
                        energy = self.energy(state)
                        if not math.isfinite(energy):
                            # the field overflowed since the last record: stop before
                            # the charge and distance, which its sums bound, are taken
                            aborted = True
                            break
                        # taken before any append, so an overflow leaves the series of equal length
                        charge, dist = self.charge(state), self.orbital_distance(state, reference)
                        times.append(state.t)
                        energies.append(energy)
                        charges.append(charge)
                        dists.append(dist)
                        diagnostics_s += clock() - stepped
                    if hit_guard:
                        aborted = True
                        break
        except FloatingPointError:
            aborted = True

        times_a = np.array(times)
        dists_a = np.array(dists)
        verdict = stability_verdict(self.params)
        rate: float | None = None
        if verdict is Verdict.UNSTABLE and epsilon > 0.0:
            lo, hi = 10.0 * epsilon, 0.1 * ref_norm
            mask = (dists_a >= lo) & (dists_a <= hi)
            if np.count_nonzero(mask) >= 8:
                rate = _slope(times_a[mask], np.log(dists_a[mask]))

        meta = {
            "m": self.params.m,
            "omega": self.params.omega,
            "kappa": self.params.kappa,
            "nonlinearity": self.nl.describe(),
            "half_length": self.grid.half_length,
            "n_points": self.grid.n_points,
            "h": self.grid.h,
            "dt": dt,
            "seed": seed,
            "epsilon": epsilon,
            "horizon": horizon,
            "record_every": record_every,
            "verdict": verdict.value,
            "reference_e_norm": ref_norm,
            "step_s": step_s,
            "diagnostics_s": diagnostics_s,
            "steps_per_s": i / step_s if step_s > 0.0 else 0.0,
        }
        return RunReport(
            times=times_a,
            energy=np.array(energies),
            charge=np.array(charges),
            orbital_distance=dists_a,
            fitted_rate=rate,
            aborted=aborted,
            meta=meta,
        )
