import math
import tracemalloc

import numpy as np
import pytest

from kgdelta import (
    ModelParams,
    PowerLaw,
    SolitaryWave,
    Tabulated,
    nonlinearity_from_config,
    solve_amplitude,
)
from kgdelta.lattice import DefectLattice, FieldState, Grid, _past_guard, _slope
from kgdelta.spectra import Verdict, stability_verdict


def make_sim(m=1.0, omega=0.0, kappa=1.0, g=2.0, half_length=None, target_h=None, horizon=0.0):
    p = ModelParams(m, omega, kappa)
    nl = PowerLaw(g, kappa)
    grid = Grid.for_run(p, horizon=horizon, target_h=target_h, half_length=half_length)
    return DefectLattice(nl, p, grid)


class TestGrid:
    def test_center_node_is_origin(self):
        g = Grid(half_length=10.0, n_points=401)
        assert g.xs()[g.center] == 0.0
        assert np.array_equal(g.xs(), -g.xs()[::-1])

    def test_rejects_even_count(self):
        with pytest.raises(ValueError):
            Grid(half_length=10.0, n_points=400)

    def test_default_resolution(self):
        p = ModelParams(1.0, 0.8, 0.5)  # decay rate 0.6
        g = Grid.for_run(p)
        assert g.h <= 0.02 / max(p.decay_rate, p.m) + 1e-15
        assert g.half_length >= 30.0 / p.decay_rate

    @pytest.mark.parametrize("horizon", [0.0, 15.0, 40.0, 50.0, 137.5, 400.0])
    @pytest.mark.parametrize("omega", [0.0, 0.6, -0.9, 0.999])
    def test_default_half_length_keeps_reflections_off_the_perturbation(self, omega, horizon):
        p = ModelParams(1.0, omega, 0.1)
        kap = p.decay_rate
        g = Grid.for_run(p, horizon=horizon)
        assert g.half_length >= 30.0 / kap
        # radiation leaving the perturbation's support |x| < 10/kap at unit
        # speed comes back to it after 2(L - 10/kap), up to the rounding of L
        assert 2.0 * (g.half_length - 10.0 / kap) >= horizon - 4.0 * math.ulp(g.half_length)

    def test_benchmark_lattices_node_counts(self):
        # lattice_stable: L = max(30/kap, T/2 + 10/kap) = 37.5 at kap = 0.8
        stable = Grid.for_run(ModelParams(1.0, 0.6, 0.1), horizon=50.0)
        assert (stable.half_length, stable.n_points, stable.h) == (37.5, 3751, 0.02)
        # lattice_unstable: 30/kap sets the length, as it did with L = T + 10/kap
        unstable = Grid.for_run(ModelParams(1.0, 0.0, 0.25), horizon=15.0)
        assert (unstable.half_length, unstable.n_points, unstable.h) == (30.0, 3001, 0.02)

    @pytest.mark.parametrize("target_h", [None, 1e-320])
    def test_node_cap_raises_before_allocating(self, target_h):
        p = ModelParams(1.0, 0.999999, 0.1)
        with pytest.raises(ValueError, match="MAX_LATTICE_NODES"):
            Grid.for_run(p, horizon=10.0, target_h=target_h)


class TestStationary:
    def test_center_amplitude_near_continuum(self):
        sim = make_sim()  # normalization with C = 1
        st = sim.discrete_stationary()
        c = abs(st.psi[sim.grid.center])
        assert c == pytest.approx(1.0, abs=5e-4)  # O(h^2) discrete shift

    def test_residual_below_tolerance(self):
        sim = make_sim()
        st = sim.discrete_stationary()
        p, g = sim.params, sim.grid
        phi = st.psi.real
        lap = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / g.h**2
        r = (p.m**2 - p.omega**2) * phi[1:-1] - lap
        c = phi[g.center]
        r[g.center - 1] -= sim.nl.a(c * c) * c / g.h
        assert np.max(np.abs(r)) <= 2e-12

    def test_velocity_matches_rotation(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        st = sim.discrete_stationary()
        assert np.allclose(st.pi, -1j * 0.5 * st.psi)

    def test_second_order_convergence_to_continuum(self):
        p = ModelParams(1.0, 0.0, 1.0)
        nl = PowerLaw(2.0, 1.0)
        wave = SolitaryWave.solve(nl, p)
        errs = []
        hs = [0.1, 0.05, 0.025]
        for h in hs:
            grid = Grid.for_run(p, target_h=h, half_length=30.0)
            sim = DefectLattice(nl, p, grid)
            st = sim.discrete_stationary()
            exact = wave.profile(grid.xs()).real
            errs.append(float(np.max(np.abs(st.psi.real - exact))))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.8

    def test_fixed_point_of_flow(self):
        # static wave (omega = 0) at stable parameters: the discrete profile
        # is a machine-precision fixed point over a long horizon
        sim = make_sim(omega=0.0, kappa=-0.25, g=1.0)
        st = sim.discrete_stationary()
        s = st.copy()
        dt = sim.default_dt()
        worst = 0.0
        for i in range(int(round(20.0 / dt))):
            s = sim.step(s, dt)
            if i % 100 == 0:
                worst = max(worst, sim.orbital_distance(s, st))
        assert worst <= 1e-10


class TestStep:
    def test_zero_field_stays_zero(self):
        sim = make_sim()
        g = sim.grid
        z = FieldState(np.zeros(g.n_points), np.zeros(g.n_points), 0.0, g)
        out = sim.step(z, sim.default_dt())
        assert not out.psi.any() and not out.pi.any()

    def test_cfl_violation_rejected(self):
        sim = make_sim()
        st = sim.discrete_stationary()
        with pytest.raises(ValueError):
            sim.step(st, 2.0 * sim.grid.h)

    def test_phase_equivariance_exact(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        st = sim.discrete_stationary()
        pert = sim.perturbation(seed=1, size=0.01)
        st.psi += pert.psi
        st.pi += pert.pi
        rot = complex(math.cos(0.9), math.sin(0.9))
        a = sim.step(st, sim.default_dt())
        b = sim.step(FieldState(rot * st.psi, rot * st.pi, 0.0, sim.grid), sim.default_dt())
        assert np.max(np.abs(b.psi - rot * a.psi)) <= 1e-13
        assert np.max(np.abs(b.pi - rot * a.pi)) <= 1e-13

    def test_linear_regime_energy_drift(self):
        # free field (zero coupling), smooth packet, 1e4 steps
        p = ModelParams(1.0, 0.0, 0.0)
        nl = Tabulated(lambda t: 0.0, lambda t: 0.0)
        grid = Grid(half_length=20.0, n_points=2001)
        sim = DefectLattice(nl, p, grid)
        xs = grid.xs()
        psi = np.exp(-0.5 * (xs / 2.0) ** 2) * np.exp(0.3j * xs)
        state = FieldState(psi.astype(complex), np.zeros_like(psi, dtype=complex), 0.0, grid)
        state.psi[0] = state.psi[-1] = 0.0
        e0 = sim.energy(state)
        dt = 1e-4
        drift = 0.0
        for i in range(10_000):
            state = sim.step(state, dt)
            if i % 200 == 0:
                drift = max(drift, abs(sim.energy(state) - e0))
        assert drift / abs(e0) <= 1e-8

    def test_time_reversibility(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        st = sim.discrete_stationary()
        pert = sim.perturbation(seed=5, size=1e-2)
        st.psi += pert.psi
        st.pi += pert.pi
        ref = st.copy()
        dt = sim.default_dt()
        s = st
        for _ in range(400):
            s = sim.step(s, dt)
        for _ in range(400):
            s = sim.step(s, -dt)
        scale = np.max(np.abs(ref.psi))
        assert np.max(np.abs(s.psi - ref.psi)) / scale <= 1e-10
        assert np.max(np.abs(s.pi - ref.pi)) / scale <= 1e-10

    def test_even_data_stays_even(self):
        sim = make_sim(omega=0.3, kappa=0.2, g=1.0)
        st = sim.discrete_stationary()
        pert = sim.perturbation(seed=9, size=0.05)
        st.psi += pert.psi
        st.pi += pert.pi
        s = st
        for _ in range(500):
            s = sim.step(s, sim.default_dt())
        assert np.max(np.abs(s.psi - s.psi[::-1])) <= 1e-12
        assert np.max(np.abs(s.pi - s.pi[::-1])) <= 1e-12


class TestFunctionals:
    def test_zero_field_zero_energy(self):
        sim = make_sim()
        g = sim.grid
        z = FieldState(np.zeros(g.n_points), np.zeros(g.n_points), 0.0, g)
        assert sim.energy(z) == 0.0
        assert sim.charge(z) == 0.0

    def test_energy_matches_continuum_quadrature(self):
        # independent oracle: numerical quadrature of the continuum profile
        # (exploiting evenness to stay on the smooth half line)
        from scipy.integrate import simpson

        sim = make_sim()
        p = sim.params
        wave = SolitaryWave.solve(sim.nl, p)
        xs = np.linspace(0.0, sim.grid.half_length, 60001)
        phi = wave.profile(xs).real
        dphi = -p.decay_rate * phi
        quad_h = (
            0.5
            * 2.0
            * simpson(p.omega**2 * phi**2 + dphi**2 + p.m**2 * phi**2, x=xs)
            + sim.nl.potential(wave.C**2)
        )
        assert quad_h == pytest.approx(0.5, abs=1e-9)  # closed form at this point
        prof = wave.profile(sim.grid.xs())
        st = FieldState(prof, -1j * p.omega * prof, 0.0, sim.grid)
        assert sim.energy(st) == pytest.approx(quad_h, abs=1e-4)

    def test_charge_matches_closed_form(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        wave = SolitaryWave.solve(sim.nl, sim.params)
        prof = wave.profile(sim.grid.xs())
        st = FieldState(prof, -1j * 0.5 * prof, 0.0, sim.grid)
        assert sim.charge(st) == pytest.approx(wave.charge, rel=1e-4)

    def test_real_state_has_zero_charge(self):
        sim = make_sim()
        st = sim.discrete_stationary()  # omega = 0: pi = 0, psi real
        assert sim.charge(st) == 0.0

    def test_charge_conservation_along_flow(self):
        # stable parameters (kappa < omega^2): the run stays bounded
        sim = make_sim(omega=0.5, kappa=0.2, g=1.0)
        st = sim.discrete_stationary()
        pert = sim.perturbation(seed=2, size=1e-2)
        st.psi += pert.psi
        st.pi += pert.pi
        q0 = sim.charge(st)
        s = st
        for _ in range(10_000):
            s = sim.step(s, sim.default_dt())
        assert abs(sim.charge(s) - q0) / abs(q0) <= 1e-8


class TestOrbitalDistance:
    def test_orbit_members_at_zero_distance(self):
        sim = make_sim(omega=0.4, kappa=0.5, g=1.0)
        ref = sim.discrete_stationary()
        for theta in (0.0, 1.0, 2.5, -0.7):
            rot = complex(math.cos(theta), math.sin(theta))
            st = FieldState(rot * ref.psi, rot * ref.pi, 0.0, sim.grid)
            assert sim.orbital_distance(st, ref) <= 1e-7 * sim.e_norm(ref)

    def test_radial_scaling(self):
        sim = make_sim(omega=0.4, kappa=0.5, g=1.0)
        ref = sim.discrete_stationary()
        eps = 1e-3
        st = FieldState((1 + eps) * ref.psi, (1 + eps) * ref.pi, 0.0, sim.grid)
        assert sim.orbital_distance(st, ref) == pytest.approx(eps * sim.e_norm(ref), rel=1e-9)


class TestExperiments:
    def test_perturbation_is_even_normalized_deterministic(self):
        sim = make_sim(omega=0.5, kappa=0.1, g=1.0)
        a = sim.perturbation(seed=12, size=1e-3)
        b = sim.perturbation(seed=12, size=1e-3)
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.pi, b.pi)
        assert np.array_equal(a.psi, a.psi[::-1])
        assert sim.e_norm(a) == pytest.approx(1e-3, rel=1e-12)
        assert abs(a.psi[0]) == 0.0  # compact support
        c = sim.perturbation(seed=13, size=1e-3)
        assert not np.array_equal(a.psi, c.psi) and not np.array_equal(a.pi, c.pi)

    def test_seed_must_be_a_non_negative_integer(self):
        # random.Random(-1) would seed as abs(-1), the stream of seed 1
        sim = make_sim(omega=0.5, kappa=0.1, g=1.0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            sim.perturbation(seed=-1, size=1e-3)
        # refused by run_experiment too, also where no perturbation is drawn
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            sim.run_experiment(epsilon=0.0, horizon=1.0, seed=-1)
        # a numpy integer draws the stream of the equal Python int
        a = sim.perturbation(seed=np.int64(12), size=1e-3)
        b = sim.perturbation(seed=12, size=1e-3)
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.pi, b.pi)

    def test_stationary_run_stays_put(self):
        sim = make_sim(omega=0.0, kappa=-0.25, g=1.0)
        rep = sim.run_experiment(epsilon=0.0, horizon=10.0, record_every=10)
        assert float(np.max(rep.orbital_distance)) <= 1e-9
        assert rep.fitted_rate is None

    def test_unstable_rate_matches_prediction(self):
        sim = make_sim()  # omega=0, kappa=1, g=2
        rep = sim.run_experiment(epsilon=1e-6, horizon=20.0, seed=0, record_every=5)
        want = 2.0 * math.sqrt(2.0)
        assert rep.fitted_rate == pytest.approx(want, rel=0.1)

    def test_stable_run_bounded(self):
        sim = make_sim(omega=0.6, kappa=0.1, g=1.0, horizon=30.0)
        rep = sim.run_experiment(epsilon=1e-3, horizon=30.0, seed=0, record_every=10)
        assert float(np.max(rep.orbital_distance)) <= 3.0 * rep.orbital_distance[0]
        assert rep.fitted_rate is None

    @pytest.mark.parametrize("seed", range(6))
    def test_stable_benchmark_run_matches_the_longer_grid(self, seed):
        # the lattice_stable run on the default grid and on one with the same
        # h and the half-length horizon + 10/kap that earlier versions took
        p, nl = ModelParams(1.0, 0.6, 0.1), PowerLaw(1.0, 0.1)
        short = Grid.for_run(p, horizon=50.0)
        long = Grid.for_run(p, horizon=50.0, half_length=50.0 + 10.0 / p.decay_rate)
        assert (short.n_points, long.n_points, short.h) == (3751, 6251, long.h)
        a, b = (DefectLattice(nl, p, g).run_experiment(1e-3, 50.0, seed=seed, record_every=25) for g in (short, long))
        assert np.array_equal(a.times, b.times)
        # measured worst over these seeds: 1.4e-5 and 2.2e-13
        np.testing.assert_allclose(a.orbital_distance, b.orbital_distance, rtol=1e-4, atol=0.0)
        assert np.max(np.abs(a.energy - b.energy)) <= 1e-11 * abs(b.energy[0])
        assert a.fitted_rate is None and b.fitted_rate is None
        assert a.meta["verdict"] == b.meta["verdict"] == "stable"
        # so simulate observes "bounded" on both: the distance stays below 100 times its start
        assert all(max(r.orbital_distance) <= 100.0 * r.orbital_distance[0] for r in (a, b))

    @pytest.mark.parametrize("seed", range(10))
    def test_energy_drift_up_to_the_fit_window_end(self, seed):
        # the benchmark's lattice_unstable run, on the CLI's grid: the whole
        # run's drift reaches 2.4e-3 over seeds 0-19, up to the window's end 3.2e-7
        sim = make_sim(omega=0.0, kappa=0.25, g=1.0, horizon=15.0)
        rep = sim.run_experiment(epsilon=1e-6, horizon=15.0, seed=seed, record_every=1)
        d = rep.orbital_distance
        mask = (d >= 1e-5) & (d <= 0.1 * rep.meta["reference_e_norm"])
        e = rep.energy[: np.flatnonzero(mask)[-1] + 1]
        assert rep.fitted_rate is not None
        assert rep.energy_drift_fit == np.max(np.abs(e - e[0])) / abs(e[0])
        assert rep.energy_drift_fit <= 1e-6
        assert rep.summary()["energy_drift_fit"] == rep.energy_drift_fit

    def test_drift_is_second_order_in_dt(self):
        sim = make_sim(omega=0.6, kappa=0.1, g=1.0, horizon=10.0)
        reps = [
            sim.run_experiment(epsilon=1e-3, horizon=10.0, dt=f * sim.grid.h, seed=3, record_every=20)
            for f in (0.4, 0.2)
        ]
        assert reps[0].energy_drift / reps[1].energy_drift >= 3.5
        # charge is an exact invariant of the splitting: machine floor at any dt
        assert all(r.charge_drift <= 1e-12 for r in reps)

    def test_pipeline_phase_equivariance(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0, horizon=5.0)
        a = sim.run_experiment(epsilon=1e-3, horizon=5.0, seed=4, record_every=10)
        b = sim.run_experiment(epsilon=1e-3, horizon=5.0, seed=4, record_every=10, initial_phase=1.1)
        assert np.allclose(a.orbital_distance, b.orbital_distance, rtol=1e-10, atol=1e-12)
        assert np.allclose(a.energy, b.energy, rtol=1e-12)
        assert np.allclose(a.charge, b.charge, rtol=1e-12)

    def test_blowup_guard_aborts_with_partial_series(self):
        sim = make_sim()  # strongly unstable point
        # seed 2 puts the perturbation on the blow-up side of the unstable
        # manifold; at seed 0 this run reaches the horizon
        rep = sim.run_experiment(epsilon=1e-3, horizon=50.0, seed=2, record_every=5)
        assert rep.aborted
        assert rep.times[-1] < 50.0
        assert len(rep.times) == len(rep.energy) == len(rep.orbital_distance)

    def test_blowup_guard_stops_at_the_first_step_past_it(self):
        # replay the run's initial state step by step to the first step past
        # 1e3 times the wave amplitude: the run records that step and stops
        # there, before the overflow stop could end it a few steps later
        sim = make_sim()
        state = sim.discrete_stationary()
        limit = 1e3 * float(np.max(np.abs(state.psi)))
        pert = sim.perturbation(2, 1e-3)
        state.psi = state.psi + pert.psi
        state.pi = state.pi + pert.pi
        dt = sim.default_dt()
        n_steps = round(50.0 / dt)
        i = 0
        while i < n_steps and not np.max(np.abs(state.psi)) > limit:
            state = sim.step(state, dt)
            i += 1
        assert i < n_steps
        rep = sim.run_experiment(epsilon=1e-3, horizon=50.0, seed=2, record_every=1)
        assert rep.aborted
        assert len(rep.times) == i + 1
        assert rep.times[-1] == state.t

    def test_jump_condition_first_order_in_h(self):
        p = ModelParams(1.0, 0.5, 0.3)
        nl = PowerLaw(1.0, 0.3)
        res = []
        for h in (0.04, 0.02, 0.01):
            grid = Grid.for_run(p, target_h=h, half_length=25.0)
            sim = DefectLattice(nl, p, grid)
            phi = sim.discrete_stationary().psi.real
            j0 = grid.center
            jump = (phi[j0 + 1] - phi[j0]) / grid.h - (phi[j0] - phi[j0 - 1]) / grid.h
            res.append(abs(jump + nl.a(phi[j0] ** 2) * phi[j0]))
        assert res[0] / res[1] == pytest.approx(2.0, rel=0.2)
        assert res[1] / res[2] == pytest.approx(2.0, rel=0.2)

    def test_report_csv_and_summary(self, tmp_path):
        sim = make_sim(omega=0.0, kappa=-0.25, g=1.0)
        rep = sim.run_experiment(epsilon=1e-4, horizon=2.0, record_every=10)
        path = tmp_path / "series.csv"
        rep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,energy,charge,orbital_distance"
        assert len(lines) == 1 + len(rep.times)
        summary = rep.summary()
        assert summary["schema"] == 1
        assert summary["verdict"] == "stable"
        assert 0 <= summary["energy_drift"] < 1e-8


class TestClosedFormSlope:
    """The growth-rate fit against ``np.polyfit(t, y, 1)[0]``, which runs LAPACK."""

    @pytest.mark.parametrize(
        "kappa, g, eps, horizon, grid_horizon, every",
        [
            # the benchmark's lattice_unstable run, on the CLI's grid
            (0.25, 1.0, 1e-6, 15.0, 15.0, 1),
            # test_unstable_rate_matches_prediction's run
            (1.0, 2.0, 1e-6, 20.0, 0.0, 5),
        ],
        ids=["lattice_unstable", "unstable_rate"],
    )
    def test_fit_windows_of_unstable_runs(self, kappa, g, eps, horizon, grid_horizon, every):
        sim = make_sim(omega=0.0, kappa=kappa, g=g, horizon=grid_horizon)
        rep = sim.run_experiment(epsilon=eps, horizon=horizon, seed=0, record_every=every)
        d = rep.orbital_distance
        mask = (d >= 10.0 * eps) & (d <= 0.1 * rep.meta["reference_e_norm"])
        t, y = rep.times[mask], np.log(d[mask])
        assert len(t) >= 8
        assert rep.fitted_rate == _slope(t, y)
        assert rep.fitted_rate == pytest.approx(np.polyfit(t, y, 1)[0], rel=1e-12, abs=0.0)

    def test_noisy_line(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.3, 17.0, 400)
        y = -13.8 + 1.118 * t + 0.05 * rng.standard_normal(t.size)
        assert _slope(t, y) == pytest.approx(np.polyfit(t, y, 1)[0], rel=1e-12, abs=0.0)


def banded_newton(sim):
    """The stationary state by Newton from the continuum seed, LAPACK inside.

    The iteration the closed form replaced: Newton on the interior rows with
    the tridiagonal Jacobian solved by ``scipy.linalg.solve_banded``, stopped
    at a residual of ``1e-12`` or its roundoff floor.
    """
    from scipy.linalg import solve_banded

    p, g, nl = sim.params, sim.grid, sim.nl
    h, j0 = g.h, g.center
    m2w2 = p.m**2 - p.omega**2
    inv_h2 = 1.0 / (h * h)
    phi = SolitaryWave(params=p, C=solve_amplitude(nl, p)).profile(g.xs()).real
    phi[0] = phi[-1] = 0.0
    eps = np.finfo(float).eps
    for _ in range(50):
        r = m2w2 * phi[1:-1] - (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) * inv_h2
        c = phi[j0]
        r[j0 - 1] -= nl.a(c * c) * c / h
        amp = float(np.max(np.abs(phi)))
        floor = 8.0 * eps * ((4.0 * inv_h2 + abs(m2w2)) * amp + abs(nl.a(c * c) * c) / h)
        if np.max(np.abs(r)) <= max(1e-12, floor):
            return phi
        ab = np.zeros((3, g.n_points - 2))
        ab[0, 1:] = ab[2, :-1] = -inv_h2
        ab[1] = m2w2 + 2.0 * inv_h2
        ab[1, j0 - 1] -= (nl.a(c * c) + 2.0 * c * c * nl.a_prime(c * c)) / h
        phi[1:-1] += solve_banded((1, 1), ab, -r)
    raise AssertionError("reference Newton did not converge")


def _table_sim(omega):
    tau = np.geomspace(1e-3, 10.0, 40)
    a = 2.0 * np.sqrt(tau)  # effective exponent 1/2
    nl = nonlinearity_from_config({"type": "table", "tau": tau.tolist(), "a": a.tolist()})
    p = ModelParams(1.0, omega, 0.5)
    return DefectLattice(nl, p, Grid.for_run(p))


def _close_wall_sim(omega):
    # L = 4 puts the walls within a few decay lengths: r^(2N) up to 8e-3
    p = ModelParams(1.0, omega, 1.0)
    return DefectLattice(PowerLaw(2.0, 1.0), p, Grid(half_length=4.0, n_points=401))


class TestThomasSolve:
    """The closed-form stationary state against the banded Newton solve it replaced."""

    @staticmethod
    def assert_matches_newton(sim):
        got = sim.discrete_stationary().psi.real
        want = banded_newton(sim)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("omega", [0.0, 0.6])
    @pytest.mark.parametrize("kappa", [0.1, 10.0, 1000.0])
    def test_stationary_state_matches_banded_newton(self, omega, kappa):
        self.assert_matches_newton(make_sim(omega=omega, kappa=kappa, g=1.0))

    @pytest.mark.parametrize(
        "build",
        [
            # the two benchmark lattices: (omega, kappa, horizon)
            lambda: make_sim(omega=0.6, kappa=0.1, g=1.0, horizon=50.0),
            lambda: make_sim(omega=0.0, kappa=0.25, g=1.0, horizon=15.0),
            lambda: make_sim(omega=0.5, kappa=0.3, g=1.0),
            lambda: make_sim(omega=0.95, kappa=0.5, g=1.0),
            lambda: make_sim(omega=-0.9, kappa=2.0, g=1.0),
            lambda: _table_sim(0.0),
            lambda: _table_sim(0.5),
            lambda: _table_sim(0.8),
            lambda: _close_wall_sim(0.0),
            lambda: _close_wall_sim(0.8),
        ],
        ids=[
            "lattice_stable",
            "lattice_unstable",
            "omega0.5",
            "omega0.95",
            "omega-0.9",
            "table-omega0",
            "table-omega0.5",
            "table-omega0.8",
            "close-wall-omega0",
            "close-wall-omega0.8",
        ],
    )
    def test_more_lattices_match_banded_newton(self, build):
        self.assert_matches_newton(build())

    def test_profile_vanishes_at_the_walls_and_is_even(self):
        sim = _close_wall_sim(0.8)
        phi = sim.discrete_stationary().psi
        assert phi[0] == phi[-1] == 0.0
        assert np.array_equal(phi, phi[::-1])


def test_overflow_is_never_recorded():
    # kappa = 10: the defect force overflows pi while max|psi| is still
    # below the 1e3-amplitude guard, and the next step turns the field to NaN;
    # seed 4 puts the perturbation on the blow-up side of the unstable
    # manifold, and there the overflow comes before the guard
    sim = make_sim(omega=0.6, kappa=10.0, g=1.0, horizon=2.0)
    rep = sim.run_experiment(epsilon=1e-6, horizon=2.0, seed=4)
    assert rep.aborted
    for series in (rep.times, rep.energy, rep.charge, rep.orbital_distance):
        assert np.all(np.isfinite(series))
    summary = rep.summary()
    assert all(math.isfinite(summary[k]) for k in ("energy_drift", "charge_drift", "max_orbital_distance"))


def test_records_take_one_float64_column_each():
    # the four series fill one array allocated up front, handed on without a
    # copy: Python lists took 163 B a record, a copy at the end 64 B
    sim = DefectLattice(PowerLaw(1.0, 0.1), ModelParams(1.0, 0.9, 0.1), Grid(half_length=4.0, n_points=401))
    dt = sim.default_dt()

    def peak(records: int) -> int:
        tracemalloc.start()
        try:
            rep = sim.run_experiment(epsilon=1e-3, horizon=(records - 1) * dt, dt=dt)
            assert len(rep.times) == records
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(10_001) - peak(5_001)) / 5_000 <= 40.0


class TestBlowupGuard:
    """The guard's cheap bound against the exact test ``not max|psi| <= limit``."""

    @staticmethod
    def states():
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        ref = sim.discrete_stationary().psi
        limit = 1e3 * float(np.max(np.abs(ref)))
        j0 = sim.grid.center
        built = {"stationary": ref.copy()}
        for frac in (0.999, 1.001):
            psi = ref.copy()
            psi[j0] = frac * limit
            built[f"peak at {frac} of the limit"] = psi
        for bad in (np.nan, np.inf):
            psi = ref.copy()
            psi[7] = bad
            built[f"{bad} node"] = psi
        built["broad"] = np.full(sim.grid.n_points, 0.1 * limit * (1 + 1j) / math.sqrt(2))
        return limit, built

    def test_same_answer_as_the_exact_test(self):
        limit, built = self.states()
        for name, psi in built.items():
            assert _past_guard(psi, limit) == (not np.max(np.abs(psi)) <= limit), name
        assert [name for name, psi in built.items() if _past_guard(psi, limit)] == [
            "peak at 1.001 of the limit", "nan node", "inf node"
        ]

    def test_broad_state_fails_the_cheap_bound_yet_passes(self):
        limit, built = self.states()
        psi = built["broad"]
        assert not np.vdot(psi, psi).real <= 0.25 * limit * limit
        assert np.max(np.abs(psi)) < limit and not _past_guard(psi, limit)


def plain_force(sim, psi):
    h, j0 = sim.grid.h, sim.grid.center
    f = np.zeros_like(psi)
    f[1:-1] = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / (h * h) - sim.params.m**2 * psi[1:-1]
    c = psi[j0]
    f[j0] += sim.nl.a(abs(c) ** 2) * c / h
    return f


def two_force_step(sim, state, dt):
    """The kick-drift-kick step written out, both forces computed afresh."""
    pi_half = state.pi + (0.5 * dt) * plain_force(sim, state.psi)
    psi_new = state.psi + dt * pi_half
    pi_new = pi_half + (0.5 * dt) * plain_force(sim, psi_new)
    return FieldState(psi_new, pi_new, state.t + dt, sim.grid)


def merged_kick_steps(sim, state, dt, n):
    """``n`` kick-drift-kick steps from ``state`` written out, regrouped.

    The first step opens with the half kick from the state's own ``pi``;
    after it the closing half kick of one step and the opening one of the
    next are the one kick ``pi_half + dt f``, and each ``pi`` is formed from
    the half-step momentum as ``pi_half + (dt/2) f``.
    """
    psi, t = state.psi, state.t
    f = plain_force(sim, psi)
    pi_half = state.pi + (0.5 * dt) * f
    for i in range(n):
        if i:
            pi_half = pi_half + dt * f
        psi = psi + dt * pi_half
        f = plain_force(sim, psi)
        t += dt
        yield FieldState(psi, pi_half + (0.5 * dt) * f, t, sim.grid)


def same_bits(a, b):
    return np.array_equal(a.psi.view(np.float64), b.psi.view(np.float64)) and np.array_equal(
        a.pi.view(np.float64), b.pi.view(np.float64)
    )


# the two benchmark lattices: (omega, kappa, horizon, epsilon)
BENCHMARK_LATTICES = [(0.6, 0.1, 50.0, 1e-3), (0.0, 0.25, 15.0, 1e-6)]


def perturbed_stationary(sim, seed, size):
    st = sim.discrete_stationary()
    pert = sim.perturbation(seed=seed, size=size)
    return FieldState(st.psi + pert.psi, st.pi + pert.pi, 0.0, sim.grid)


def folded(sim, s):
    """The nodes ``center..n-1`` of ``s``, as a run steps them."""
    c = sim.grid.center
    return FieldState(s.psi[c:], s.pi[c:], s.t, sim.grid)


def unfolded(sim, s):
    """The whole even lattice's state whose fold is ``s``."""
    psi, pi = (np.concatenate([x[:0:-1], x]) for x in (s.psi, s.pi))
    return FieldState(psi, pi, s.t, sim.grid)


def whole_lattice_run(sim, epsilon, horizon, seed, record_every):
    """``run_experiment``'s loop on every node: times, distances, fitted rate, aborted."""
    ref = sim.discrete_stationary()
    state = perturbed_stationary(sim, seed, epsilon)
    limit = 1e3 * float(np.max(np.abs(ref.psi)))
    dt = sim.default_dt()
    n_steps = int(round(horizon / dt))
    times, dists = [0.0], [sim.orbital_distance(state, ref)]
    aborted = False
    for i in range(1, n_steps + 1):
        state = sim.step(state, dt)
        aborted = _past_guard(state.psi, limit)
        if i % record_every == 0 or i == n_steps or aborted:
            times.append(state.t)
            dists.append(sim.orbital_distance(state, ref))
        if aborted:
            break
    t, d = np.array(times), np.array(dists)
    mask = (d >= 10.0 * epsilon) & (d <= 0.1 * sim.e_norm(ref))
    rate = _slope(t[mask], np.log(d[mask])) if stability_verdict(sim.params) is Verdict.UNSTABLE else None
    return t, d, rate, aborted


class TestCarriedForce:
    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    def test_trajectory_matches_the_merged_kick_scheme_bit_for_bit(self, omega, kappa, horizon, eps):
        # reading pi at every step must not move the trajectory either
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        a = b = perturbed_stationary(sim, seed=7, size=eps)
        dt = sim.default_dt()
        for signed in (dt, -dt):
            for i, b in enumerate(merged_kick_steps(sim, b, signed, 400)):
                a = sim.step(a, signed)
                assert same_bits(a, b), f"dt={signed:g}, step {i}"

    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    def test_merged_and_two_force_trajectories_agree_to_roundoff(self, omega, kappa, horizon, eps):
        # the same scheme with its kicks regrouped: each step rounds its
        # half-step momentum differently, by a few ulps, and on these
        # finite horizons the differences add up no faster than linearly
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        ref_norm = sim.e_norm(sim.discrete_stationary())
        a = b = perturbed_stationary(sim, seed=7, size=eps)
        dt = sim.default_dt()
        steps = 0
        for signed in (dt, -dt):
            for _ in range(400):
                a, b = sim.step(a, signed), two_force_step(sim, b, signed)
            steps += 400
            gap = sim.e_norm(FieldState(a.psi - b.psi, a.pi - b.pi, 0.0, sim.grid))
            assert gap <= 4.0 * steps * np.finfo(float).eps * ref_norm, f"dt={signed:g}"

    def test_rebinding_psi_drops_the_carried_force(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        dt = sim.default_dt()
        s = sim.step(perturbed_stationary(sim, seed=1, size=1e-2), dt)
        s.psi = 1.001 * s.psi
        assert same_bits(sim.step(s, dt), two_force_step(sim, s, dt))

    def test_rebinding_pi_or_another_dt_takes_the_half_kick(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        dt = sim.default_dt()
        s = sim.step(perturbed_stationary(sim, seed=1, size=1e-2), dt)
        for other in (0.5 * dt, -dt):
            assert same_bits(sim.step(s, other), two_force_step(sim, s, other))
        s.pi = s.pi.copy()
        assert same_bits(sim.step(s, dt), two_force_step(sim, s, dt))

    def test_stepped_psi_is_read_only(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        s = sim.step(sim.discrete_stationary(), sim.default_dt())
        with pytest.raises(ValueError, match="read-only"):
            s.psi[sim.grid.center] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            s.psi *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            s.pi[sim.grid.center] += 1.0
        assert s.copy().psi.flags.writeable and s.copy().pi.flags.writeable

    def test_copied_and_hand_built_states_step_as_the_reference(self):
        # the first step of a state that carries nothing is the two-force
        # step; a stepped state steps on as the merged-kick scheme
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        dt = sim.default_dt()
        start = perturbed_stationary(sim, seed=2, size=1e-2)
        first, second = merged_kick_steps(sim, start, dt, 2)
        s = sim.step(start, dt)
        assert same_bits(s, two_force_step(sim, start, dt)) and same_bits(s, first)
        assert same_bits(sim.step(s, dt), second)
        want = two_force_step(sim, s, dt)
        assert same_bits(sim.step(s.copy(), dt), want)
        assert same_bits(sim.step(FieldState(s.psi, s.pi, s.t, sim.grid), dt), want)

    def test_force_carried_from_another_lattice_is_not_used(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        other = DefectLattice(PowerLaw(2.0, 0.3), sim.params, sim.grid)
        dt = sim.default_dt()
        s = other.step(perturbed_stationary(sim, seed=3, size=1e-2), dt)
        assert same_bits(sim.step(s, dt), two_force_step(sim, s, dt))

    @pytest.mark.parametrize("kappa", [0.25, -0.25])
    def test_zero_imaginary_parts_match_the_division_to_the_byte(self, kappa):
        # the omega = 0 wave is real: every imaginary part is an exact zero,
        # where scaling the float64 view and dividing the complex array could
        # differ in the sign of a zero; the bytes compare those signs too
        sim = make_sim(omega=0.0, kappa=kappa, g=1.0, horizon=15.0)
        a = b = sim.discrete_stationary()
        dt = sim.default_dt()
        for signed in (dt, -dt):
            for i, b in enumerate(merged_kick_steps(sim, b, signed, 400)):
                a = sim.step(a, signed)
                assert a.psi.tobytes() == b.psi.tobytes(), f"dt={signed:g}, step {i}"
                assert a.pi.tobytes() == b.pi.tobytes(), f"dt={signed:g}, step {i}"
        assert not a.psi.imag.any() and not a.pi.imag.any()

    def test_gradient_is_kept_only_for_a_read_only_psi(self):
        # a writable psi can change in place, so its gradient is never kept
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        ref = sim.discrete_stationary()
        s = perturbed_stationary(sim, seed=4, size=1e-2)
        before = sim.energy(s), sim.orbital_distance(s, ref)
        s.psi *= 2.0
        ref.psi *= 1.5
        fresh = FieldState(s.psi.copy(), s.pi.copy(), 0.0, sim.grid)
        fresh_ref = FieldState(ref.psi.copy(), ref.pi.copy(), 0.0, sim.grid)
        after = sim.energy(s), sim.orbital_distance(s, ref)
        assert after == (sim.energy(fresh), sim.orbital_distance(fresh, fresh_ref)) != before

    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    def test_records_do_not_depend_on_how_often_pi_is_read(self, omega, kappa, horizon, eps):
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        every = sim.run_experiment(epsilon=eps, horizon=2.0, seed=7, record_every=1)
        seventh = sim.run_experiment(epsilon=eps, horizon=2.0, seed=7, record_every=7)
        n_steps = len(every.times) - 1
        kept = [i for i in range(n_steps + 1) if i % 7 == 0 or i == n_steps]
        assert n_steps % 7 != 0 and len(seventh.times) == len(kept)
        for name in ("times", "energy", "charge", "orbital_distance"):
            assert getattr(seventh, name).tobytes() == getattr(every, name)[kept].tobytes(), name


class TestDiagnosticsAgainstPlainSums:
    """energy, charge and orbital_distance against the sums written out."""

    @staticmethod
    def plain_energy(sim, s):
        h = sim.grid.h
        grad = (s.psi[1:] - s.psi[:-1]) / h
        quad = np.sum(np.abs(s.pi) ** 2) + np.sum(np.abs(grad) ** 2)
        quad += sim.params.m**2 * np.sum(np.abs(s.psi) ** 2)
        return 0.5 * h * float(quad) + sim.nl.potential(abs(s.psi[sim.grid.center]) ** 2)

    @staticmethod
    def plain_charge(sim, s):
        return -sim.grid.h * float(np.sum((np.conj(s.psi) * s.pi).imag))

    @staticmethod
    def plain_distance(sim, s, ref):
        def inner(a_psi, a_pi, b_psi, b_pi):
            h = sim.grid.h
            da, db = np.diff(a_psi) / h, np.diff(b_psi) / h
            terms = np.conj(da) * db, np.conj(a_psi) * b_psi, np.conj(a_pi) * b_pi
            return h * complex(sum(np.sum(t) for t in terms))

        z = inner(ref.psi, ref.pi, s.psi, s.pi)
        phase = z / abs(z)
        dpsi, dpi = s.psi - phase * ref.psi, s.pi - phase * ref.pi
        return math.sqrt(inner(dpsi, dpi, dpsi, dpi).real)

    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_agree_to_roundoff_on_seeded_states(self, omega, kappa, horizon, eps, seed):
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        ref = sim.discrete_stationary()
        s = perturbed_stationary(sim, seed=seed, size=1e-2)
        for _ in range(50):
            s = sim.step(s, sim.default_dt())
        assert sim.energy(s) == pytest.approx(self.plain_energy(sim, s), rel=1e-13)
        assert sim.charge(s) == pytest.approx(self.plain_charge(sim, s), rel=1e-13)
        assert sim.orbital_distance(s, ref) == pytest.approx(self.plain_distance(sim, s, ref), rel=1e-13)

    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_agree_to_roundoff_on_folded_states(self, omega, kappa, horizon, eps, seed):
        # the fold's sums against the plain sums over the state it is the fold of
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        ref = sim.discrete_stationary()
        s = folded(sim, perturbed_stationary(sim, seed=seed, size=1e-2))
        for _ in range(50):
            s = sim.step(s, sim.default_dt())
        whole = unfolded(sim, s)
        assert s.psi.size == sim.grid.center + 1
        assert sim.energy(s) == pytest.approx(self.plain_energy(sim, whole), rel=1e-13)
        assert sim.charge(s) == pytest.approx(self.plain_charge(sim, whole), rel=1e-13)
        got = sim.orbital_distance(s, folded(sim, ref))
        assert got == pytest.approx(self.plain_distance(sim, whole, ref), rel=1e-13)

    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    def test_agree_at_every_seventh_step_of_the_benchmark_runs(self, omega, kappa, horizon, eps):
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        ref = sim.discrete_stationary()
        floor = 1e-14 * sim.e_norm(ref)
        s = perturbed_stationary(sim, seed=7, size=eps)
        dt = sim.default_dt()
        for i in range(1, int(round(horizon / dt)) + 1):
            s = sim.step(s, dt)
            if i % 7:
                continue
            assert sim.energy(s) == pytest.approx(self.plain_energy(sim, s), rel=1e-13), i
            assert sim.charge(s) == pytest.approx(self.plain_charge(sim, s), rel=1e-13), i
            assert abs(sim.orbital_distance(s, ref) - self.plain_distance(sim, s, ref)) <= floor, i

    @pytest.mark.parametrize("seed", [7, 101, 202])
    def test_e_norm_rounds_as_the_divided_gradient(self, seed):
        # e_norm scales every initial perturbation, so its rounding is part
        # of every trajectory: it stays that of the gradient divided by h
        sim = make_sim(omega=0.0, kappa=0.25, g=1.0, horizon=15.0)
        s = perturbed_stationary(sim, seed=seed, size=1e-2)
        h = sim.grid.h
        grad = np.diff(s.psi) / h
        sq = np.vdot(grad, grad).real + np.vdot(s.psi, s.psi).real + np.vdot(s.pi, s.pi).real
        assert sim.e_norm(s) == math.sqrt(h * float(sq))

    def test_tiny_distance_still_resolved(self):
        sim = make_sim(omega=0.4, kappa=0.5, g=1.0)
        ref = sim.discrete_stationary()
        eps = 1e-9
        st = FieldState((1 + eps) * ref.psi, (1 + eps) * ref.pi, 0.0, sim.grid)
        assert sim.orbital_distance(st, ref) == pytest.approx(eps * sim.e_norm(ref), rel=1e-6)

    def test_nan_state_is_at_distance_nan_after_a_stale_errno(self):
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0)
        ref = sim.discrete_stationary()
        psi = ref.psi.copy()
        psi[5] = np.nan
        st = FieldState(psi, ref.pi, 0.0, sim.grid)
        with np.errstate(all="ignore"):
            np.float64(1e300) ** 2.0  # C pow leaves errno = ERANGE
        assert math.isnan(sim.orbital_distance(st, ref))
        assert math.isnan(sim.energy(st)) and math.isnan(sim.charge(st))

    def test_run_calls_step_per_step_and_diagnostics_per_record(self, monkeypatch):
        calls = {"step": 0, "energy": 0, "charge": 0, "orbital_distance": 0}
        for name in calls:
            original = getattr(DefectLattice, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(DefectLattice, name, counted)
        sim = make_sim(omega=0.5, kappa=0.3, g=1.0, horizon=2.0)
        rep = sim.run_experiment(epsilon=1e-3, horizon=2.0, seed=4, record_every=7)
        n_steps = int(round(2.0 / sim.default_dt()))
        records = 1 + len([i for i in range(1, n_steps + 1) if i % 7 == 0 or i == n_steps])
        assert n_steps % 7 != 0 and len(rep.times) == records
        assert calls == {"step": n_steps, "energy": records, "charge": records, "orbital_distance": records}


class TestFold:
    """A run steps and records the nodes ``center..n-1`` of its even state."""

    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    def test_first_step_is_the_right_half_of_the_whole_step(self, omega, kappa, horizon, eps):
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        c, dt = sim.grid.center, sim.default_dt()
        start = perturbed_stationary(sim, seed=0, size=eps)
        assert start.psi.tobytes() == start.psi[::-1].tobytes() and start.pi.tobytes() == start.pi[::-1].tobytes()
        whole, half = sim.step(start, dt), sim.step(folded(sim, start), dt)
        assert half.psi.tobytes() == whole.psi[c:].tobytes()
        assert half.pi.tobytes() == whole.pi[c:].tobytes()

    @pytest.mark.parametrize("omega, kappa, horizon, eps", BENCHMARK_LATTICES)
    def test_diagnostics_match_the_whole_lattice(self, omega, kappa, horizon, eps):
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        ref = sim.discrete_stationary()
        s = folded(sim, perturbed_stationary(sim, seed=3, size=eps))
        for _ in range(100):
            s = sim.step(s, sim.default_dt())
        whole = unfolded(sim, s)
        for name in ("energy", "charge", "e_norm"):
            got, want = getattr(sim, name)(s), getattr(sim, name)(whole)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), name
        # the distance cancels terms of the reference's size, so its rounding
        # floor is relative to that: measured at most 1.1e-16 of it
        gap = sim.orbital_distance(s, folded(sim, ref)) - sim.orbital_distance(whole, ref)
        assert abs(gap) <= 1e-14 * sim.e_norm(ref)

    @staticmethod
    def stepped_sizes(monkeypatch):
        """The node counts of the states ``DefectLattice.step`` is given from now on."""
        sizes = []
        step = DefectLattice.step
        monkeypatch.setattr(DefectLattice, "step", lambda self, s, dt: sizes.append(s.psi.size) or step(self, s, dt))
        return sizes

    def test_run_steps_the_fold(self, monkeypatch):
        sizes = self.stepped_sizes(monkeypatch)
        sim = make_sim(omega=0.6, kappa=0.1, g=1.0, horizon=50.0)
        rep = sim.run_experiment(epsilon=1e-3, horizon=1.0, seed=0, record_every=5)
        assert len(sizes) == int(round(1.0 / sim.default_dt())) and set(sizes) == {sim.grid.center + 1}
        assert sim.grid.center + 1 == 1876 and rep.meta["n_points"] == sim.grid.n_points == 3751

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "omega, kappa, horizon, eps, every",
        [(0.6, 0.1, 50.0, 1e-3, 25), (0.0, 0.25, 15.0, 1e-6, 1)],
        ids=["lattice_stable", "lattice_unstable"],
    )
    def test_benchmark_runs_match_the_whole_lattice(self, omega, kappa, horizon, eps, every, seed, monkeypatch):
        sim = make_sim(omega=omega, kappa=kappa, g=1.0, horizon=horizon)
        sizes = self.stepped_sizes(monkeypatch)
        rep = sim.run_experiment(epsilon=eps, horizon=horizon, seed=seed, record_every=every)
        monkeypatch.undo()
        # the run stepped the fold, so what follows compares it with the whole lattice
        assert set(sizes) == {sim.grid.center + 1}
        t, d, rate, aborted = whole_lattice_run(sim, eps, horizon, seed, every)
        assert rep.aborted == aborted and rep.times.tobytes() == t.tobytes()
        # simulate's observed verdict: growing past 100 times the initial distance
        assert (max(rep.orbital_distance) > 100.0 * rep.orbital_distance[0]) == (max(d) > 100.0 * d[0])
        if rate is None:
            assert rep.fitted_rate is None
        else:
            assert rep.fitted_rate == pytest.approx(rate, rel=1e-9, abs=0.0)
        # worst measured over seeds 0-9: 6.5e-11 on the stable run, 3.1e-8 on the
        # unstable one, where rounding differences grow with the perturbation
        np.testing.assert_allclose(rep.orbital_distance, d, rtol=1e-7, atol=0.0)
        # the fold's charge drift stays at rounding level: worst over seeds 0-9
        # 5.7e-15 stable and 4.1e-13 unstable (the whole lattice: 2.8e-15, 5.0e-13)
        assert rep.charge_drift <= 1e-12
