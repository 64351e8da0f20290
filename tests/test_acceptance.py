"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kgdelta import (
    D_eval,
    ModelParams,
    PowerLaw,
    accepted_roots,
    classify_point_spectrum,
    cubic_data,
    lambda_pm,
    oracle_mismatches,
    residual_scale,
    scalar_eigenvalue,
    virtual_level_exponent,
    virtual_level_frequency,
)
from kgdelta.cli import ScanConfig, region_code, scan_rows
from kgdelta.lattice import DefectLattice, FieldState, Grid


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status} in {elapsed:.2f}s{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_criterion_1_zero_frequency_closed_form():
    t0 = time.time()
    worst = 0.0
    for i in range(1, 51):
        k = -0.49 + (3.0 + 0.49) * i / 50.0
        got = accepted_roots(ModelParams(1.0, 0.0, k))
        want = (
            2.0 * math.sqrt(k * (1.0 + k))
            if k > 0.0
            else 2.0j * math.sqrt(-k * (1.0 + k))
        )
        assert len(got) == 2
        err = min(abs(got[0] - want), abs(got[0] + want))
        err = max(err, min(abs(got[1] - want), abs(got[1] + want)))
        worst = max(worst, err)
    elapsed = time.time() - t0
    _report(
        "1 zero-frequency closed form",
        worst <= 1e-9 and elapsed < 1.0,
        elapsed,
        f"worst |error| = {worst:.2e}",
    )


def test_criterion_2_decoupled_line_closed_form():
    t0 = time.time()
    ok = True
    for i in range(1, 51):
        w = 0.95 * i / 51.0
        rep = classify_point_spectrum(ModelParams(1.0, w, 0.0))
        nz = sorted(rep.nonzero_values(), key=lambda z: z.imag)
        ok &= len(nz) == 2
        ok &= abs(nz[1] - 2j * w) <= 1e-9 and abs(nz[0] + 2j * w) <= 1e-9
        ok &= all(
            e.embedded == (w >= 1.0 / 3.0) for e in rep.points.entries if e.value != 0
        )
        ok &= len(rep.points.entries) == 3  # zero plus the pair, nothing else
    elapsed = time.time() - t0
    _report("2 decoupled-line closed form", ok and elapsed < 1.0, elapsed)


def test_criterion_3_virtual_level_curve():
    t0 = time.time()
    worst = 0.0
    for i in range(1, 21):
        k = -0.49 + (0.70 + 0.49) * i / 20.0
        t = virtual_level_frequency(1.0, k)
        p = ModelParams(1.0, t, k)
        lam = 1j * (1.0 - t)
        rel = abs(D_eval(p, lam)) / residual_scale(p, lam)
        worst = max(worst, rel)
    # hand-checkable instance in exact rational arithmetic
    omega, kappa = Fraction(4, 5), Fraction(1, 2)
    alpha = Fraction(6, 5)  # 2*sqrt(1 - (4/5)^2) = 6/5 exactly
    nu_plus = Fraction(4, 5)  # sqrt(1 - (omega - 1/5)^2) = 4/5 exactly
    assert nu_plus**2 == 1 - (omega - Fraction(1, 5)) ** 2
    assert 1 - (omega + Fraction(1, 5)) ** 2 == 0  # nu_minus = 0
    d_exact = (
        alpha**2 * (1 + kappa) ** 2
        - 2 * nu_plus * alpha * (1 + kappa)
        - alpha**2 * kappa**2
    )
    elapsed = time.time() - t0
    _report(
        "3 virtual-level curve",
        worst <= 1e-10 and d_exact == 0 and elapsed < 1.0,
        elapsed,
        f"worst relative |D| = {worst:.2e}, exact instance = {d_exact}",
    )


def test_criterion_4_region_map():
    t0 = time.time()
    cfg = ScanConfig(
        m=1.0,
        omega_min=-0.96,
        omega_max=0.96,
        omega_step=0.02,
        kappa_min=-2.0,
        kappa_max=2.0,
        kappa_step=0.05,
        band=1e-6,
    )
    rows = scan_rows(cfg)
    assert len(rows) == 97 * 81
    boundary = {"KolokolovCritical", "VirtualLevelBoundary"}
    mismatches = 0
    for line in rows:
        parts = line.split(",")
        w, k, code = float(parts[0]), float(parts[1]), parts[2]
        want = region_code(1.0, w, k, band=cfg.band).value
        if code != want and want not in boundary and code not in boundary:
            mismatches += 1
    elapsed = time.time() - t0
    _report(
        "4 region map vs analytic predicate",
        mismatches == 0 and elapsed < 10.0,
        elapsed,
        f"{len(rows)} cells, {mismatches} mismatches",
    )


def test_criterion_5_oracle_root_equivalence():
    t0 = time.time()
    bad = []
    for w in np.linspace(-0.9, 0.9, 21):
        for k in np.linspace(-1.9, 1.9, 21):
            p = ModelParams(1.0, round(float(w), 12), round(float(k), 12))
            issues = oracle_mismatches(p, accepted_roots(p))
            if issues:
                bad.append((p.omega, p.kappa, issues[0]))
    elapsed = time.time() - t0
    _report(
        "5 dense-scan oracle equivalence",
        not bad and elapsed < 30.0,
        elapsed,
        f"441 cells, {len(bad)} disagreements",
    )


def test_criterion_6_discriminant_asymptotics():
    t0 = time.time()
    ok = True
    for k in (100.0, -100.0):
        for w in np.linspace(-0.95, 0.95, 20):
            ok &= cubic_data(ModelParams(1.0, float(w), k)).delta < 0.0
    p = ModelParams(1.0, 0.5, 100.0)
    real = [z.real for z in accepted_roots(p) if z.real > 0]
    ok &= len(real) == 1 and real[0] ** 2 > (p.alpha * p.kappa) ** 2
    elapsed = time.time() - t0
    _report("6 discriminant asymptotics", ok and elapsed < 1.0, elapsed)


def test_criterion_7_simulator_conservation():
    t0 = time.time()
    p = ModelParams(1.0, 0.6, 0.1)
    sim = DefectLattice(PowerLaw(1.0, 0.1), p, Grid.for_run(p, horizon=50.0))
    rep = sim.run_experiment(epsilon=1e-3, horizon=50.0, seed=7, record_every=25)
    rep_half = sim.run_experiment(
        epsilon=1e-3, horizon=50.0, dt=0.5 * sim.default_dt(), seed=7, record_every=25
    )
    ratio = rep.energy_drift / max(rep_half.energy_drift, 1e-300)
    drift_ok = rep.energy_drift <= 1e-6 and rep.charge_drift <= 1e-6
    # the splitting conserves charge exactly, so the dt-refinement ratio is
    # measured on the energy while charge is held to the machine floor
    order_ok = ratio >= 3.5 and rep_half.charge_drift <= 1e-12
    elapsed = time.time() - t0
    _report(
        "7 simulator conservation",
        drift_ok and order_ok and elapsed < 60.0,
        elapsed,
        f"E-drift {rep.energy_drift:.2e}, Q-drift {rep.charge_drift:.2e}, ratio {ratio:.1f}",
    )


def test_criterion_8_instability_rate():
    t0 = time.time()
    p = ModelParams(1.0, 0.0, 1.0)
    sim = DefectLattice(PowerLaw(2.0, 1.0), p, Grid.for_run(p, horizon=20.0))
    rep = sim.run_experiment(epsilon=1e-6, horizon=20.0, seed=0, record_every=5)
    want = 2.0 * math.sqrt(2.0)
    ok = rep.fitted_rate is not None and abs(rep.fitted_rate - want) <= 0.1 * want
    elapsed = time.time() - t0
    _report(
        "8 instability rate",
        ok and elapsed < 120.0,
        elapsed,
        f"fitted {rep.fitted_rate:.4f} vs {want:.4f}",
    )


def test_criterion_9_stability_reproduction():
    t0 = time.time()
    p = ModelParams(1.0, 0.6, 0.1)
    sim = DefectLattice(PowerLaw(1.0, 0.1), p, Grid.for_run(p, horizon=100.0))
    rep = sim.run_experiment(epsilon=1e-3, horizon=100.0, seed=0, record_every=5)
    d0 = float(rep.orbital_distance[0])
    stable_ok = float(np.max(rep.orbital_distance)) <= 3.0 * d0 and not rep.aborted

    p2 = ModelParams(1.0, 0.6, 0.5)
    sim2 = DefectLattice(PowerLaw(1.0, 0.5), p2, Grid.for_run(p2, horizon=100.0))
    rep2 = sim2.run_experiment(epsilon=1e-6, horizon=100.0, seed=0, record_every=5)
    e0 = float(rep2.orbital_distance[0])
    grew = np.flatnonzero(rep2.orbital_distance > 100.0 * e0)
    unstable_ok = grew.size > 0 and float(rep2.times[grew[0]]) < 100.0
    elapsed = time.time() - t0
    _report(
        "9 stability reproduction",
        stable_ok and unstable_ok and elapsed < 300.0,
        elapsed,
        f"stable max/init {float(np.max(rep.orbital_distance)) / d0:.2f}; "
        f"growth detected at t = {float(rep2.times[grew[0]]) if grew.size else -1:.2f}",
    )


def test_criterion_10_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True

    # spectral symmetry under negation and conjugation, 100 draws
    for _ in range(100):
        p = ModelParams(1.0, rng.uniform(-0.9, 0.9), rng.uniform(-1.9, 1.9))
        vals = list(classify_point_spectrum(p).points.values())
        for v in vals:
            ok &= any(abs(-v - u) <= 1e-8 * (1 + abs(v)) for u in vals)
            ok &= any(abs(v.conjugate() - u) <= 1e-8 * (1 + abs(v)) for u in vals)

    # Vieta identities on the block-operator pair, 100 draws
    for _ in range(100):
        p = ModelParams(1.0, rng.uniform(-0.9, 0.9), rng.uniform(-0.45, 2.5))
        pair, s = lambda_pm(p), scalar_eigenvalue(p)
        if pair is None:
            continue
        lo, hi = pair
        scale = 1.0 + abs(s)
        ok &= abs(lo * hi - s) <= 1e-12 * scale
        ok &= abs(lo + hi - (s + p.omega**2 + 1.0)) <= 1e-12 * scale

    # curve inverse identity, 100 draws
    for _ in range(100):
        k = rng.uniform(-0.5, 1.0 / math.sqrt(2.0) - 1e-9)
        t = virtual_level_frequency(1.0, k)
        ok &= abs(virtual_level_exponent(1.0, t) - k) <= 1e-10

    # phase equivariance and time reversibility of the stepper, 100 draws each
    p = ModelParams(1.0, 0.5, 0.3)
    sim = DefectLattice(PowerLaw(1.0, 0.3), p, Grid(half_length=15.0, n_points=1501))
    base = sim.discrete_stationary()
    dt = sim.default_dt()
    for i in range(100):
        pert = sim.perturbation(seed=i, size=10 ** rng.uniform(-6, -2))
        st = FieldState(base.psi + pert.psi, base.pi + pert.pi, 0.0, sim.grid)
        theta = rng.uniform(0, 2 * math.pi)
        rot = complex(math.cos(theta), math.sin(theta))
        a = sim.step(st, dt)
        b = sim.step(FieldState(rot * st.psi, rot * st.pi, 0.0, sim.grid), dt)
        ok &= bool(np.max(np.abs(b.psi - rot * a.psi)) <= 1e-12)
        back = sim.step(sim.step(st, dt), -dt)
        ok &= bool(
            np.max(np.abs(back.psi - st.psi)) <= 1e-10 * np.max(np.abs(st.psi))
        )

    elapsed = time.time() - t0
    _report("10 property suites", ok and elapsed < 30.0, elapsed)
