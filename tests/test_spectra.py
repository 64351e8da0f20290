import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdelta import (
    ModelParams,
    Verdict,
    c_pm,
    lambda_pm,
    scalar_eigenvalue,
    sigma_H,
    sigma_L,
    sigma_ess_A,
    stability_verdict,
    zero_jordan_structure,
)

INF = math.inf


class TestScalarOperator:
    def test_decoupled_point(self):
        ess, point = sigma_L(ModelParams(1.0, 0.0, 0.0))
        assert ess.intervals == ((1.0, INF),)
        assert point.values() == (0j,)

    def test_hand_value(self):
        _, point = sigma_L(ModelParams(1.0, 0.0, 1.0))
        assert point.values()[0] == pytest.approx(-8.0)

    def test_empty_below_half(self):
        _, point = sigma_L(ModelParams(1.0, 0.0, -0.6))
        assert len(point) == 0

    def test_level_is_simple(self):
        _, point = sigma_L(ModelParams(1.0, 0.4, 0.7))
        (entry,) = point.entries
        assert entry.geometric_mult == entry.algebraic_mult == 1


class TestBandEdges:
    def test_degenerate_collision(self):
        assert c_pm(ModelParams(1.0, 0.0)) == (1.0, 1.0)

    def test_hand_values(self):
        cm, cp = c_pm(ModelParams(1.0, 0.6))
        assert cm == pytest.approx(0.4, abs=1e-14)
        assert cp == pytest.approx(1.6, abs=1e-14)
        assert c_pm(ModelParams(2.0, 0.0)) == (1.0, 4.0)

    def test_quadratic_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = rng.uniform(0.2, 3.0)
            w = rng.uniform(-0.99, 0.99) * m
            p = ModelParams(m, w)
            roots = sorted(np.roots([1.0, -(m * m + 1.0), m * m - w * w]).real)
            got = c_pm(p)
            assert got[0] == pytest.approx(roots[0], rel=1e-10)
            assert got[1] == pytest.approx(roots[1], rel=1e-10)

    def test_ordering_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = rng.uniform(0.1, 4.0)
            w = rng.uniform(-1.0, 1.0) * 0.999 * m
            cm, cp = c_pm(ModelParams(m, w))
            assert 0.0 < cm <= min(1.0, m * m) + 1e-12
            assert cp >= max(1.0, m * m) - 1e-12


class TestBlockOperator:
    def test_decoupled_point_spectrum(self):
        _, point = sigma_H(ModelParams(1.0, 0.5, 0.0))
        assert sorted(z.real for z in point.values()) == pytest.approx([0.0, 1.25])

    def test_hand_pair(self):
        _, point = sigma_H(ModelParams(1.0, 0.0, 1.0))
        assert sorted(z.real for z in point.values()) == pytest.approx([-8.0, 1.0])

    def test_empty_below_half(self):
        _, point = sigma_H(ModelParams(1.0, 0.3, -0.7))
        assert len(point) == 0

    def test_flat_block_level_at_zero_frequency(self):
        _, point = sigma_H(ModelParams(1.0, 0.0, -0.7))
        assert point.values() == (1.0 + 0j,)

    def test_band_structure(self):
        ess, _ = sigma_H(ModelParams(2.0, 0.0, 0.3))
        assert ess.intervals == ((4.0, INF),)
        ess, _ = sigma_H(ModelParams(2.0, 0.5, 0.3))
        cm, cp = c_pm(ModelParams(2.0, 0.5))
        assert ess.intervals == ((cm, 1.0), (cp, INF))

    def test_zero_in_point_spectrum_iff_kappa_zero(self):
        for w in np.linspace(-0.9, 0.9, 13):
            for k in np.linspace(-0.45, 2.0, 12):
                p = ModelParams(1.0, float(w), float(k))
                _, point = sigma_H(p)
                has_zero = any(abs(z) < 1e-12 for z in point.values())
                assert has_zero == (k == 0.0)
        _, point = sigma_H(ModelParams(1.0, 0.5, 0.0))
        assert any(z == 0 for z in point.values())


def test_block_eigenfunction_samples():
    # the closed-form eigenfunctions (1 - z, -omega) exp(-sqrt(kap^2 - S)|x|)
    # must satisfy the bulk equation and the derivative-jump condition; this
    # exercises the whole level chain against a finite-difference residual
    p = ModelParams(1.0, 0.5, 0.7)
    s = scalar_eigenvalue(p)
    for z in lambda_pm(p):
        mu = math.sqrt(p.decay_rate**2 - s)
        h = 1e-3
        xs = h * np.arange(1, 2001)
        f = np.exp(-mu * xs)
        u1, u2 = (1.0 - z) * f, -p.omega * f
        lap = (u1[2:] - 2.0 * u1[1:-1] + u1[:-2]) / h**2
        bulk1 = -lap + p.m**2 * u1[1:-1] + p.omega * u2[1:-1] - z * u1[1:-1]
        bulk2 = p.omega * u1 + u2 - z * u2
        assert np.max(np.abs(bulk1)) <= 1e-4 * (1.0 + abs(z))  # O(h^2 mu^4)
        assert np.max(np.abs(bulk2)) <= 1e-13
        # evenness turns the jump condition into 2 u1'(0+) = -alpha(1+2k) u1(0)
        jump = -2.0 * mu * (1.0 - z) + p.alpha * (1.0 + 2.0 * p.kappa) * (1.0 - z)
        assert abs(jump) <= 1e-12 * (1.0 + abs(z))


@settings(max_examples=300, deadline=None)
@given(
    m=st.floats(0.2, 3.0),
    wfrac=st.floats(-0.95, 0.95),
    kappa=st.floats(-0.49, 3.0),
)
def test_pair_satisfies_vieta(m, wfrac, kappa):
    p = ModelParams(m, wfrac * m, kappa)
    pair = lambda_pm(p)
    s = scalar_eigenvalue(p)
    if pair is None:
        assert s is None or kappa <= -0.5 + 1e-12
        return
    lo, hi = pair
    scale = 1.0 + abs(s)
    assert abs(lo * hi - s) <= 1e-12 * scale
    assert abs(lo + hi - (s + p.omega**2 + 1.0)) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(wfrac=st.floats(-0.95, 0.95), kappa=st.floats(-0.45, 2.5))
@example(wfrac=0.015625, kappa=2.5)
def test_pair_satisfies_level_relation(wfrac, kappa):
    # each block level z maps back to the scalar level via z + z w^2/(1-z);
    # near z = 1 the map amplifies the few ulps of rounding in z by its
    # slope w^2/(1-z)^2, so that propagated error joins the tolerance
    p = ModelParams(1.0, wfrac, kappa)
    pair = lambda_pm(p)
    s = scalar_eigenvalue(p)
    if pair is None:
        return
    eps = np.finfo(float).eps
    for z in pair:
        if abs(z - 1.0) < 1e-6:
            continue
        back = z + z * p.omega**2 / (1.0 - z)
        propagated = 4.0 * eps * abs(z) * p.omega**2 / (1.0 - z) ** 2
        assert back == pytest.approx(s, abs=1e-10 * (1.0 + abs(s)) + propagated)


class TestFullGeneratorEssential:
    def test_gap_at_zero_frequency(self):
        ess = sigma_ess_A(ModelParams(1.0, 0.0))
        assert ess.intervals == ((-INF, -1.0), (1.0, INF))
        assert not ess.contains(0.5)
        assert ess.contains(1.0)

    def test_thresholds(self):
        ess = sigma_ess_A(ModelParams(1.0, 0.8))
        assert ess.thresholds == pytest.approx((-1.8, -0.2, 0.2, 1.8), abs=1e-15)
        ess = sigma_ess_A(ModelParams(2.0, -1.0))
        assert ess.intervals == ((-INF, -1.0), (1.0, INF))
        assert ess.thresholds == (-3.0, -1.0, 1.0, 3.0)


class TestZeroJordan:
    @pytest.mark.parametrize(
        "omega,kappa,want",
        [
            (0.5, 0.1, (1, 2)),
            (0.5, 0.25, (1, 4)),
            (0.5, 0.0, (2, 2)),
            (0.0, 0.0, (2, 4)),
            (0.0, 1.3, (1, 2)),
        ],
    )
    def test_cases(self, omega, kappa, want):
        j = zero_jordan_structure(ModelParams(1.0, omega, kappa))
        assert (j.geometric, j.algebraic) == want

    def test_omega_zero_is_decided_in_units_of_m(self):
        # omega = 0.1 m at m = 1e-12 is as far from omega = 0 as at m = 1
        small = zero_jordan_structure(ModelParams(1e-12, 1e-13, 0.0))
        unit = zero_jordan_structure(ModelParams(1.0, 0.1, 0.0))
        assert (small.geometric, small.algebraic) == (unit.geometric, unit.algebraic) == (2, 2)

    def test_tolerance_band(self):
        j = zero_jordan_structure(ModelParams(1.0, 0.5, 0.25 + 1e-13))
        assert (j.geometric, j.algebraic) == (1, 4)
        j = zero_jordan_structure(ModelParams(1.0, 0.5, 0.25 + 1e-9))
        assert (j.geometric, j.algebraic) == (1, 2)


class TestVerdict:
    def test_cases(self):
        assert stability_verdict(ModelParams(1.0, 0.5, 0.1)) is Verdict.STABLE
        assert stability_verdict(ModelParams(1.0, 0.5, 0.5)) is Verdict.UNSTABLE
        assert stability_verdict(ModelParams(1.0, 0.5, 0.25)) is Verdict.CRITICAL

    def test_critical_counts_as_unstable(self):
        assert not stability_verdict(ModelParams(1.0, 0.5, 0.25)).is_stable

    def test_negative_kappa_always_stable(self):
        for w in np.linspace(-0.9, 0.9, 7):
            assert stability_verdict(ModelParams(1.0, float(w), -1.3)) is Verdict.STABLE
