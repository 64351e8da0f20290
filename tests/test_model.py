import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from kgdelta import (
    DegenerateAmplitudeWarning,
    ModelParams,
    NoSolitaryWave,
    PowerLaw,
    SolitaryWave,
    Tabulated,
    UnrepresentableAmplitude,
    charge_and_slope,
    effective_kappa,
    find_amplitudes,
    nonlinearity_from_config,
    solve_amplitude,
)


def test_derived_params_values():
    p = ModelParams(1.0, 0.0, 0.0)
    assert (p.decay_rate, p.alpha) == (1.0, 2.0)
    p = ModelParams(1.0, 0.8, 0.0)
    assert p.decay_rate == pytest.approx(0.6, abs=1e-15)
    assert p.alpha == pytest.approx(1.2, abs=1e-15)


def test_decay_rate_vanishes_at_band_edge():
    kap = ModelParams(1.0, 1.0 - 1e-12, 0.0).decay_rate
    assert 0.0 < kap < 2e-6


@pytest.mark.parametrize("omega", [1.0, -1.0, 1.5, float("inf")])
def test_invalid_frequency_rejected(omega):
    with pytest.raises(ValueError):
        ModelParams(1.0, omega, 0.0)


def test_invalid_mass_rejected():
    with pytest.raises(ValueError):
        ModelParams(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(0.0, 0.0, 0.0)


class TestAmplitude:
    def test_normalized_case(self):
        assert solve_amplitude(PowerLaw(2.0, 1.0), ModelParams(1.0, 0.0)) == pytest.approx(1.0)

    def test_closed_form(self):
        assert solve_amplitude(PowerLaw(1.0, 1.0), ModelParams(1.0, 0.0)) == pytest.approx(
            math.sqrt(2.0)
        )
        c = solve_amplitude(PowerLaw(1.0, 1.0), ModelParams(1.0, 0.8))
        assert c == pytest.approx(math.sqrt(1.2), abs=1e-12)
        assert c == pytest.approx(1.095445, abs=1e-6)

    def test_closed_form_matches_bracketed_path(self):
        # same coupling routed through the generic bracketing solver
        p = ModelParams(1.0, 0.8)
        direct = solve_amplitude(PowerLaw(1.0, 1.0), p)
        bracketed = solve_amplitude(Tabulated(lambda t: t, lambda t: 1.0), p)
        assert bracketed == pytest.approx(direct, rel=1e-12)
        defect = abs(1.0 * bracketed**2 - p.alpha)
        assert defect <= 1e-12 * (1.0 + p.alpha)

    def test_no_solution_raises(self):
        nl = Tabulated(lambda t: -1.0, lambda t: 0.0)
        with pytest.raises(NoSolitaryWave):
            solve_amplitude(nl, ModelParams(1.0, 0.0))

    def test_constant_power_law_is_degenerate(self):
        with pytest.raises(NoSolitaryWave):
            solve_amplitude(PowerLaw(2.0, 0.0), ModelParams(1.0, 0.0))

    def test_degenerate_root_warns_not_raises(self):
        # a(tau) = 2 + (tau-1)^3 crosses the target 2 at tau=1 with a'(1) = 0
        nl = Tabulated(lambda t: 2.0 + (t - 1.0) ** 3, lambda t: 3.0 * (t - 1.0) ** 2)
        with pytest.warns(DegenerateAmplitudeWarning):
            scan = find_amplitudes(nl, ModelParams(1.0, 0.0))
        assert scan.amplitude == pytest.approx(1.0, abs=1e-6)
        assert any(scan.degenerate)

    def test_multiple_roots_smallest_first(self):
        # non-monotone coupling with two crossings of the target value 2
        nl = Tabulated(
            lambda t: 4.0 * t / (1.0 + (t / 4.0) ** 2),
            lambda t: 4.0 * (1.0 - (t / 4.0) ** 2) / (1.0 + (t / 4.0) ** 2) ** 2,
        )
        scan = find_amplitudes(nl, ModelParams(1.0, 0.0))
        assert len(scan.roots) == 2
        assert scan.amplitude == scan.roots[0] < scan.roots[1]


class TestEffectiveKappa:
    def test_power_law_identity(self):
        assert effective_kappa(PowerLaw(2.0, 1.0), 1.0) == pytest.approx(1.0, abs=1e-14)
        assert effective_kappa(PowerLaw(1.0, 0.5), 3.7) == pytest.approx(0.5, abs=1e-14)

    def test_tabulated_hand_value(self):
        nl = Tabulated(lambda t: t + t * t, lambda t: 1.0 + 2.0 * t)
        assert effective_kappa(nl, 1.0) == pytest.approx(1.5, abs=1e-14)

    def test_zero_coupling_guard(self):
        nl = Tabulated(lambda t: 0.0, lambda t: 1.0)
        with pytest.raises(ValueError):
            effective_kappa(nl, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    g=st.floats(0.1, 10.0),
    kappa=st.floats(-0.45, 3.0).filter(lambda k: abs(k) > 1e-3),
    omega=st.floats(-0.9, 0.9),
)
# overflow of C, C^2 = inf, underflow of C to 0 with kappa < 0 and with kappa > 0
@example(g=0.125, kappa=2**-9, omega=0.0)
@example(g=0.5, kappa=2**-9, omega=0.0)
@example(g=0.1, kappa=-0.0011, omega=0.9)
@example(g=10.0, kappa=0.0011, omega=0.9)
# C^2 ~ exp(706) is finite but a'(C^2) is subnormal; C^2 ~ exp(-708.2) is
# normal and tau**(kappa - 1) alone would overflow in a'(C^2)
@example(g=0.4875, kappa=0.002, omega=0.0)
@example(g=0.1, kappa=-0.00423, omega=0.0)
def test_power_law_roundtrip(g, kappa, omega):
    nl = PowerLaw(g, kappa)
    p = ModelParams(1.0, omega, kappa)
    # The exact root is C^2 = exp(log_tau), where |a'(C^2)| = exp(log_slope).
    # It is representable when both are normal float64 numbers; `inside` is
    # the log-distance to the nearest edge of that range (negative outside).
    log_tau = math.log(p.alpha / g) / kappa
    log_slope = math.log(abs(kappa) * p.alpha) - log_tau
    lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
    inside = min(log_tau - lo, hi - log_tau, log_slope - lo, hi - log_slope)
    if inside < -1e-9:
        with pytest.raises(UnrepresentableAmplitude):
            solve_amplitude(nl, p)
        return
    try:
        c = solve_amplitude(nl, p)
    except UnrepresentableAmplitude:
        # only a root within roundoff of the range edge may go either way
        assert inside < 1e-9
        return
    assert abs(nl.a(c * c) - p.alpha) <= 1e-12 * (1.0 + p.alpha)
    assert effective_kappa(nl, c) == pytest.approx(kappa, rel=1e-13)


class TestChargeAndSlope:
    def test_odd_in_omega(self):
        q, _ = charge_and_slope(PowerLaw(2.0, 1.0), ModelParams(1.0, 0.0, 1.0))
        assert q == 0.0

    def test_slope_at_origin(self):
        _, slope = charge_and_slope(PowerLaw(2.0, 1.0), ModelParams(1.0, 0.0, 1.0))
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_negative_slope_in_stable_region(self):
        _, slope = charge_and_slope(PowerLaw(1.0, 0.25), ModelParams(1.0, 0.6, 0.25))
        assert slope < 0.0

    def test_slope_none_when_exponent_vanishes(self):
        nl = Tabulated(lambda t: 2.0 + (t - 1.0) ** 3, lambda t: 3.0 * (t - 1.0) ** 2)
        with pytest.warns(DegenerateAmplitudeWarning):
            q, slope = charge_and_slope(nl, ModelParams(1.0, 0.0))
        assert q == 0.0
        assert slope is None

    @pytest.mark.parametrize("kappa,omega", [(1.0, 0.3), (0.25, 0.6), (2.0, -0.5), (0.7, 0.1)])
    def test_slope_matches_finite_difference(self, kappa, omega):
        nl = PowerLaw(1.0, kappa)
        _, slope = charge_and_slope(nl, ModelParams(1.0, omega, kappa))
        dw = 1e-5
        qp, _ = charge_and_slope(nl, ModelParams(1.0, omega + dw, kappa))
        qm, _ = charge_and_slope(nl, ModelParams(1.0, omega - dw, kappa))
        fd = (qp - qm) / (2.0 * dw)
        assert slope == pytest.approx(fd, rel=1e-5)


class TestProfile:
    def test_point_values(self):
        w = SolitaryWave(ModelParams(1.0, 0.0), C=1.0)
        assert w.profile([0.0])[0] == 1.0
        vals = w.profile([-math.log(2.0), math.log(2.0)])
        assert vals[0] == pytest.approx(0.5, abs=1e-15)
        assert vals[0] == vals[1]

    def test_phase_and_amplitude(self):
        w = SolitaryWave(ModelParams(1.0, 0.8), C=2.0, theta=math.pi)
        val = w.profile([0.0])[0]
        assert val.real == pytest.approx(-2.0, abs=1e-14)
        assert abs(val.imag) < 1e-14

    @given(theta=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_phase_equivariance_exact(self, theta):
        p = ModelParams(1.0, 0.3)
        xs = np.linspace(-5.0, 5.0, 101)
        base = SolitaryWave(p, C=1.3, theta=0.0).profile(xs)
        rotated = SolitaryWave(p, C=1.3, theta=theta).profile(xs)
        phase = complex(math.cos(theta), math.sin(theta))
        assert np.array_equal(rotated, phase * base)

    def test_norm_squared_against_quadrature(self):
        p = ModelParams(1.0, 0.5)
        w = SolitaryWave(p, C=1.7)
        xs = np.linspace(0.0, 40.0 / p.decay_rate, 20001)
        num = 2.0 * simpson(np.abs(w.profile(xs)) ** 2, x=xs)
        assert num == pytest.approx(w.norm_squared, rel=1e-8)

    def test_energy_closed_form(self):
        p = ModelParams(1.0, 0.0)
        nl = PowerLaw(2.0, 1.0)
        w = SolitaryWave.solve(nl, p)
        # quadratic part m^2 C^2/kap = 1, defect potential -g C^4/(2(k+1)) = -1/2
        assert w.energy(nl) == pytest.approx(0.5, abs=1e-12)


def test_nonlinearity_from_config_power():
    nl = nonlinearity_from_config({"type": "power", "g": 2.0, "kappa": 1.0})
    assert isinstance(nl, PowerLaw)
    assert nl.a(1.0) == 2.0


def test_nonlinearity_from_config_table():
    taus = np.linspace(0.0, 10.0, 41)
    nl = nonlinearity_from_config({"type": "table", "tau": taus, "a": 0.5 * taus})
    assert nl.a(4.0) == pytest.approx(2.0, abs=1e-12)
    assert nl.a_prime(4.0) == pytest.approx(0.5, abs=1e-10)
    c = solve_amplitude(nl, ModelParams(1.0, 0.0))
    assert c == pytest.approx(2.0, abs=1e-9)


def test_table_roots_stay_inside_the_table():
    # the interpolant crosses a = 2*kap again at C^2 = 2.67, past tau = 2,
    # where it only extrapolates
    nl = nonlinearity_from_config({"type": "table", "tau": [0.5, 1, 1.5, 2], "a": [1, 1.9, 2.2, 2.3]})
    scan = find_amplitudes(nl, ModelParams(1.0, 0.3))
    assert scan.roots == pytest.approx((1.0043930863,), rel=1e-9)


def test_table_crossing_only_by_extrapolation_raises():
    # a = 2 is reached only at C^2 = 3, on the extrapolated line past tau = 2
    nl = nonlinearity_from_config({"type": "table", "tau": [0.5, 1, 1.5, 2], "a": [1, 1.2, 1.4, 1.6]})
    with pytest.raises(NoSolitaryWave):
        find_amplitudes(nl, ModelParams(1.0, 0.0))


def test_nonlinearity_from_config_rejects_unknown():
    with pytest.raises(ValueError):
        nonlinearity_from_config({"type": "spline"})


class TestBrentq:
    """The Brent port against ``scipy.optimize.brentq``, bit for bit."""

    TOLERANCES = [(1e-14, 8.9e-16), (1e-300, 1e-15), (2e-12, 4 * np.finfo(float).eps)]

    def test_oracle_brackets_bit_identical(self, monkeypatch):
        from scipy.optimize import brentq as scipy_brentq

        from kgdelta import dispersion
        from kgdelta.model import brentq

        pairs = []

        def both(f, a, b, xtol, rtol):
            pairs.append((brentq(f, a, b, xtol, rtol), scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)))
            return pairs[-1][0]

        monkeypatch.setattr(dispersion, "brentq", both)
        for w in np.linspace(-0.95, 0.95, 9):
            for k in np.linspace(-1.5, 2.0, 9):
                dispersion.axis_scan_roots(ModelParams(1.0, float(w), float(k)))
        assert len(pairs) > 20
        assert [ours for ours, _ in pairs] == [theirs for _, theirs in pairs]

    @pytest.mark.parametrize("xtol, rtol", TOLERANCES)
    def test_random_brackets_bit_identical(self, xtol, rtol):
        from scipy.optimize import brentq as scipy_brentq

        from kgdelta.model import brentq

        rng = np.random.default_rng(20240)
        checked = 0
        for _ in range(400):
            c, s, p = rng.normal(), rng.uniform(0.1, 5.0), int(rng.integers(1, 6))
            f = [
                lambda x: math.tanh(s * (x - c)),
                lambda x: s * (x - c) ** p + 1e-3 * (x - c),
                lambda x: math.expm1(s * (x - c)),
                lambda x: math.sin(s * x) - 0.3,
                # values near the underflow edge: C divides by an underflowed
                # zero and bisects, where Python would raise
                lambda x: 1e-300 * (s * (x - c) ** p + 1e-3 * (x - c)),
            ][int(rng.integers(5))]
            a, b = c - rng.uniform(1e-6, 3.0), c + rng.uniform(1e-6, 3.0)
            if f(a) == 0.0 or f(b) == 0.0 or (f(a) < 0.0) == (f(b) < 0.0):
                continue
            assert brentq(f, a, b, xtol, rtol) == scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)
            checked += 1
        assert checked > 200

    def test_same_sign_and_nan_raise_value_error(self):
        from kgdelta.model import brentq

        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, 1e-15)
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 1e-14, 1e-15)
