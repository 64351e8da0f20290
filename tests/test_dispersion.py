import hashlib
import math
import random
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgdelta.dispersion as dispersion
from kgdelta import (
    PHYSICAL,
    CubicData,
    D_eval,
    ModelParams,
    Q_eval,
    RootCandidate,
    SheetSelector,
    accepted_roots,
    axis_scan_roots,
    candidate_roots,
    classify_point_spectrum,
    collision_exponent_frequency,
    cubic_data,
    cubic_roots,
    nu_pm,
    oracle_mismatches,
    residual_scale,
    virtual_level_exponent,
    virtual_level_frequency,
)
from kgdelta.dispersion import (
    ACCEPT_TOL,
    BOUNDARY_TOL,
    ClassificationError,
    CubicOverflow,
    RegionCode,
    _REGIONS,
    _axis_meshes,
    _classify_arrays,
    _distinct_bits,
    _gap_axis_terms,
    _real_axis_terms,
    accepted_cells,
)
from kgdelta.model import brentq


def _cells(m, omegas, kappas, band):
    """:func:`_classify_arrays` per cell: ``None`` where it leaves the cell open,
    else the region, the upper value of its pair (``None`` in ZeroOnly) and ``delta``."""
    codes, pairs, deltas = _classify_arrays(m, np.array(omegas, float), np.array(kappas, float), band)
    cells = zip(codes.tolist(), pairs.tolist(), deltas.tolist())
    return [None if c < 0 else (_REGIONS[c], None if _REGIONS[c] is RegionCode.ZERO_ONLY else z, d)
            for c, z, d in cells]


class TestExponents:
    def test_rest_point(self):
        nup, num = nu_pm(ModelParams(1.0, 0.0), 0.0)
        assert nup == num == 1.0 + 0j

    def test_virtual_level_configuration(self):
        nup, num = nu_pm(ModelParams(1.0, 0.8), 0.2j)
        assert num == 0.0
        assert nup == pytest.approx(0.8, abs=1e-15)

    def test_cut_boundary_value(self):
        # on the cut |lambda| > m at omega = 0 both branches give +i sqrt(3)
        nup, num = nu_pm(ModelParams(1.0, 0.0), 2j)
        assert nup == pytest.approx(1j * math.sqrt(3.0), abs=1e-15)
        assert num == pytest.approx(1j * math.sqrt(3.0), abs=1e-15)

    @pytest.mark.parametrize("t", [1.3, 2.5, -1.1, -2.2])
    def test_cut_values_are_right_half_plane_limits(self, t):
        p = ModelParams(1.0, 0.4)
        on_cut = nu_pm(p, 1j * t)
        just_off = nu_pm(p, 1e-12 + 1j * t)
        assert on_cut[0] == pytest.approx(just_off[0], abs=1e-6)
        assert on_cut[1] == pytest.approx(just_off[1], abs=1e-6)

    def test_physical_sheet_has_positive_real_parts(self):
        rng = np.random.default_rng(2)
        p = ModelParams(1.0, 0.5)
        for _ in range(300):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(lam.real) < 1e-3:
                continue  # stay off the cuts
            nup, num = nu_pm(p, lam)
            assert nup.real > 0.0
            assert num.real > 0.0

    def test_sheet_signs(self):
        p = ModelParams(1.0, 0.3)
        lam = 0.7 + 0.2j
        base = nu_pm(p, lam)
        flipped = nu_pm(p, lam, SheetSelector(-1, 1))
        assert flipped[0] == -base[0]
        assert flipped[1] == base[1]


class TestDeterminant:
    def test_virtual_level_zero(self):
        val = D_eval(ModelParams(1.0, 0.8, 0.5), 0.2j)
        assert abs(val) <= 1e-14

    def test_closed_form_root_at_zero_frequency(self):
        val = D_eval(ModelParams(1.0, 0.0, 1.0), 2.0 * math.sqrt(2.0))
        assert abs(val) <= 1e-12

    def test_spurious_candidate_value(self):
        val = D_eval(ModelParams(1.0, 0.0, 1.0), math.sqrt(2.0))
        assert val.real == pytest.approx(24.0 - 16.0 * math.sqrt(3.0), abs=1e-12)
        assert abs(val.imag) == 0.0

    def test_conjugation_symmetry(self):
        p = ModelParams(1.0, 0.45, 0.8)
        rng = np.random.default_rng(7)
        for _ in range(100):
            lam = complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
            assert D_eval(p, lam.conjugate()) == pytest.approx(
                D_eval(p, lam).conjugate(), rel=1e-12
            )


class TestGapTrace:
    def test_domain_and_pole(self):
        p = ModelParams(1.0, 0.5, 0.3)
        with pytest.raises(ValueError):
            Q_eval(p, 0.0)
        with pytest.raises(ValueError):
            Q_eval(p, 0.6)  # outside (0, 0.5)
        # for |omega| < m/3 the pole at 2|omega| sits inside the gap
        with pytest.raises(ValueError):
            Q_eval(ModelParams(1.0, 0.2, 0.3), 0.4)

    def test_endpoint_magnitude_is_inverse_curve_value(self):
        p = ModelParams(1.0, 0.5, 0.3)
        kap = p.decay_rate
        val = Q_eval(p, 0.5 - 1e-12)
        want = (1.0 / kap) / abs(virtual_level_exponent(1.0, 0.5))
        assert abs(val) == pytest.approx(want, rel=1e-5)

    def test_negative_below_double_frequency(self):
        assert Q_eval(ModelParams(1.0, 0.3, 0.1), 0.1) < 0.0

    def test_small_argument_limit(self):
        p = ModelParams(1.0, 0.4, 0.1)
        kap = p.decay_rate
        val = Q_eval(p, 1e-5)
        assert val == pytest.approx(-1.0 / (kap * 0.16), rel=1e-6)

    def test_factorizes_determinant_in_gap(self):
        p = ModelParams(1.0, 0.35, 0.6)
        alpha, kap = p.alpha, p.decay_rate
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam_im = rng.uniform(0.01, 1.0 - 0.35 - 0.01)
            if abs(lam_im - 0.7) < 0.02:
                continue  # keep clear of the trace pole
            nup, num = nu_pm(p, 1j * lam_im)
            lhs = D_eval(p, 1j * lam_im)
            rhs = (alpha - 2 * nup) * (alpha - 2 * num) * (1 + p.kappa * kap * Q_eval(p, lam_im))
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCubic:
    def test_hand_coefficients(self):
        cd = cubic_data(ModelParams(1.0, 0.0, 1.0))
        assert (cd.c, cd.p, cd.q) == (-6.0, -12.0, -16.0)
        assert cd.delta == 0.0

    def test_decoupled_collapse(self):
        cd = cubic_data(ModelParams(1.0, 0.0, 0.0))
        assert cd.c == 0.0
        assert cd.p == cd.q == cd.delta == 0.0

    def test_large_exponent_discriminant_negative(self):
        # at omega = 0 the discriminant vanishes identically (the two
        # mixed-sheet resonance roots coincide by symmetry), so the large
        # coupling-exponent negativity is an omega != 0 statement
        assert cubic_data(ModelParams(1.0, 0.0, 100.0)).delta == 0.0
        assert cubic_data(ModelParams(1.0, 0.3, 100.0)).delta < 0.0

    def test_double_root_factorization(self):
        roots = sorted(cubic_roots(CubicData(0.0, -12.0, -16.0, 0.0)), key=lambda z: z.real)
        assert roots[0] == pytest.approx(-2.0)
        assert roots[1] == pytest.approx(-2.0)
        assert roots[2] == pytest.approx(4.0)

    def test_triple_zero(self):
        assert cubic_roots(CubicData(0.0, 0.0, 0.0, 0.0)) == (0j, 0j, 0j)

    def test_another_double_root(self):
        roots = sorted(cubic_roots(CubicData(0.0, -3.0, 2.0, 0.0)), key=lambda z: z.real)
        assert roots[0] == pytest.approx(-2.0)
        assert roots[1] == roots[2] == pytest.approx(1.0)

    def test_against_numpy_roots(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            pc = rng.uniform(-20.0, 20.0)
            qc = rng.uniform(-40.0, 40.0)
            cd = CubicData(0.0, pc, qc, -4.0 * pc**3 - 27.0 * qc * qc)
            mine = sorted(cubic_roots(cd), key=lambda z: (round(z.real, 7), z.imag))
            ref = sorted(np.roots([1.0, 0.0, pc, qc]), key=lambda z: (round(z.real, 7), z.imag))
            for a, b in zip(mine, ref):
                assert a == pytest.approx(complex(b), abs=1e-7 * (1.0 + abs(b)))

    def test_near_degenerate_stability(self):
        # tiny perturbations of a double-root cubic keep roots finite and close
        base = CubicData(0.0, -12.0, -16.0, 0.0)
        for dq in (1e-13, -1e-13, 1e-10):
            q = base.q + dq
            cd = CubicData(0.0, base.p, q, -4.0 * base.p**3 - 27.0 * q * q)
            roots = cubic_roots(cd)
            assert max(abs(z) for z in roots) < 10.0
            assert min(abs(z - 4.0) for z in roots) < 1e-3

    @pytest.mark.parametrize(
        "kappa", [1e80, -1e80, 1e300, pytest.param(np.float64(1e80), id="numpy-1e+80")]
    )
    def test_overflowing_coefficients_raise_a_typed_error(self, kappa):
        p = ModelParams(m=1.0, omega=0.1, kappa=kappa)
        with pytest.raises(CubicOverflow, match="overflow float64"):
            cubic_data(p)
        with pytest.raises(CubicOverflow):
            classify_point_spectrum(p)

    @pytest.mark.parametrize(
        "m, kappa",
        # delta is NaN, and no ** raises, at the three kappas
        [(1.0, 2.878742363756005e25), (1.0, -2.878742363756005e25),
         (1.0, 3.1622776601683795e25)],
    )
    def test_non_finite_coefficients_raise_a_typed_error(self, m, kappa):
        p = ModelParams(m=m, omega=0.1 * m, kappa=kappa)
        with pytest.raises(CubicOverflow, match=re.escape(f"at m = {m:g}, kappa = {kappa:g}")):
            cubic_data(p)
        with pytest.raises(CubicOverflow):
            classify_point_spectrum(p)
        assert _cells(m, [p.omega], [kappa], 1e-6) == [None]

    @pytest.mark.parametrize("m", [1e28, 1.34e154])
    def test_mass_overflowing_the_physical_cubic_is_classified(self, m):
        # ** raises in the physical cubic, and the message names m; the
        # classifier works at (1, omega/m, kappa) and answers
        p = ModelParams(m=m, omega=0.1 * m, kappa=0.25)
        with pytest.raises(CubicOverflow, match=re.escape(f"at m = {m:g}, kappa = 0.25")):
            cubic_data(p)
        unit = classify_point_spectrum(ModelParams(1.0, p.omega / m, 0.25))
        report = classify_point_spectrum(p)
        assert report.region is unit.region is RegionCode.REAL_PAIR
        assert report.nonzero_values() == tuple(complex(m * z.real, m * z.imag) for z in unit.nonzero_values())
        # the scan's Delta, m^12 times the one at m = 1, does not fit: the
        # array path leaves the cell to the scalar one, which raises
        assert _cells(m, [p.omega], [0.25], 1e-6) == [None]

    @pytest.mark.parametrize("kappa", [1e25, -1e25])
    def test_largest_kappa_below_the_overflow_is_answered(self, kappa):
        p = ModelParams(m=1.0, omega=0.1, kappa=kappa)
        assert math.isfinite(cubic_data(p).delta)
        assert classify_point_spectrum(p).region is not None


class TestCandidates:
    def test_accepts_true_pair_rejects_spurious(self):
        cands = candidate_roots(ModelParams(1.0, 0.0, 1.0))
        acc = [c for c in cands if c.accepted]
        rej = [c for c in cands if not c.accepted]
        want = 2.0 * math.sqrt(2.0)
        assert sorted(c.lam.real for c in acc) == pytest.approx([-want, want], abs=1e-12)
        assert len(rej) == 4  # double spurious root x = 2, both signs
        for c in rej:
            assert abs(c.x - 2.0) < 1e-9
            # the rejects are genuine resonances: roots of D on a mixed sheet,
            # while the physical-sheet determinant stays O(1) there
            assert c.sheet is not None and c.sheet != PHYSICAL
            assert abs(D_eval(ModelParams(1.0, 0.0, 1.0), c.lam)) > 1.0

    def test_imaginary_pair_for_softening_coupling(self):
        got = accepted_roots(ModelParams(1.0, 0.0, -0.25))
        want = 2.0 * math.sqrt(0.25 * 0.75)
        assert sorted(z.imag for z in got) == pytest.approx([-want, want], abs=1e-12)
        assert all(abs(z.real) < 1e-12 for z in got)

    def test_collision_point_has_no_nonzero_roots(self):
        assert accepted_roots(ModelParams(1.0, 0.5, 0.25)) == []

    def test_accepted_residuals_within_tolerance(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            p = ModelParams(1.0, rng.uniform(-0.9, 0.9), rng.uniform(-1.8, 1.8))
            for c in candidate_roots(p):
                if c.accepted:
                    assert c.residual <= ACCEPT_TOL * c.scale
                    assert abs(D_eval(p, c.lam)) <= 1e-9 * residual_scale(p, c.lam)

    def test_no_genuinely_complex_roots_accepted(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            p = ModelParams(1.0, rng.uniform(-0.9, 0.9), rng.uniform(-1.9, 1.9))
            for z in accepted_roots(p):
                on_axis = abs(z.real) <= 1e-8 * abs(z) or abs(z.imag) <= 1e-8 * abs(z)
                assert on_axis

    @pytest.mark.parametrize(
        "omega, kappa, want",
        # roots of D computed with mpmath at 50 digits
        [(0.6, 0.36000001, 1.933190727277507e-4), (0.5, 0.25000001, 2.121320353607959e-4)],
    )
    def test_small_real_pair_next_to_collision_curve(self, omega, kappa, want):
        got = [z for z in accepted_roots(ModelParams(1.0, omega, kappa)) if z.real > 0]
        assert len(got) == 1
        assert got[0].imag == 0.0
        assert got[0].real == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("omega", [0.02, -0.02, 0.04, -0.04])
    def test_decoupled_pair_written_exactly_in_scan_cell(self, omega):
        from kgdelta.cli import _fmt, _scan_cell

        assert _scan_cell(1.0, omega, 0.0, 1e-6).split(",")[4] == _fmt(2.0 * abs(omega))

    @pytest.mark.parametrize("kappa", [-0.4998, -0.4995, -0.499, -0.4988, -0.498])
    def test_pair_recovered_at_triple_root_of_cubic(self, kappa):
        # near (omega, kappa) = (0, -1/2) the cubic's coefficients lose digits
        # to cancellation and only a step on D itself brings the pair back
        want = 2j * math.sqrt(-kappa * (1.0 + kappa))
        got = classify_point_spectrum(ModelParams(1.0, 0.0, kappa)).nonzero_values()
        assert sorted(got, key=lambda z: z.imag) == [
            pytest.approx(-want, abs=1e-11),
            pytest.approx(want, abs=1e-11),
        ]


def _decision_points(n: int = 3000, seed: int = 27) -> list[ModelParams]:
    """Seeded points, most of them within ``1e-1`` of ``kappa = 0``, of the
    Kolokolov curve ``kappa = omega^2/m^2`` or of the virtual-level curve."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        u = rng.uniform(-0.999, 0.999)
        off = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)
        near = ("free", "zero", "zero", "kolokolov", "virtual")[i % 5]
        if near == "free":
            kappa = rng.uniform(-2.0, 3.0)
        elif near == "zero":
            kappa = off
        else:
            kappa = (u * u if near == "kolokolov" else virtual_level_exponent(1.0, u)) + off
        m = 10.0 ** rng.uniform(-5.0, 5.0) if i % 7 == 0 else 1.0
        points.append(ModelParams(m, m * u, kappa))
    return points


class TestAcceptanceDecisions:
    """Which cubic candidates are eigenvalues, pinned to the bit.

    Next to ``kappa = 0`` a spurious candidate can pass the residual test
    on ``D`` and fail only the pre-squaring identity, so these pins fail
    when either path's identity test is dropped.
    """

    P = ModelParams(1.0, 0.8426628448212408, 2.1532448969300407e-06)
    PAIR = [1.6853249488145223j, complex(-0.0, -1.6853249488145223)]

    def test_identity_rejects_the_pair_next_to_kappa_zero(self, monkeypatch):
        small = [c for c in candidate_roots(self.P) if abs(c.lam) < 1e-6]
        assert len(small) == 2 and all(abs(c.lam.imag) == pytest.approx(7.41e-7, rel=1e-3) for c in small)
        assert not any(c.accepted for c in small)
        assert classify_point_spectrum(self.P).flags == ("on-cut-resonance",)
        want = _root_hex(self.PAIR)
        assert _root_hex(accepted_roots(self.P)) == want
        # the arrays decide the cell themselves, without the scalar fallback
        monkeypatch.setattr(dispersion, "accepted_roots", lambda *args: pytest.fail("cell left open"))
        assert [_root_hex(r) for r in accepted_cells(1.0, [self.P.omega], [self.P.kappa])] == [want]

    # SHA-256 over each candidate's lambda (float.hex), acceptance and sheet
    # label at the 3,000 _decision_points
    CANDIDATES_SHA256 = "1ea31a62dae04604b304cd96c7862f959604e6399e1636a5255d4d840545f053"

    def test_candidates_are_pinned(self):
        h = hashlib.sha256()
        for p in _decision_points():
            for c in candidate_roots(p):
                label = c.sheet.label() if c.sheet is not None else "none"
                h.update(f"{c.lam.real.hex()} {c.lam.imag.hex()} {c.accepted} {label};".encode())
            h.update(b"\n")
        assert h.hexdigest() == self.CANDIDATES_SHA256


def _decision_cells(n: int = 1500, seed: int = 28) -> tuple[list[float], list[float]]:
    """``omega/m`` and ``kappa`` of seeded cells, four in five within ``1e-13``
    to ``1e-1`` of ``kappa = 0`` or of either critical curve, some with signed
    zeros and some at huge ``|kappa|``."""
    rng = random.Random(seed)
    us, ks = [], []
    for i in range(n):
        u = rng.choice([0.0, -0.0]) if i % 50 == 0 else rng.uniform(-0.999, 0.999)
        off = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-13.0, -1.0)
        near = ("free", "zero", "zero", "kolokolov", "virtual")[i % 5]
        if near == "free":
            kappa = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(3.0, 30.0) if i % 45 == 0 else rng.uniform(-2.0, 3.0)
        elif near == "zero":
            kappa = rng.choice([0.0, -0.0]) if i % 25 == 0 else off
        else:
            kappa = (u * u if near == "kolokolov" else virtual_level_exponent(1.0, u)) + off
        us.append(u)
        ks.append(kappa)
    return us, ks


def _nu_pairs(n: int = 2400, seed: int = 29) -> list[tuple[ModelParams, complex, SheetSelector]]:
    """Seeded ``(params, lambda, sheet)``: generic, real and on-cut ``lambda``,
    both thresholds of each exponent, signed zeros, one in three at ``m != 1``."""
    rng = random.Random(seed)
    sheets = [PHYSICAL, SheetSelector(1, -1), SheetSelector(-1, 1), SheetSelector(-1, -1)]
    pairs = []
    for i in range(n):
        m = 10.0 ** rng.uniform(-3.0, 3.0) if i % 3 == 0 else 1.0
        u = rng.uniform(-0.999, 0.999)
        gap, top = m * (1.0 - abs(u)), m * (1.0 + abs(u))
        sign = rng.choice([1.0, -1.0])
        kind = i % 6
        if kind == 0:
            lam = complex(m * rng.uniform(-3.0, 3.0), m * rng.uniform(-3.0, 3.0))
        elif kind == 1:
            lam = complex(rng.choice([0.0, -0.0]), sign * rng.uniform(gap, 3.0 * m))  # on a cut
        elif kind == 2:
            lam = complex(rng.choice([0.0, -0.0]), sign * rng.choice([gap, top]))  # a threshold
        elif kind == 3:
            lam = complex(m * rng.uniform(-3.0, 3.0), rng.choice([0.0, -0.0]))
        elif kind == 4:
            lam = complex(sign * 10.0 ** rng.uniform(-14.0, -6.0), rng.uniform(-3.0, 3.0) * m)  # next to a cut
        else:
            lam = complex(rng.choice([0.0, -0.0]), sign * rng.uniform(0.0, gap))  # in the gap
        pairs.append((ModelParams(m, m * u, 0.3), lam, sheets[i % 4] if i % 5 == 0 else PHYSICAL))
    return pairs


class TestCandidateTestPins:
    """The candidate test's inputs and decisions on both paths, pinned to the bit."""

    # SHA-256 over _cell_candidates' lam, accept, open_cells and delta (NaN
    # written as one pattern) at the 1,500 _decision_cells, for m in (1, 3.7)
    # and q_offset in (0, 1e-3)
    CELLS_SHA256 = "18997de1e9b05f1535f982aa56bb42c9b02d2747f892e725c282dab2083e4eeb"
    # SHA-256 over float.hex of both exponents at the 2,400 _nu_pairs
    NU_SHA256 = "a0a75eb5caf5c61d34f3e5aa6215a4568d00e41d29eee895b321d0b0538901f4"

    def test_cell_decisions_are_pinned(self):
        us, ks = _decision_cells()
        h = hashlib.sha256()
        for m in (1.0, 3.7):
            for q_offset in (0.0, 1e-3):
                _, _, lam, accept, open_cells, delta = dispersion._cell_candidates(
                    m, np.array([m * u for u in us]), np.array(ks), q_offset)
                for arr in (lam.real, lam.imag, delta):
                    h.update(np.where(np.isnan(arr), math.nan, arr).tobytes())
                h.update(accept.tobytes() + open_cells.tobytes())
        assert h.hexdigest() == self.CELLS_SHA256

    def test_exponents_are_pinned(self):
        h = hashlib.sha256()
        for p, lam, sheet in _nu_pairs():
            nup, num = nu_pm(p, lam, sheet)
            h.update(f"{nup.real.hex()} {nup.imag.hex()} {num.real.hex()} {num.imag.hex()};".encode())
        assert h.hexdigest() == self.NU_SHA256


class TestCriticalCurves:
    def test_special_values(self):
        assert virtual_level_frequency(1.0, 0.0) == pytest.approx(1.0 / 3.0)
        assert virtual_level_exponent(1.0, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-14)
        assert virtual_level_frequency(1.0, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0)
        assert virtual_level_exponent(1.0, 0.0) == -0.5

    def test_collision_curve(self):
        assert collision_exponent_frequency(1.0, 0.25) == 0.5
        assert math.isnan(collision_exponent_frequency(1.0, -0.1))

    def test_inverse_identity(self):
        ks = np.linspace(-0.5, 1.0 / math.sqrt(2.0) - 1e-9, 100)
        for k in ks:
            t = virtual_level_frequency(1.0, float(k))
            assert virtual_level_exponent(1.0, t) == pytest.approx(float(k), abs=1e-10)

    def test_alternate_closed_form(self):
        # K also equals (sqrt(w^2/m^2 + w/m) + w/m - 1)/2 for w >= 0
        for w in np.linspace(0.0, 0.95, 20):
            alt = 0.5 * (math.sqrt(w * w + w) + w - 1.0)
            assert virtual_level_exponent(1.0, float(w)) == pytest.approx(alt, abs=1e-12)


class TestClassification:
    def test_zero_cluster_flag(self):
        # in a ~1e-7 shell around kappa = -1 a resonance crosses zero and is
        # accepted at the double root there
        rep = classify_point_spectrum(ModelParams(1.0, 0.3, -1.0 - 1e-10))
        assert rep.region is RegionCode.ZERO_ONLY
        assert rep.flags == ("zero-cluster",)
        assert rep.nonzero_values() == ()

    def test_virtual_level_curve_meets_the_line(self):
        # at |omega| = m/3 on kappa = 0 the embedded pair +-2i omega sits at the threshold
        rep = classify_point_spectrum(ModelParams(1.0, 0.3333333333333333, 0.0))
        assert rep.region is RegionCode.IMAGINARY_PAIR
        assert rep.flags == ("virtual-level-curve-at-kappa-zero",)
        assert sorted(rep.nonzero_values(), key=lambda z: z.imag) == pytest.approx([-2j / 3, 2j / 3])

    @staticmethod
    def _classify_accepting(monkeypatch, p, roots):
        # the pick sees only the accepted candidates, so hand it these as the cubic's
        cands = [RootCandidate(z, PHYSICAL, 0.0, 1.0, True, 0, z * z, z * z) for z in roots]
        monkeypatch.setattr(dispersion, "_unit_candidates", lambda *_: cands)
        return classify_point_spectrum(p)

    def test_region_pair_rejects_an_asymmetric_pick(self, monkeypatch):
        # (1, 0, 1) is RealPair, and the pick's 2|Im z| = 7e-8 exceeds 1e-8 (1 + |z|)
        with pytest.raises(ClassificationError, match=re.escape("breaks +-/conjugation symmetry at (4+3.5e-08j)")):
            self._classify_accepting(monkeypatch, ModelParams(1.0, 0.0, 1.0), [4 + 3.5e-8j])

    def test_region_pair_rejects_stray_roots_in_zero_only(self, monkeypatch):
        # (1, 0.5, -0.2) is ZeroOnly, and 0.5 is neither at the threshold, at zero nor on the cut
        with pytest.raises(ClassificationError, match=re.escape("unexpected accepted roots [(0.5+0j)] in units of m")):
            self._classify_accepting(monkeypatch, ModelParams(1.0, 0.5, -0.2), [0.5 + 0j])

    def test_embedded_pair(self):
        rep = classify_point_spectrum(ModelParams(1.0, 0.5, 0.0))
        vals = sorted(rep.nonzero_values(), key=lambda z: z.imag)
        assert vals == pytest.approx([-1j, 1j], abs=1e-12)
        assert all(e.embedded for e in rep.points.entries if e.value != 0)
        assert (rep.jordan_at_zero.geometric, rep.jordan_at_zero.algebraic) == (2, 2)

    def test_real_pair(self):
        rep = classify_point_spectrum(ModelParams(1.0, 0.0, 1.0))
        vals = sorted(z.real for z in rep.nonzero_values())
        want = 2.0 * math.sqrt(2.0)
        assert vals == pytest.approx([-want, want], abs=1e-9)

    def test_zero_only_for_strongly_softening(self):
        rep = classify_point_spectrum(ModelParams(1.0, 0.9, -0.3))
        assert rep.nonzero_values() == ()
        assert rep.virtual_levels == ()

    def test_virtual_level_curve_point(self):
        rep = classify_point_spectrum(ModelParams(1.0, 0.8, 0.5))
        assert rep.nonzero_values() == ()
        assert sorted(v.imag for v in rep.virtual_levels) == pytest.approx([-0.2, 0.2])
        assert "virtual-level" in rep.flags

    def test_threshold_overlap_point(self):
        rep = classify_point_spectrum(ModelParams(1.0, 0.0, -0.5))
        assert sorted(v.imag for v in rep.virtual_levels) == pytest.approx([-1.0, 1.0])
        assert "threshold-overlap" in rep.flags

    def test_no_virtual_levels_at_outer_thresholds(self):
        # scan the exponent range: D never vanishes at +-i(m+|omega|), omega != 0
        p0 = ModelParams(1.0, 0.4, 0.0)
        outer = 1j * (p0.m + abs(p0.omega))
        for k in np.linspace(-3.0, 3.0, 61):
            p = ModelParams(1.0, 0.4, float(k))
            val = abs(D_eval(p, outer))
            assert val > 1e-6 * residual_scale(p, outer)

    def test_symmetry_of_reported_spectrum(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = ModelParams(1.0, rng.uniform(-0.9, 0.9), rng.uniform(-1.9, 1.9))
            rep = classify_point_spectrum(p)
            vals = list(rep.points.values())
            for v in vals:
                assert any(abs(v.conjugate() - u) <= 1e-8 * (1 + abs(v)) for u in vals)
                assert any(abs(-v - u) <= 1e-8 * (1 + abs(v)) for u in vals)

    def test_json_roundtrip(self):
        import json

        rep = classify_point_spectrum(ModelParams(1.0, 0.5, 0.0))
        data = json.loads(rep.to_json(verbose=True))
        assert data["schema"] == 1
        assert data["verdict"] == "stable"
        assert data["jordan_at_zero"] == {"geometric": 2, "algebraic": 2}
        assert len(data["candidates"]) >= 2


    def test_frequency_direction_virtual_level_band(self):
        # kappa - K(omega) = 1.2e-10 lies outside the band, |omega| - T(kappa)
        # = -8.3e-11 inside it: the point is on the virtual-level curve
        w, k = 0.1, -0.2841687603650198
        assert k - virtual_level_exponent(1.0, w) > BOUNDARY_TOL
        assert abs(w - virtual_level_frequency(1.0, k)) <= BOUNDARY_TOL
        rep = classify_point_spectrum(ModelParams(1.0, w, k))
        assert "virtual-level" in rep.flags
        assert rep.region is RegionCode.VIRTUAL_LEVEL_BOUNDARY

    @pytest.mark.parametrize("k", [-1e-12, 1e-12, -BOUNDARY_TOL])
    def test_kappa_line_is_a_band(self, k):
        rep = classify_point_spectrum(ModelParams(1.0, 0.95, k))
        assert rep.region is RegionCode.EMBEDDED_PAIR
        vals = sorted(rep.nonzero_values(), key=lambda z: z.imag)
        assert vals == pytest.approx([-1.9j, 1.9j], abs=1e-9)
        assert "embedded" in rep.flags

    @pytest.mark.parametrize("w,k,band", [(5e-6, 8e-11, BOUNDARY_TOL), (5e-4, 8e-7, 1e-6)])
    def test_kolokolov_band_wins_over_kappa_line_band(self, w, k, band):
        # 0 < kappa <= band and |kappa - omega^2| <= band: kappa > omega^2,
        # so the point has a real pair, not the line's imaginary one
        rep = classify_point_spectrum(ModelParams(1.0, w, k), boundary_tol=band)
        assert rep.region is RegionCode.KOLOKOLOV_CRITICAL
        assert rep.flags == ("kolokolov-critical",)

    def test_origin_band_only_on_the_exact_line(self):
        # |kappa|, |omega| <= band, just outside the Kolokolov band: the
        # in-gap pair of size sqrt(|kappa|) is resolved, unlike the pair
        # +-2i*omega of the exact line
        rep = classify_point_spectrum(ModelParams(1.0, 1e-9, -BOUNDARY_TOL))
        assert rep.region is RegionCode.IMAGINARY_PAIR
        vals = sorted(rep.nonzero_values(), key=lambda z: z.imag)
        assert vals == pytest.approx([-2e-5j, 2e-5j], rel=1e-6)
        assert classify_point_spectrum(ModelParams(1.0, 1e-9, 0.0)).region is (
            RegionCode.KOLOKOLOV_CRITICAL
        )

    @pytest.mark.parametrize("w,k", [(0.95, -1e-6), (0.95, 1e-6), (0.5, -8e-5)])
    def test_on_cut_root_off_the_kappa_line_is_a_resonance(self, w, k):
        # the embedded pair of kappa = 0 leaves the physical sheet, but for
        # small |kappa| its residual cannot tell it from a root on the cut
        rep = classify_point_spectrum(ModelParams(1.0, w, k))
        assert rep.region is RegionCode.ZERO_ONLY
        assert rep.nonzero_values() == ()
        assert "on-cut-resonance" in rep.flags


class TestRegionsAgainstThePaper:
    """Report contents against the paper's region inequalities, restated here.

    The classifier builds each report for the region :func:`region_code`
    decides, so comparing the two would check nothing.  This test writes the
    inequalities out again: ``kappa`` against ``omega^2/m^2``, ``|omega|``
    against the virtual-level curve ``T(kappa) = m (1+2 kappa)^2 / (3+4 kappa)``
    (increasing for ``kappa >= -1/2``), and the line ``kappa = 0``.  Cells
    within ``CLEAR`` of a curve, in either coordinate, are skipped.
    """

    CLEAR = 2e-6

    @staticmethod
    def _below_virtual_curve(m, w, k):
        return k >= -0.5 and abs(w) < m * (1.0 + 2.0 * k) ** 2 / (3.0 + 4.0 * k)

    def _expected(self, m, w, k):
        aw, clear = abs(w), self.CLEAR
        if k == 0.0:
            if aw <= clear or abs(aw - m / 3.0) <= clear:
                return None
            return "EmbeddedPair" if aw > m / 3.0 else "ImaginaryPair"
        if abs(k) <= clear or abs(k - (w / m) ** 2) <= clear:
            return None
        if k > 0.0 and abs(aw - m * math.sqrt(k)) <= clear:
            return None
        if k > (w / m) ** 2:
            return "RealPair"
        sides = {self._below_virtual_curve(m, w, k + d) for d in (-clear, 0.0, clear)}
        sides |= {self._below_virtual_curve(m, w + d, k) for d in (-clear, clear)}
        if len(sides) > 1:
            return None
        return "ImaginaryPair" if sides.pop() else "ZeroOnly"

    def test_seeded_cells(self):
        rng = np.random.default_rng(20261018)
        cells = []
        for _ in range(300):
            m = rng.uniform(0.5, 2.0)
            cells.append((m, m * rng.uniform(-0.98, 0.98), rng.uniform(-2.5, 3.0)))
        for _ in range(40):
            m = rng.uniform(0.5, 2.0)
            cells.append((m, m * rng.uniform(-0.98, 0.98), 0.0))
        # either side of the embedding onset |omega| = m/3 on the line
        cells += [(1.0, s * (1.0 / 3.0 + d), 0.0) for s in (-1, 1) for d in (-1e-5, 1e-5, -1e-3, 1e-3)]
        seen = set()
        for m, w, k in cells:
            want = self._expected(m, w, k)
            if want is None:
                continue
            seen.add(want)
            p = ModelParams(m, w, k)
            rep = classify_point_spectrum(p)
            assert rep.region.value == want, (m, w, k)
            vals = rep.nonzero_values()
            if want == "ZeroOnly":
                assert vals == (), (m, w, k)
                continue
            assert len(vals) == 2 and vals[1] == -vals[0], (m, w, k)
            lam = max(vals, key=lambda z: (z.real, z.imag))
            assert abs(D_eval(p, lam)) <= 1e-9 * residual_scale(p, lam), (m, w, k)
            embedded = [e.embedded for e in rep.points.entries if e.value != 0]
            gap = m - abs(w)
            if want == "RealPair":
                assert lam.imag == 0.0 and lam.real > 0.0, (m, w, k)
            else:
                assert lam.real == 0.0 and lam.imag > 0.0, (m, w, k)
                assert (lam.imag >= gap) == (want == "EmbeddedPair"), (m, w, k)
                assert embedded == [want == "EmbeddedPair"] * 2, (m, w, k)
        assert seen == {"RealPair", "ImaginaryPair", "EmbeddedPair", "ZeroOnly"}

class TestRegions:
    def test_real_iff_beyond_collision_curve(self):
        rng = np.random.default_rng(4)
        for _ in range(120):
            w = rng.uniform(-0.9, 0.9)
            k = rng.uniform(-1.9, 1.9)
            if min(abs(k), abs(k - w * w), abs(k - virtual_level_exponent(1.0, w))) < 1e-3:
                continue
            got = accepted_roots(ModelParams(1.0, w, k))
            has_real = any(abs(z.imag) <= 1e-8 * abs(z) for z in got)
            has_imag = any(abs(z.real) <= 1e-8 * abs(z) for z in got if z != 0)
            assert has_real == (k > w * w)
            in_window = virtual_level_exponent(1.0, w) < k < w * w
            assert (has_imag and not has_real) == (in_window and k != 0.0)

    def test_pair_collapses_at_collision_curve(self):
        w = 0.5
        sizes = []
        for defect in (1e-2, 1e-3, 1e-4, 1e-5):
            got = accepted_roots(ModelParams(1.0, w, w * w + defect))
            sizes.append(max(abs(z) for z in got))
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] < 0.02

    def test_imaginary_root_reaches_threshold_on_curve(self):
        k = 0.3
        t_star = virtual_level_frequency(1.0, k)
        gaps = []
        for defect in (1e-2, 1e-3, 1e-4):
            w = t_star - defect
            got = [z for z in accepted_roots(ModelParams(1.0, w, k)) if z.imag > 0]
            assert len(got) == 1
            gaps.append((1.0 - w) - got[0].imag)
        assert all(g >= -1e-12 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4


def _report_or_error(p: ModelParams):
    try:
        return classify_point_spectrum(p)
    except ClassificationError as exc:
        return str(exc)


def _bits(report, m: float = 1.0) -> tuple:
    """What a report says, its values times ``m`` and spelled out bit for bit."""
    if isinstance(report, str):
        return (report,)

    def times(scale, z):
        return ((scale * z.real).hex(), (scale * z.imag).hex())

    m2 = m * m
    return (
        report.region, report.verdict, report.flags, report.jordan_at_zero,
        [(times(m, e.value), e.geometric_mult, e.algebraic_mult, e.embedded)
         for e in report.points.entries],
        [(times(m, c.lam), c.sheet, (m2 * c.residual).hex(), (m2 * c.scale).hex(), c.accepted,
          c.source, times(m2, c.x), times(m2, c.y)) for c in report.candidates],
    )


class TestHomogeneity:
    """``D(m l; m, m w, kappa) = m^2 D(l; 1, w, kappa)``: the report at mass
    ``m`` is the report at ``m = 1`` with its values times ``m``."""

    @settings(max_examples=150, deadline=None)
    @given(j=st.integers(-250, 250), w=st.floats(-0.99, 0.99), kappa=st.floats(-2.0, 2.0))
    def test_powers_of_two_scale_bit_for_bit(self, j, w, kappa):
        m = 2.0**j
        want = _report_or_error(ModelParams(1.0, w, kappa))
        got = _report_or_error(ModelParams(m, m * w, kappa))
        assert _bits(got) == _bits(want, m)
        if not isinstance(got, str):
            assert got.ess.thresholds == tuple(m * t for t in want.ess.thresholds)
            assert got.virtual_levels == tuple(complex(0.0, m * v.imag) for v in want.virtual_levels)

    @settings(max_examples=150, deadline=None)
    @given(e=st.floats(-100.0, 100.0), w=st.floats(-0.99, 0.99), kappa=st.floats(-2.0, 2.0))
    # m - |omega| rounds to m here but 1 - |omega|/m does not to 1: the
    # thresholds coincide by the omega = 0 rule, not by how m rounds
    @example(e=0.03125, w=9.752760135287826e-17, kappa=0.0)
    def test_any_mass_matches_its_unit_point(self, e, w, kappa):
        m = 10.0**e
        p = ModelParams(m, m * w, kappa)
        want = _report_or_error(ModelParams(1.0, p.omega / m, kappa))
        got = _report_or_error(p)
        # region, verdict, flags and Jordan block are equal, and the values
        # are the unit ones times m
        assert _bits(got) == _bits(want, m)
        if isinstance(got, str):
            return
        # the thresholds are formed from m and omega: a few ulps of m
        ulps = 4.0 * np.finfo(float).eps * m
        for a, b in zip(got.ess.thresholds, want.ess.thresholds, strict=True):
            assert abs(a - m * b) <= ulps
        for a, b in zip(got.virtual_levels, want.virtual_levels, strict=True):
            assert abs(a - m * b) <= ulps

    @pytest.mark.parametrize("m", [1e-6, 2.0, 1e6])
    def test_overflowing_kappa_raises_at_any_mass(self, m):
        # the cubic in units of m overflows from |kappa| alone
        with pytest.raises(CubicOverflow, match=re.escape("kappa = 1e+80")):
            classify_point_spectrum(ModelParams(m, 0.1 * m, 1e80))

    @pytest.mark.parametrize(
        "fn",
        [cubic_data, candidate_roots, accepted_roots, classify_point_spectrum,
         pytest.param(lambda p: oracle_mismatches(p, accepted_roots(p)), id="oracle_mismatches")],
        ids=lambda fn: fn.__name__,
    )
    def test_overflow_names_the_callers_mass(self, fn):
        # the unit cubic that overflows is at m = 1; the message names the caller's m
        with pytest.raises(CubicOverflow, match=re.escape("at m = 2, kappa = 1e+80")):
            fn(ModelParams(2.0, 0.1, 1e80))

    @pytest.mark.parametrize("q_offset", [0.0, 1e-3])
    @pytest.mark.parametrize("m", [1e-3, 2.0, 7.0])
    @pytest.mark.parametrize("w, kappa", [(0.0, 1.0), (0.5, 0.2), (0.3, 0.8), (0.55, 0.28)])
    def test_q_offset_acts_on_the_unit_cubic(self, m, q_offset, w, kappa):
        # q_offset moves the q of the cubic in units of m, at every mass; the
        # roots are the unit ones times m, bit for bit
        p = ModelParams(m, m * w, kappa)
        unit = ModelParams(1.0, p.omega / m, kappa)

        def bits(zs, scale=1.0):
            return [(scale * z.real).hex() + (scale * z.imag).hex() for z in zs]

        want = accepted_roots(unit, q_offset)
        assert bits(accepted_roots(p, q_offset)) == bits(want, m)
        assert bool(want) == (q_offset == 0.0)  # the injected fault loses the pair
        got = [c.lam for c in candidate_roots(p, q_offset)]
        assert bits(got) == bits([c.lam for c in candidate_roots(unit, q_offset)], m)

    def test_q_offset_moves_q_by_its_share_of_one_plus_q(self):
        p = ModelParams(7.0, 2.1, 0.8)
        cd = cubic_data(ModelParams(1.0, 0.3, 0.8))
        q = cd.q + 1e-3 * (1.0 + abs(cd.q))
        moved = CubicData(cd.c, cd.p, q, -4.0 * cd.p**3 - 27.0 * q * q)
        ys = cubic_roots(moved)
        cands = candidate_roots(p, 1e-3)
        assert cands and all(c.y == 49.0 * ys[c.source] for c in cands)
        assert all(c.x == 49.0 * (ys[c.source] - 2.0 * cd.c / 3.0) for c in cands)


class TestAccuracyNextToKappaZero:
    """In-gap eigenvalues next to ``kappa = 0`` against mpmath at 60 digits
    (``|D| < 1e-60`` at each reference), to 1e-9 relative.

    On the line the x-cubic has a double root at ``x = -4 omega^2``; next to
    it the cubic loses digits, and the pipeline's eigenvalue is off in its
    7th or 8th digit.  Strict xfails: a fix has to flip them.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the x-cubic loses digits next to its double root at kappa = 0")
    @pytest.mark.parametrize(
        "omega, kappa, want",
        [(0.004146255518095332, -5.078951433191282e-08, 0.0083047512810303242),
         (0.21945528549068993, -4.9711560136091826e-05, 0.43912611967998459)],
    )
    def test_in_gap_eigenvalue(self, omega, kappa, want):
        values = classify_point_spectrum(ModelParams(1.0, omega, kappa)).nonzero_values()
        assert abs(max(values, key=lambda z: z.imag) - 1j * want) <= 1e-9 * want


class TestAccuracyOnKappaZero:
    """The pair on ``kappa = 0`` against its closed form ``+-2i omega``, to
    1e-12 relative.

    The cubic's coefficients cancel on the line, so at ``omega/m = 1e-4`` the
    pair is off by 8.1e-9 at any mass, and at ``1e-6`` by 4.4e-5
    (``spectrum -m 1 -w 1e-6 -k 0`` prints ``0+2.0000889e-06j``).  ``validate
    --at 1,1e-6,0`` still passes, because the root lies below the oracle's
    window of ``1e-3 m``.  Strict xfails: a fix has to flip them.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP \"Fix first\" item 4: the cubic's coefficients cancel on kappa = 0")
    @pytest.mark.parametrize("m, omega", [(1.0, 1e-4), (1000.0, 0.1), (1.0, 1e-6)])
    def test_pair_is_the_closed_form(self, m, omega):
        values = classify_point_spectrum(ModelParams(m, omega, 0.0)).nonzero_values()
        assert sorted(z.imag for z in values) == pytest.approx([-2 * omega, 2 * omega], rel=1e-12, abs=0)
        assert all(z.real == 0 for z in values)


class TestLargeKappaEnds:
    """The two ends of the ``kappa`` axis, where nothing else looks.

    As ``kappa -> +inf`` the real pair follows ``alpha kappa + alpha/2 +
    O(1/kappa)``; in float64 the pair's own rounding, ``4 eps`` of it,
    takes over from ``kappa ~ 1e8``.  As ``kappa -> -inf`` no eigenvalue
    but zero is left.
    """

    @pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12, 1e16, 1e20, 1e24])
    @pytest.mark.parametrize("omega", [0.1, 0.5])
    def test_real_pair_follows_its_limit(self, omega, kappa):
        p = ModelParams(1.0, omega, kappa)
        report = classify_point_spectrum(p)
        assert report.region is RegionCode.REAL_PAIR
        values = report.nonzero_values()
        limit = p.alpha * kappa + p.alpha / 2
        bound = p.alpha * kappa * max(kappa ** -2, 4 * sys.float_info.epsilon)
        assert sorted(z.real for z in values) == pytest.approx([-limit, limit], rel=0, abs=bound)
        assert all(z.imag == 0 for z in values)

    @pytest.mark.parametrize("kappa", [-1e2, -1e4, -1e8, -1e12])
    @pytest.mark.parametrize("omega", [0.0, 0.5, 0.9])
    def test_no_eigenvalue_but_zero(self, omega, kappa):
        report = classify_point_spectrum(ModelParams(1.0, omega, kappa))
        assert report.region is RegionCode.ZERO_ONLY
        assert report.nonzero_values() == ()


def _mp_small_root(omega: float, kappa: float) -> float:
    """``|lambda|`` of the small pair at ``(1, omega, kappa)``: a root of ``D``
    by mpmath at 60 digits, on the real axis for ``kappa > 1`` and in the gap
    below, found from the limit ``kap^2 kappa sqrt|kappa^2 - 1|``."""
    import mpmath as mp

    with mp.workdps(60):
        w, k = mp.mpf(omega), mp.mpf(kappa)
        a = 2 * mp.sqrt(1 - w * w)
        axis = 1 if kappa > 1 else 1j

        def d(t):  # real on both axes
            lam = axis * t
            nup, num = mp.sqrt(1 - (w + 1j * lam) ** 2), mp.sqrt(1 - (w - 1j * lam) ** 2)
            return mp.re(a * a * (1 + k) ** 2 - 2 * (nup + num) * a * (1 + k) + 4 * nup * num - a * a * k * k)

        t0 = (1 - w * w) * k * mp.sqrt(abs(k * k - 1))
        t = mp.findroot(d, t0)
        assert abs(d(t)) < mp.mpf(10) ** -50 and abs(t / t0 - 1) < 0.1
        return float(t)


class TestNonrelativisticLimit:
    """The small pair as ``omega -> m`` against mpmath, to 1e-12 relative.

    There ``x = lambda^2`` is of order ``kap^4``, while ``candidate_roots``
    forms ``x = y - 2c/3`` with ``c`` near 4, so ``x`` keeps an absolute
    error of about ``eps c`` and falls below ``_X_FLOOR`` altogether.  The
    first two points raise ``ClassificationError``; at the third ``validate
    --at`` passes with ``3.354395362e-5``, because the root lies below the
    oracle's window of ``1e-3 m``.  Strict xfails: a fix has to flip them.
    """

    @pytest.mark.xfail(strict=True, raises=(ClassificationError, AssertionError),
                       reason='ROADMAP "Fix first" item 1: the classifier loses the small root as omega -> m')
    @pytest.mark.parametrize("omega, kappa", [(0.99999, 0.9), (0.9999999, 1.5), (0.99999, 1.5)])
    def test_small_pair(self, omega, kappa):
        want = _mp_small_root(omega, kappa)
        upper = want if kappa > 1 else 1j * want
        values = classify_point_spectrum(ModelParams(1.0, omega, kappa)).nonzero_values()
        assert len(values) == 2 and any(abs(z - upper) <= 1e-12 * want for z in values)


class TestLargeExponent:
    def test_discriminant_negative_for_large_coupling_exponent(self):
        for k in (100.0, -100.0):
            for w in np.linspace(-0.95, 0.95, 20):
                assert cubic_data(ModelParams(1.0, float(w), k)).delta < 0.0

    @pytest.mark.parametrize("k", [50.0, 100.0])
    def test_real_root_beyond_alpha_kappa(self, k):
        p = ModelParams(1.0, 0.5, k)
        got = [z.real for z in accepted_roots(p) if z.real > 0]
        assert len(got) == 1
        assert got[0] ** 2 > (p.alpha * k) ** 2


class TestJordanOrderOracle:
    @pytest.mark.parametrize("kappa,order", [(0.1, 2), (0.25, 4)])
    def test_zero_root_order_matches_jordan(self, kappa, order):
        # slope of log|D| against log t near zero equals the algebraic
        # multiplicity of the zero eigenvalue (generic vs collision point);
        # the window keeps t**4 above evaluation roundoff
        p = ModelParams(1.0, 0.5, kappa)
        ts = np.geomspace(1e-3, 1e-2, 9)
        vals = np.array([abs(D_eval(p, float(t))) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope == pytest.approx(order, abs=0.2)


def _grid(omega_min, omega_max, omega_step, kappa_min, kappa_max, kappa_step):
    # the cells of a scan grid, as ScanConfig lays them out
    ws = [round(omega_min + i * omega_step, 12) for i in range(round((omega_max - omega_min) / omega_step) + 1)]
    ks = [round(kappa_min + j * kappa_step, 12) for j in range(round((kappa_max - kappa_min) / kappa_step) + 1)]
    return [(w, k) for w in ws for k in ks]


class TestClassifyCells:
    """:func:`_classify_arrays` at many cells against the scalar classifier."""

    @pytest.mark.parametrize(
        "cells",
        [
            _grid(-0.96, 0.96, 0.02, -2.0, 2.0, 0.05),  # the README grid
            # a zoom onto the Kolokolov curve and the line kappa = 0, where
            # many cells take the three-real-root (arccos) branch of the cubic
            random.Random(3).sample(_grid(-0.3, 0.3, 0.003, -0.6, 0.1, 0.004), 6000),
        ],
        ids=["readme-grid", "kolokolov-zoom"],
    )
    def test_values_are_the_scalar_bits(self, cells):
        # every cell the array path decides carries the region, eigenvalue
        # pair and discriminant of the scalar path, to the last bit
        got = _cells(1.0, [w for w, _ in cells], [k for _, k in cells], 1e-6)
        decided = 0
        for (w, k), res in zip(cells, got):
            if res is None:
                continue
            decided += 1
            p = ModelParams(1.0, w, k)
            report = classify_point_spectrum(p, boundary_tol=1e-6)
            code, pair, delta = res
            assert code is report.region
            assert delta == cubic_data(p).delta
            assert report.nonzero_values() == (() if pair is None else (pair, -pair))
        assert decided >= 0.95 * len(cells)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1e-7, -1e-12])
    def test_discriminant_band_keeps_the_scalar_bits(self, kappa):
        # cells in the double-root band of cubic_roots are decided here with
        # its own formulas, so pair and discriminant are the scalar bits
        omegas = [round(-0.96 + 0.005 * i, 12) for i in range(385)]
        got = _cells(1.0, omegas, [kappa] * len(omegas), 1e-10)
        in_band = 0
        for w, res in zip(omegas, got):
            p = ModelParams(1.0, w, kappa)
            cd = cubic_data(p)
            in_band += abs(cd.delta) <= 1e-12 * max(abs(cd.p) ** 3, cd.q * cd.q)
            if res is None:
                continue
            code, pair, delta = res
            report = classify_point_spectrum(p, boundary_tol=1e-10)
            assert (code, delta) == (report.region, cd.delta)
            assert report.nonzero_values() == (() if pair is None else (pair, -pair))
        assert in_band >= 380
        assert sum(res is None for res in got) <= 2

    def test_open_where_a_power_overflows(self):
        # kappa**4 overflows, so the scalar pipeline raises OverflowError there
        with pytest.raises(OverflowError):
            cubic_data(ModelParams(1.0, 0.1, 1e80))
        got = _cells(1.0, [0.1, 0.1], [1e80, 0.3], 1e-6)
        assert got[0] is None and got[1] is not None


def _root_hex(roots: list[complex]) -> list[tuple[str, str]]:
    """Both parts of each root as ``float.hex``, which tells ``-0.0`` from ``0.0``."""
    return [(z.real.hex(), z.imag.hex()) for z in roots]


@st.composite
def _cells_near_the_lines(draw):
    """A mass, a ``q_offset`` and up to 24 valid cells, many within 1e-9 of
    ``kappa = 0``, ``omega^2/m^2`` or ``K(omega)``."""
    m = draw(st.sampled_from([1e-3, 1.0, 7.0]))
    signed_zero = st.sampled_from([0.0, -0.0])
    # a few omega/m values, shared by several cells as on a grid
    us = draw(st.lists(
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True) | signed_zero, min_size=1, max_size=4))
    # offsets of every scale up to 1e-9
    scaled = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-16.0, -9.0))
    cells = []
    for _ in range(draw(st.integers(1, 24))):
        u = draw(st.sampled_from(us))
        off = draw(st.floats(-1e-9, 1e-9) | scaled | signed_zero)
        near = draw(st.sampled_from(["free", "zero", "kolokolov", "virtual"]))
        if near == "free":
            kappa = draw(st.floats(-3.0, 3.0))
        elif near == "zero":
            kappa = off  # 0.0 + off would turn a -0.0 into 0.0
        else:
            kappa = (u * u if near == "kolokolov" else virtual_level_exponent(1.0, u)) + off
        w = m * u  # may round onto |omega| = m, outside the domain
        cells.append((w if abs(w) < m else math.copysign(math.nextafter(m, 0.0), w), kappa))
    return m, draw(st.sampled_from([0.0, 1e-3])), cells


class TestAcceptedCells:
    """:func:`accepted_cells` gives :func:`accepted_roots` at each cell, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=_cells_near_the_lines())
    def test_roots_are_the_scalar_roots(self, case):
        m, q_offset, cells = case
        got = accepted_cells(m, [w for w, _ in cells], [k for _, k in cells], q_offset)
        want = [accepted_roots(ModelParams(m, w, k), q_offset) for w, k in cells]
        assert [_root_hex(r) for r in got] == [_root_hex(r) for r in want]

    @pytest.mark.parametrize("q_offset", [0.0, 1e-3])
    @pytest.mark.parametrize("m", [1e-3, 1.0, 7.0])
    def test_validate_grid(self, monkeypatch, m, q_offset):
        # the oracle suite's grid, whose open cells go to accepted_roots
        points = _validate_grid(m)
        want = [accepted_roots(p, q_offset) for p in points]
        scalar = []
        monkeypatch.setattr(dispersion, "accepted_roots", lambda p, q: scalar.append(p) or want[points.index(p)])
        got = accepted_cells(m, [p.omega for p in points], [p.kappa for p in points], q_offset)
        assert [_root_hex(r) for r in got] == [_root_hex(r) for r in want]
        # without a fault the arrays decide all but one cell; near misses of
        # the faulty cubic need accepted_roots' Newton steps
        assert len(scalar) == 1 if q_offset == 0.0 else 0 < len(scalar) < len(points) / 2

    @pytest.mark.parametrize("m, omega, kappa", [(1.0, 1.0, 0.2), (2.0, -2.5, 0.2), (0.0, 0.0, 0.2),
                                                  (1.0, 0.5, math.inf), (1.0, math.nan, 0.2)])
    def test_cells_outside_the_domain_raise(self, m, omega, kappa):
        with pytest.raises(ValueError):
            ModelParams(m, omega, kappa)
        with pytest.raises(ValueError):
            accepted_cells(m, [0.1 * m, omega], [0.3, kappa])


class TestArrayPathHelpers:
    def test_axis_values_are_kept_apart_by_bit_pattern(self):
        cells = np.array([0.5, -0.0, 0.0, 0.5, -0.0])
        values, where = _distinct_bits(cells)
        assert len(values) == 3
        assert np.array_equal(values[where].view(np.int64), cells.view(np.int64))


class TestOracle:
    @pytest.mark.parametrize("m", [1e-9, 1.0, 1e6])
    def test_pair_is_not_merged_at_small_mass(self, m):
        # the same-point tolerance is 1e-8 in units of m
        roots = accepted_roots(ModelParams(m, 0.0, 1.0))
        assert sorted(z.real for z in roots) == pytest.approx(
            [-2.0 * math.sqrt(2.0) * m, 2.0 * math.sqrt(2.0) * m], rel=1e-12
        )

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_root_on_the_first_mesh_point_is_out_of_both_sets(self, m):
        # the pair +-2i omega lies just under 1e-3 m, and the scan puts a root
        # on that mesh point: neither is compared
        p = ModelParams(m, 0.0005 * m, 0.0)
        assert axis_scan_roots(p)[1][0] == pytest.approx(1e-3 * m, rel=1e-9)
        assert oracle_mismatches(p, accepted_roots(p)) == []

    def test_axis_scan_finds_known_roots(self):
        real_roots, gap_roots = axis_scan_roots(ModelParams(1.0, 0.0, 1.0))
        assert len(real_roots) == 1
        assert real_roots[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert gap_roots == []

    @pytest.mark.parametrize("kappa", [1e154, 1e155, 1e200, -1e200, 1.7e308, -1.7e308])
    def test_overflowing_kappa_raises_the_typed_error(self, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CubicOverflow, match=re.escape(f"m = 1, kappa = {kappa:g}") + "$"):
                axis_scan_roots(ModelParams(1.0, 0.5, kappa))

    @pytest.mark.parametrize("kappa", [1e10, 1e12, 1e14, 1e17, 1e100])
    def test_no_spurious_root_at_large_kappa(self, kappa):
        # the only roots are the pipeline's +-sqrt(3) kappa, far beyond the
        # real-axis window; unfolded, alpha^2 (1+kappa)^2 - alpha^2 kappa^2
        # cancels and the scan finds 1, 13, 69, then every mesh point
        assert axis_scan_roots(ModelParams(1.0, 0.5, kappa)) == ([], [])

    @pytest.mark.parametrize("kappa", [2.0**20, -2.0**20, 2.0**21, -2.0**21, 1e8])
    def test_folded_determinant_keeps_the_roots_at_the_gate(self, kappa):
        # the folded D finds the cubic pipeline's roots in the window at
        # |kappa| from 2^20, where the squares of alpha^2 ((1+kappa)^2 -
        # kappa^2) cancel in about 20 bits; next to omega = m the pair
        # lambda ~ alpha kappa enters the real-axis window when kappa > 0
        found = 0
        for omega in [0.5, 1.0 - 1e-13, math.nextafter(1.0, 0.0)]:
            p = ModelParams(1.0, omega, kappa)
            real, gap = axis_scan_roots(p)
            want = [z.real for z in accepted_roots(p) if z.imag == 0.0 and 1e-3 < z.real < 3.0]
            assert gap == []
            assert real == pytest.approx(want, rel=1e-9, abs=0.0)
            found += len(real)
        assert found == (1 if kappa > 0 else 0)

    def test_full_grid_equivalence(self):
        # module invariant: 41x41 over the parameter plane, no disagreements
        bad = []
        for w in np.linspace(-0.94, 0.94, 41):
            for k in np.linspace(-1.95, 1.95, 41):
                p = ModelParams(1.0, round(float(w), 12), round(float(k), 12))
                issues = oracle_mismatches(p, accepted_roots(p))
                if issues:
                    bad.append((p.omega, p.kappa, issues))
        assert bad == []


def _validate_grid(m: float, n: int = 21) -> list[ModelParams]:
    """The points of ``validate --grid n`` at mass ``m``, omega-major."""
    return [
        ModelParams(m=m, omega=m * round(float(w), 12), kappa=round(float(k), 12))
        for w in np.linspace(-0.9, 0.9, n)
        for k in np.linspace(-1.9, 1.9, n)
    ]


def _root_bits(roots: tuple[list[float], list[float]]) -> str:
    real, gap = roots
    return " ".join(map(float.hex, real)) + "|" + " ".join(map(float.hex, gap))


class TestOracleMeshCache:
    """The oracle builds its meshes and exponents once per ``(m, omega)``.

    The cache may change how often they are built, never a bit of a root.
    """

    # SHA-256 of every root's float.hex over the validate grid at m = 1 (143
    # roots), with D's constant term folded to alpha^2 (1 + 2 kappa)
    VALIDATE_GRID_SHA256 = "587c160723ad9ef705a5f61ed95afb8a09e6446d57c9f511ec8d3564bdca0de4"

    def test_roots_are_pinned(self):
        h = hashlib.sha256()
        count = 0
        for p in _validate_grid(1.0):
            roots = axis_scan_roots(p)
            count += len(roots[0]) + len(roots[1])
            h.update((_root_bits(roots) + "\n").encode())
        assert count == 143
        assert h.hexdigest() == self.VALIDATE_GRID_SHA256

    @pytest.mark.parametrize("m", [2.5, 1e-9, 7e6])
    def test_roots_scale_with_the_mass(self, m):
        for p in _validate_grid(m):
            unit = ModelParams(1.0, p.omega / m, p.kappa)
            real, gap = axis_scan_roots(unit)
            assert _root_bits(axis_scan_roots(p)) == _root_bits(
                ([m * t for t in real], [m * t for t in gap])
            )

    def test_visit_order_does_not_matter(self):
        points = _validate_grid(1.0)
        omega_major = [_root_bits(axis_scan_roots(p)) for p in points]
        order = list(range(len(points)))
        random.Random(7).shuffle(order)
        shuffled = {i: _root_bits(axis_scan_roots(points[i])) for i in order}
        cold = []
        for p in points:
            _axis_meshes.cache_clear()
            cold.append(_root_bits(axis_scan_roots(p)))
        assert [shuffled[i] for i in range(len(points))] == omega_major
        assert cold == omega_major

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_negative_zero_omega_shares_the_entry(self, first):
        # -0.0 == 0.0 is one cache key, so whichever comes first builds it
        for k in (-1.9, -0.3, 0.25, 1.0):
            _axis_meshes.cache_clear()
            a = _root_bits(axis_scan_roots(ModelParams(1.0, first, k)))
            b = _root_bits(axis_scan_roots(ModelParams(1.0, -first, k)))
            assert _axis_meshes.cache_info().hits >= 1
            assert a == b

    @pytest.mark.parametrize("omega", [0.0, 0.3, -0.7, 0.95, 0.9995])
    def test_meshes_strictly_increase(self, omega):
        # past |omega| = 1 - 1e-3 the gap mesh is empty
        mesh, _, _, n_real = _axis_meshes(omega)
        for axis in (mesh[:n_real], mesh[n_real:]):
            assert (np.diff(axis) > 0.0).all()

    def test_cached_arrays_are_read_only(self):
        mesh, x, y, _ = _axis_meshes(0.3)
        for arr in (mesh, x, y):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestOracleBrentSeesTheMesh:
    """Brent evaluates ``D`` point by point on plain floats; the scan on the
    cached arrays.  Where the two differ in sign at a bracket end, Brent
    raises or returns the wrong end, so they must agree to the bit."""

    OMEGAS = [0.0, -0.0, 0.9995, -0.5] + [random.Random(11).uniform(-0.999, 0.999) for _ in range(296)]

    @staticmethod
    def _bits(pairs):
        return np.array(pairs, dtype=float).view(np.int64)

    def test_terms_are_the_cached_terms_at_every_mesh_point(self):
        # the real-axis terms take a one-element array, as Brent passes them,
        # and cost a few numpy calls a point, so they are checked at the first
        # 60 frequencies; the plain-float gap terms at all
        for i, w in enumerate(self.OMEGAS):
            mesh, x, y, n_real = _axis_meshes(w)
            cached = self._bits(np.stack([x, y], axis=1))
            got = [_gap_axis_terms(w, t) for t in mesh[n_real:].tolist()]
            assert np.array_equal(self._bits(got).reshape(-1, 2), cached[n_real:]), w
            if i < 60:
                got = [[v[0] for v in _real_axis_terms(w, np.array([t]))] for t in mesh[:n_real].tolist()]
                assert np.array_equal(self._bits(got), cached[:n_real]), w

    def test_every_bracket_keeps_its_signs(self, monkeypatch):
        brackets = []

        def checked(f, a, b, xtol, rtol):
            fa, fb = f(a), f(b)
            assert fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0), (a, b, fa, fb)
            brackets.append((a, b))
            return brentq(f, a, b, xtol, rtol)

        monkeypatch.setattr(dispersion, "brentq", checked)
        rng = random.Random(12)
        for w in self.OMEGAS:
            for _ in range(5):
                axis_scan_roots(ModelParams(1.0, w, rng.uniform(-3.0, 3.0)))
        assert len(brackets) > 200
