import hashlib
import math
import random

import numpy as np
import pytest

from kgdelta import (
    PHYSICAL,
    CubicData,
    D_eval,
    ModelParams,
    Q_eval,
    SheetSelector,
    accepted_roots,
    axis_scan_roots,
    candidate_roots,
    classify_point_spectrum,
    collision_exponent_frequency,
    critical_curves,
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
    CubicOverflow,
    RegionCode,
    _axis_meshes,
    classify_cells,
)


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


class TestCriticalCurves:
    def test_special_values(self):
        cc = critical_curves(ModelParams(1.0, 1.0 / 3.0, 0.0))
        assert cc.virtual_omega == pytest.approx(1.0 / 3.0)
        assert cc.virtual_kappa == pytest.approx(0.0, abs=1e-14)
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
        got = classify_cells(1.0, [w for w, _ in cells], [k for _, k in cells], 1e-6)
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
        got = classify_cells(1.0, omegas, [kappa] * len(omegas), 1e-10)
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
        got = classify_cells(1.0, [0.1, 0.1], [1e80, 0.3], 1e-6)
        assert got[0] is None and got[1] is not None


class TestOracle:
    def test_axis_scan_finds_known_roots(self):
        real_roots, gap_roots = axis_scan_roots(ModelParams(1.0, 0.0, 1.0))
        assert len(real_roots) == 1
        assert real_roots[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert gap_roots == []

    def test_full_grid_equivalence(self):
        # module invariant: 41x41 over the parameter plane, no disagreements
        bad = []
        for w in np.linspace(-0.94, 0.94, 41):
            for k in np.linspace(-1.95, 1.95, 41):
                p = ModelParams(1.0, round(float(w), 12), round(float(k), 12))
                issues = oracle_mismatches(p)
                if issues:
                    bad.append((p.omega, p.kappa, issues))
        assert bad == []


def _validate_grid(m: float, n: int = 21) -> list[ModelParams]:
    """The points of ``validate --grid n`` at mass ``m``, omega-major."""
    return [
        ModelParams(m=m, omega=round(float(w), 12), kappa=round(float(k), 12))
        for w in np.linspace(-0.9 * m, 0.9 * m, n)
        for k in np.linspace(-1.9, 1.9, n)
    ]


def _root_bits(roots: tuple[list[float], list[float]]) -> str:
    real, gap = roots
    return " ".join(map(float.hex, real)) + "|" + " ".join(map(float.hex, gap))


class TestOracleMeshCache:
    """The oracle builds its meshes and exponents once per ``(m, omega)``.

    The cache may change how often they are built, never a bit of a root.
    """

    # SHA-256 of every root's float.hex over the validate grid at m = 1 and
    # m = 2.5 (286 roots), as the oracle gave them when it rebuilt its meshes
    # at every point
    VALIDATE_GRID_SHA256 = "d1456d367e18c5a7b20561ca7c79d24c1f184615a37c028709671e17534db0bd"

    def test_roots_are_pinned(self):
        h = hashlib.sha256()
        count = 0
        for m in (1.0, 2.5):
            for p in _validate_grid(m):
                roots = axis_scan_roots(p)
                count += len(roots[0]) + len(roots[1])
                h.update((_root_bits(roots) + "\n").encode())
        assert count == 286
        assert h.hexdigest() == self.VALIDATE_GRID_SHA256

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

    def test_cached_arrays_are_read_only(self):
        (real_mesh, real_ex), (gap_mesh, gap_ex) = _axis_meshes(1.0, 0.3)
        for arr in (real_mesh, *real_ex, gap_mesh, *gap_ex):
            with pytest.raises(ValueError):
                arr[0] = 1.0
