"""Rank-one K-type spherical function tests.

Closed-form anchors used as oracles here:

* the three-dimensional zonal function is exactly sin(L t)/(L sinh t);
* the radial eigen-equation residual (finite differences) validates the
  hypergeometric closed form independently of the series machinery;
* the series recursion is cross-checked against the closed form, and one
  low-order coefficient is frozen from a hand derivation of the
  recursion: for (m, m2) = (1, 0), g_2 = (1 - 2 i L) / (4 (1 - i L)).
"""

import cmath
import math

import numpy as np
import pytest

from sphfun import cfun
from sphfun import complexmath as cm
from sphfun import rankone as r1

H2 = r1.RankOneSpace(1, 0)
H3 = r1.RankOneSpace(2, 0)
CH2 = r1.RankOneSpace(2, 1)


def exact_h3_zonal(lam: complex, t: float) -> complex:
    return cmath.sin(lam * t) / (lam * math.sinh(t))


CATALOG = r1.load_ktype_catalog()
H3_S1R0 = r1.catalog_lookup(CATALOG, "s1r0", H3)


def mp_phi_and_limit(mp, space, kt, lam, t):
    """phi_tau and limit_large_t by the closed form in mpmath at 40
    digits; the factors of t take 40 digits beyond the e^{-2t} lost in
    forming tanh^2 t."""
    m2 = space.m_2alpha
    with mp.workdps(40):
        rho = mp.mpf(space.m_alpha) / 2 + m2
        w = 1j * mp.mpc(lam) + rho
        l = w - 2 * rho
        const = (mp.gamma((w + kt.s + kt.r) / 2) / mp.gamma(w / 2)
                 * mp.gamma((w + 1 - m2 + kt.s - kt.r) / 2)
                 / mp.gamma((w + 1 - m2) / 2))
    with mp.workdps(40 + int(2 * t / math.log(10))):
        hyp = mp.hyp2f1((kt.s + kt.r - l) / 2, (kt.s - kt.r - l + 1 - m2) / 2,
                        kt.s + mp.mpf(space.m_alpha + m2 + 1) / 2,
                        mp.tanh(t) ** 2)
        phi = const * mp.tanh(t) ** kt.s * mp.cosh(t) ** l * hyp
        return complex(phi), complex((2 * mp.cosh(t)) ** -l * phi)


class TestSolveRS:
    def test_trivial(self):
        assert r1.solve_rs(H3, 0.0, 0.0) == (0, 0)

    def test_quadratic_example(self):
        assert r1.solve_rs(H3, -6.0, 0.0) == (0, 2)

    def test_residuals_vanish(self):
        for space in (H2, H3, CH2, r1.RankOneSpace(4, 3)):
            for r, s in ((0, 0), (0, 2), (1, 2), (0, 3)):
                if r > s:
                    continue
                kt = r1.ktype_from_rs(space, r, s)
                r2, s2 = r1.solve_rs(space, kt.d_alpha, kt.d_2alpha)
                kt2 = r1.KTypeRankOne(kt.d_alpha, kt.d_2alpha, r2, s2)
                r1.validate_ktype(space, kt2)

    def test_r_preference_zero(self):
        # for m2 = 0 the r-quadratic roots are {0, 1}; 0 is recorded
        kt = r1.ktype_from_ds(H2, -4.0, 0.0)
        assert (kt.r, kt.s) == (0, 2)

    def test_no_integer_root(self):
        with pytest.raises(r1.NoIntegerRootError):
            r1.solve_rs(H2, -2.5, 0.0)

    def test_r_choice_immaterial_when_m2_zero(self):
        # both admissible roots give identical closed forms
        lam = 0.8 - 0.3j
        for s in (1, 2, 3):
            k0 = r1.KTypeRankOne(-float(s * s), 0.0, 0, s)
            k1 = r1.KTypeRankOne(-float(s * s), 0.0, 1, s)
            a = r1.phi_tau(H2, k0, lam, 1.1)
            b = r1.phi_tau(H2, k1, lam, 1.1)
            assert a == pytest.approx(b, rel=1e-13)
            assert r1.c_lambda_delta(H2, k0, lam) == pytest.approx(
                r1.c_lambda_delta(H2, k1, lam), rel=1e-13)


class TestCLambdaDelta:
    def test_trivial_is_one(self):
        assert r1.c_lambda_delta(H3, r1.TRIVIAL_KTYPE, 0.9 - 0.4j) == \
            pytest.approx(1.0, rel=1e-14)

    def test_functional_equation_case(self):
        # s = r = 1: the second ratio collapses, value is w/2
        kt = r1.ktype_from_rs(CH2, 1, 1)
        lam = 0.7 + 0.2j
        w = 1j * lam + CH2.rho
        assert r1.c_lambda_delta(CH2, kt, lam) == pytest.approx(
            0.5 * w, rel=1e-13)

    def test_s2_plane_value(self):
        # (s, r) = (2, 0) on the plane: c = w(w+1)/4 with w = i lam + 1/2
        kt = r1.ktype_from_rs(H2, 0, 2)
        lam = 0.7 + 0.2j
        w = 1j * lam + 0.5
        assert r1.c_lambda_delta(H2, kt, lam) == pytest.approx(
            w * (w + 1) / 4.0, rel=1e-13)


class TestPhiTau:
    def test_three_space_exact(self):
        for lam in (0.8 - 0.4j, 1.7 + 0.9j, 0.3 + 0j):
            for t in (0.2, 1.0, 3.0):
                assert r1.phi_tau(H3, r1.TRIVIAL_KTYPE, lam, t) == \
                    pytest.approx(exact_h3_zonal(lam, t), rel=1e-12)

    def test_value_at_origin(self):
        assert r1.phi_tau(H2, r1.TRIVIAL_KTYPE, 0.5 - 0.1j, 0.0) == 1.0
        kt = r1.ktype_from_rs(H2, 0, 2)
        assert r1.phi_tau(H2, kt, 0.5 - 0.1j, 0.0) == 0.0

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            r1.phi_tau(H2, r1.TRIVIAL_KTYPE, 1.0, -0.5)

    def test_eigen_equation_residual(self):
        for space in (H2, H3, CH2, r1.RankOneSpace(4, 0)):
            for t in np.linspace(0.4, 3.0, 8):
                res = r1.radial_eigen_residual(space, 0.9 - 0.6j, float(t))
                assert res < 1e-6

    def test_weyl_invariance_zonal(self):
        for t in (0.5, 2.0):
            a = r1.phi_tau(H2, r1.TRIVIAL_KTYPE, 1.1 - 0.7j, t)
            b = r1.phi_tau(H2, r1.TRIVIAL_KTYPE, -1.1 + 0.7j, t)
            assert a == pytest.approx(b, rel=1e-11)

    def test_phi_matches_mpmath(self):
        # every catalog K-type, |Lam| in [1e-3, 3] with |Im Lam| < 0.95 rho
        # (both signs), t in [0.05, 800]; the examples are Im Lam > 0
        # points where the 2F1 alone overflows (t = 600) or cosh^l t alone
        # underflows (t = 800).  phi is within 1e-12 relative, or, where
        # its two exponential terms nearly cancel (real Lam, as in the
        # third example), it is the exact value at a t within 1e-15
        # relative: the phase Lam log cosh t is formed in doubles
        mp = pytest.importorskip("mpmath")
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        by_name = {(rec["name"], rec["space"]): rec for rec in CATALOG}

        @st.composite
        def points(draw):
            rec = draw(st.sampled_from(CATALOG))
            bound = 0.95 * rec["space"].rho
            lam = complex(draw(st.floats(-3.0, 3.0)),
                          draw(st.floats(-bound, bound, exclude_min=True,
                                         exclude_max=True)))
            hyp.assume(1e-3 <= abs(lam) <= 3.0)
            return rec, lam, draw(st.floats(0.05, 800.0))

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=30)
        @hyp.given(points())
        @hyp.example((by_name["trivial", H2], 0.5 + 0.6j, 600.0))
        @hyp.example((by_name["s1r0", H3], 0.5 + 0.3j, 800.0))
        @hyp.example((by_name["s2r0", H2], 3 + 0j, 414.25))
        def check(point):
            rec, lam, t = point
            sp, kt = rec["space"], rec["ktype"]
            want = mp_phi_and_limit(mp, sp, kt, lam, t)[0]
            hyp.assume(abs(want) >= 1e-300)
            err = abs(r1.phi_tau(sp, kt, lam, t) - want)
            assert err <= 1e-12 * abs(want) or err <= max(
                abs(mp_phi_and_limit(mp, sp, kt, lam, mp.mpf(t) * f)[0]
                    - want) for f in (1 - mp.mpf(1e-15), 1 + mp.mpf(1e-15)))

        check()

    def test_phi_near_lambda_zero_matches_mpmath(self):
        # c - a - b = i Lam: within 1e-12 relative for |Lam| <= 1e-3 and t
        # in [0.5, 20] on every catalog K-type; Lam = +-i on the rho = 2
        # spaces puts c - a - b at -+1
        mp = pytest.importorskip("mpmath")
        lams = [0j, 1e-8 + 0j, 1e-6 * cmath.exp(0.7j), -1e-6j,
                1e-4 * cmath.exp(-0.5j), 1e-3 + 0j, 1e-3j, -1e-3j]
        for rec in CATALOG:
            sp, kt = rec["space"], rec["ktype"]
            for lam in lams + ([1j, -1j] if sp.rho == 2 else []):
                for t in (0.5, 1.0, 1.5, 3.0, 8.0, 20.0):
                    want = mp_phi_and_limit(mp, sp, kt, lam, t)[0]
                    assert r1.phi_tau(sp, kt, lam, t) == pytest.approx(
                        want, rel=1e-12, abs=0)


class TestSeries:
    def test_leading_coefficient(self):
        gammas = r1.hc_series_gammas(H2, 0.9 - 0.2j, 10)
        assert len(gammas) == 11
        assert gammas[0] == 1.0
        assert all(g == 0 for g in gammas[1::2])

    def test_three_space_coefficients_all_one(self):
        for g in r1.hc_series_gammas(H3, 1.3 - 0.5j, 20)[0::2]:
            assert g == pytest.approx(1.0, rel=1e-12)

    def test_plane_g2_frozen(self):
        lam = 0.9 - 0.2j
        gammas = r1.hc_series_gammas(H2, lam, 4)
        expected = (1 - 2j * lam) / (4 * (1 - 1j * lam))
        assert gammas[2] == pytest.approx(expected, rel=1e-13)

    def test_running_sums_match_the_direct_recursion(self):
        # the kernel keeps the recursion's two sums as running sums; the
        # reference re-sums every earlier coefficient for each n, as the
        # recursion is written.  Only the order of the additions differs;
        # the terms do not cancel here, so the two agree to N eps
        def direct(m, m2, lam, n_max):
            rho, ilam = 0.5 * m + m2, 1j * lam
            g = [1.0 + 0j] + [0j] * n_max
            for n in range(2, n_max + 1, 2):
                acc = sum(2.0 * m * g[n - k] * (ilam - rho - (n - k))
                          for k in range(2, n + 1, 2))
                acc += sum(4.0 * m2 * g[n - k] * (ilam - rho - (n - k))
                           for k in range(4, n + 1, 4))
                g[n] = -acc / (n * (n - 2.0 * ilam))
            return g

        n_max = 40
        for m, m2 in ((1, 0), (2, 0), (2, 1), (4, 3), (8, 7)):
            for lam in (0.9 - 0.4j, 2.5 + 0.3j, 1e-6j, 0.01 + 0j, 30 - 1j):
                got = cm.kernels.hc_gamma_coeffs(m, m2, lam, n_max)
                for x, y in zip(got, direct(m, m2, lam, n_max)):
                    assert abs(x - y) <= n_max * 2.0 ** -52 * abs(y)

    def test_series_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for space in (H2, H3, CH2):
            for _ in range(6):
                lam = complex(rng.uniform(0.3, 2.0),
                              rng.uniform(-0.9, 0.9))
                for t in (1.0, 1.7, 2.5):
                    series = r1.hc_series_eval(space, lam, t, 40)
                    closed = r1.phi_tau(space, r1.TRIVIAL_KTYPE, lam, t)
                    assert series == pytest.approx(closed, rel=1e-8)

    def test_series_symmetric_in_lambda(self):
        lam = 1.2 - 0.4j
        a = r1.hc_series_eval(H2, lam, 1.5, 40)
        b = r1.hc_series_eval(H2, -lam, 1.5, 40)
        assert a == pytest.approx(b, rel=1e-10)

    def test_growth_envelope(self):
        rng = np.random.default_rng(13)
        for space in (H2, H3, CH2):
            for _ in range(5):
                lam = complex(rng.uniform(0.3, 2.5),
                              rng.uniform(-1.0, 1.0))
                gammas = r1.hc_series_gammas(space, lam, 60)
                # log|g_n|/n over n >= 20, the odd g_n (zero) left out
                growth = max(math.log(abs(g)) / n
                             for n, g in enumerate(gammas) if n >= 20 and g)
                assert growth < 0.5

    def test_resonance_rejected(self):
        with pytest.raises(r1.ResonanceError) as exc:
            r1.hc_series_gammas(H2, -2j, 10)
        assert exc.value.n == 4

    def test_series_requires_positive_t(self):
        with pytest.raises(ValueError):
            r1.hc_series_eval(H2, 1.0 - 0.2j, 0.0)

    def test_tail_estimate_bounds_truncation(self):
        lam = 1.1 - 0.3j
        t = 1.5
        gammas = r1.hc_series_gammas(H2, lam, 40)
        long = r1.hc_series_eval(H2, lam, t, 80)
        short = r1.hc_series_eval(H2, lam, t, 40)
        # crude but honest: the a-posteriori estimate dominates the
        # actual truncation difference up to the c-function prefactors
        scale = abs(cfun.c_alpha(lam, 1, 0).value) + abs(
            cfun.c_alpha(-lam, 1, 0).value)
        assert abs(long - short) <= 10 * scale * r1.series_tail_estimate(
            gammas, t) + 1e-14

    def test_tail_estimate_of_odd_n_is_that_of_n_minus_1(self):
        # the odd coefficients vanish, so gamma_5 = 0: the estimate reads
        # the last even one, gamma_4, and its e^{-4 t}
        lam, t = 0.7 - 0.2j, 1.4
        odd = r1.series_tail_estimate(r1.hc_series_gammas(H2, lam, 5), t)
        even = r1.series_tail_estimate(r1.hc_series_gammas(H2, lam, 4), t)
        assert odd > 0.0 and odd == even


class TestCFunctionsOfSeries:
    # the leading series coefficient C_e is the c-function c_alpha
    def test_C_e_numeric_limit(self):
        # e^{-(i L - rho) t} phi(t) at strong decay margin
        lam = 0.9 - 0.5j
        t = 18.0
        val = (cmath.exp(-(1j * lam - H2.rho) * t)
               * r1.phi_tau(H2, r1.TRIVIAL_KTYPE, lam, t))
        assert val == pytest.approx(cfun.c_alpha(lam, 1, 0).value, rel=1e-5)

    def test_C_e_at_calibration(self):
        assert cfun.c_alpha(-0.5j, 1, 0).value == pytest.approx(1.0,
                                                                abs=1e-13)

    def test_C_sigma_trivial_type(self):
        lam = 1.3 - 0.6j
        got = r1.C_sigma_minus(H2, r1.TRIVIAL_KTYPE, lam)
        assert got == pytest.approx(cfun.c_alpha(lam, 1, 0).value,
                                    rel=1e-14)

    def test_hs_modulus_on_real_axis(self):
        kt = r1.ktype_from_rs(H2, 0, 1)
        for lam in (0.4, 1.1, 2.7):
            assert abs(r1.C_sigma_minus(H2, kt, lam)) == pytest.approx(
                abs(cfun.c_alpha(lam, 1, 0).value), rel=1e-12)

    def test_two_leading_coefficients_extracted(self):
        # solve the 2x2 exponential fit at large t for both leading
        # series coefficients of the closed form; they are the pair
        # (C_e, C_sigma) up to the common large-t constant
        # Gamma(s + n/2)/Gamma(n/2) (= s! on the plane), so the pair
        # determines the expansion completely
        import math as _math
        kt = r1.ktype_from_rs(H2, 0, 2)
        kappa = _math.factorial(kt.s)
        lam = 0.9 - 0.1j
        rho = H2.rho
        t1, t2 = 14.0, 18.0
        p1 = r1.phi_tau(H2, kt, lam, t1)
        p2 = r1.phi_tau(H2, kt, lam, t2)
        e1p = cmath.exp((1j * lam - rho) * t1)
        e1m = cmath.exp((-1j * lam - rho) * t1)
        e2p = cmath.exp((1j * lam - rho) * t2)
        e2m = cmath.exp((-1j * lam - rho) * t2)
        det = e1p * e2m - e1m * e2p
        a_fit = (p1 * e2m - p2 * e1m) / det
        b_fit = (p2 * e1p - p1 * e2p) / det
        assert a_fit == pytest.approx(
            kappa * cfun.c_alpha(lam, 1, 0).value, rel=1e-5)
        assert b_fit == pytest.approx(
            kappa * r1.C_sigma_minus(H2, kt, -lam), rel=1e-5)


class TestLimits:
    def test_trivial_type_reduces_to_c(self):
        lam = 0.8 - 0.6j
        tgt = r1.limit_large_t_target(H2, r1.TRIVIAL_KTYPE, lam)
        assert tgt == pytest.approx(cfun.c_alpha(lam, 1, 0).value,
                                    rel=1e-13)

    def test_large_t_limit_strong_margin(self):
        kt = r1.ktype_from_rs(H2, 0, 2)
        lam = 0.5 - 0.8j
        tgt = r1.limit_large_t_target(H2, kt, lam)
        assert r1.limit_large_t(H2, kt, lam, 18.0) == pytest.approx(
            tgt, rel=1e-5)

    def test_large_t_monotone_convergence(self):
        kt = r1.ktype_from_rs(H2, 0, 2)
        for lam in (0.5 - 0.8j, 0.5 - 0.3j):
            tgt = r1.limit_large_t_target(H2, kt, lam)
            e10 = abs(r1.limit_large_t(H2, kt, lam, 10.0) - tgt)
            e18 = abs(r1.limit_large_t(H2, kt, lam, 18.0) - tgt)
            assert e18 < e10

    @pytest.mark.parametrize("t", [400.0, 800.0])
    def test_large_t_matches_mpmath(self, t):
        # sech^2 t is below the double range here, and cosh t is not a
        # double at t = 800
        mp = pytest.importorskip("mpmath")
        lam = 0.5 - 0.3j
        for space, kt in ((H2, r1.TRIVIAL_KTYPE), (H3, H3_S1R0)):
            phi, limit = mp_phi_and_limit(mp, space, kt, lam, t)
            assert r1.phi_tau(space, kt, lam, t) == pytest.approx(
                phi, rel=1e-12, abs=0)
            assert r1.limit_large_t(space, kt, lam, t) == pytest.approx(
                limit, rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [400.0, 800.0])
    def test_large_t_weak_decay_matches_mpmath(self, t):
        # at Im Lam = -0.001 the (sech^2 t)^{i Lam} term of the 2F1 is of
        # relative size e^{-t/500}: it must survive sech^2 t underflowing.
        # On H3 at t = 800, (2 cosh t)^{-l} alone overflows (Re(-l) log
        # cosh t > 709); the limit, which cancels the cosh powers, must not
        mp = pytest.importorskip("mpmath")
        lam = 0.5 - 0.001j
        for space, kt in ((H2, r1.TRIVIAL_KTYPE), (H3, H3_S1R0)):
            phi, limit = mp_phi_and_limit(mp, space, kt, lam, t)
            assert r1.phi_tau(space, kt, lam, t) == pytest.approx(
                phi, rel=1e-12, abs=0)
            assert r1.limit_large_t(space, kt, lam, t) == pytest.approx(
                limit, rel=1e-12, abs=0)

    def test_small_t_ratio(self):
        kt = r1.ktype_from_rs(H2, 0, 2)
        lam = 0.7 + 0j
        got = r1.small_t_ratio(H2, kt, lam, 1e-3)
        assert got == pytest.approx(r1.small_t_target(H2, kt, lam),
                                    rel=1e-4)

    def test_small_t_cauchy(self):
        kt = r1.ktype_from_rs(H2, 0, 1)
        lam = 0.9 - 0.2j
        a = r1.small_t_ratio(H2, kt, lam, 1e-3)
        b = r1.small_t_ratio(H2, kt, lam, 1e-4)
        assert abs(a - b) < 1e-3

    def test_trivial_ratio_is_one(self):
        lam = 1.4 - 0.3j
        got = r1.small_t_ratio(H2, r1.TRIVIAL_KTYPE, lam, 1e-3)
        assert got == pytest.approx(1.0, rel=1e-9)


def strip_points(st, rec, t_min, t_max, log_t=False):
    """(Lam, t) for one catalog K-type: |Lam| in [1e-3, 3] with
    |Im Lam| < 0.95 rho, each sign of Im Lam drawn, t uniform (or
    log-uniform) in [t_min, t_max]."""
    bound = 0.95 * rec["space"].rho

    @st.composite
    def points(draw):
        sign = draw(st.sampled_from((1.0, -1.0)))
        lam = complex(draw(st.floats(-3.0, 3.0)),
                      sign * draw(st.floats(0.0, bound, exclude_max=True)))
        if log_t:
            t = 10.0 ** draw(st.floats(math.log10(t_min), math.log10(t_max)))
        else:
            t = draw(st.floats(t_min, t_max))
        return lam, t
    return points()


CATALOG_IDS = [f"{rec['name']}-{rec['space'].m_alpha},{rec['space'].m_2alpha}"
               for rec in CATALOG]


class TestLimitsMatchMpmath:
    """Hypothesis differential tests of limit_large_t and small_t_ratio
    against 40-digit mpmath (mp_phi_and_limit) on every catalog K-type,
    with either sign of Im Lam.  The limit is drawn at t in [0.05, 1000],
    past the double range of cosh t (t = 710) and of sech^2 t (t = 354);
    where its two exponential terms nearly cancel (real Lam) it may be
    the exact value at a t within 1e-15 relative, as in
    test_phi_matches_mpmath: the phase Lam log cosh t is formed in
    doubles.  The ratio is drawn at t in [1e-6, 1], each phi within
    1e-12."""

    @pytest.mark.parametrize("rec", CATALOG, ids=CATALOG_IDS)
    def test_limit_large_t(self, rec):
        mp = pytest.importorskip("mpmath")
        hyp = pytest.importorskip("hypothesis")
        sp, kt = rec["space"], rec["ktype"]

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=4)
        @hyp.given(strip_points(hyp.strategies, rec, 0.05, 1000.0))
        @hyp.example((0.5 - 0.3j, 1000.0))
        @hyp.example((0.5 - 0.001j, 900.0))
        @hyp.example((0.7 + 0.2j, 420.0))
        def check(point):
            lam, t = point
            hyp.assume(abs(lam) >= 1e-3)
            want = mp_phi_and_limit(mp, sp, kt, lam, t)[1]
            # Im Lam > 0: the limit grows like e^{2 Im Lam t}
            hyp.assume(1e-300 <= abs(want) <= 1e300)
            err = abs(r1.limit_large_t(sp, kt, lam, t) - want)
            assert err <= 1e-12 * abs(want) or err <= max(
                abs(mp_phi_and_limit(mp, sp, kt, lam, mp.mpf(t) * f)[1]
                    - want) for f in (1 - mp.mpf(1e-15), 1 + mp.mpf(1e-15)))

        check()

    @pytest.mark.parametrize("rec", CATALOG, ids=CATALOG_IDS)
    def test_small_t_ratio(self, rec):
        mp = pytest.importorskip("mpmath")
        hyp = pytest.importorskip("hypothesis")
        sp, kt = rec["space"], rec["ktype"]

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=6)
        @hyp.given(strip_points(hyp.strategies, rec, 1e-6, 1.0, log_t=True))
        @hyp.example((0.7 - 0.2j, 1e-6))
        @hyp.example((1.3 + 0.4j, 0.5))
        def check(point):
            lam, t = point
            hyp.assume(abs(lam) >= 1e-3)
            want = (mp_phi_and_limit(mp, sp, kt, lam, t)[0]
                    / mp_phi_and_limit(mp, sp, kt, -lam, t)[0])
            got = r1.small_t_ratio(sp, kt, lam, t)
            assert abs(got - want) <= 2e-12 * abs(want)

        check()


class TestCatalog:
    def test_builtin_catalog_loads(self):
        records = r1.load_ktype_catalog()
        assert len(records) >= 12
        kt = r1.catalog_lookup(records, "s2r0", H2)
        assert (kt.r, kt.s) == (0, 2)

    def test_rs_computed_when_absent(self, tmp_path):
        path = tmp_path / "kt.json"
        path.write_text(
            '[{"name": "x", "m_alpha": 2, "m_2alpha": 0, '
            '"d_alpha": -6.0, "d_2alpha": 0.0}]', encoding="utf-8")
        records = r1.load_ktype_catalog(path)
        assert (records[0]["ktype"].r, records[0]["ktype"].s) == (0, 2)

    def test_inconsistent_rs_rejected(self, tmp_path):
        path = tmp_path / "kt.json"
        path.write_text(
            '[{"name": "bad", "m_alpha": 1, "m_2alpha": 0, '
            '"d_alpha": -4.0, "d_2alpha": 0.0, "r": 0, "s": 1}]',
            encoding="utf-8")
        with pytest.raises(ValueError):
            r1.load_ktype_catalog(path)

    def test_missing_name_raises(self):
        records = r1.load_ktype_catalog()
        with pytest.raises(KeyError):
            r1.catalog_lookup(records, "sXrY", H2)

    def test_char_mapping(self):
        assert r1.sl2_ktype_for_char(0).s == 0
        assert r1.sl2_ktype_for_char(2).s == 1
        assert r1.sl2_ktype_for_char(4).s == 2
        with pytest.raises(ValueError):
            r1.sl2_ktype_for_char(3)


class TestTimeGrids:
    # the evaluators take one t: at each t of a grid (t = 0 and both 2F1
    # branches included) a call returns one complex, and the limit is
    # (2 cosh t)^{-l} phi(t) whichever side of Euler's transformation
    # (Im Lam > 0) the closed form takes
    TS = [0.0, 0.05, 0.7, 1.8, 2.5, 9.0, 30.0]
    LAMS = [0.9 - 0.3j, 1.7 + 0.2j, 1e-4 + 1e-4j]

    @pytest.mark.parametrize("rec", CATALOG, ids=lambda rec: (
        f"{rec['name']}-{rec['space'].m_alpha},{rec['space'].m_2alpha}"))
    def test_closed_form_and_limit(self, rec):
        sp, kt = rec["space"], rec["ktype"]
        for lam in self.LAMS:
            l = 1j * lam - sp.rho
            for t in self.TS:
                phi = r1.phi_tau(sp, kt, lam, t)
                limit = r1.limit_large_t(sp, kt, lam, t)
                assert type(phi) is complex and type(limit) is complex
                scale = cmath.exp(-l * (math.log(2.0) + cm.log_cosh(t)))
                assert limit == pytest.approx(scale * phi, rel=1e-12, abs=0)

    @pytest.mark.parametrize("space", sorted(
        {rec["space"] for rec in CATALOG},
        key=lambda sp: (sp.m_alpha, sp.m_2alpha)),
        ids=lambda sp: f"{sp.m_alpha},{sp.m_2alpha}")
    def test_series(self, space):
        # the 40-term series is accurate to 1e-8 from t = 1 on
        for lam in self.LAMS[:2]:
            for t in self.TS[3:]:
                got = r1.hc_series_eval(space, lam, t)
                assert type(got) is complex
                assert got == pytest.approx(
                    r1.phi_tau(space, r1.TRIVIAL_KTYPE, lam, t), rel=1e-8)

    def test_small_t_ratio(self):
        kt = r1.ktype_from_rs(H2, 0, 1)
        lam = 0.9 - 0.2j
        for t in (1e-4, 1e-3, 0.5):
            assert r1.small_t_ratio(H2, kt, lam, t) == (
                r1.phi_tau(H2, kt, lam, t) / r1.phi_tau(H2, kt, -lam, t))

    def test_empty_and_invalid_grids(self):
        for fn in (r1.phi_tau, r1.limit_large_t, r1.small_t_ratio):
            for t in (-1.0, math.nan):
                with pytest.raises(ValueError, match="t must be >= 0"):
                    fn(H2, r1.TRIVIAL_KTYPE, 0.5, t)
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="requires t > 0"):
                r1.hc_series_eval(H2, 0.5, t)


def clear_caches():
    for fn in (r1.c_lambda_delta, r1.hc_series_gammas, r1._series_terms,
               r1._closed_form_plan, cm._log_gamma_c):
        fn.cache_clear()


def outcome(fn, *args):
    """The bits of fn(*args), or "raised" with the class and text of what
    it raised."""
    def bits(v):
        if isinstance(v, (tuple, list, np.ndarray)):
            return tuple(bits(x) for x in v)
        return complex(v).real.hex(), complex(v).imag.hex()
    try:
        return bits(fn(*args))
    except (cfun.CPoleError, r1.ResonanceError) as exc:
        return "raised", type(exc).__name__, str(exc)


class TestPerLambdaCaches:
    # each per-Lam constant is cached where it is defined, so scalar calls
    # at one Lam share the set-up
    TS = (0.05, 0.2, 0.5, 0.9, 1.4, 1.8, 2.5, 3.0, 5.0, 8.0, 12.0, 20.0)
    SIGNED_ZEROS = [(0j, -0j), (0.5 + 0j, complex(0.5, -0.0)),
                    (0.3j, complex(-0.0, 0.3)),
                    (complex(0.0, -0.3), complex(-0.0, -0.3))]

    @pytest.fixture(autouse=True)
    def cleared(self):
        clear_caches()
        yield
        clear_caches()

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        kernel = getattr(cm.kernels, name)
        monkeypatch.setattr(cm.kernels, name,
                            lambda *args: calls.append(1) or kernel(*args))
        return calls

    # 0.9 - 0.3i takes the connection formula for t > 1.21; at Lam = 0
    # c - a - b = 0, the connection formula's logarithmic case
    @pytest.mark.parametrize("lam", [0.9 - 0.3j, 0j])
    def test_scalar_phi_calls_share_the_set_up(self, monkeypatch, lam):
        # 12 calls need no more set-up than one call on each 2F1 branch
        calls = self.counted(monkeypatch, "clgamma")
        for t in (self.TS[0], self.TS[-1]):
            r1.phi_tau(H3, H3_S1R0, lam, t)
        one_per_branch = len(calls)
        clear_caches()
        calls.clear()
        for t in self.TS:
            r1.phi_tau(H3, H3_S1R0, lam, t)
        assert 0 < len(calls) <= one_per_branch

    # Im Lam > 0 takes Euler's transformation of the 2F1
    @pytest.mark.parametrize("lam", [0.9 - 0.3j, 0.9 + 0.3j])
    def test_grid_validates_and_screens_once(self, monkeypatch, lam):
        # the K-type is validated, and the 2F1 parameters are screened
        # for poles, by 12 calls as often as by one
        validated = []
        validate = r1.validate_ktype
        monkeypatch.setattr(r1, "validate_ktype",
                            lambda *args: validated.append(1) or
                            validate(*args))
        plan = r1._closed_form_plan(H3, H3_S1R0, lam, False)
        a, b, c = plan.hyp.a, plan.hyp.b, plan.hyp.c
        screened = []
        screen = cm.distance_to_nonpos_int
        monkeypatch.setattr(cm, "distance_to_nonpos_int", lambda z: (
            z in (c, c - a, c - b) and screened.append(z)) or screen(z))
        clear_caches()
        validated.clear()
        r1.phi_tau(H3, H3_S1R0, lam, self.TS[-1])
        once = len(validated), len(screened)
        clear_caches()
        validated.clear()
        screened.clear()
        for t in self.TS:
            r1.phi_tau(H3, H3_S1R0, lam, t)
        assert (len(validated), len(screened)) == once
        assert once[0] == 1 and once[1] >= 3
        assert r1._closed_form_plan.cache_info()[:2] == (11, 1)

    def test_scalar_series_calls_share_the_coefficients(self, monkeypatch):
        calls = self.counted(monkeypatch, "hc_gamma_coeffs")
        for t in self.TS[3:9]:
            r1.hc_series_eval(H3, 0.9 - 0.3j, t)
        assert len(calls) == 2

    @pytest.mark.parametrize("first,second", SIGNED_ZEROS + [
        (b, a) for a, b in SIGNED_ZEROS])
    def test_hit_has_the_bits_of_a_fresh_call(self, first, second):
        # the two arguments compare equal, so the second call is a hit
        assert first == second
        ch2_s2r1 = r1.ktype_from_rs(CH2, 1, 2)
        for fn, args in ((r1.c_lambda_delta, (H3, H3_S1R0)),
                         (r1.c_lambda_delta, (CH2, ch2_s2r1)),
                         (r1.hc_series_gammas, (H3,)),
                         (r1._series_terms, (CH2,))):
            extra = (40,) if fn is r1._series_terms else ()
            outcome(fn, *args, first, *extra)
            hits = fn.cache_info().hits
            got = outcome(fn, *args, second, *extra)
            if got[0] != "raised":
                assert fn.cache_info().hits == hits + 1
            assert got == outcome(fn.__wrapped__, *args, second, *extra)
        # the closed form on both 2F1 branches, through both plans
        for fn in (r1.phi_tau, r1.limit_large_t):
            for sp, kt in ((H3, H3_S1R0), (CH2, ch2_s2r1)):
                for t in (0.3, 1.5, 6.0):
                    outcome(fn, sp, kt, first, t)
                    hits = r1._closed_form_plan.cache_info().hits
                    got = outcome(fn, sp, kt, second, t)
                    assert r1._closed_form_plan.cache_info().hits == hits + 1
                    clear_caches()
                    assert got == outcome(fn, sp, kt, second, t)

    def test_pole_raises_on_every_call(self):
        # no plan keeps an invalid K-type (s = 1 with d_alpha = 0); the 2F1
        # pole at c is TestConnectionCache's
        bad = r1.KTypeRankOne(0.0, 0.0, 0, 1)
        for fn, t in ((r1.phi_tau, 1.0), (r1.limit_large_t, 0.0)):
            for _ in range(3):
                with pytest.raises(ValueError, match="violates"):
                    fn(H2, bad, 0.5, t)
        assert r1._closed_form_plan.cache_info().currsize == 0
        # c_{Lam,delta} at Lam = 1.5i: (w + s + r)/2 = 0 with w = -1;
        # c(0) has a pole; 2 i Lam = 4 is a resonant denominator
        s1r0 = r1.ktype_from_rs(H2, 0, 1)
        for fn, args, error in (
                (r1.c_lambda_delta, (H2, s1r0, 1.5j), cfun.CPoleError),
                (r1.phi_tau, (H2, s1r0, 1.5j, 1.0), cfun.CPoleError),
                (r1.hc_series_eval, (H2, 0j, 1.0), cfun.CPoleError),
                (r1.hc_series_gammas, (H2, -2j, 10), r1.ResonanceError)):
            for _ in range(3):
                with pytest.raises(error):
                    fn(*args)
        assert r1.c_lambda_delta.cache_info().currsize == 0
        assert r1._series_terms.cache_info().currsize == 0
