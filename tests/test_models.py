"""Matrix/ball model and quadrature-oracle tests.

The cross-checks here are the heart of the package: the product formula,
the hypergeometric closed form and the second-coefficient formula are
each compared against quadrature of their defining integrals, computed
through entirely separate code paths (Poisson kernels and unipotent
coordinates vs Gamma functions and power series).
"""

import cmath
import math

import numpy as np
import pytest

from sphfun import cfun
from sphfun import models as md
from sphfun import rankone as r1
from sphfun import quadrature
from sphfun import verify as vf
from sphfun.quadrature import (QuadratureSpec, ToleranceNotMetError,
                               _exp_sinh_nodes, exp_sinh_halfline,
                               gauss_legendre_adaptive, gl_rule,
                               trapezoid_doubling)
import conventions as cv
from test_acceptance import margin_samples
from test_rankone import mp_phi_and_limit

RNG = np.random.default_rng(77)
EPS = np.finfo(float).eps


def random_group_element(rng):
    return (cv.k_theta_matrix(rng.uniform(0, 2 * math.pi))
            @ cv.a_t_matrix(rng.uniform(0, 2.5))
            @ cv.k_theta_matrix(rng.uniform(0, 2 * math.pi)))


class TestIwasawa:
    def test_identity(self):
        assert cv.iwasawa_H(cv.a_t_matrix(0.0)) == 0.0

    def test_diagonal_flow(self):
        for t in (-1.3, 0.4, 2.2):
            assert cv.iwasawa_H(cv.a_t_matrix(t)) == pytest.approx(t)

    def test_lower_unipotent(self):
        assert cv.iwasawa_H(cv.nbar_matrix(1.0)) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            g = random_group_element(rng)
            theta, h, x = cv.iwasawa_decompose(g)
            rec = (cv.k_theta_matrix(theta) @ cv.a_t_matrix(h)
                   @ cv.n_matrix(x))
            for name in "abcd":
                assert getattr(rec, name) == pytest.approx(
                    getattr(g, name), abs=1e-12)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            cv.Matrix2(2.0, 0.0, 0.0, 1.0)


class TestHorocycleBracket:
    def test_origin(self):
        for theta in (0.0, 1.0, 2.5):
            b = cv.boundary_circle_point(theta)
            assert cv.horocycle_bracket([0.0, 0.0],
                                        [b.real, b.imag]) == 0.0

    def test_radial_value(self):
        for t in (0.3, 1.7):
            u = cv.geodesic_radius(t)
            assert cv.horocycle_bracket([u, 0.0], [1.0, 0.0]) == \
                pytest.approx(t, abs=1e-13)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = rng.uniform(0, 0.95)
            phi_x, phi_b, rot = rng.uniform(0, 2 * math.pi, 3)
            a = cv.horocycle_bracket(
                [r * math.cos(phi_x), r * math.sin(phi_x)],
                [math.cos(phi_b), math.sin(phi_b)])
            b = cv.horocycle_bracket(
                [r * math.cos(phi_x + rot), r * math.sin(phi_x + rot)],
                [math.cos(phi_b + rot), math.sin(phi_b + rot)])
            assert a == pytest.approx(b, abs=1e-10)

    def test_higher_dimension(self):
        x = [0.2, -0.1, 0.4]
        b = np.array([1.0, 2.0, -2.0]) / 3.0
        expected = math.log((1 - 0.21) / float((x - b) @ (x - b)))
        assert cv.horocycle_bracket(x, b) == pytest.approx(expected)

    def test_boundary_degenerate(self):
        with pytest.raises(ValueError):
            cv.horocycle_bracket([1.0 - 1e-16, 0.0], [1.0, 0.0])

    def test_matrix_model_agreement(self):
        # A(k^{-1} g) = -H(g^{-1} k) equals the ball bracket under the
        # disk identification, tying every convention together
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_group_element(rng)
            theta = rng.uniform(0, 2 * math.pi)
            k = cv.k_theta_matrix(theta)
            lhs = -cv.iwasawa_H(g.inv() @ k)
            z = cv.sl2_to_ball(g)
            b = cv.boundary_circle_point(theta)
            rhs = cv.horocycle_bracket([z.real, z.imag], [b.real, b.imag])
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestPhiOracle:
    def test_at_origin(self):
        for n in (2, 3, 5):
            assert md.quad_phi_K(n, 0.7 + 0.2j, 0.0) == 1.0

    def test_matches_closed_form(self):
        for n in (2, 3, 5):
            space = r1.RankOneSpace(n - 1, 0)
            for lam in (0.7 + 0.2j, 1.4 - 0.6j):
                for t in (0.5, 1.3, 3.0):
                    quad = md.quad_phi_K(n, lam, t)
                    closed = r1.phi_tau(space, r1.TRIVIAL_KTYPE, lam, t)
                    assert abs(quad - closed) < 1e-9

    def test_weyl_invariance(self):
        lam = 0.9 + 0.4j
        a = md.quad_phi_K(2, lam, 1.1)
        b = md.quad_phi_K(2, -lam, 1.1)
        assert a == pytest.approx(b, rel=1e-9)


class TestCOracle:
    def test_self_normalization(self):
        for n in (2, 3, 4):
            rho = 0.5 * (n - 1)
            assert md.quad_c_Nbar(n, complex(0.0, -rho)) == \
                pytest.approx(1.0, rel=1e-12)

    def test_matches_product_formula(self):
        for n in (2, 3, 4):
            for lam in (1 - 0.5j, 2 - 0.3j, 0.4 - 0.21j):
                quad = md.quad_c_Nbar(n, lam)
                closed = cfun.c_alpha(lam, n - 1, 0).value
                assert quad == pytest.approx(closed, rel=1e-6)

    def test_divergent_region_rejected(self):
        with pytest.raises(md.DivergentIntegralError):
            md.quad_c_Nbar(2, 1.0 + 0.5j)

    def test_determinism(self):
        a = md.quad_c_Nbar(3, 1.1 - 0.6j)
        b = md.quad_c_Nbar(3, 1.1 - 0.6j)
        assert a == b


class TestEisenstein:
    def test_trivial_character_is_zonal(self):
        lam = 0.7 + 0.2j
        assert md.quad_eisenstein_sl2(0, lam, 1.3) == \
            md.quad_phi_K(2, lam, 1.3)

    def test_vanishes_at_origin(self):
        assert abs(md.quad_eisenstein_sl2(2, 0.7 + 0.2j, 0.0)) < 1e-12

    def test_odd_character_rejected(self):
        with pytest.raises(ValueError):
            md.quad_eisenstein_sl2(3, 1.0, 1.0)

    def test_proportional_to_closed_form(self):
        # t-independent ratio; the constant is 1/s! in this normalization
        h2 = r1.RankOneSpace(1, 0)
        lam = 0.7 + 0.2j
        for char_n in (2, 4):
            kt = r1.sl2_ktype_for_char(char_n)
            ratios = [md.quad_eisenstein_sl2(char_n, lam, t)
                      / r1.phi_tau(h2, kt, lam, t)
                      for t in (0.5, 1.0, 2.0)]
            for ratio in ratios[1:]:
                assert ratio == pytest.approx(ratios[0], abs=1e-6)
            assert ratios[0] == pytest.approx(
                1.0 / math.factorial(kt.s), rel=1e-8)


def brute_force_entry(char_n, lam, z, nodes=4096):
    """Uniform mean over `nodes` boundary points b = e^{i psi} of
    P(z, b)^{i lam + 1/2} e^{i (char_n/2) psi}, straight from the
    definition of the entry."""
    mu = 1j * lam + 0.5
    psi = np.arange(nodes) * (2.0 * math.pi / nodes)
    b = np.exp(1j * psi)
    pk = (1.0 - abs(z) ** 2) / np.abs(z - b) ** 2
    return complex(np.mean(pk ** mu * np.exp(0.5j * char_n * psi)))


class TestEntryCircleMean:
    # off the nonnegative real axis: all four quadrants and the negative
    # real axis, where the entry is the radial mean times e^{i k arg z}
    @pytest.mark.parametrize("char_n", [0, 2, 4])
    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.45 + 0.3j, -0.2 - 0.55j,
                                   0.5 - 0.35j, -0.6 + 0j])
    def test_matches_brute_force_mean(self, char_n, z):
        for lam in (0.8 + 0.3j, 1.3 - 0.4j):
            value = md.entry_function_sl2(char_n, lam, z)
            assert value == pytest.approx(
                brute_force_entry(char_n, lam, z), rel=1e-10)


class TestCSigmaOracle:
    def test_trivial_character_reduces_to_c(self):
        lam = 1 - 0.4j
        assert md.quad_Csigma_sl2(0, lam) == pytest.approx(
            md.quad_c_Nbar(2, lam), rel=1e-12)

    def test_matches_ratio_formula(self):
        h2 = r1.RankOneSpace(1, 0)
        for char_n in (0, 2, 4):
            kt = r1.sl2_ktype_for_char(char_n)
            for lam in (1 - 0.4j, 0.6 - 0.8j, 2.0 - 0.25j):
                quad = md.quad_Csigma_sl2(char_n, lam)
                closed = r1.C_sigma_minus(h2, kt, lam)
                assert quad == pytest.approx(closed, rel=1e-6)

    def test_conjugation_symmetry(self):
        lam = 1 - 0.4j
        a = md.quad_Csigma_sl2(2, -lam.conjugate())
        b = md.quad_Csigma_sl2(2, lam).conjugate()
        assert a == pytest.approx(b, abs=1e-10)

    def test_shared_normalization_constant(self):
        # the measure constant is computed once and shared by the
        # c-function and second-coefficient oracles
        spec = md.DEFAULT_SPEC
        assert md.nbar_normalization(2, spec) is md.nbar_normalization(
            2, spec)


def domain_lams(seed, count):
    """count Lam with Re Lam in [-7.5, 7.5] and -Im Lam in [0.06, 1.5]:
    the opposite-unipotent integrals up to 0.01 from their margin."""
    rng = np.random.default_rng(seed)
    return list(rng.uniform(-7.5, 7.5, count)
                - 1j * rng.uniform(0.06, 1.5, count))


class TestNbarOraclesOverTheDomain:
    # near the margin the radial integrand decays like r^{-1.12}; these
    # rows need the rule on r itself, not on u with r = sinh u
    MARGIN_LAMS = [3 - 0.06j, 7.5 - 0.06j, 15 - 0.2j]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_c_matches_gamma_quotient(self, n):
        mp = pytest.importorskip("mpmath")
        lams = domain_lams(200 + n, 40)
        if n <= 4:
            lams += self.MARGIN_LAMS
        quads = md.quad_c_Nbar(n, lams)
        rho = mp.mpf(n - 1) / 2
        with mp.workdps(30):
            for lam, quad in zip(lams, quads):
                il = 1j * mp.mpc(lam)
                want = complex(mp.gamma(il) * mp.gamma(2 * rho)
                               / (mp.gamma(il + rho) * mp.gamma(rho)))
                assert abs(quad - want) <= 1e-12 * abs(want), lam

    @pytest.mark.parametrize("char_n", [0, 2, 4, 6])
    def test_csigma_matches_closed_form(self, char_n):
        h2 = r1.RankOneSpace(1, 0)
        kt = r1.sl2_ktype_for_char(char_n)
        lams = domain_lams(210 + char_n, 40)
        for lam, quad in zip(lams, md.quad_Csigma_sl2(char_n, lams)):
            want = r1.C_sigma_minus(h2, kt, lam)
            assert abs(quad - want) <= 1e-12 * abs(want), lam


def poisson_domain(seed, count, t_min=0.0):
    """count (Lam, t) with t in [t_min, 10], Re Lam in [0, 3] and
    |Im Lam| <= 0.9, Lam = 0 in every tenth: the Poisson-kernel oracles
    out to where the kernel's peak is e^{-10} wide."""
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.0, 3.0, count) + 1j * rng.uniform(-0.9, 0.9, count)
    lams[::10] = 0.0
    return list(lams), list(rng.uniform(t_min, 10.0, count))


class TestPoissonOraclesOverTheDomain:
    # out to t = 10: formed as (1 - u^2)/(1 - 2u cos psi + u^2), the
    # kernel lost digits at its peak from t of about 6, and the n >= 3
    # rule ran out of bisections; in the boundary variable theta there is
    # no peak to lose them at
    SPEC = QuadratureSpec(abs_tol=1e-300)
    FIXED = [(3, 1.4 - 0.5j, 6.5), (2, 0.3 - 0.05j, 8.0),
             (2, 0.3 - 0.05j, 10.0)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi_matches_mpmath(self, n):
        mp = pytest.importorskip("mpmath")
        lams, ts = poisson_domain(220 + n, 30)
        fixed = [(lam, t) for m, lam, t in self.FIXED if m == n]
        lams += [lam for lam, _ in fixed]
        ts += [t for _, t in fixed]
        space = r1.RankOneSpace(n - 1, 0)
        for lam, t, quad in zip(lams, ts,
                                md.quad_phi_K(n, lams, ts, self.SPEC)):
            want = mp_phi_and_limit(mp, space, r1.TRIVIAL_KTYPE, lam, t)[0]
            assert abs(quad - want) <= 1e-11 * abs(want), (lam, t)

    def test_three_ball_point_that_ran_out_of_bisections(self):
        mp = pytest.importorskip("mpmath")
        want = mp_phi_and_limit(mp, r1.RankOneSpace(2, 0), r1.TRIVIAL_KTYPE,
                                1.4 - 0.5j, 6.5)[0]
        quad = md.quad_phi_K(3, 1.4 - 0.5j, 6.5)
        assert abs(quad - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("char_n", [2, 4, 6])
    def test_eisenstein_matches_closed_form(self, char_n):
        # from t = 0.1: the entry of weight 2k is O(t^k) at small t, the
        # circle mean of terms of size 1, so its relative error there is
        # the rounding of those terms over t^k, whatever the kernel's form
        h2 = r1.RankOneSpace(1, 0)
        kt = r1.sl2_ktype_for_char(char_n)
        lams, ts = poisson_domain(230 + char_n, 30, t_min=0.1)
        quads = md.quad_eisenstein_sl2(char_n, lams, ts, self.SPEC)
        for lam, t, quad in zip(lams, ts, quads):
            want = r1.phi_tau(h2, kt, lam, t) / math.factorial(kt.s)
            assert abs(quad - want) <= 1e-10 * abs(want), (lam, t)


class TestPlaneOraclesBeyondTen:
    # in the boundary variable theta the plane's integrand has no peak:
    # in psi the Poisson kernel's peak is e^{-t} wide, and the trapezoid
    # rule ran out of nodes from t of about 11 (about 20 after a change
    # of chart that split it into two peaks of width e^{-t/2}).  The
    # tightest bound of the Poisson oracles: every t here is beyond
    # where the rules in psi reached
    SPEC = QuadratureSpec(abs_tol=1e-300)
    REL = 5e-14

    @staticmethod
    def domain(seed):
        lams, ts = poisson_domain(seed, 30)
        return lams, [10.0 + 0.6 * t for t in ts]  # t in [10, 16]

    def test_phi_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        lams, ts = self.domain(240)
        lams.append(1.4 - 0.5j)
        ts.append(20.0)
        h2 = r1.RankOneSpace(1, 0)
        for lam, t, quad in zip(lams, ts,
                                md.quad_phi_K(2, lams, ts, self.SPEC)):
            want = mp_phi_and_limit(mp, h2, r1.TRIVIAL_KTYPE, lam, t)[0]
            assert abs(quad - want) <= self.REL * abs(want), (lam, t)

    @pytest.mark.parametrize("char_n", [2, 4])
    def test_eisenstein_matches_mpmath(self, char_n):
        mp = pytest.importorskip("mpmath")
        h2 = r1.RankOneSpace(1, 0)
        kt = r1.sl2_ktype_for_char(char_n)
        lams, ts = self.domain(250 + char_n)
        quads = md.quad_eisenstein_sl2(char_n, lams, ts, self.SPEC)
        for lam, t, quad in zip(lams, ts, quads):
            want = (mp_phi_and_limit(mp, h2, kt, lam, t)[0]
                    / math.factorial(kt.s))
            assert abs(quad - want) <= self.REL * abs(want), (lam, t)

    def test_functional_equation_at_large_distances(self):
        # at (5, 5) the distance of the composed point falls to 0 within
        # about e^{-5} of gamma = pi, a peak of the average's integrand
        lams = np.array([0.9 - 0.2j, 0.0, 1.3 + 0.4j])[:, None]
        reps = md.functional_equation_check(2, lams, [5.0, 2.0], [5.0, 6.0])
        assert len(reps) == 6
        for rep in reps:
            assert rep.rel_err <= 1e-10, rep


class TestPoissonOraclesMatchMpmath:
    # the reach of the boundary variable: phi on the n-ball, n = 2-5, from
    # t = 0.05 to 60 (on the plane to t = 1000), and the plane's entries of
    # characters 2 and 4 to t = 40, against mpmath.  For complex Lam the
    # bound is relative.  For real Lam the functions have zeros, so it is
    # absolute, against the envelope 2 |c(Lam)| e^{-rho t} of their
    # large-t expansion (c(Lam) leads the entries' expansion too); Lam = 0
    # is real, but c has its pole there and the functions keep their sign,
    # so its bound is relative.  The rows n = 3 at t = 24 and 40 and n = 4
    # at t = 24, at Lam = 1.4 - 0.5i, are where the rule in the polar angle
    # psi missed the kernel's peak and printed a wrong value; those at
    # n = 3-5, Lam = 7.5 - 0.06i, t = 40 and 60 are where a per-panel
    # target of the bisection rule fell below the rounding of panels that
    # cancel, and it ran out of bisections
    SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)
    LAMS = [1.4 - 0.5j, 0.3 - 0.05j, 0j, 3.0, 2 + 0.6j, -1 + 0.3j,
            7.5 - 0.06j]
    TS = [0.05, 0.5, 2.0, 6.0, 12.0, 24.0, 40.0, 60.0]

    @staticmethod
    def scale(mp, n, lam, t, want):
        if lam.imag != 0 or lam == 0:
            return abs(want)
        rho = mp.mpf(n - 1) / 2
        with mp.workdps(30):
            il = 1j * mp.mpf(lam.real)
            c = mp.gamma(il) * mp.gamma(2 * rho) / (mp.gamma(il + rho)
                                                     * mp.gamma(rho))
            return float(2 * abs(c) * mp.exp(-rho * t))

    @staticmethod
    def plane_phi(mp, lam, t):
        # the conical function P_{-1/2 + i Lam}(cosh t): mpmath needs no
        # extra digits for it at large t, as it does for the 2F1 at
        # tanh^2 t
        with mp.workdps(30):
            return complex(mp.legenp(-0.5 + 1j * mp.mpc(lam), 0,
                                     mp.cosh(t), type=3))

    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi(self, n, lam):
        mp = pytest.importorskip("mpmath")
        ts = self.TS + ([100.0, 1000.0] if n == 2 else [])
        space = r1.RankOneSpace(n - 1, 0)
        for t, quad in zip(ts, md.quad_phi_K(n, lam, ts, self.SPEC)):
            want = (self.plane_phi(mp, lam, t) if t > 60.0 else
                    mp_phi_and_limit(mp, space, r1.TRIVIAL_KTYPE, lam, t)[0])
            assert abs(quad - want) <= 1e-12 * self.scale(mp, n, lam, t,
                                                          want), t

    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("char_n", [2, 4])
    def test_entries(self, char_n, lam):
        mp = pytest.importorskip("mpmath")
        h2 = r1.RankOneSpace(1, 0)
        kt = r1.sl2_ktype_for_char(char_n)
        ts = [t for t in self.TS if t <= 40.0]
        for t, quad in zip(ts, md.quad_eisenstein_sl2(char_n, lam, ts,
                                                      self.SPEC)):
            want = (mp_phi_and_limit(mp, h2, kt, lam, t)[0]
                    / math.factorial(kt.s))
            assert abs(quad - want) <= 1e-12 * self.scale(mp, 2, lam, t,
                                                          want), t


class TestGaussLegendreTables:
    def test_entries_are_the_nearest_doubles(self):
        # each node a 40-digit root of P_n, each weight
        # 2/((1 - x^2) P_n'(x)^2) there, rounded once to a double
        mp = pytest.importorskip("mpmath")

        def legendre(n, x):  # P_n(x) and P_n'(x), by the recurrence
            p0, p1 = mp.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p1, n * (x * p1 - p0) / (x * x - 1)

        with mp.workdps(40):
            for n in (20, 40):
                x, w = gl_rule(n)
                for i in range(n // 2):
                    guess = mp.cos(mp.pi * (i + mp.mpf(3) / 4)
                                   / (n + mp.mpf(1) / 2))
                    root = mp.findroot(lambda y: legendre(n, y)[0], guess,
                                       solver="newton",
                                       df=lambda y: legendre(n, y)[1])
                    weight = 2 / ((1 - root ** 2) * legendre(n, root)[1] ** 2)
                    # the table is in increasing order, mirrored
                    assert x[n - 1 - i] == float(root) == -x[i], (n, i)
                    assert w[n - 1 - i] == float(weight) == w[i], (n, i)


class TestFunctionalEquation:
    def test_degenerate_first_argument(self):
        rep = md.functional_equation_check(2, 0.8 + 0.1j, 0.0, 1.0)
        assert rep.rel_err < 1e-10

    def test_zonal_cases(self):
        for lam in (0.6 + 0j, 0.6 + 0.2j):
            for (t1, t2) in ((1.0, 1.0), (0.5, 2.0)):
                rep = md.functional_equation_check(2, lam, t1, t2)
                assert rep.rel_err < 1e-6

    def test_three_dimensional(self):
        rep = md.functional_equation_check(3, 0.9 - 0.3j, 1.0, 0.7)
        assert rep.rel_err < 1e-6

    def test_entry_variant(self):
        rep = md.functional_equation_entry_sl2(2, 0.6 + 0.2j, 1.0, 1.0)
        assert rep.rel_err < 1e-6

    def test_oracle_report_fields(self):
        rep = md.functional_equation_check(2, 0.5, 0.0, 1.0)
        assert rep.abs_err == abs(rep.closed_form - rep.quadrature)
        assert rep.nodes_used > 0


class TestDeterminism:
    def test_bitwise_repeatability(self):
        values = set()
        for _ in range(3):
            v = md.quad_phi_K(3, 0.8 - 0.3j, 1.7)
            values.add((v.real, v.imag))
        assert len(values) == 1

    def test_entry_function_general_point(self):
        # equivariance: E(rot(z)) picks up the character of the rotation
        lam = 0.8 + 0.3j
        z = 0.3 + 0.2j
        theta = 0.7
        a = md.entry_function_sl2(2, lam, z * cmath.exp(2j * theta))
        b = (cmath.exp(2j * theta)
             * md.entry_function_sl2(2, lam, z))
        assert a == pytest.approx(b, rel=1e-8)


class TestQuadratureSpec:
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_non_finite_tolerance_rejected(self, field, tol):
        with pytest.raises(ValueError, match="finite and > 0"):
            QuadratureSpec(**{field: tol})


class TestBatchedRules:
    # one batched call against one call per row: the same arithmetic, so
    # the values agree bit for bit, and the nodes add up row by row
    LAM = 0.7 + 0.2j

    def test_trapezoid_rows_match_one_row_runs(self):
        t = np.array([0.1, 2.0, 6.0, 20.0])
        values, nodes = trapezoid_doubling(circle_level(t, self.LAM, 1),
                                           len(t))
        singles = [trapezoid_doubling(circle_level(t[i:i + 1], self.LAM, 1),
                                      1)
                   for i in range(len(t))]
        assert [complex(v) for v in values] == [complex(s[0][0])
                                                for s in singles]
        assert type(nodes) is int
        assert nodes == sum(s[1] for s in singles)
        # the rows stop at different levels
        assert len({s[1] for s in singles}) > 1

    def test_exp_sinh_rows_match_one_row_runs(self):
        s = np.array([1.5 - 0.6j, 0.9 - 0.2j, 2.0 + 0.1j])

        def log_f(k, idx):
            # one row underflows everywhere: its integral is 0
            out = md._log_nbar_radial(3, s, 2)(k, idx)
            out[idx == 1] = -np.inf
            return out

        values, nodes = exp_sinh_halfline(log_f, len(s))
        singles = [exp_sinh_halfline(
            lambda k, idx, i=i: log_f(k, np.full(len(idx), i)), 1)
            for i in range(len(s))]
        assert [complex(v) for v in values] == [complex(x[0][0])
                                                for x in singles]
        assert values[1] == 0
        assert type(nodes) is int
        assert nodes == sum(x[1] for x in singles)

    def test_empty_batch(self):
        for values, nodes in (trapezoid_doubling(None, 0),
                              exp_sinh_halfline(None, 0),
                              gauss_legendre_adaptive(None, 0, 0.0, 1.0)):
            assert values.shape == (0,) and nodes == 0
        for values in (md.quad_phi_K(2, self.LAM, []),
                       md.quad_phi_K(3, self.LAM, []),
                       md.quad_c_Nbar(3, []), md.quad_Csigma_sl2(2, []),
                       md.entry_function_sl2(2, self.LAM, []),
                       md.quad_eisenstein_sl2(2, self.LAM, [])):
            assert values.shape == (0,) and values.dtype == complex

    @pytest.mark.parametrize("rule", ["trapezoid", "exp-sinh",
                                      "gauss-legendre"])
    def test_budget_error_names_first_failing_row(self, rule):
        # rows 1 and 2 never converge (for the nested rules they flip sign
        # at every level); the error is row 1's, as its one-row run
        # reports it
        sign = {"flip": 1.0}

        def rows_of(idx, scale, new_nodes):
            # a nested level halves the old sum and adds the new nodes, so
            # these carry three times the value for the level to flip
            sign["flip"] = -sign["flip"]
            out = np.ones(len(idx), dtype=complex)
            factor = 3.0 if new_nodes else 1.0
            out[idx >= 1] = factor * sign["flip"] * scale[idx[idx >= 1]]
            return out

        scale = np.array([1.0, 3.0, 5.0])
        if rule == "trapezoid":
            def run(idx_map, rows):
                return trapezoid_doubling(
                    lambda m, idx, shift: rows_of(idx_map[idx], scale,
                                                  shift != 0.0), rows)
        elif rule == "gauss-legendre":
            def run(idx_map, rows):
                # rows 1 and 2 are their scale at the 20-point nodes and
                # its negative at the 40-point ones, so on [0, 1] the two
                # sums differ by twice the scale at every level
                def f(x, idx):
                    out = np.ones(x.shape, dtype=complex)
                    fails = idx_map[idx] >= 1
                    out[fails] = scale[idx_map[idx][fails], None]
                    out[fails, 20:] *= -1.0
                    return out
                return gauss_legendre_adaptive(f, rows, 0.0, 1.0)
        else:
            def run(idx_map, rows):
                def log_f(k, idx):
                    # the row's value over the rule's weights, spread so
                    # that level 0 sums to it and each later level's new
                    # nodes to half of it
                    u, logw = _exp_sinh_nodes(k)
                    share = len(u) * (2.0 if k else 1.0)
                    vals = np.log(rows_of(idx_map[idx], scale, k > 0)
                                  / share + 0j)
                    return vals[:, None] - logw
                return exp_sinh_halfline(log_f, rows)
        with pytest.raises(ToleranceNotMetError) as batch:
            run(np.arange(3), 3)
        sign["flip"] = 1.0
        with pytest.raises(ToleranceNotMetError) as single:
            run(np.array([1]), 1)
        assert (batch.value.achieved, batch.value.target,
                batch.value.nodes) == (single.value.achieved,
                                       single.value.target,
                                       single.value.nodes)
        assert batch.value.achieved == pytest.approx(6.0, rel=1e-12)
        if rule == "gauss-legendre":
            # levels 0-14, the last of 2^14 panels: within the 2^14
            # bisections, about 2M rule points, of the old tree rule
            assert batch.value.nodes == 60 * (2 ** 15 - 1)

    # e^{i w x} on [0, pi]: the faster a row oscillates, the more levels
    # the Gauss-Legendre rule takes
    OMEGA = np.array([1.0, 30.0, 3.0, 90.0])

    def oscillating(self, rows):
        return gauss_legendre_adaptive(
            lambda x, idx: np.exp(1j * self.OMEGA[rows[idx], None] * x),
            len(rows), 0.0, math.pi)

    def test_gauss_legendre_rows_match_one_row_runs(self):
        values, nodes = self.oscillating(np.arange(len(self.OMEGA)))
        singles = [self.oscillating(np.array([i]))
                   for i in range(len(self.OMEGA))]
        assert [complex(v) for v in values] == [complex(s[0][0])
                                                for s in singles]
        assert type(nodes) is int
        assert nodes == sum(s[1] for s in singles)
        # the rows stop at different levels
        assert len({s[1] for s in singles}) > 1

    def test_gauss_legendre_chunks_leave_values_unchanged(self,
                                                          monkeypatch):
        # three panels a call split each deeper level, and each row's
        # panels, over several calls
        rows = np.arange(len(self.OMEGA))
        values, nodes = self.oscillating(rows)
        monkeypatch.setattr(quadrature, "GL_CHUNK_PANELS", 3)
        chunked, chunked_nodes = self.oscillating(rows)
        assert chunked.tobytes() == values.tobytes()
        assert chunked_nodes == nodes

    def test_circle_sum_takes_an_exponent_per_radius(self):
        # a Lam per distance, so an exponent i Lam + rho per row
        t = np.array([0.1, 0.6, 2.0, 6.0])
        lams = np.array([0.7 + 0.2j, 1.1 - 0.4j, 0.3, 2.0 + 0.5j])
        for k, m, shift in ((0, 32, 0.0), (2, 64, 0.5)):
            rows = circle_level(t, lams, k)(m, np.arange(len(t)), shift)
            assert rows.tobytes() == np.concatenate(
                [circle_level(t[i:i + 1], lams[i], k)(m, np.arange(1), shift)
                 for i in range(len(t))]).tobytes()

    # the oracles on a Lam x point grid: one batch, whose rows have the
    # bits of the calls at one Lam
    GRID_LAMS = np.array([0.7 + 0.2j, 1.4 - 0.5j, 0.45 + 0.1j])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_phi_lambda_grid_matches_per_lambda_calls(self, n):
        ts = [0.0, 0.5, 1.3, 3.0]
        grid = md.quad_phi_K(n, self.GRID_LAMS[:, None], ts)
        assert grid.shape == (3, 4)
        for lam, row in zip(self.GRID_LAMS, grid):
            assert row.tobytes() == md.quad_phi_K(n, lam, ts).tobytes()

    def test_entry_and_eisenstein_lambda_grids_match_per_lambda_calls(self):
        zs = [0.3 + 0.2j, -0.45 + 0.3j, 0j, -0.6 + 0j]
        ts = [0.0, 0.5, 1.3, 3.0]
        for char_n in (2, 4):
            entries = md.entry_function_sl2(char_n, self.GRID_LAMS[:, None],
                                            zs)
            eis = md.quad_eisenstein_sl2(char_n, self.GRID_LAMS[:, None], ts)
            assert entries.shape == eis.shape == (3, 4)
            for lam, e_row, q_row in zip(self.GRID_LAMS, entries, eis):
                assert e_row.tobytes() == md.entry_function_sl2(
                    char_n, lam, zs).tobytes()
                assert q_row.tobytes() == md.quad_eisenstein_sl2(
                    char_n, lam, ts).tobytes()

    @staticmethod
    def report_bits(rep):
        return (rep.closed_form.real.hex(), rep.closed_form.imag.hex(),
                rep.quadrature.real.hex(), rep.quadrature.imag.hex(),
                rep.nodes_used)

    @pytest.mark.parametrize("n", [2, 3])
    def test_functional_equation_cases_match_per_case_reports(self, n):
        lams = [0.7 + 0.2j, 3.0 - 0.2j]
        t1, t2 = [0.0, 1.0, 2.0], [1.0, 1.0, 2.0]
        reps = md.functional_equation_check(n, np.array(lams)[:, None],
                                            t1, t2)
        singles = [md.functional_equation_check(n, lam, a, b)
                   for lam in lams for a, b in zip(t1, t2)]
        assert [self.report_bits(r) for r in reps] == \
            [self.report_bits(r) for r in singles]
        # the cases stop at different depths of the outer rule
        assert len({r.nodes_used for r in singles}) > 1

    def test_entry_functional_equation_cases_match_per_case_reports(self):
        t1, t2 = [1.0, 0.5], [1.0, 2.0]
        reps = md.functional_equation_entry_sl2(
            2, self.GRID_LAMS[:, None], t1, t2)
        singles = [md.functional_equation_entry_sl2(2, lam, a, b)
                   for lam in self.GRID_LAMS for a, b in zip(t1, t2)]
        assert [self.report_bits(r) for r in reps] == \
            [self.report_bits(r) for r in singles]


def circle_level(t, lam, harmonic):
    """The level sum md._plane_means hands the trapezoid rule, for the
    distances t > 0 and Lam (one, or one per distance): mean_of(m, idx,
    shift), the mean over the m-point grid of the rows idx."""
    levels = []

    def capture(mean_of, rows, spec):
        levels.append(mean_of)
        return np.zeros(rows, dtype=complex), 0

    t = np.asarray(t, dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(md, "trapezoid_doubling", capture)
        md._plane_means(np.broadcast_to(np.asarray(lam, complex), t.shape),
                        t, harmonic, md.DEFAULT_SPEC)
    return levels[0]


def theta_integrand(t, lam, harmonic, theta):
    """The integrand md._plane_means sums, in plain form at the angles
    theta: e^{-i Lam t cos theta} t (F(s2) F(c2))^{-1/2} T_k(cos psi),
    with F(x) = sinh(t x)/x (F(0) = t), s2 = sin^2(theta/2),
    c2 = cos^2(theta/2), k = |harmonic| and
    cos psi = (cosh t - e^{t cos theta})/sinh t."""
    def sinh_over(x):
        return np.where(x > 0.0, np.sinh(t * x) / np.where(x > 0.0, x, 1.0),
                        t)

    y = t * np.cos(theta)
    weight = t / np.sqrt(sinh_over(np.sin(0.5 * theta) ** 2)
                         * sinh_over(np.cos(0.5 * theta) ** 2))
    cos_psi = (math.cosh(t) - np.exp(y)) / math.sinh(t)
    return (np.exp(-1j * lam * y) * weight
            * np.cos(abs(harmonic) * np.arccos(np.clip(cos_psi, -1.0, 1.0))))


def theta_growth(t, lam, harmonic):
    """The factor by which the plain form magnifies an error of eps in
    theta and in its own arithmetic: the phase and the modulus of
    e^{-i Lam t cos theta} by |Lam| t, sinh(t x) by 1 + t, and, through
    cos psi, whose two terms are each as large as coth t, T_k by k^2
    coth t (|T_k'| <= k^2 on [-1, 1])."""
    k = abs(harmonic)
    return 1.0 + abs(lam) * t + t + k * k * (1.0 + t) / math.tanh(t)


def reference_circle_mean(t, lam, harmonic, spec):
    """One distance by the plain trapezoid sequence: the full-grid mean of
    the plain integrand at 32, 64, ... points until two levels agree.
    Returns the value, the rule points used and the mean of |integrand|
    at the last level."""
    prev, nodes, n = None, 0, 32
    while True:
        vals = theta_integrand(t, lam, harmonic,
                               np.arange(n) * (2.0 * math.pi / n))
        cur = complex(vals.mean())
        nodes += n
        if prev is not None and abs(cur - prev) <= max(
                spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur, nodes, float(np.abs(vals).mean())
        prev, n = cur, 2 * n
        assert n <= quadrature.TRAPEZOID_MAX_NODES, (t, lam, harmonic)


def reference_exp_sinh(log_f, spec):
    """One row by the plain double-exponential sequence: every node of
    each level with step h = 1/2, 1/4, ... summed anew.  Returns the
    value, the rule points used and the sum of |terms| at the last
    level."""
    prev, nodes, h = None, 0, 0.5
    while True:
        jh = np.arange(-int(6.5 / h), int(6.5 / h) + 1) * h
        u = np.exp(0.5 * math.pi * np.sinh(jh))
        vals = log_f(u) + np.log(0.5 * math.pi * h * np.cosh(jh)) + np.log(u)
        vals = vals[np.isfinite(vals.real)]
        terms = np.exp(vals)
        cur = complex(terms.sum())
        nodes += len(u)
        if prev is not None and abs(cur - prev) <= max(
                spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur, nodes, float(np.abs(terms).sum())
        prev, h = cur, 0.5 * h


def reference_gauss_legendre(f, a, b, spec):
    """One integrand f(x) by the plain sequence: the 20- and 40-point
    sums over 2^k equal panels of [a, b], k = 0, 1, ..., every panel of
    each level summed anew, until the two sums agree.  Returns the
    40-point sum, the rule points used and the stop level."""
    nodes, k = 0, 0
    while True:
        half = (b - a) / 2 ** (k + 1)
        mid = a + (2 * np.arange(2 ** k) + 1) * half
        coarse, fine = (
            complex(np.sum(half * np.sum(w * f(mid[:, None] + half * x),
                                         axis=1)))
            for x, w in (gl_rule(20), gl_rule(40)))
        nodes += 60 * 2 ** k
        if abs(fine - coarse) <= max(spec.abs_tol, spec.rel_tol * abs(fine)):
            return fine, nodes, k
        k += 1


def fe_distances(t1, t2, n=3):
    """The distances of the first outer nodes of functional_equation_check
    on the n-ball: on the plane (n = 2), the nodes 0 <= gamma <= pi of the
    first two circle levels, of 32 and 64 points; above it, the 20 + 40
    nodes of Gauss-Legendre level 0."""
    if n == 2:
        # cos^2(gamma/2) at gamma = j pi/32, j = 0, ..., 32, as the
        # half-circle table holds it: exactly 0 at gamma = pi
        c2 = md._half_circle(64, 0.0)[0][1]
    else:
        x = np.concatenate([gl_rule(m)[0] for m in (20, 40)])
        c2 = np.cos(0.25 * math.pi * (1.0 + x)) ** 2
    # cosh d = cosh t1 cosh t2 + sinh t1 sinh t2 cos gamma, as
    # sinh^2(d/2) = sinh^2((t1 - t2)/2) + sinh t1 sinh t2 cos^2(gamma/2)
    return 2.0 * np.arcsinh(np.sqrt(math.sinh(0.5 * (t1 - t2)) ** 2
                                    + math.sinh(t1) * math.sinh(t2) * c2))


def circle_samples():
    """(t, Lam, harmonic) of the verify suites and acceptance criteria
    that integrate over the circle, t > 0."""
    rng = np.random.default_rng(104)
    crit4 = [complex(rng.uniform(0.2, 2.0), rng.uniform(-0.8, 0.8))
             for _ in range(10)]
    phi_lams = vf._lambda_samples(5, seed=5, im_range=(-0.6, 0.6)) + crit4
    fe_lams = vf._lambda_samples(3, seed=23, im_range=(-0.4, 0.4))
    entry_lams = vf._lambda_samples(2, seed=29, im_range=(-0.4, 0.4))
    out = [(t, lam, 0) for lam in phi_lams for t in (0.5, 1.0, 2.0, 3.0)]
    out += [(t, lam, k)
            for lam in vf._lambda_samples(3, seed=31, im_range=(-0.5, 0.5))
            for k in (1, 2) for t in (0.5, 1.0, 2.0)]
    out += [(d, lam, 0) for lam in fe_lams
            for d in np.concatenate([fe_distances(1.0, 1.0, 2),
                                     fe_distances(0.5, 2.0, 2)]) if d > 0]
    out += [(d, lam, 1) for lam in entry_lams
            for d in fe_distances(1.0, 1.0, 2) if d > 0]
    return out


def nbar_samples():
    """(n, s, extra_char) of the verify suites and acceptance criteria
    that integrate over the opposite unipotent group."""
    c_lams = vf._lambda_samples(8) + margin_samples(20, seed=103)
    cs_lams = vf._lambda_samples(4, seed=37) + margin_samples(10, seed=109)
    out = [(n, n - 1.0 + 0j, 0) for n in (2, 3, 4)]
    out += [(n, 1j * lam + 0.5 * (n - 1), 0) for n in (2, 3, 4)
            for lam in c_lams]
    out += [(2, 1j * lam + 0.5, k) for k in (0, 2, 4) for lam in cs_lams]
    return out


class TestNestedRulesMatchReference:
    # the nested rules against the plain sequences they replace: the same
    # stop level per row, so the same rule points, and the same value up
    # to rounding at the scale of the terms summed
    SPEC = md.DEFAULT_SPEC

    def test_circle_means(self):
        for t, lam, harmonic in circle_samples():
            value, nodes = trapezoid_doubling(
                circle_level([t], lam, harmonic), 1)
            want, want_nodes, scale = reference_circle_mean(
                t, lam, harmonic, self.SPEC)
            assert nodes == want_nodes, (t, lam, harmonic)
            assert abs(value[0] - want) <= 1e-14 * scale, (t, lam, harmonic)

    def test_exp_sinh(self):
        for n, s, char in nbar_samples():
            value, nodes = exp_sinh_halfline(
                md._log_nbar_radial(n, np.array([s]), char), 1)

            def log_f(u):
                # the integrand from its terms at the reference's nodes
                logr, log1pr, logcos = md._radial_terms(u, char)
                out = -s * log1pr + (n - 2) * logr
                return out + logcos if char else out

            want, want_nodes, scale = reference_exp_sinh(log_f, self.SPEC)
            assert nodes == want_nodes
            assert abs(value[0] - want) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [3, 4])
    def test_gauss_legendre_bit_for_bit(self, n):
        # the rule sums the panels of the plain sequence in the same
        # order, so it stops each row at the same level, bit for bit
        lams = vf._lambda_samples(5, seed=5, im_range=(-0.6, 0.6))
        u = np.array([cv.geodesic_radius(t) for t in
                      np.concatenate([[0.5, 1.0, 2.0, 3.0],
                                      fe_distances(1.0, 0.7)[::7]])])
        levels = set()
        for lam in lams:
            mu = 1j * lam + 0.5 * (n - 1)

            def f(theta, idx):
                r = u[idx, None]
                pk = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(theta) + r * r)
                return np.exp(mu * np.log(pk)) * np.sin(theta) ** (n - 2)

            for i in range(len(u)):
                value, nodes = gauss_legendre_adaptive(
                    lambda x, idx: f(x, idx + i), 1, 0.0, math.pi)
                want, want_nodes, level = reference_gauss_legendre(
                    lambda x: f(x, np.full(len(x), i)), 0.0, math.pi,
                    self.SPEC)
                assert nodes == want_nodes == 60 * (2 ** (level + 1) - 1)
                assert complex(value[0]) == want
                levels.add(level)
        assert len(levels) > 1


class TestPoissonCircleSum:
    def test_half_circle_matches_full_grid(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=200)
        @hyp.given(st.floats(0.01, 10.0), st.floats(-3.0, 3.0),
                   st.floats(-1.5, 1.5), st.integers(0, 4),
                   st.integers(32, 1024), st.sampled_from([0.0, 0.5]))
        def check(t, lam_re, lam_im, harmonic, nphi, shift):
            lam = complex(lam_re, lam_im)
            got = circle_level([t], lam, harmonic)(
                nphi, np.arange(1), shift)[0]
            vals = theta_integrand(
                t, lam, harmonic,
                2.0 * math.pi * (np.arange(nphi) + shift) / nphi)
            want = complex(np.mean(vals))
            # the full grid forms theta at each node and at its mirror,
            # each rounded, and the plain form magnifies that and its own
            # rounding by at most theta_growth
            bound = 8.0 * EPS * theta_growth(t, lam, harmonic)
            assert abs(got - want) <= bound * np.mean(np.abs(vals))

        check()


class TestRuleTablesReadOnly:
    def test_cached_arrays_reject_writes(self):
        for table in (gl_rule(20), gl_rule(40), _exp_sinh_nodes(0),
                      _exp_sinh_nodes(3), md._half_circle(32, 0.5),
                      md._level_radial_terms(2, 4)):
            for arr in table:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0


class TestRotatedBallPoints:
    def test_matches_matrix_products(self):
        # the vectorized matrix model against Matrix2 products, then the
        # distance and angle the entry's functional equation takes for
        # a_{t1} k_theta a_{t2} (gamma = 2 theta) against its disk point
        rng = np.random.default_rng(8)
        theta = np.linspace(0.0, 2.0 * math.pi, 97)
        pairs = [(random_group_element(rng), random_group_element(rng))
                 for _ in range(4)]
        for g1, g2 in pairs:
            got = cv.rotated_ball_points(g1, theta, g2)
            want = [cv.sl2_to_ball(g1 @ cv.k_theta_matrix(th) @ g2)
                    for th in theta]
            assert np.max(np.abs(got - np.array(want))) <= 1e-15
        theta = np.linspace(0.0, 0.5 * math.pi, 49)
        s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        for t1, t2 in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.0, 1.3),
                       (1.3, 0.0), (2.5, 2.5)):
            z = cv.rotated_ball_points(cv.a_t_matrix(t1), theta,
                                       cv.a_t_matrix(t2))
            d = md._composed_distances(t1, t2, c2)
            angle = md._composed_angles(t1, t2, s2, c2)
            assert np.max(np.abs(np.tanh(0.5 * d) * np.exp(1j * angle) - z)
                          ) <= 1e-15, (t1, t2)


class TestBatchedOracles:
    LAMS = [1 - 0.5j, 2 - 0.3j, 0.4 - 0.21j, 0.9 - 0.7j]
    TS = [0.0, 0.4, 1.3, 3.0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_phi_grid(self, n):
        lam = 0.8 - 0.3j
        grid = md.quad_phi_K(n, lam, self.TS)
        assert list(grid) == [md.quad_phi_K(n, lam, t) for t in self.TS]
        assert grid[0] == 1.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_c_grid(self, n):
        grid = md.quad_c_Nbar(n, self.LAMS)
        assert list(grid) == [md.quad_c_Nbar(n, lam) for lam in self.LAMS]

    def test_csigma_grid(self):
        for char_n in (0, 4):
            grid = md.quad_Csigma_sl2(char_n, self.LAMS)
            assert list(grid) == [md.quad_Csigma_sl2(char_n, lam)
                                  for lam in self.LAMS]

    def test_entry_and_eisenstein_grids(self):
        lam = 0.8 + 0.3j
        zs = [0.3 + 0.2j, -0.45 + 0.3j, 0j, -0.6 + 0j]
        assert list(md.entry_function_sl2(2, lam, zs)) == [
            md.entry_function_sl2(2, lam, z) for z in zs]
        assert list(md.quad_eisenstein_sl2(4, lam, self.TS)) == [
            md.quad_eisenstein_sl2(4, lam, t) for t in self.TS]

    def test_grid_errors(self):
        with pytest.raises(md.DivergentIntegralError, match="got -0.5"):
            md.quad_c_Nbar(2, [1 - 0.5j, 1 + 0.5j, 1 + 0.7j])
        with pytest.raises(ValueError, match="t must be >= 0"):
            md.quad_phi_K(2, 0.5, [1.0, -1.0])
        with pytest.raises(ValueError, match="inside the unit disk"):
            md.entry_function_sl2(2, 0.5, [0.2, 1.0])

    def test_equal_distances_are_evaluated_once(self, monkeypatch):
        # at t1 = 0 every node of the outer rule is at distance t2, so a
        # case puts one (Lam, distance) row in the inner batch, and cases
        # with equal Lam and t2 share it
        rows = []
        quad_phi_K = md.quad_phi_K

        def counted(n, lam, t, spec=md.DEFAULT_SPEC):
            rows.append(np.broadcast(lam, t).size)
            return quad_phi_K(n, lam, t, spec)

        monkeypatch.setattr(md, "quad_phi_K", counted)
        rep = md.functional_equation_check(2, 0.8 + 0.1j, 0.0, 1.0)
        # one row for the integrand, two for phi(t1) phi(t2)
        assert rows == [1, 2]
        assert rep.rel_err < 1e-10
        rows.clear()
        lams = np.array([0.8 + 0.1j, 0.6 - 0.3j])[:, None]
        reps = md.functional_equation_check(2, lams, 0.0, [1.0, 1.5, 1.0])
        # 2 Lam x 2 distances for the integrands, then phi(t1) phi(t2)
        # for each of the 6 cases
        assert rows == [4, 12]
        assert all(r.rel_err < 1e-10 for r in reps)
