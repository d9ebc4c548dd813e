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

RNG = np.random.default_rng(77)


def random_group_element(rng):
    return (md.k_theta_matrix(rng.uniform(0, 2 * math.pi))
            @ md.a_t_matrix(rng.uniform(0, 2.5))
            @ md.k_theta_matrix(rng.uniform(0, 2 * math.pi)))


class TestIwasawa:
    def test_identity(self):
        assert md.iwasawa_H(md.a_t_matrix(0.0)) == 0.0

    def test_diagonal_flow(self):
        for t in (-1.3, 0.4, 2.2):
            assert md.iwasawa_H(md.a_t_matrix(t)) == pytest.approx(t)

    def test_lower_unipotent(self):
        assert md.iwasawa_H(md.nbar_matrix(1.0)) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            g = random_group_element(rng)
            theta, h, x = md.iwasawa_decompose(g)
            rec = (md.k_theta_matrix(theta) @ md.a_t_matrix(h)
                   @ md.n_matrix(x))
            for name in "abcd":
                assert getattr(rec, name) == pytest.approx(
                    getattr(g, name), abs=1e-12)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            md.Matrix2(2.0, 0.0, 0.0, 1.0)


class TestHorocycleBracket:
    def test_origin(self):
        for theta in (0.0, 1.0, 2.5):
            b = md.boundary_circle_point(theta)
            assert md.horocycle_bracket([0.0, 0.0],
                                        [b.real, b.imag]) == 0.0

    def test_radial_value(self):
        for t in (0.3, 1.7):
            u = md.geodesic_radius(t)
            assert md.horocycle_bracket([u, 0.0], [1.0, 0.0]) == \
                pytest.approx(t, abs=1e-13)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = rng.uniform(0, 0.95)
            phi_x, phi_b, rot = rng.uniform(0, 2 * math.pi, 3)
            a = md.horocycle_bracket(
                [r * math.cos(phi_x), r * math.sin(phi_x)],
                [math.cos(phi_b), math.sin(phi_b)])
            b = md.horocycle_bracket(
                [r * math.cos(phi_x + rot), r * math.sin(phi_x + rot)],
                [math.cos(phi_b + rot), math.sin(phi_b + rot)])
            assert a == pytest.approx(b, abs=1e-10)

    def test_higher_dimension(self):
        x = [0.2, -0.1, 0.4]
        b = np.array([1.0, 2.0, -2.0]) / 3.0
        expected = math.log((1 - 0.21) / float((x - b) @ (x - b)))
        assert md.horocycle_bracket(x, b) == pytest.approx(expected)

    def test_boundary_degenerate(self):
        with pytest.raises(ValueError):
            md.horocycle_bracket([1.0 - 1e-16, 0.0], [1.0, 0.0])

    def test_matrix_model_agreement(self):
        # A(k^{-1} g) = -H(g^{-1} k) equals the ball bracket under the
        # disk identification, tying every convention together
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_group_element(rng)
            theta = rng.uniform(0, 2 * math.pi)
            k = md.k_theta_matrix(theta)
            lhs = -md.iwasawa_H(g.inv() @ k)
            z = md.sl2_to_ball(g)
            b = md.boundary_circle_point(theta)
            rhs = md.horocycle_bracket([z.real, z.imag], [b.real, b.imag])
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            md.BallPoint((1.2, 0.0))
        with pytest.raises(ValueError):
            md.BoundaryPoint((0.5, 0.0))
        assert md.BallPoint((0.2, 0.1)).array().shape == (2,)


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
