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
from sphfun._backend import kernels
from sphfun.quadrature import (QuadratureSpec, ToleranceNotMetError,
                               exp_sinh_halfline, trapezoid_doubling)

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

    @staticmethod
    def circle_rows(u, mu, k):
        return lambda m, idx: kernels.poisson_circle_sum(u[idx], mu, k, m)

    def test_trapezoid_rows_match_one_row_runs(self):
        u = np.array([0.05, 0.3, 0.76, 0.9])
        mu = 1j * self.LAM + 0.5
        values, nodes = trapezoid_doubling(self.circle_rows(u, mu, 1), len(u))
        singles = [trapezoid_doubling(self.circle_rows(u[i:i + 1], mu, 1), 1)
                   for i in range(len(u))]
        assert [complex(v) for v in values] == [complex(s[0][0])
                                                for s in singles]
        assert type(nodes) is int
        assert nodes == sum(s[1] for s in singles)
        # the rows stop at different levels
        assert len({s[1] for s in singles}) > 1

    def test_exp_sinh_rows_match_one_row_runs(self):
        s = np.array([1.5 - 0.6j, 0.9 - 0.2j, 2.0 + 0.1j])

        def log_f(u, idx):
            # one row underflows everywhere: its integral is 0
            out = md._log_nbar_radial(3, s, 2)(u, idx)
            out[idx == 1] = -np.inf
            return out

        values, nodes = exp_sinh_halfline(log_f, len(s))
        singles = [exp_sinh_halfline(
            lambda u, idx, i=i: log_f(u, np.full(len(idx), i)), 1)
            for i in range(len(s))]
        assert [complex(v) for v in values] == [complex(x[0][0])
                                                for x in singles]
        assert values[1] == 0
        assert type(nodes) is int
        assert nodes == sum(x[1] for x in singles)

    def test_empty_batch(self):
        for values, nodes in (trapezoid_doubling(None, 0),
                              exp_sinh_halfline(None, 0)):
            assert values.shape == (0,) and nodes == 0
        for values in (md.quad_phi_K(2, self.LAM, []),
                       md.quad_phi_K(3, self.LAM, []),
                       md.quad_c_Nbar(3, []), md.quad_Csigma_sl2(2, []),
                       md.entry_function_sl2(2, self.LAM, []),
                       md.quad_eisenstein_sl2(2, self.LAM, [])):
            assert values.shape == (0,) and values.dtype == complex

    @pytest.mark.parametrize("rule", ["trapezoid", "exp-sinh"])
    def test_budget_error_names_first_failing_row(self, rule):
        # rows 1 and 2 flip sign at every level and never converge; the
        # error is row 1's, as its one-row run reports it
        sign = {"flip": 1.0}

        def rows_of(idx, scale):
            sign["flip"] = -sign["flip"]
            out = np.ones(len(idx), dtype=complex)
            out[idx >= 1] = sign["flip"] * scale[idx[idx >= 1]]
            return out

        scale = np.array([1.0, 3.0, 5.0])
        if rule == "trapezoid":
            def run(idx_map, rows):
                return trapezoid_doubling(
                    lambda m, idx: rows_of(idx_map[idx], scale), rows)
        else:
            def run(idx_map, rows):
                def log_f(u, idx):
                    # the row's value times e^{-u}, of unit integral
                    vals = np.log(rows_of(idx_map[idx], scale) + 0j)
                    return vals[:, None] - u
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
        # at t1 = 0 every node of the outer rule is at distance t2
        rows = []
        quad_phi_K = md.quad_phi_K

        def counted(n, lam, t, spec=md.DEFAULT_SPEC):
            rows.append(np.size(t))
            return quad_phi_K(n, lam, t, spec)

        monkeypatch.setattr(md, "quad_phi_K", counted)
        rep = md.functional_equation_check(2, 0.8 + 0.1j, 0.0, 1.0)
        # one row for the integrand, two for phi(t1) phi(t2)
        assert sum(rows) == 3
        assert rep.rel_err < 1e-10
