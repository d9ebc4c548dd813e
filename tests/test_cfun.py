"""c-function product-formula tests.

The independent oracle for the product formula itself is the unipotent
integral (see test_models / test_acceptance); this module covers the
algebraic structure: calibration, symmetry, partial products, pole
classification and the simplicity predicate.
"""

import math

import numpy as np
import pytest

from sphfun import cfun
from sphfun import complexmath as cm
from sphfun import rootdata as rd

SPACES = [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (4, 3), (8, 7)]


class TestCAlpha:
    def test_calibration_point(self):
        for m, m2 in SPACES:
            rho0 = 0.5 * m + m2
            val = cfun.c_alpha(-1j * rho0, m, m2).value
            assert val == pytest.approx(1.0, abs=1e-13)

    def test_calibration_constant_is_unity(self):
        for m, m2 in SPACES:
            rep = cfun.calibration_report(m, m2)
            assert rep["kappa"] == pytest.approx(1.0, abs=1e-13)
            assert rep["verbatim_at_calibration"] == pytest.approx(
                1.0, abs=1e-13)

    def test_schwarz_reflection(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if cm.distance_to_nonpos_int(1j * lam) < 0.05:
                continue
            a = cfun.c_alpha(-lam.conjugate(), 1, 0).value
            b = cfun.c_alpha(lam, 1, 0).value.conjugate()
            assert a == pytest.approx(b, rel=1e-12)

    def test_plane_closed_form(self):
        # two-dimensional hyperbolic space: c = G(iL) / (sqrt(pi) G(iL+1/2))
        for lam in (1 - 0.5j, 0.3 + 0.9j, 2.7 - 1.4j):
            got = cfun.c_alpha(lam, 1, 0).value
            expected = cm.gamma(1j * lam) / (
                math.sqrt(math.pi) * cm.gamma(1j * lam + 0.5))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_three_space_closed_form(self):
        # c = 1/(i lam) for the three-dimensional space
        for lam in (1 - 0.5j, 0.4 + 1.2j):
            assert cfun.c_alpha(lam, 2, 0).value == pytest.approx(
                1.0 / (1j * lam), rel=1e-12)

    def test_numerator_pole_detected(self):
        with pytest.raises(cfun.CPoleError) as exc:
            cfun.c_alpha(0.0, 1, 0)
        assert exc.value.kind == "numerator"

    def test_denominator_pole_detected(self):
        # i*lam = -3/2 zeroes the first denominator argument
        with pytest.raises(cfun.CPoleError) as exc:
            cfun.c_alpha(1.5j, 1, 0)
        assert exc.value.kind == "denominator"


class TestCFullAndSigma:
    def test_rank_one_reduction(self):
        d = rd.datum_a1(2, 1)
        lam = 0.9 - 0.7j
        full = cfun.c_full(d, rd.SpectralParam.of([lam])).value
        assert full == pytest.approx(cfun.c_alpha(lam, 2, 1).value,
                                     rel=1e-15)

    def test_full_at_minus_i_rho_product_structure(self):
        # every simple-root factor sits at its calibration point at
        # lam = -i rho (the shift identity <rho, alpha_0> = m/2 + m2
        # holds for simple roots); products of rank-one data give 1
        for d in (rd.datum_a1(3, 0), rd.datum_a1(2, 1), rd.datum_a1xa1()):
            lam = rd.SpectralParam.of(-1j * rd.rho(d).array())
            assert cfun.c_full(d, lam).value == pytest.approx(1.0,
                                                              abs=1e-12)
        # in A2 the highest root restricts rho to 1 (not 1/2), so the
        # full product at -i rho reduces to that single factor
        d = rd.datum_a2()
        lam = rd.SpectralParam.of(-1j * rd.rho(d).array())
        expected = cfun.c_alpha(-1j, 1, 0).value
        assert cfun.c_full(d, lam).value == pytest.approx(expected,
                                                          rel=1e-13)

    def test_sigma_identity_is_one(self):
        d = rd.datum_a2()
        lam = rd.SpectralParam.of([0.4 - 0.8j, 1.1 - 0.3j])
        assert cfun.c_sigma(d, rd.WeylElement.identity(), lam).value == 1.0

    def test_sigma_longest_is_full(self):
        rng = np.random.default_rng(9)
        for d in (rd.datum_a2(), rd.datum_b2(1, 2, 1)):
            w0 = rd.longest_element(d)
            for _ in range(20):
                lam = rd.SpectralParam.of(
                    rng.uniform(0.2, 2, 2) - 1j * rng.uniform(0.1, 1.5, 2))
                a = cfun.c_sigma(d, w0, lam).value
                b = cfun.c_full(d, lam).value
                assert a == pytest.approx(b, rel=1e-13)

    def test_sigma_single_reflection(self):
        d = rd.datum_a2()
        lam = rd.SpectralParam.of([0.8 - 0.5j, -0.2 - 1.2j])
        got = cfun.c_sigma(d, rd.WeylElement.of(1), lam).value
        expected = cfun.c_alpha(rd.restrict(d, lam, 0), 1, 0).value
        assert got == pytest.approx(expected, rel=1e-15)

    def test_full_symmetry(self):
        d = rd.datum_a2()
        rng = np.random.default_rng(10)
        for _ in range(20):
            lam = rd.SpectralParam.of(
                rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2))
            try:
                a = cfun.c_full(
                    d, rd.SpectralParam.of(-lam.array().conjugate())).value
                b = cfun.c_full(d, lam).value.conjugate()
            except cfun.CPoleError:
                continue
            assert a == pytest.approx(b, rel=1e-12)

    def test_pole_carries_root_index(self):
        d = rd.datum_a1xa1(1, 1)
        lam = rd.SpectralParam.of([0.7 - 0.3j, 0.0])
        with pytest.raises(cfun.CPoleError) as exc:
            cfun.c_full(d, lam)
        assert exc.value.root_index == 1


class TestGammaPlusX:
    def test_plane_at_zero(self):
        d = rd.datum_a1(1, 0)
        val = cfun.gamma_plus_X(d, rd.SpectralParam.of([0.0]))
        # G(3/4) G(1/4) = pi sqrt(2) by reflection
        assert val == pytest.approx(math.pi * math.sqrt(2), rel=1e-13)

    def test_rank_one_m2_value(self):
        d = rd.datum_a1(2, 0)
        val = cfun.gamma_plus_X(d, rd.SpectralParam.of([1.0]))
        expected = cm.gamma(0.5 * (2 + 1j)) * cm.gamma(0.5 * (1 + 1j))
        assert val == pytest.approx(expected, rel=1e-13)

    def test_blowup_near_non_simple_point(self):
        d = rd.datum_a1(1, 0)
        base = abs(cfun.gamma_plus_X(d, rd.SpectralParam.of([1.0])))
        for eps in (1e-3, 1e-6):
            near = abs(cfun.gamma_plus_X(
                d, rd.SpectralParam.of([1.5j + eps])))
            assert near > base / eps * 0.01


class TestIsSimple:
    def test_generic_point(self):
        d = rd.datum_a1(1, 0)
        assert cfun.is_simple(d, rd.SpectralParam.of([1 - 0.37j]))

    def test_known_non_simple(self):
        d = rd.datum_a1(1, 0)
        assert not cfun.is_simple(d, rd.SpectralParam.of([1.5j]))

    def test_zero_is_simple_on_plane(self):
        d = rd.datum_a1(1, 0)
        assert cfun.is_simple(d, rd.SpectralParam.of([0.0]))

    def test_consistent_with_argument_bruteforce(self):
        # flipping multiplicities moves the flagged set exactly as the
        # recomputed Gamma arguments dictate
        candidates = [0.5j * k for k in range(-8, 9)] + [1 - 0.4j, 2.0 + 0j]
        for m, m2 in ((1, 0), (2, 0), (3, 0), (2, 1)):
            d = rd.datum_a1(m, m2)
            for lam in candidates:
                w = 1j * lam
                args = (0.5 * (0.5 * m + 1 + w), 0.5 * (0.5 * m + m2 + w))
                brute = all(cm.distance_to_nonpos_int(a) >= 1e-9
                            for a in args)
                assert cfun.is_simple(
                    d, rd.SpectralParam.of([lam])) == brute

    def test_tol_validation(self):
        d = rd.datum_a1(1, 0)
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError):
                cfun.is_simple(d, rd.SpectralParam.of([1.0]), tol=tol)
