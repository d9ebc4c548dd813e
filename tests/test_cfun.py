"""c-function product-formula tests.

The independent oracle for the product formula itself is the unipotent
integral (see test_models / test_acceptance); this module covers the
algebraic structure: calibration, symmetry, partial products, pole
classification and the simplicity predicate.
"""

import cmath
import math

import numpy as np
import pytest

from sphfun import cfun
from sphfun import complexmath as cm
from sphfun import rankone as r1
from sphfun import rootdata as rd
from sphfun import verify

SPACES = [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (4, 3), (8, 7)]
KTYPES = r1.load_ktype_catalog()
CATALOG_MULTS = sorted({(rec["space"].m_alpha, rec["space"].m_2alpha)
                        for rec in KTYPES})
RANK_TWO = [rd.datum_a2(), rd.datum_a2(2), rd.datum_b2(),
            rd.datum_b2(2, 3, 0), rd.datum_b2(1, 2, 1), rd.datum_b2(2, 3, 1)]
# the scalar Lam of the cli benchmark's argvs at seed 201: phi-eval on
# hn:3, then the b2 c-eval, a2 csigma-eval and a2 det-a vectors
CLI_LAMS = [1.067267 - 0.161188j, 1.83506 - 0.310003j,
            1.448315 - 0.725055j, 0.450191 - 0.839173j,
            0.842173 - 0.162368j, 2.081391 - 0.323828j,
            1.414234 - 0.869095j]


def clear_factor_caches():
    cfun._log_factor_quotient.cache_clear()
    cfun._log_kappa.cache_clear()


def factor_gamma_args(Lam, m, m2):
    """(kind, argument) of each Gamma of c_alpha(Lam) that Lam moves,
    formed in doubles as cfun forms them, numerators first."""
    w = 1j * complex(Lam)
    return [("numerator", w),
            ("denominator", 0.5 * (0.5 * m + 1.0 + w)),
            ("denominator", 0.5 * (0.5 * m + m2 + w))]


def delta_gamma_args(space, kt, Lam):
    """The same for c_{Lam,delta} of rankone."""
    w = 1j * complex(Lam) + space.rho
    m2 = space.m_2alpha
    return [("numerator", 0.5 * (w + kt.s + kt.r)),
            ("numerator", 0.5 * (w + 1 - m2 + kt.s - kt.r)),
            ("denominator", 0.5 * w), ("denominator", 0.5 * (w + 1 - m2))]


def first_pole(args):
    """The kind of the first argument within POLE_TOL of a pole, in the
    order the library screens them, or None."""
    for kind, z in args:
        if cm.distance_to_nonpos_int(z) <= cm.POLE_TOL:
            return kind
    return None


def rounding_allowance(args):
    """Relative error allowed near the poles.  A Gamma argument z formed
    in doubles carries a rounding of about 1e-16 |z|, which Gamma turns
    into about 1e-16 |z| / d at distance d from a pole.  Away from the
    poles this is about 1e-15 per argument.  An exact argument, such as
    c_alpha's numerator w = i Lam, carries none and is left out."""
    return 1e-15 * sum(abs(z) / cm.distance_to_nonpos_int(z)
                       for _, z in args)


def mp_factor(mp, w, m, m2):
    """The calibrated single-root factor at w = <i lam, alpha_0>, in
    mpmath: the verbatim product over its value at w = rho0."""
    rho0 = mp.mpf(m) / 2 + m2

    def verbatim(w):
        return (mp.power(2, rho0 - w) * mp.gamma(mp.mpf(m + m2 + 1) / 2)
                * mp.gamma(w) / (mp.gamma((mp.mpf(m) / 2 + 1 + w) / 2)
                                 * mp.gamma((mp.mpf(m) / 2 + m2 + w) / 2)))
    return verbatim(w) / verbatim(rho0)


def mp_c_lambda_delta(mp, space, kt, Lam):
    m2 = space.m_2alpha
    w = 1j * Lam + mp.mpf(space.m_alpha) / 2 + m2
    return (mp.gamma((w + kt.s + kt.r) / 2) / mp.gamma(w / 2)
            * mp.gamma((w + 1 - m2 + kt.s - kt.r) / 2)
            / mp.gamma((w + 1 - m2) / 2))


def factor_points(st, mults):
    """(m, m2, Lam) with (m, m2) drawn from mults: half the draws anywhere
    in |Re Lam|, |Im Lam| <= 3, half at 10^-13 to 10^-1 from a Gamma pole
    of c_alpha, numerator (w = -k) or denominator (a zero of c)."""
    @st.composite
    def points(draw):
        m, m2 = draw(st.sampled_from(mults))
        if draw(st.booleans()):
            return m, m2, complex(draw(st.floats(-3.0, 3.0)),
                                  draw(st.floats(-3.0, 3.0)))
        k = draw(st.integers(0, 4))
        pole = draw(st.sampled_from(
            (-k, -2 * k - 0.5 * m - 1, -2 * k - 0.5 * m - m2)))
        w = pole + 10.0 ** draw(st.floats(-13.0, -1.0)) * cmath.exp(
            1j * draw(st.floats(0.0, 2 * math.pi)))
        return m, m2, complex(w.imag, -w.real)  # i Lam = w
    return points()


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


class TestFactorCache:
    @pytest.fixture(autouse=True)
    def cleared(self):
        clear_factor_caches()
        yield
        clear_factor_caches()

    def test_hit_has_the_bits_of_a_fresh_call(self):
        # Lam and its signed-zero twin share a cache key; the hit must
        # return what a fresh call at the second Lam returns, bit for bit
        def bits(Lam, m, m2):
            z = cfun.c_alpha(Lam, m, m2).value
            return z.real.hex(), z.imag.hex()

        pairs = [(complex(x, 0.0), complex(x, -0.0))
                 for x in (0.5, -0.5, 1.3, -2.0)]
        pairs += [(complex(0.0, y), complex(-0.0, y))
                  for y in (-1.3, -0.5, 0.7, 1.7)]
        for m, m2 in CATALOG_MULTS:
            for pair in pairs:
                for first, second in (pair, pair[::-1]):
                    clear_factor_caches()
                    fresh = bits(second, m, m2)
                    clear_factor_caches()
                    bits(first, m, m2)
                    hits = cfun._log_factor_quotient.cache_info().hits
                    assert bits(second, m, m2) == fresh
                    assert cfun._log_factor_quotient.cache_info().hits \
                        == hits + 1

    def test_pole_raises_on_every_call_with_its_root(self):
        # at lam = (i, i) both roots of A1xA1 restrict to w = -1
        d = rd.datum_a1xa1()
        lam = rd.SpectralParam.of([1j, 1j])
        s2 = rd.WeylElement.of(2)
        for _ in range(2):
            with pytest.raises(cfun.CPoleError) as exc:
                cfun.c_full(d, lam)
            assert (exc.value.kind, exc.value.root_index) == ("numerator", 0)
            with pytest.raises(cfun.CPoleError) as exc:
                cfun.c_sigma(d, s2, lam)
            assert (exc.value.kind, exc.value.root_index) == ("numerator", 1)
            with pytest.raises(cfun.CPoleError) as exc:
                cfun.c_alpha(1j, 1, 0, root_index=7)
            assert exc.value.root_index == 7
        assert cfun._log_factor_quotient.cache_info().currsize == 0

    def test_cocycle_suite_evaluates_each_factor_once(self, monkeypatch):
        # one log-Gamma quotient per distinct (w, m, m2) the suite's
        # factors meet, kappa's calibration point included
        distinct, quotients = set(), []
        factor, quotient = cfun._log_verbatim_factor, cm.log_gamma_quotient

        def counted_factor(w, m, m2, root_index=None):
            distinct.add((w, m, m2))
            return factor(w, m, m2, root_index)

        def counted_quotient(*args):
            quotients.append(args)
            return quotient(*args)
        monkeypatch.setattr(cfun, "_log_verbatim_factor", counted_factor)
        monkeypatch.setattr(cm, "log_gamma_quotient", counted_quotient)
        rows = verify.check_cocycle(verify._cocycle_samples())
        assert all(row["passed"] for row in rows)
        assert len(quotients) == len(distinct)


class TestFactorsMatchMpmath:
    """Hypothesis differential tests against 40-digit mpmath.  Near a
    pole the bound adds ``rounding_allowance``; within POLE_TOL of one the
    call must raise CPoleError of the kind the first such argument has."""

    def test_c_alpha(self):
        mp = pytest.importorskip("mpmath")
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=150)
        @hyp.given(factor_points(hyp.strategies, CATALOG_MULTS))
        @hyp.example((2, 0, CLI_LAMS[0]))
        @hyp.example((1, 0, CLI_LAMS[1]))
        @hyp.example((1, 0, CLI_LAMS[3]))
        @hyp.example((1, 0, CLI_LAMS[6]))
        def check(point):
            m, m2, lam = point
            args = factor_gamma_args(lam, m, m2)
            kind = first_pole(args)
            if kind is not None:
                with pytest.raises(cfun.CPoleError) as exc:
                    cfun.c_alpha(lam, m, m2)
                assert exc.value.kind == kind
                return
            with mp.workdps(40):
                want = complex(mp_factor(mp, 1j * mp.mpc(lam), m, m2))
            got = cfun.c_alpha(lam, m, m2).value
            # only the denominator arguments are rounded
            assert abs(got - want) <= (
                1e-12 + rounding_allowance(args[1:])) * abs(want)

        check()

    def test_C_sigma_minus(self):
        # C_sigma(-Lam) = c_{-Lam,delta} / c_{Lam,delta} c(Lam) on every
        # catalog K-type
        mp = pytest.importorskip("mpmath")
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def points(draw):
            rec = draw(st.sampled_from(KTYPES))
            sp = rec["space"]
            _, _, lam = draw(factor_points(
                st, [(sp.m_alpha, sp.m_2alpha)]))
            return rec, lam

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=100)
        @hyp.given(points())
        @hyp.example((KTYPES[0], CLI_LAMS[1]))
        @hyp.example((KTYPES[1], CLI_LAMS[4]))
        def check(point):
            rec, lam = point
            sp, kt = rec["space"], rec["ktype"]
            args = (delta_gamma_args(sp, kt, -lam)
                    + delta_gamma_args(sp, kt, lam)
                    + factor_gamma_args(lam, sp.m_alpha, sp.m_2alpha))
            kind = first_pole(args)
            if kind is not None:
                with pytest.raises(cfun.CPoleError) as exc:
                    r1.C_sigma_minus(sp, kt, lam)
                assert exc.value.kind == kind
                return
            with mp.workdps(40):
                L = mp.mpc(lam)
                want = complex(mp_c_lambda_delta(mp, sp, kt, -L)
                               / mp_c_lambda_delta(mp, sp, kt, L)
                               * mp_factor(mp, 1j * L, sp.m_alpha,
                                           sp.m_2alpha))
            got = r1.C_sigma_minus(sp, kt, lam)
            assert abs(got - want) <= (
                1e-12 + rounding_allowance(args)) * abs(want)

        check()

    def test_c_full_and_c_sigma(self):
        # every Weyl element of A2 and the B2 variants: the product of the
        # mpmath factors over the roots w sends negative, with the
        # restrictions <lam, alpha>/<alpha, alpha> formed in mpmath
        mp = pytest.importorskip("mpmath")
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coord = st.builds(complex, st.floats(-2.5, 2.5), st.floats(-1.5, 1.5))

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=40)
        @hyp.given(st.sampled_from(RANK_TWO), st.tuples(coord, coord))
        @hyp.example(rd.datum_b2(), (CLI_LAMS[1], CLI_LAMS[2]))
        @hyp.example(rd.datum_a2(), (CLI_LAMS[3], CLI_LAMS[4]))
        @hyp.example(rd.datum_a2(), (CLI_LAMS[5], CLI_LAMS[6]))
        def check(d, coords):
            lam = rd.SpectralParam.of(coords)

            def factor(i):
                a = [mp.mpf(x) for x in d.positive_roots[i]]
                r = (sum(mp.mpc(z) * x for z, x in zip(coords, a))
                     / sum(x * x for x in a))
                return mp_factor(mp, 1j * r, *d.mult[i])
            args = [factor_gamma_args(rd.restrict(d, lam, i), *d.mult[i])
                    for i in range(d.n_positive)]
            for w in rd.enumerate_weyl(d) + [None]:
                roots = (range(d.n_positive) if w is None
                         else rd.negative_set_indices(d, w))
                poles = [(first_pole(args[i]), i) for i in roots
                         if first_pole(args[i])]
                if poles:
                    with pytest.raises(cfun.CPoleError) as exc:
                        if w is None:
                            cfun.c_full(d, lam)
                        else:
                            cfun.c_sigma(d, w, lam)
                    assert (exc.value.kind, exc.value.root_index) == poles[0]
                    continue
                got = (cfun.c_full(d, lam) if w is None
                       else cfun.c_sigma(d, w, lam)).value
                with mp.workdps(40):
                    want = complex(mp.fprod([factor(i) for i in roots]))
                bound = 1e-12 + sum(rounding_allowance(args[i])
                                    for i in roots)
                assert abs(got - want) <= bound * abs(want)

        check()


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
