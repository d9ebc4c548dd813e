"""Gamma / 2F1 kernel tests.

The reference values come from two independent oracles built on nothing
but elementary arithmetic:

* ``gamma_integral_oracle``: composite Gauss-Legendre quadrature of the
  defining integral int_0^inf t^{z-1} e^{-t} dt at a right-shifted
  argument, walked back down by the recurrence;
* ``hyp2f1_at_one_oracle``: partial sums of the raw Gauss series at the
  boundary point, Richardson-extrapolated with the known tail exponents.
"""

import cmath
import math

import numpy as np
import pytest

from sphfun import complexmath as cm

RNG = np.random.default_rng(20240817)


def gamma_integral_oracle(z: complex) -> complex:
    """Quadrature of the defining integral, independent of the Lanczos
    code path."""
    z = complex(z)
    shift = max(0, int(math.ceil(8.0 - z.real)))
    zs = z + shift
    edges = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 120.0]
    x, w = np.polynomial.legendre.leggauss(60)
    total = 0j
    for a, b in zip(edges, edges[1:]):
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        vals = np.exp((zs - 1.0) * np.log(t) - t)
        total += 0.5 * (b - a) * complex(w @ vals)
    for j in range(shift):
        total /= (z + j)
    return total


def hyp2f1_at_one_oracle(a: complex, b: complex, c: complex,
                         base: int = 4096, levels: int = 3) -> complex:
    """Series value of 2F1 at z = 1 via Richardson extrapolation of the
    partial sums; requires Re(c - a - b) > 0."""
    d = c - a - b
    top = base * 2 ** levels
    n = np.arange(top, dtype=np.complex128)
    ratios = (a + n) * (b + n) / ((c + n) * (n + 1.0))
    terms = np.concatenate([[1.0 + 0j], np.cumprod(ratios)])
    csum = np.cumsum(terms)
    sums = [csum[base * 2 ** k] for k in range(levels + 1)]
    for j in range(levels):
        q = 2.0 ** (-(d + j))
        sums = [(sums[k + 1] - q * sums[k]) / (1.0 - q)
                for k in range(len(sums) - 1)]
    return complex(sums[0])


def sample_strip(count, seed=1, pole_distance=0.1):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if cm.distance_to_nonpos_int(z) > pole_distance and \
                cm.distance_to_nonpos_int(1 - z) > pole_distance and \
                cm.distance_to_nonpos_int(2 * z) > pole_distance:
            out.append(z)
    return out


class TestGamma:
    def test_integers(self):
        assert cm.gamma(1) == pytest.approx(1.0, rel=1e-14)
        assert cm.gamma(5) == pytest.approx(24.0, rel=1e-14)

    def test_defining_integral(self):
        for z in (0.5 + 2j, 3.2 - 1.1j, 0.25 + 0j, -1.5 + 0.7j, 6 - 4j):
            oracle = gamma_integral_oracle(z)
            assert cm.gamma(z) == pytest.approx(oracle, rel=1e-12)

    def test_reflection(self):
        for z in sample_strip(300, seed=2):
            resid = (cm.gamma(z) * cm.gamma(1 - z)
                     * cmath.sin(cmath.pi * z) / cmath.pi)
            assert abs(resid - 1) < 1e-12

    def test_duplication(self):
        for z in sample_strip(300, seed=3):
            lhs = cm.gamma(2 * z)
            rhs = (cm.gamma(z) * cm.gamma(z + 0.5)
                   * 2.0 ** (2 * z - 1) / math.sqrt(math.pi))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_conjugation_symmetry(self):
        for z in sample_strip(200, seed=4):
            a = cm.gamma(z.conjugate())
            b = cm.gamma(z).conjugate()
            assert abs(a - b) <= 1e-14 * abs(b)

    def test_pole_rejection(self):
        for z in (0, -1, -7, -3 + 1e-13j):
            with pytest.raises(cm.PoleError):
                cm.gamma(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            cm.gamma(complex(math.nan, 0.0))

    def test_large_real_argument(self):
        # Gamma(170) ~ 4e304 is near the top of the double range
        assert cm.gamma(170) == pytest.approx(math.gamma(170), rel=1e-12)

    def test_large_complex_argument(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = complex(mp.gamma(mp.mpc(150.5, 3)))
        assert cm.gamma(150.5 + 3j) == pytest.approx(ref, rel=1e-12)

    def test_matches_mpmath_on_square(self):
        # |Re z|, |Im z| <= 10, at least 0.05 from a pole
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(6)
        worst = 0.0
        count = 0
        with mp.workdps(30):
            while count < 2000:
                z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
                if cm.distance_to_nonpos_int(z) < 0.05:
                    continue
                count += 1
                ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
                worst = max(worst, abs(cm.gamma(z) - ref) / abs(ref))
        assert worst <= 2e-14


class TestLogGamma:
    def test_unit_values(self):
        assert abs(cm.log_gamma(1)) < 1e-14
        assert abs(cm.log_gamma(2)) < 1e-14

    @staticmethod
    def mpmath_loggamma(z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            return complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))

    def test_matches_mpmath(self):
        z = 10 + 10j
        ref = self.mpmath_loggamma(z)
        assert abs(cm.log_gamma(z) - ref) / abs(ref) < 1e-11

    def test_matches_mpmath_strip(self):
        # the principal branch: the imaginary part is compared as it is,
        # not modulo 2 pi
        for z in sample_strip(100, seed=5):
            ref = self.mpmath_loggamma(z)
            assert cm.log_gamma(z) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_reflection_matches_mpmath_near_poles(self):
        # the reflected branch, where sin(pi z) is taken after removing the
        # nearest integer from z: the principal branch on and just above
        # the negative half-integers, and the relative accuracy next to
        # the poles -k, where a rounding of pi z would be divided by the
        # distance
        points = [complex(-k - 0.5, y) for k in range(41)
                  for y in (0.0, 1e-9, 1e-6)]
        points += [complex(-k + d, 0.0) for k in range(41)
                   for d in (1e-10, -1e-10, 1e-4)]
        for z in points:
            ref = self.mpmath_loggamma(z)
            assert abs(cm.log_gamma(z) - ref) <= 1e-14 * max(abs(ref), 1.0)
        # the lower edge of the cut is the conjugate of the upper one
        for x in [-k - 0.5 for k in range(41)] + [-2.3, -7.25, 0.2, 0.45]:
            assert cm.log_gamma(complex(x, -0.0)) == \
                cm.log_gamma(complex(x, 0.0)).conjugate()

    def test_quotient_reports_pole_side(self, monkeypatch):
        # every argument is screened, numerators first, before the kernel
        # evaluates any
        calls = []
        monkeypatch.setattr(cm.kernels, "clgamma",
                            lambda z: calls.append(z) or 0j)
        for nums, dens, side, z in (((1.5, -2.0), (0.0,), "numerator", -2),
                                    ((1.5,), (2.5, -1.0), "denominator", -1)):
            with pytest.raises(cm.PoleError) as exc:
                cm.log_gamma_quotient(nums, dens)
            assert (exc.value.side, exc.value.z) == (side, z)
        assert calls == []

    def test_ratio_large_arguments(self):
        # Gamma(z+1)/Gamma(z) = z with |Gamma| far beyond overflow
        z = 250.0 + 40.0j
        ratio = cmath.exp(cm.log_gamma(z + 1) - cm.log_gamma(z))
        assert ratio == pytest.approx(z, rel=1e-12)

    def test_large_imaginary_no_overflow(self):
        z = -0.5 + 60j
        val = cm.log_gamma(z)
        assert cmath.isfinite(val)
        # reflection identity in log form, checked through exp of sums
        lhs = cm.log_gamma(z) + cm.log_gamma(1 - z)
        direct = cmath.pi / cmath.sin(cmath.pi * z)
        assert cmath.exp(lhs) == pytest.approx(direct, rel=1e-11)


class TestGauss2F1:
    def test_at_zero(self):
        assert cm.gauss_2f1(0.7 - 2j, 1.1, 3.3 + 0.2j, 0) == 1

    def test_binomial_identity(self):
        val = cm.gauss_2f1(1, 2.3, 2.3, 0.3)
        assert val == pytest.approx(1.0 / 0.7, rel=1e-13)

    def test_limit_at_one_matches_gamma_ratio(self):
        a, b, c = 0.3 + 0.4j, 0.2 - 0.1j, 2.5 + 0.3j
        lim = cm.gauss_2f1(a, b, c, 1.0)
        assert lim == pytest.approx(cm.gauss_2f1_at_one(a, b, c), rel=1e-13)

    def test_series_transform_seam(self):
        # both evaluation branches agree in the overlap annulus
        a, b, c = 0.8 - 0.3j, 1.4 + 0.2j, 2.1 + 0.5j
        for z in (0.705, 0.8, 0.905, 0.95, 0.99):
            direct, n, _ = cm.kernels.hyp2f1_series(a, b, c, z, 1e-15,
                                                    10 ** 6)
            assert n > 0
            assert cm.gauss_2f1(a, b, c, z) == pytest.approx(
                direct, rel=1e-11)

    @pytest.mark.parametrize("lam,t", [(300.0, 0.3), (1000 + 0.2j, 1.5)])
    def test_cancelling_sum_raises(self, lam, t):
        # the 2F1 of phi_tau on H2 at large |Lam|: the power series
        # (t = 0.3) and the connection sum (t = 1.5) grow to terms 1e16
        # and 3e15 times their sum, which was 3.7e21 and 9e2 relative off
        a, b = (0.5 - 1j * lam) / 2, (1.5 - 1j * lam) / 2
        if lam.imag > 0:  # Euler's transformation, as in phi_tau
            a, b = 1.0 - a, 1.0 - b
        with pytest.raises(cm.HypConvergenceError, match="cancels"):
            cm.Gauss2F1Plan(a, b, 1.0).at_log_complement(
                -2.0 * float(cm.log_cosh(t)))

    def test_polynomial_case(self):
        # a = -2 terminates; valid at any z including z > 0.9
        val = cm.gauss_2f1(-2, 1.5, 2.5, 0.97)
        n = 0.97
        expected = 1 + (-2) * 1.5 / 2.5 * n \
            + ((-2) * (-1) / 2) * (1.5 * 2.5) / (2.5 * 3.5) * n * n
        assert val == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("j,b", [(1, 1.2592864721392653e-56j),
                                     (2, -1.0 + 1e-13), (3, -1.0 - 1e-13j)])
    def test_terminating_branch_next_to_a_pole_of_1_minus_j_minus_b(
            self, j, b):
        # c - a = -j takes Euler's transformation to a polynomial, summed
        # in powers of 1 - z.  Its DLMF 15.8.7 form has the lower
        # parameter 1 - j - b, here within POLE_TOL of 0 or -1; summed in
        # powers of z instead it cancelled near z = 1: 1.3e-12, 5.7e-12
        # and 6.2e-7 relative off at 1 - z = e^{-11}
        mp = pytest.importorskip("mpmath")
        c = -1.0 + 1.0j
        a = c + j
        for log_zc in (-11.0, -3.0, math.log(0.25)):
            got = cm.Gauss2F1Plan(a, b, c).at_log_complement(log_zc)
            with mp.workdps(60):
                ref = complex(mp.hyp2f1(a, b, c, 1 - mp.exp(log_zc)))
            assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_complement_form_at_extreme_argument(self):
        # z = tanh^2(18): the complement keeps the reflected branch alive
        a, b, c = 1.1 - 0.25j, 1.6 - 0.25j, 3.0
        sech2 = 1.0 / math.cosh(18.0) ** 2
        v = cm.gauss_2f1_complement(a, b, c, sech2)
        at_one = cm.gauss_2f1_at_one(a, b, c)
        d = c - a - b
        correction = v - at_one
        assert abs(correction) == pytest.approx(
            abs(cmath.exp(d * math.log(sech2))
                * cm.gamma_ratio((c, -d), (a, b))), rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(cm.HypDomainError):
            cm.gauss_2f1(0.5, 0.5, 1.5, 1.2)
        with pytest.raises(cm.HypDomainError):
            cm.gauss_2f1(0.5, 0.7, 0.5, 0.95j)  # |z|>0.9 off the real seam
        with pytest.raises(cm.PoleError):
            cm.gauss_2f1(0.5, 0.5, -2.0, 0.3)

    def test_contiguity(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            a = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
            c = complex(rng.uniform(2.5, 4), rng.uniform(-1, 1))
            z = rng.uniform(0.05, 0.85)
            lhs = (c * cm.gauss_2f1(a, b, c, z)
                   - c * cm.gauss_2f1(a - 1, b, c, z)
                   - b * z * cm.gauss_2f1(a, b + 1, c + 1, z))
            assert abs(lhs) < 1e-10


def gap_next_to_a_pole(mp, a, b, c):
    """Whether c - a - b is an integer while a, b, c - a or c - b lies
    nearer than the working precision to a pole of Gamma, but not on it.
    mpmath's hyp2f1 resolves an integer gap near z = 1 by perturbing a
    and b at about that precision; next to a pole it raises the
    precision until the perturbation is below the distance."""
    eps = mp.mpf(2) ** -mp.mp.prec
    with mp.workprec(2200):  # sums of doubles, exactly
        a, b, c = mp.mpc(a), mp.mpc(b), mp.mpc(c)
        if not mp.isint(c - a - b):
            return False
        for x in (a, b, c - a, c - b):
            k = mp.nint(mp.re(x))
            if k <= 0 and 0 < abs(x - k) < eps:
                return True
    return False


class RoutedMpmath:
    """mpmath, with a hyp2f1 that takes mp_hyp2f1_integer_gap where
    mpmath's own takes its 1 - z transformation at an integer gap next
    to a pole (gap_next_to_a_pole), and mpmath's hyp2f1 everywhere else.
    At the one such draw of TestGauss2F1MatchesMpmath (a = -5.5e-298j,
    c - a - b = -1, 1 - z = 2.7e-188, 227 digits) the two agree to
    2.6e-228 relative; mpmath took 56 s, the formula 0.3 s."""

    def __init__(self, mp):
        self._mp = mp

    def __getattr__(self, name):
        return getattr(self._mp, name)

    def hyp2f1(self, a, b, c, z):
        mp = self._mp
        if abs(z) > 0.8 and abs(1 - z) <= 0.75 and \
                gap_next_to_a_pole(mp, a, b, c):
            return mp_hyp2f1_integer_gap(mp, a, b, c, z)
        return mp.hyp2f1(a, b, c, z)


def mp_hyp2f1_integer_gap(mp, a, b, c, z):
    """2F1(a, b; c; z) for an integer c - a - b, |1 - z| < 1, none of a,
    b, c - a and c - b a pole of Gamma: the logarithmic connection
    formula (Abramowitz and Stegun 15.3.10-11), after Euler's
    transformation where the gap is negative."""
    a, b, c, z = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(z)
    m = int(mp.nint(mp.re(c - a - b)))
    if m < 0:
        return (1 - z) ** m * mp_hyp2f1_integer_gap(mp, c - a, c - b, c, z)
    w = 1 - z
    head = 0
    if m:
        head = (mp.gamma(m) * mp.gamma(c) * mp.rgamma(a + m)
                * mp.rgamma(b + m)
                * mp.fsum(mp.rf(a, n) * mp.rf(b, n) * w ** n
                          / (mp.factorial(n) * mp.rf(1 - m, n))
                          for n in range(m)))
    tail, coef, n = 0, 1 / mp.factorial(m), 0
    while True:
        term = coef * (mp.log(w) - mp.digamma(n + 1) - mp.digamma(n + m + 1)
                       + mp.digamma(a + n + m) + mp.digamma(b + n + m))
        tail += term
        if n > 2 and abs(term) <= mp.eps * abs(tail):
            break
        coef *= (a + m + n) * (b + m + n) * w / ((n + 1) * (n + m + 1))
        n += 1
    return head - ((z - 1) ** m * mp.gamma(c) * mp.rgamma(a) * mp.rgamma(b)
                   * tail)


class TestGauss2F1MatchesMpmath:
    """The three 2F1 entry points against mpmath hyp2f1 at 40 digits, plus
    the digits 1 - z needs, on the power series and the connection
    formula, with c - a - b at and near 0, +-1 and +-2 and with
    terminating a."""

    def test_matches_mpmath(self):
        # the reference is routed outside check, whose source seeds its
        # derandomized draws
        mp = RoutedMpmath(pytest.importorskip("mpmath"))
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        def cplx(re, im):
            return st.builds(complex, st.floats(*re), st.floats(*im))

        phase = st.floats(0.0, 2.0 * math.pi).map(lambda p: cmath.exp(1j * p))
        near = st.builds(lambda r, u: r * u, st.floats(1e-12, 0.3), phase)

        @st.composite
        def points(draw):
            a = draw(cplx((-2.0, 3.0), (-1.5, 1.5)))
            b = draw(cplx((-2.0, 3.0), (-1.5, 1.5)))
            k = draw(st.sampled_from([None, None, None, 0, 1, 2, 4]))
            if k is not None:
                a = complex(-k)
            offset = draw(st.one_of(st.just(0j), near,
                                    cplx((-0.5, 0.5), (-3.0, 3.0))))
            c = a + b + draw(st.sampled_from([0, 1, -1, 2, -2])) + offset
            hyp.assume(cm.distance_to_nonpos_int(c) > 0.05)
            kind = draw(st.sampled_from(["series", "complement", "log"]))
            if kind == "series":
                arg = draw(st.floats(0.0, cm.SERIES_RADIUS)) * draw(phase)
            elif kind == "complement":
                arg = draw(st.floats(0.0, 0.5, exclude_min=True)) \
                    * draw(phase)
                hyp.assume(cm.SERIES_RADIUS < abs(1.0 - arg) <= 1.0)
            else:
                # below -708 the complement leaves the double range
                arg = -draw(st.floats(math.log(2.0), 760.0))
            return kind, a, b, c, arg

        def rankone_h2(lam, t):
            # the 2F1 phi_tau evaluates on H2 for the trivial K-type
            a, b = (0.5 - 1j * lam) / 2, (1.5 - 1j * lam) / 2
            if lam.imag > 0:  # Euler's transformation, as in phi_tau
                a, b = 1.0 - a, 1.0 - b
            return "log", a, b, 1.0 + 0j, -2.0 * float(cm.log_cosh(t))

        @hyp.settings(derandomize=True, deadline=None, database=None,
                      max_examples=150)
        @hyp.given(points())
        # 2.1e-7 off before the logarithmic case
        @hyp.example(rankone_h2(0j, 3.0))
        # 6.8e-13 off when the series stopped on two small terms at z = 0.89
        @hyp.example(rankone_h2(0.7 + 0.2j, 1.8))
        @hyp.example(rankone_h2(0.7 - 0.2j, 1.8))
        # c - a = -1: Euler's transformation to a terminating series
        @hyp.example(("complement", 1.25 + 0j, -1.5 + 0j, 0.25 + 0j, 0.1))
        # c - a = -1 + 1e-13, within POLE_TOL: the same series, where the
        # Gamma(c - a) of the connection formula raised PoleError
        @hyp.example(("complement", 1.25 - 1e-13 + 0j, -1.5 + 0j,
                      0.25 + 0j, 0.1))
        # c - a = -1 with F(1) = b / c = 4e-8: summed in powers of z it
        # cancels, 3.8e-11 off; the plain connection formula with its
        # Gamma(c - a) term dropped was 3e-9 off
        @hyp.example(("complement", 1.25 + 0j, 1e-8 + 0j, 0.25 + 0j, 1e-6))
        def check(point):
            kind, a, b, c, arg = point
            # digits for 1 - z to hold its complement
            log_zc = {"series": 0.0, "complement": math.log(abs(arg) or 1.0),
                      "log": arg}[kind]
            with mp.workdps(40 + int(-log_zc / math.log(10.0))):
                z = {"series": mp.mpc(arg), "complement": 1 - mp.mpc(arg),
                     "log": 1 - mp.exp(arg)}[kind]
                ref = mp.hyp2f1(a, b, c, z)
                hyp.assume(0 < abs(ref) < 1e250)
                if kind == "log":
                    got = cm.Gauss2F1Plan(a, b, c).at_log_complement(arg)
                else:
                    fn = {"series": cm.gauss_2f1,
                          "complement": cm.gauss_2f1_complement}[kind]
                    got = fn(a, b, c, arg)
                if a.real <= 0.0 and a == round(a.real):
                    # a terminating sum in powers of z: its rounding is
                    # relative to the sum of the moduli of its terms
                    scale = sum(abs(mp.rf(a, n) * mp.rf(b, n) * z ** n
                                    / (mp.rf(c, n) * mp.factorial(n)))
                                for n in range(int(-a.real) + 1))
                else:
                    scale = abs(ref)
                # the phase d log(1 - z) is formed in doubles
                tol = 1e-12 + 4e-16 * abs((c - a - b) * log_zc)
                assert abs(got - complex(ref)) <= tol * float(scale)

        check()


class TestConnectionCache:
    # what the 2F1 decides from (a, b, c) alone, the connection formula's
    # constants included, is kept by the Gauss2F1Plan a caller holds
    def test_scalar_calls_share_the_ratios(self, monkeypatch):
        calls = []
        kernel = cm.kernels.clgamma
        monkeypatch.setattr(cm.kernels, "clgamma",
                            lambda z: calls.append(z) or kernel(z))
        a, b, c = 1.1 - 0.25j, 1.6 - 0.25j, 3.0
        plan = cm.Gauss2F1Plan(a, b, c)
        cm.gauss_2f1_complement(a, b, c, 1e-3, plan)
        first = len(calls)
        for zc in (1e-6, 1e-9):
            cm.gauss_2f1_complement(a, b, c, zc, plan)
        assert first > 0 and len(calls) == first

    @pytest.mark.parametrize("a,b,c_minus_a_minus_b,kind", [
        (0.3 + 0.2j, 0.9 - 0.4j, 1.3j, "connection"),
        (0.3 + 0.2j, 0.9 - 0.4j, -1.0 + 1e-6, "euler"),
        (1.25, -1.5 + 1e-13, 0.5, "terminating"),
    ])
    def test_connection_branch_is_chosen_once(self, monkeypatch, a, b,
                                              c_minus_a_minus_b, kind):
        c = a + b + c_minus_a_minus_b
        calls = []
        screen = cm.distance_to_nonpos_int
        monkeypatch.setattr(cm, "distance_to_nonpos_int", lambda z: (
            z in (c, c - a, c - b) and calls.append(z)) or screen(z))
        plan = cm.Gauss2F1Plan(a, b, c)
        values = [plan.value(z, 1.0 - z) for z in (0.8 + 0j, 0.9 + 0j,
                                                   0.99 + 0j)]
        assert plan.choice[0] == kind
        screens = len(calls)
        assert values[-1] == cm.gauss_2f1(a, b, c, 0.99)
        # c, c - a and c - b are screened for poles by the first of three
        # calls alone: as often as by one fresh call
        assert screens >= 2 and len(calls) == 2 * screens

    @pytest.mark.parametrize("c", [-2.5, -0.5, 1.5])
    def test_log_gamma_c_keeps_the_sign_of_a_zero_im_c(self, c):
        # log Gamma(c) is cached; for Re c < 0, c = x + 0j and x - 0j lie
        # on either side of its branch cut, and each 2F1 keeps the bits
        # of a fresh call whichever of the two was cached first
        a, b, z = 0.3 + 0.2j, -1.1 + 0.5j, 0.8 + 0.1j
        twins = (complex(c, 0.0), complex(c, -0.0))

        def bits(c):
            v = cm.gauss_2f1(a, b, c, z)
            return v.real.hex(), v.imag.hex()

        fresh = []
        for twin in twins:
            cm._log_gamma_c.cache_clear()
            fresh.append(bits(twin))
        for order in (0, 1), (1, 0):
            cm._log_gamma_c.cache_clear()
            assert [bits(twins[i]) for i in order] == \
                [fresh[i] for i in order]

    def test_pole_raises_on_every_call(self):
        # c = -1 is a pole of the 2F1 itself
        for _ in range(3):
            with pytest.raises(cm.PoleError, match="parameter pole"):
                cm.gauss_2f1(0.25, 0.5, -1.0, 0.8)
        # the connection formula's constants carry Gamma(c) in a
        # numerator and Gamma(c - a) in a denominator: c = -1, and c - a =
        # -1 with c - a - b = 0.5, which the plan sends to the terminating
        # series instead
        for args, side in (((0.25 + 0j, 0.5 + 0j, -1.0 + 0j), "numerator"),
                           ((1.25 + 0j, -1.5 + 0j, 0.25 + 0j),
                            "denominator")):
            with pytest.raises(cm.PoleError) as exc:
                cm._connection_coeffs(*args)
            assert exc.value.side == side


class TestGauss2F1AtOne:
    def test_a_zero_collapses(self):
        assert cm.gauss_2f1_at_one(0, 1.7 - 0.4j, 2.2) == \
            pytest.approx(1.0, rel=1e-13)

    def test_integer_gammas(self):
        assert cm.gauss_2f1_at_one(1, 1, 3) == pytest.approx(2.0, rel=1e-13)

    def test_series_limit_oracle(self):
        val = cm.gauss_2f1_at_one(0.25, 0.25, 1.0)
        oracle = hyp2f1_at_one_oracle(0.25, 0.25, 1.0)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_series_limit_oracle_complex(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = complex(rng.uniform(0.1, 1.5), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.1, 1.5), rng.uniform(-1, 1))
            c = a + b + complex(rng.uniform(0.55, 2.0), rng.uniform(-1, 1))
            assert cm.gauss_2f1_at_one(a, b, c) == pytest.approx(
                hyp2f1_at_one_oracle(a, b, c), rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(cm.HypDomainError):
            cm.gauss_2f1_at_one(1.0, 1.0, 1.5)
