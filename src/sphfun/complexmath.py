"""Complex special-function layer: Gamma, log-Gamma, Gauss 2F1 and the
overflow-free log_cosh / log_sinh of a real t.

Thin validating wrappers around the scalar kernels of
``sphfun._kernels_py``.  All pole screening (each Gamma argument passes
``_pole_free`` once) and domain logic lives here, so the kernels stay
pure functions of their arguments.
"""

import cmath
import math
import sys
from functools import lru_cache

import numpy as np

from ._backend import kernels

POLE_TOL = 1e-12
SERIES_TOL = 1e-14
# The power series serves |z| <= SERIES_RADIUS, the connection formula
# |1 - z| <= 0.5 beyond it; away from z = 1 the series runs on up to
# |z| <= SERIES_LIMIT
SERIES_RADIUS = 0.7
SERIES_LIMIT = 0.9
MAX_TERMS = 100_000
# Rounding leaves each series sum off by about 1e-16 times its largest
# term.  Beyond this ratio of the largest term to the sum (large |Lam|,
# where the terms grow to about exp(2 sqrt|a b z|) before they cancel)
# fewer than 10 digits would hold, and the sum raises instead.  Near a
# zero of an oscillating 2F1 the ratio is large for a legitimate value:
# over the rank1-grid inputs of 81 seeds it reaches 3.5e3, and 0.1% of
# the sums exceed 100
CANCELLATION_LIMIT = 1e6
# Entries of each cache of a constant that depends on Lam alone (the
# connection-formula constants here, c_{Lam,delta} and the series terms in
# rankone, the single-root factors of cfun): a caller evaluates one Lam,
# and -Lam, at many t, or the at most 2 n_positive factors of one lam's
# Weyl orbit many times; the bound keeps a run over many Lam from growing
CACHE_SIZE = 32


class PoleError(ValueError):
    """Gamma-pole argument (within POLE_TOL); log_gamma_quotient sets side."""

    def __init__(self, z: complex, message: str | None = None,
                 side: str | None = None):
        self.z = z
        self.side = side
        super().__init__(message or f"gamma pole at z = {z}")


class HypDomainError(ValueError):
    """2F1 arguments outside the supported domain."""


class HypConvergenceError(RuntimeError):
    """2F1 series failed to meet tolerance within the iteration cap."""


def distance_to_nonpos_int(z: complex) -> float:
    """Distance from z to the nearest non-positive integer."""
    z = complex(z)
    k = min(0.0, round(z.real))
    return math.hypot(z.real - k, z.imag)


def _pole_free(z: complex, side: str | None = None) -> complex:
    z = complex(z)
    if not (cmath.isfinite(z)):
        raise ValueError(f"non-finite argument {z}")
    if distance_to_nonpos_int(z) <= POLE_TOL:
        raise PoleError(z, side=side)
    return z


def gamma(z: complex) -> complex:
    """Gamma(z); raises PoleError within POLE_TOL of a non-positive integer."""
    return cmath.exp(log_gamma(z))


def log_gamma(z: complex) -> complex:
    """The principal branch of log Gamma(z), analytic off (-inf, 0].

    Differences log_gamma(z1) - log_gamma(z2) exponentiate to accurate
    Gamma ratios even when the ratio itself would overflow.
    """
    return kernels.clgamma(_pole_free(z))


def log_gamma_quotient(numerators, denominators, start=0j) -> complex:
    """start + sum log_gamma(num) - sum log_gamma(den), added in order.
    All arguments are screened, numerators first, before any is
    evaluated; the first pole raises PoleError with its side set."""
    nums = [_pole_free(z, "numerator") for z in numerators]
    dens = [_pole_free(z, "denominator") for z in denominators]
    for z in nums:
        start += kernels.clgamma(z)
    for z in dens:
        start -= kernels.clgamma(z)
    return start


def gamma_ratio(numerators, denominators) -> complex:
    """exp(sum log_gamma(num) - sum log_gamma(den)), overflow safe."""
    return cmath.exp(log_gamma_quotient(numerators, denominators))


def _coeff(nums, dens) -> complex:
    # Gamma-ratio prefactor; vanishes when a denominator hits a pole
    try:
        return gamma_ratio(nums, dens)
    except PoleError as exc:
        if exc.side == "numerator":
            raise
        return 0j


def gauss_2f1_at_one(a: complex, b: complex, c: complex) -> complex:
    """Value of 2F1(a,b;c;1) = Gamma(c-a-b)Gamma(c) / (Gamma(c-a)Gamma(c-b)).

    Requires Re(c-a-b) > 0.  A pole of a denominator Gamma gives 0.
    """
    a, b, c = complex(a), complex(b), complex(c)
    d = c - a - b
    if d.real <= 0.0:
        raise HypDomainError(
            f"2F1 at z=1 requires Re(c-a-b) > 0, got {d}")
    return _coeff((c, d), (c - a, c - b))


def log_cosh(t):
    """log cosh t for a real t >= 0 or array of them, free of overflow."""
    return t - math.log(2.0) + np.log1p(np.exp(-2.0 * t))


def log_sinh(t):
    """log sinh t for a real t > 0 or array of them, free of overflow."""
    return t - math.log(2.0) + np.log(-np.expm1(-2.0 * t))


def _checked(result, where, arg, head=0j) -> complex:
    # head plus the value of a sum (value, terms_used, largest term)
    # that converged and did not cancel against it; the error names the
    # sum and its argument
    value, terms, largest = result
    if terms < 0:
        raise HypConvergenceError(f"2F1 {where} {arg} did not converge")
    value += head
    if max(largest, abs(head)) > CANCELLATION_LIMIT * abs(value):
        raise HypConvergenceError(
            f"2F1 {where} {arg} cancels: largest term {largest:.3g}, "
            f"sum {abs(value):.3g}")
    return value


def _series(a, b, c, z) -> complex:
    result = kernels.hyp2f1_series(a, b, c, z, SERIES_TOL, MAX_TERMS)
    return _checked(result, "series at z =", z)


def _log1p_quotient(u) -> complex:
    """log(1 + u) / u, 1 at u = 0, accurate for small complex u."""
    if u == 0:
        return 1.0
    if abs(u) < 0.5:
        return 2.0 * cmath.atanh(u / (2.0 + u)) / u
    return cmath.log(1.0 + u) / u


def _expm1_quotient(v) -> complex:
    """expm1(v) / v, 1 at v = 0, accurate for small complex v."""
    if v == 0:
        return 1.0
    half = math.sin(0.5 * v.imag)
    return complex(math.expm1(v.real) * math.cos(v.imag) - 2.0 * half * half,
                   math.exp(v.real) * math.sin(v.imag)) / v


# B_2j / (2j (2j - 1)), the coefficients of x^{1-2j} in Stirling's series
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156)


def _log_gamma_step(x: complex, eps: complex) -> complex:
    """(log Gamma(x + eps) - log Gamma(x)) / eps, psi(x) at eps = 0,
    accurate relative to eps, up to a multiple of 2 pi i / eps: the
    recurrence up to |x| >= 12, then the difference of Stirling's series.
    Each difference is formed without cancellation: the recurrence's
    product P = prod_j (1 + eps/(x+j)) as e = (P - 1)/eps, and
    (x+eps)^{-p} - x^{-p} as -eps y y' sum_{i<p} y'^i y^{p-1-i} with
    y = 1/x, y' = 1/(x+eps)."""
    e = 0j
    while abs(x) < 12.0 or x.real < 0.0:
        e += (1.0 + eps * e) / x
        x += 1.0
    y, yp = 1.0 / x, 1.0 / (x + eps)
    y2, yp2 = y * y, yp * yp
    stirling, s, yp_pow = 0j, 1.0, yp
    for coeff in _STIRLING:
        stirling += coeff * s
        s = y2 * s + yp_pow * (y + yp)
        yp_pow *= yp2
    return ((x - 0.5) * y * _log1p_quotient(eps * y) + cmath.log(x + eps)
            - 1.0 - y * yp * stirling - e * _log1p_quotient(eps * e))


@lru_cache(maxsize=CACHE_SIZE)
def _connection_coeffs(a, b, c):
    """Constants (m, eps, finite, w0, h0, R0) of the z -> 1-z connection
    formula for c - a - b = m + eps, m = round(Re(c - a - b)) >= 0:

        F(a, b; c; 1 - zc) = sum_{n<m} finite[n] zc^n
            + zc^m sum_k w_k zc^k (zc^eps h_k + expm1(eps log zc) / eps).

    It is continuous in eps, and at eps = 0 it is the logarithmic case,
    DLMF 15.8.10.  The plain formula's two terms carry Gamma(d) and
    Gamma(-d); taken through Gamma(d) Gamma(1 - d) = pi/sin(pi d) they
    share one factor, so their difference is formed before it is summed:
    the step from one term to the other is R_k = 1 + eps h_k, the ratio

        Gamma(a+m+k+eps) Gamma(b+m+k+eps) Gamma(m+k+1) Gamma(k+1-eps)
        / (Gamma(a+m+k) Gamma(b+m+k) Gamma(m+k+1+eps) Gamma(k+1)).

    R_0 = exp(eps G_0) and h_0 = expm1(eps G_0) / eps, with G_0 a sum of
    log-Gamma steps; _connection_sum carries w_k, R_k and h_k on by their
    rational recurrences.  Raises PoleError when Gamma(c - a) or
    Gamma(c - b) is at a pole (side "denominator"); _gauss_2f1_impl
    sends m < 0 and such a pole to Euler's transformation first.
    """
    d = c - a - b
    m = round(d.real)
    eps = d - m
    finite = []
    if m:
        finite.append(gamma_ratio((c, d), (c - a, c - b)))
        for n in range(m - 1):
            finite.append(finite[-1] * (a + n) * (b + n)
                          / ((1.0 - d + n) * (n + 1.0)))
    w0 = -1.0 if m % 2 == 0 else 1.0
    for n in range(m):
        w0 *= (a + n) * (b + n)
    w0 *= gamma_ratio((c, 1.0 + eps), (c - a, c - b, m + 1.0))
    g0 = (_log_gamma_step(a + m, eps) + _log_gamma_step(b + m, eps)
          - _log_gamma_step(m + 1.0, eps) - _log_gamma_step(1.0, -eps))
    return (m, eps, tuple(finite), w0, g0 * _expm1_quotient(eps * g0),
            cmath.exp(eps * g0))


def _connection_sum(x1, x2, m, eps, term, h, r, zc, zc_d, log_part):
    """sum_k w_k zc^k (zc^d h_k + log_part) from term = w_0, h = h_0 and
    r = R_0, with x1 = a+m, x2 = b+m, zc_d = zc^d and log_part =
    (zc^d - zc^m) / eps.  Stops on the kernel's tail bound, taken on
    |w_k zc^k| (|zc^d h_k| + |log_part|).  Returns (value, terms_used,
    largest such modulus), as kernels.hyp2f1_series does."""
    azc = abs(zc)
    hump = max(abs(x1), abs(x2), abs(eps))
    log_size = abs(log_part)
    total = 0j
    largest = 0.0
    for k in range(MAX_TERMS):
        part = zc_d * h
        total += term * (part + log_part)
        size = abs(term) * (abs(part) + log_size)
        if size > largest:
            largest = size
        x3, x4, num = m + k + 1.0, k + 1.0, x1 * x2
        x4_eps = x4 - eps
        ratio = num * zc / (x4_eps * x3)
        if k >= hump:
            q = abs(ratio)
            if q < azc:
                q = azc
            if q < 1.0 and size * q <= \
                    SERIES_TOL * (1.0 - q) * max(abs(total), 1e-300):
                return total, k + 1, largest
        # (R_{k+1} / R_k - 1) / eps in closed form
        step = ((x1 + x2 + eps) * x3 * x4_eps - num * (x3 + x4)) \
            / (num * (x3 + eps) * x4)
        h += step * r
        r *= 1.0 + eps * step
        term *= ratio
        x1 += 1.0
        x2 += 1.0
    return total, -1, largest


def _transform_near_one(a, b, c, zc, log_zc) -> complex:
    # z -> 1-z connection formula, zc = 1-z and log zc given for accuracy
    m, eps, finite, w0, h0, r0 = _connection_coeffs(a, b, c)
    head = 0j
    for coeff in reversed(finite):
        head = head * zc + coeff
    # (zc^d - zc^m) / eps by expm1 where the difference would cancel;
    # zc^eps alone may leave the double range
    zc_d = cmath.exp((m + eps) * log_zc)
    zc_m = cmath.exp(m * log_zc)
    v = eps * log_zc
    if abs(v) < 0.5:
        log_part = zc_m * log_zc * _expm1_quotient(v)
    else:
        log_part = (zc_d - zc_m) / eps
    result = _connection_sum(a + m, b + m, m, eps, w0, h0, r0, zc, zc_d,
                             log_part)
    return _checked(result, "connection sum at 1 - z =", zc, head)


def _terminating_near_one(j, b, c, z, zc, log_zc) -> complex:
    # F(a, b; c; z) for c - a = -j: zc^{-j-b} F(-j, c-b; c; z) by Euler's
    # transformation, the terminating series in powers of zc = 1 - z for
    # relative accuracy near z = 1, DLMF 15.8.7:
    # (b)_j / (c)_j F(-j, c-b; 1-j-b; zc); in powers of z where 1 - j - b
    # is a pole.  Formed from b itself: c - (c - b) would cancel
    e = 1.0 - j - b
    if distance_to_nonpos_int(e) <= POLE_TOL:
        value = kernels.hyp2f1_series(-j, c - b, c, z, 0.0, j + 1)[0]
    else:
        value = kernels.hyp2f1_series(-j, c - b, e, zc, 0.0, j + 1)[0]
        for n in range(j):
            value *= (b + n) / (c + n)
    return cmath.exp(-(j + b) * log_zc) * value


def _is_nonpos_int(p: complex) -> bool:
    return p.imag == 0.0 and p.real <= 0.0 and p.real == round(p.real)


def _gauss_2f1_impl(a, b, c, z, zc, log_zc=None) -> complex:
    a, b, c = complex(a), complex(b), complex(c)
    if distance_to_nonpos_int(c) <= POLE_TOL:
        raise PoleError(c, f"2F1 parameter pole at c = {c}")
    for p in (a, b):
        if _is_nonpos_int(p):
            # terminating series when a (or b) = -m: the kernel stops at
            # its first zero term, after m + 1 steps
            return kernels.hyp2f1_series(a, b, c, z, 0.0,
                                         int(-p.real) + 1)[0]
    az = abs(z)
    if az > 1.0 + 1e-14:
        raise HypDomainError(f"|z| = {az} > 1 not supported")
    if az > SERIES_RADIUS and abs(zc) <= 0.5:
        if zc == 0 and log_zc is None:
            # exactly at the boundary point; for a nonzero complement the
            # connection formula below keeps the genuine zc^{c-a-b} term
            return gauss_2f1_at_one(a, b, c)
        log_zc = cmath.log(zc) if log_zc is None else log_zc
        # Euler's transformation F(a, b; c; z) = zc^d F(c-a, c-b; c; z)
        # turns c - a or c - b = -j, taken as exact within POLE_TOL (the
        # poles of the connection formula's Gamma(c - a) Gamma(c - b)),
        # into a terminating series, and d into -d
        for p, other in ((c - a, b), (c - b, a)):
            if distance_to_nonpos_int(p) <= POLE_TOL:
                return _terminating_near_one(-round(p.real), other, c, z,
                                             zc, log_zc)
        d = c - a - b
        if round(d.real) < 0:
            return cmath.exp(d * log_zc) * _gauss_2f1_impl(
                c - a, c - b, c, z, zc, log_zc)
        return _transform_near_one(a, b, c, zc, log_zc)
    if az <= SERIES_LIMIT:
        return _series(a, b, c, z)
    raise HypDomainError(
        f"z = {z} outside supported region "
        f"(|z| <= {SERIES_LIMIT} or |1 - z| <= 0.5)")


def gauss_2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric 2F1(a,b;c;z) for |z| <= 1.

    Power series for |z| <= SERIES_RADIUS; beyond it the z -> 1-z
    connection formula for |1 - z| <= 0.5 (the regime of the arguments
    tanh^2 t), in one form for every c - a - b, integer or not, and the
    series again elsewhere up to |z| <= SERIES_LIMIT; terminating sum
    when a or b is a non-positive integer.
    """
    z = complex(z)
    return _gauss_2f1_impl(a, b, c, z, 1.0 - z)


def gauss_2f1_complement(a: complex, b: complex, c: complex,
                         one_minus_z: complex) -> complex:
    """2F1 evaluated at z = 1 - one_minus_z with the complement supplied
    directly, avoiding cancellation when z is within rounding of 1
    (e.g. z = tanh^2 t with 1 - z = sech^2 t computed exactly)."""
    zc = complex(one_minus_z)
    return _gauss_2f1_impl(a, b, c, 1.0 - zc, zc)


def gauss_2f1_log_complement(a: complex, b: complex, c: complex,
                             log_one_minus_z: float) -> complex:
    """2F1 at z = 1 - exp(log_one_minus_z).  Below the double range the
    complement stays a logarithm, which gives the power (1-z)^{c-a-b}."""
    zc = math.exp(log_one_minus_z)
    if zc >= sys.float_info.min:
        return gauss_2f1_complement(a, b, c, zc)
    return _gauss_2f1_impl(a, b, c, 1.0 + 0j, complex(zc), log_one_minus_z)
