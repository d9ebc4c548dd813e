"""Complex special-function layer: Gamma, log-Gamma, Gauss 2F1 and the
overflow-free log_cosh of a real t.

Thin validating wrappers around the scalar kernels of
``sphfun._kernels_py``.  All pole screening (each Gamma argument passes
``_pole_free`` once) and domain logic lives here, so the kernels stay
pure functions of their arguments.
"""

import cmath
import math
import sys
from functools import lru_cache

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
# closed-form plans, c_{Lam,delta} and the series terms in rankone, the
# single-root factors of cfun) or on a 2F1's c alone (its log Gamma):
# a caller evaluates one Lam, and -Lam, at many t, or the at most
# 2 n_positive factors of one lam's Weyl orbit many times; the bound
# keeps a run over many Lam from growing
CACHE_SIZE = 32
_LOG2 = math.log(2.0)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


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


def screen_poles(numerators, denominators) -> None:
    """Screen every Gamma argument of a quotient, numerators first; the
    first pole raises PoleError with its side set.  A quotient formed
    from a shorter form (a Pochhammer product, the duplication formula)
    screens its original arguments here."""
    for z in numerators:
        _pole_free(z, "numerator")
    for z in denominators:
        _pole_free(z, "denominator")


def log_gamma_quotient(numerators, denominators) -> complex:
    """sum log_gamma(num) - sum log_gamma(den), added in order.  All
    arguments are screened, numerators first, before any is evaluated;
    the first pole raises PoleError with its side set."""
    screen_poles(numerators, denominators)
    total = 0j
    for z in numerators:
        total += kernels.clgamma(z)
    for z in denominators:
        total -= kernels.clgamma(z)
    return total


def gamma_ratio(numerators, denominators) -> complex:
    """exp(sum log_gamma(num) - sum log_gamma(den)), overflow safe."""
    return cmath.exp(log_gamma_quotient(numerators, denominators))


def pochhammer(x: complex, k: int, offset: float = 0.0) -> complex:
    """Gamma(y + k) / Gamma(y) at y = x + offset for an integer k: the
    product (y)_k, or 1 / (y + k)_{-k} for k < 0.  Each factor is formed
    as x + (offset + j), one rounding of x plus an exact constant, so a
    factor next to zero keeps the relative accuracy of x.  A factor
    vanishes only where y or y + k is a pole of Gamma, which the caller
    screens."""
    p = 1.0 + 0j
    for j in range(min(k, 0), max(k, 0)):
        p *= x + (offset + j)
    return p if k >= 0 else 1.0 / p


def _log_gamma_pair(x: complex, h: float) -> complex:
    """log Gamma(x) + log Gamma(x + h) up to a multiple of 2 pi i, for an
    integer or half-integer h, from one log-Gamma: Gamma(x)^2 (x)_h, or
    by Legendre's duplication formula (DLMF 5.5.5)
    2^{1-2x} sqrt(pi) Gamma(2x) (x + 1/2)_{h-1/2}.  Both arguments are
    screened by the caller; where 2x alone is within POLE_TOL of a pole
    the two are evaluated apart."""
    k = round(h)
    if k == h:
        return 2.0 * kernels.clgamma(x) + cmath.log(pochhammer(x, k))
    if distance_to_nonpos_int(2.0 * x) <= POLE_TOL:
        return kernels.clgamma(x) + kernels.clgamma(x + h)
    return ((1.0 - 2.0 * x) * _LOG2 + _LOG_SQRT_PI
            + kernels.clgamma(2.0 * x)
            + cmath.log(pochhammer(x, round(h - 0.5), 0.5)))


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


def log_cosh(t: float) -> float:
    """log cosh t for a real t >= 0, free of overflow."""
    return t - _LOG2 + math.log1p(math.exp(-2.0 * t))


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


def _log_gamma_step_pair(x: complex, h: float, eps: complex) -> complex:
    """_log_gamma_step(x, eps) + _log_gamma_step(x + h, eps) for an
    integer or half-integer h, from one step: 2 step(x) for h = 0, or by
    the duplication formula 2 step(2x, 2 eps) - 2 log 2 for h = 1/2; the
    rest of h adds log((y + eps)_k / (y)_k) / eps, formed as the
    recurrence of _log_gamma_step forms its product.  Where 2x alone is
    within POLE_TOL of a pole the two steps are taken apart."""
    k = round(h)
    if k == h:
        base, y = 2.0 * _log_gamma_step(x, eps), x
    elif distance_to_nonpos_int(2.0 * x) <= POLE_TOL:
        return _log_gamma_step(x, eps) + _log_gamma_step(x + h, eps)
    else:
        base = 2.0 * _log_gamma_step(2.0 * x, 2.0 * eps) - 2.0 * _LOG2
        y, k = x + 0.5, round(h - 0.5)
    e = 0j
    for j in range(min(k, 0), max(k, 0)):
        e += (1.0 + eps * e) / (y + j)
    shift = e * _log1p_quotient(eps * e)
    return base + shift if k >= 0 else base - shift


# log Gamma(c) of the connection constants: a caller meets one c for
# many (a, b), rankone's closed forms the c = s + dim X / 2 of a K-type.
# c = x + 0j and x - 0j are equal keys, but for x < 0 they lie on either
# side of the branch cut, where log Gamma differs by a multiple of
# 2 pi i and the 2F1 in its last bits, so the sign of Im c is part of
# the key (that of a zero Re c moves no bit)
@lru_cache(maxsize=CACHE_SIZE)
def _log_gamma_c(c: complex, im_sign: float) -> complex:
    return kernels.clgamma(c)


def _connection_coeffs(a, b, c, b_minus_a=None):
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
    rational recurrences.

    finite[0] and w0 share G = Gamma(c) Gamma(1 + eps) / (Gamma(c - a)
    Gamma(c - b)): finite[0] = G (1 + eps)_{m-1} and w0 = +-G times
    prod_{n<m} (a + n)(b + n) / (n + 1); log Gamma(c) comes from a cache
    (_log_gamma_c).  A caller whose b - a is an integer or half-integer
    passes it exactly as b_minus_a: Gamma(c - a)
    Gamma(c - b) then takes one log-Gamma (_log_gamma_pair), and the
    steps at a + m and b + m one step (_log_gamma_step_pair).  Every
    Gamma argument is screened, numerators first: a pole of Gamma(c - a)
    or Gamma(c - b) raises PoleError with side "denominator".  The plan
    (Gauss2F1Plan) sends m < 0 and such a pole to Euler's transformation
    first, and keeps these constants for its (a, b, c).
    """
    d = c - a - b
    m = round(d.real)
    eps = d - m
    screen_poles((c, d, 1.0 + eps) if m else (c, 1.0 + eps), (c - a, c - b))
    if b_minus_a is None:
        log_dens = kernels.clgamma(c - a) + kernels.clgamma(c - b)
    else:
        log_dens = _log_gamma_pair(c - a, -b_minus_a)
    g = cmath.exp(_log_gamma_c(c, math.copysign(1.0, c.imag)) - log_dens
                  + kernels.clgamma(1.0 + eps))
    finite = []
    if m:
        finite.append(g * pochhammer(eps, m - 1, 1.0))
        for n in range(m - 1):
            finite.append(finite[-1] * (a + n) * (b + n)
                          / ((1.0 - d + n) * (n + 1.0)))
    w0 = -g if m % 2 == 0 else g
    for n in range(m):
        w0 *= (a + n) * (b + n) / (n + 1.0)
    if b_minus_a is None:
        g_ab = _log_gamma_step(a + m, eps) + _log_gamma_step(b + m, eps)
    else:
        g_ab = _log_gamma_step_pair(a + m, b_minus_a, eps)
    g0 = (g_ab - _log_gamma_step(m + 1.0, eps)
          - _log_gamma_step(1.0, -eps))
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


def _transform_near_one(a, b, c, zc, log_zc, coeffs) -> complex:
    # z -> 1-z connection formula, zc = 1-z and log zc given for accuracy,
    # coeffs = _connection_coeffs(a, b, c)
    m, eps, finite, w0, h0, r0 = coeffs
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


def _terminating_near_one(j, b, c, zc, log_zc) -> complex:
    # F(a, b; c; z) for c - a = -j: zc^{-j-b} F(-j, c-b; c; z) by Euler's
    # transformation, the polynomial summed in powers of zc = 1 - z for
    # relative accuracy near z = 1: DLMF 15.8.7 with (b)_j / (1-j-b)_n =
    # (-1)^n (b)_{j-n}, which holds at the poles of 1 - j - b too, gives
    # sum_n binom(j, n) (c-b)_n (b)_{j-n} zc^n / (c)_j.  Each term is
    # binom(j, n) (c-b)_n / (c)_n zc^n times q[j-n] = (b)_{j-n} /
    # (c+n)_{j-n}.  Formed from b itself: c - (c - b) would cancel
    q = [1.0 + 0j]
    for i in range(j):
        q.append(q[-1] * (b + i) / (c + (j - 1 - i)))
    c_minus_b = c - b
    value, term = 0j, 1.0 + 0j
    for n in range(j + 1):
        value += term * q[j - n]
        term *= (j - n) / (n + 1.0) * (c_minus_b + n) / (c + n) * zc
    return cmath.exp(-(j + b) * log_zc) * value


def _is_nonpos_int(p: complex) -> bool:
    return p.imag == 0.0 and p.real <= 0.0 and p.real == round(p.real)


class Gauss2F1Plan:
    """What the 2F1 evaluator decides from its complex (a, b, c) alone:
    the pole at c (raised, never kept), the terms of a terminating series
    (a or b = -n, n + 1 terms, the kernel stopping at its first zero
    term; 0 otherwise), and, formed by the first call on the connection
    branch, that branch's choice.  The public functions build one per
    call; a caller that evaluates one (a, b, c) at many z (rankone's
    closed forms) holds its own and calls at_log_complement, passing the
    exact b - a it knows on to _connection_coeffs."""

    __slots__ = ("a", "b", "c", "terms", "choice", "b_minus_a")

    def __init__(self, a, b, c, b_minus_a=None):
        a, b, c = complex(a), complex(b), complex(c)
        if distance_to_nonpos_int(c) <= POLE_TOL:
            raise PoleError(c, f"2F1 parameter pole at c = {c}")
        self.a, self.b, self.c = a, b, c
        self.terms = next((int(-p.real) + 1 for p in (a, b)
                           if _is_nonpos_int(p)), 0)
        self.choice = None
        self.b_minus_a = b_minus_a

    def _choose(self):
        # Euler's transformation F(a, b; c; z) = zc^d F(c-a, c-b; c; z)
        # turns c - a or c - b = -j, taken as exact within POLE_TOL (the
        # poles of the connection formula's Gamma(c - a) Gamma(c - b)),
        # into a terminating series (j and whether b is the one at the
        # pole), and d into -d (the plan of the transformed parameters)
        a, b, c = self.a, self.b, self.c
        for p, swap in ((c - a, False), (c - b, True)):
            if distance_to_nonpos_int(p) <= POLE_TOL:
                return "terminating", (-round(p.real), swap)
        if round((c - a - b).real) < 0:
            return "euler", Gauss2F1Plan(c - a, c - b, c)
        return "connection", _connection_coeffs(a, b, c, self.b_minus_a)

    def _near_one(self, zc, log_zc) -> complex:
        # F(a, b; c; z) on the connection branch, |1 - z| <= 0.5
        if self.choice is None:
            self.choice = self._choose()
        kind, arg = self.choice
        a, b, c = self.a, self.b, self.c
        if kind == "terminating":
            j, swap = arg
            return _terminating_near_one(j, a if swap else b, c, zc, log_zc)
        if kind == "euler":
            return (cmath.exp((c - a - b) * log_zc)
                    * arg._near_one(zc, log_zc))
        return _transform_near_one(a, b, c, zc, log_zc, arg)

    def value(self, z, zc, log_zc=None) -> complex:
        """F(a, b; c; z) at complex z and its complement zc = 1 - z;
        log_zc, if given, is log zc."""
        if self.terms:
            return kernels.hyp2f1_series(self.a, self.b, self.c, z, 0.0,
                                         self.terms)[0]
        az = abs(z)
        if az > 1.0 + 1e-14:
            raise HypDomainError(f"|z| = {az} > 1 not supported")
        if az > SERIES_RADIUS and abs(zc) <= 0.5:
            if zc == 0 and log_zc is None:
                # exactly at the boundary point; for a nonzero complement
                # the connection formula keeps the genuine zc^{c-a-b} term
                return gauss_2f1_at_one(self.a, self.b, self.c)
            log_zc = cmath.log(zc) if log_zc is None else log_zc
            return self._near_one(zc, log_zc)
        if az <= SERIES_LIMIT:
            return _series(self.a, self.b, self.c, z)
        raise HypDomainError(
            f"z = {z} outside supported region "
            f"(|z| <= {SERIES_LIMIT} or |1 - z| <= 0.5)")

    def at_log_complement(self, log_zc: float) -> complex:
        """F(a, b; c; z) at z = 1 - exp(log_zc).  Below the double range
        the complement stays a logarithm, which gives the power
        (1-z)^{c-a-b}."""
        zc = math.exp(log_zc)
        if zc >= sys.float_info.min:
            # through the public function: perfbench's tracer counts the
            # 2F1 branches from its first four arguments
            return gauss_2f1_complement(self.a, self.b, self.c, zc, self)
        return self.value(1.0 + 0j, complex(zc), log_zc)


def gauss_2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric 2F1(a,b;c;z) for |z| <= 1.

    Power series for |z| <= SERIES_RADIUS; beyond it the z -> 1-z
    connection formula for |1 - z| <= 0.5 (the regime of the arguments
    tanh^2 t), in one form for every c - a - b, integer or not, and the
    series again elsewhere up to |z| <= SERIES_LIMIT; terminating sum
    when a or b is a non-positive integer.
    """
    z = complex(z)
    return Gauss2F1Plan(a, b, c).value(z, 1.0 - z)


def gauss_2f1_complement(a: complex, b: complex, c: complex,
                         one_minus_z: complex,
                         plan: Gauss2F1Plan | None = None) -> complex:
    """2F1 evaluated at z = 1 - one_minus_z with the complement supplied
    directly, avoiding cancellation when z is within rounding of 1
    (e.g. z = tanh^2 t with 1 - z = sech^2 t computed exactly).  A caller
    that holds the Gauss2F1Plan of this (a, b, c) passes it."""
    zc = complex(one_minus_z)
    return (plan or Gauss2F1Plan(a, b, c)).value(1.0 - zc, zc)
