"""Complex special-function layer: Gamma, log-Gamma, Gauss 2F1 and the
overflow-free log_cosh / log_sinh of a real t.

Thin validating wrappers around the kernel backend.  All pole screening
(each Gamma argument passes ``_pole_free`` once) and domain logic lives
here so the compiled and pure-Python kernels stay interchangeable.
"""

import cmath
import math
import sys
from functools import lru_cache

import numpy as np

from ._backend import kernels

POLE_TOL = 1e-12
SERIES_TOL = 1e-13
SERIES_RADIUS = 0.9
MAX_TERMS = 100_000
DEGENERATE_EPS = 1e-9
# Entries of each cache of a constant that depends on Lam alone (the
# connection Gamma ratios here, c_{Lam,delta} and the series terms in
# rankone): a caller evaluates one Lam, and -Lam, at many t; the bound
# keeps a run over many Lam from growing
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


def _series(a, b, c, z) -> complex:
    val, n = kernels.hyp2f1_series(a, b, c, z, SERIES_TOL, MAX_TERMS)
    if n < 0:
        raise HypConvergenceError(
            f"2F1 series did not converge for z = {z}")
    return val


@lru_cache(maxsize=CACHE_SIZE)
def _connection_coeffs(a, b, c) -> tuple[complex, complex]:
    """The two Gamma ratios of the z -> 1-z connection formula."""
    d = c - a - b
    return _coeff((c, d), (c - a, c - b)), _coeff((c, -d), (a, b))


def _transform_near_one(a, b, c, zc, log_zc) -> complex:
    # z -> 1-z connection formula, zc = 1-z and log zc given for accuracy
    d = c - a - b
    coeff1, coeff2 = _connection_coeffs(a, b, c)
    part1 = coeff1 * _series(a, b, 1.0 - d, zc) if coeff1 != 0 else 0j
    part2 = 0j
    if coeff2 != 0:
        part2 = (cmath.exp(d * log_zc) * coeff2
                 * _series(c - a, c - b, 1.0 + d, zc))
    return part1 + part2


def _gauss_2f1_impl(a, b, c, z, zc, log_zc=None) -> complex:
    a, b, c = complex(a), complex(b), complex(c)
    if distance_to_nonpos_int(c) <= POLE_TOL:
        raise PoleError(c, f"2F1 parameter pole at c = {c}")
    for p, name in ((a, "a"), (b, "b")):
        if p.imag == 0.0 and p.real <= 0.0 and p.real == round(p.real):
            # terminating series when a (or b) = -m: with tol = 0 the
            # kernel stops after its first two zero terms, in m + 2 steps
            return kernels.hyp2f1_series(a, b, c, z, 0.0,
                                         int(-p.real) + 2)[0]
    az = abs(z)
    if az > 1.0 + 1e-14:
        raise HypDomainError(f"|z| = {az} > 1 not supported")
    if az <= SERIES_RADIUS:
        return _series(a, b, c, z)
    if zc == 0 and log_zc is None:
        # exactly at the boundary point; for a nonzero complement the
        # connection formula below keeps the genuine zc^{c-a-b} term
        return gauss_2f1_at_one(a, b, c)
    if abs(zc) <= 0.5:
        log_zc = cmath.log(zc) if log_zc is None else log_zc
        d = c - a - b
        if distance_to_nonpos_int(d) > DEGENERATE_EPS * 10 and \
                distance_to_nonpos_int(-d) > DEGENERATE_EPS * 10:
            return _transform_near_one(a, b, c, zc, log_zc)
        # near-degenerate c-a-b: perturb c symmetrically and average,
        # with a consistency check on the two evaluations
        vp = _transform_near_one(a, b, c + DEGENERATE_EPS, zc, log_zc)
        vm = _transform_near_one(a, b, c - DEGENERATE_EPS, zc, log_zc)
        avg = 0.5 * (vp + vm)
        if abs(vp - vm) > 1e-4 * max(abs(avg), 1e-300):
            raise HypConvergenceError(
                "degenerate-case perturbation inconsistent "
                f"(spread {abs(vp - vm):.3e} at z = {z})")
        return avg
    raise HypDomainError(
        f"z = {z} outside supported region (|z|<=0.9 or near 1)")


def gauss_2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric 2F1(a,b;c;z) for |z| <= 1.

    Power series for |z| <= 0.9; the z -> 1-z connection formula near 1
    (the regime needed for arguments tanh^2 t); terminating sum when a or
    b is a non-positive integer.
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
