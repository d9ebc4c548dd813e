"""Complex special-function layer: Gamma, log-Gamma and Gauss 2F1.

Thin validating wrappers around the kernel backend.  All pole screening
and domain logic lives here so the compiled and pure-Python kernels stay
interchangeable.
"""

import cmath
import math

from ._backend import kernels

POLE_TOL = 1e-12
SERIES_TOL = 1e-13
SERIES_RADIUS = 0.9
MAX_TERMS = 100_000
DEGENERATE_EPS = 1e-9


class PoleError(ValueError):
    """Argument within tolerance of a Gamma pole (non-positive integer)."""

    def __init__(self, z: complex, message: str | None = None):
        self.z = z
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


def _check_finite(z: complex) -> complex:
    z = complex(z)
    if not (cmath.isfinite(z)):
        raise ValueError(f"non-finite argument {z}")
    return z


def gamma(z: complex) -> complex:
    """Gamma(z); raises PoleError within POLE_TOL of a non-positive integer."""
    return cmath.exp(log_gamma(z))


def log_gamma(z: complex) -> complex:
    """The principal branch of log Gamma(z), analytic off (-inf, 0].

    Differences log_gamma(z1) - log_gamma(z2) exponentiate to accurate
    Gamma ratios even when the ratio itself would overflow.
    """
    z = _check_finite(z)
    if distance_to_nonpos_int(z) <= POLE_TOL:
        raise PoleError(z)
    return kernels.clgamma(z)


def gamma_ratio(numerators, denominators) -> complex:
    """exp(sum log_gamma(num) - sum log_gamma(den)), overflow safe."""
    acc = 0j
    for z in numerators:
        acc += log_gamma(z)
    for z in denominators:
        acc -= log_gamma(z)
    return cmath.exp(acc)


def gauss_2f1_at_one(a: complex, b: complex, c: complex) -> complex:
    """Value of 2F1(a,b;c;1) = Gamma(c-a-b)Gamma(c) / (Gamma(c-a)Gamma(c-b)).

    Requires Re(c-a-b) > 0.  A pole of a denominator Gamma gives 0.
    """
    a, b, c = complex(a), complex(b), complex(c)
    d = c - a - b
    if d.real <= 0.0:
        raise HypDomainError(
            f"2F1 at z=1 requires Re(c-a-b) > 0, got {d}")
    if distance_to_nonpos_int(c) <= POLE_TOL or \
            distance_to_nonpos_int(d) <= POLE_TOL:
        raise PoleError(c if distance_to_nonpos_int(c) <= POLE_TOL else d)
    if distance_to_nonpos_int(c - a) <= POLE_TOL or \
            distance_to_nonpos_int(c - b) <= POLE_TOL:
        return 0j
    return gamma_ratio((d, c), (c - a, c - b))


def _series(a, b, c, z) -> complex:
    val, n = kernels.hyp2f1_series(a, b, c, z, SERIES_TOL, MAX_TERMS)
    if n < 0:
        raise HypConvergenceError(
            f"2F1 series did not converge for z = {z}")
    return val


def _coeff(nums, dens) -> complex:
    # Gamma-ratio prefactor; vanishes when a denominator hits a pole
    for z in dens:
        if distance_to_nonpos_int(z) <= POLE_TOL:
            return 0j
    for z in nums:
        if distance_to_nonpos_int(z) <= POLE_TOL:
            raise PoleError(z)
    return gamma_ratio(nums, dens)


def _transform_near_one(a, b, c, z, zc) -> complex:
    # z -> 1-z connection formula, zc = 1-z supplied for accuracy
    d = c - a - b
    coeff1 = _coeff((c, d), (c - a, c - b))
    coeff2 = _coeff((c, -d), (a, b))
    part1 = coeff1 * _series(a, b, 1.0 - d, zc) if coeff1 != 0 else 0j
    part2 = 0j
    if coeff2 != 0:
        part2 = (cmath.exp(d * cmath.log(zc)) * coeff2
                 * _series(c - a, c - b, 1.0 + d, zc))
    return part1 + part2


def _gauss_2f1_impl(a, b, c, z, zc) -> complex:
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
    if zc == 0:
        # exactly at the boundary point; for a nonzero complement the
        # connection formula below keeps the genuine zc^{c-a-b} term
        return gauss_2f1_at_one(a, b, c)
    if abs(zc) <= 0.5:
        d = c - a - b
        if distance_to_nonpos_int(d) > DEGENERATE_EPS * 10 and \
                distance_to_nonpos_int(-d) > DEGENERATE_EPS * 10:
            return _transform_near_one(a, b, c, z, zc)
        # near-degenerate c-a-b: perturb c symmetrically and average,
        # with a consistency check on the two evaluations
        vp = _transform_near_one(a, b, c + DEGENERATE_EPS, z, zc)
        vm = _transform_near_one(a, b, c - DEGENERATE_EPS, z, zc)
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
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    return _gauss_2f1_impl(a, b, c, z, 1.0 - z)


def gauss_2f1_complement(a: complex, b: complex, c: complex,
                         one_minus_z: complex) -> complex:
    """2F1 evaluated at z = 1 - one_minus_z with the complement supplied
    directly, avoiding cancellation when z is within rounding of 1
    (e.g. z = tanh^2 t with 1 - z = sech^2 t computed exactly)."""
    a, b, c = complex(a), complex(b), complex(c)
    zc = complex(one_minus_z)
    return _gauss_2f1_impl(a, b, c, 1.0 - zc, zc)
