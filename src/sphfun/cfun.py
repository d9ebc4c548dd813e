"""The c-function: product formula, partial products, denominator Gamma
factor and the simplicity predicate.

The single-root factor is, with w the scalar <i lam, alpha_0>,

    2^{-(w - rho0)} G((m + m2 + 1)/2) G(w)
    / [ G((m/2 + 1 + w)/2) G((m/2 + m2 + w)/2) ],       rho0 = m/2 + m2,

evaluated through log-Gamma differences.  At w = rho0 its Gammas cancel
in pairs, G((m + m2 + 1)/2) against the first denominator and G(rho0)
against the second, so c_alpha(-i rho0) = 1 with no calibration
constant.  That matches the measure convention of the defining integral
over the opposite unipotent group used by the quadrature oracle (total
mass 1 at the calibration point).  G((m + m2 + 1)/2) is evaluated once
per (m, m2).  For even m and even m2 the factor is elementary, a
quotient of Pochhammer symbols (see ``_factor_value``).

Numerator poles (w a non-positive integer) are genuine poles of c and are
reported distinctly from denominator poles, which are zeros of c and mark
the non-simple spectral parameters of the underlying space.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from . import complexmath as cm
from ._backend import kernels
from .rootdata import RootDatum, SpectralParam, WeylElement, \
    negative_set_indices, restrict

SIMPLE_TOL = 1e-9

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class CFunctionValue:
    """Result record for a c-function evaluation."""

    value: complex


class CPoleError(ValueError):
    """A Gamma factor of the product hit a pole within tolerance.

    kind is 'numerator' (a genuine pole of c) or 'denominator' (a zero of
    c, equivalently a non-simple parameter).  root_index identifies the
    offending positive root in higher rank.
    """

    def __init__(self, kind: str, argument: complex,
                 root_index: int | None = None):
        self.kind = kind
        self.argument = argument
        self.root_index = root_index
        where = "" if root_index is None else f" (root #{root_index})"
        super().__init__(
            f"{kind} gamma pole at argument {argument}{where}")


def _factor_arguments(w: complex, m: int, m2: int):
    """(numerator arg, denominator args) of the single-root factor."""
    return w, (0.5 * (0.5 * m + 1.0 + w), 0.5 * (0.5 * m + m2 + w))


@lru_cache(maxsize=None)
def _log_gamma_half_dim(m: int, m2: int) -> complex:
    # log G((m + m2 + 1)/2), the factor's constant numerator Gamma
    return cm.log_gamma(0.5 * (m + m2 + 1.0))


# c_full, c_sigma and the identities built on them meet the same few
# factor arguments many times: the Weyl orbit of one lam gives at most
# 2 n_positive of them.  Equal w that differ in the sign of a zero part
# share an entry; a fresh call gives them the same bits.  A pole raises
# PoleError, which is never cached, so it is screened and raised afresh on
# every call, with that call's root_index
@lru_cache(maxsize=cm.CACHE_SIZE)
def _factor_value(w: complex, m: int, m2: int) -> complex:
    """The single-root factor.  For even m and m2 it is
    elementary: by Legendre's duplication formula (DLMF 5.5.5)
    G(w) = 2^{w-1} G(w/2) G((w+1)/2) / sqrt(pi), and each denominator
    Gamma lies an integer above w/2 or (w+1)/2, so the factor is
    P(rho0) / P(w) with P(w) = (w/2)_j ((w+1)/2)_k.  Otherwise it is
    exp of the printed factor's log."""
    num, dens = _factor_arguments(w, m, m2)
    cm.screen_poles((num,), dens)
    if m % 2 == 0 and m2 % 2 == 0:
        return _pochhammer_pair(0.5 * m + m2, m, m2) / _pochhammer_pair(
            w, m, m2)
    den1, den2 = dens
    return cmath.exp((0.5 * m + m2 - w) * _LOG2 + _log_gamma_half_dim(m, m2)
                     + kernels.clgamma(num) - kernels.clgamma(den1)
                     - kernels.clgamma(den2))


def _pochhammer_pair(w: complex, m: int, m2: int) -> complex:
    # P(w) of _factor_value, m and m2 even: the denominator arguments
    # (m/2 + 1 + w)/2 and (m/2 + m2 + w)/2 are w/2 and (w+1)/2 shifted by
    # integers, which of them by which depending on m/2 mod 2
    p = m // 2
    if p % 2:
        j, k = (p + 1) // 2, (p + m2 - 1) // 2
    else:
        j, k = (p + m2) // 2, p // 2
    return cm.pochhammer(0.5 * w, j) * cm.pochhammer(0.5 * w, k, 0.5)


def _factor(w: complex, m: int, m2: int,
            root_index: int | None = None) -> complex:
    try:
        return _factor_value(w, m, m2)
    except cm.PoleError as exc:
        raise CPoleError(exc.side, exc.z, root_index) from None


def c_alpha(Lam: complex, m_alpha: int, m_2alpha: int,
            root_index: int | None = None) -> CFunctionValue:
    """Single-root (rank-one) c-function at scalar parameter Lam, i.e. at
    <i lam, alpha_0> = i*Lam, calibrated so c_alpha(-i rho0) = 1."""
    return CFunctionValue(_factor(1j * complex(Lam), m_alpha, m_2alpha,
                                  root_index))


class FactorRecord:
    """The single-root factors of one (datum, lam): root i's factor
    c_alpha(<lam, alpha_i>) is evaluated the first time a product asks
    for it and kept for every later product.  A pole raises CPoleError
    with that root's index and stores nothing, so it raises again at the
    next request.  A check that multiplies many partial products at one
    lam (the cocycle law) holds one record per lam."""

    __slots__ = ("datum", "lam", "_factors")

    def __init__(self, datum: RootDatum, lam: SpectralParam):
        self.datum = datum
        self.lam = lam
        self._factors = [None] * datum.n_positive

    def product(self, indices) -> complex:
        """The product of the factors of the roots in indices, multiplied
        in that order onto 1."""
        acc = 1.0 + 0j
        for i in indices:
            factor = self._factors[i]
            if factor is None:
                m, m2 = self.datum.mult_of(i)
                factor = c_alpha(restrict(self.datum, self.lam, i), m, m2,
                                 root_index=i).value
                self._factors[i] = factor
            acc *= factor
        return acc

    def partial(self, w: WeylElement) -> complex:
        """The value of c_sigma(datum, w, lam)."""
        return self.product(negative_set_indices(self.datum, w))


def c_full(datum: RootDatum, lam: SpectralParam) -> CFunctionValue:
    """Product of the single-root factors over all positive indivisible
    roots (the full c-function)."""
    return CFunctionValue(
        FactorRecord(datum, lam).product(range(datum.n_positive)))


def c_sigma(datum: RootDatum, w: WeylElement,
            lam: SpectralParam) -> CFunctionValue:
    """Partial c-function: the factor product restricted to the positive
    roots sent negative by w."""
    return CFunctionValue(FactorRecord(datum, lam).partial(w))


def is_simple(datum: RootDatum, lam: SpectralParam,
              tol: float = SIMPLE_TOL) -> bool:
    """False exactly when some denominator Gamma argument lies within tol
    of a non-positive integer (the reciprocal of the denominator product
    vanishes there, which characterizes the non-simple parameters)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    for i in range(datum.n_positive):
        m, m2 = datum.mult_of(i)
        w = 1j * restrict(datum, lam, i)
        _, dens = _factor_arguments(w, m, m2)
        for d in dens:
            if cm.distance_to_nonpos_int(d) < tol:
                return False
    return True
