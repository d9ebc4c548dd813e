"""Rank-one spherical functions of a given K-type.

A rank-one space is determined up to local isometry by the multiplicities
(m_alpha, m_2alpha); we use the alpha(H) = 1 normalization throughout, so
the spectral parameter is the single complex number Lam = lam(H) and
rho(H) = m_alpha/2 + m_2alpha.

A K-type enters only through the two scalars (d_alpha, d_2alpha), which
determine integers r <= s via the quadratics

    r (r + m_2alpha - 1)            = -d_2alpha / 4
    s (s + m_alpha + m_2alpha - 1)  = -d_alpha - d_2alpha / 4.

The radial function of the K-type is the hypergeometric closed form

    phi(t) = c_{lam,delta} tanh^s t cosh^l t
             * F((s+r-l)/2, (s-r-l+1-m_2alpha)/2;
                 s + (m_alpha+m_2alpha+1)/2; tanh^2 t),    l = i Lam - rho,

with the constant c_{lam,delta} a double Gamma ratio.  The module also
carries the exponential-series representation (coefficients from the
radial Laplacian recursion), the leading-coefficient identifications, the
large-t and small-t limits, and the scalar second-series coefficient
C_sigma evaluated at -lam.
"""

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import complexmath as cm
from ._backend import kernels
from .cfun import CPoleError, c_alpha

RS_INT_TOL = 1e-9
RESONANCE_TOL = 1e-9
DEFAULT_SERIES_N = 40


class NoIntegerRootError(ValueError):
    """K-type quadratics have no integer root pair (inconsistent data)."""


class ResonanceError(ValueError):
    """Series recursion hit a vanishing denominator n (n - 2 i Lam)."""

    def __init__(self, n: int, lam: complex):
        self.n = n
        self.lam = lam
        super().__init__(
            f"resonant series denominator at n = {n} for Lam = {lam}")


class SmallDenominatorError(ZeroDivisionError):
    """Ratio denominator vanished within tolerance."""


@dataclass(frozen=True)
class RankOneSpace:
    """Rank-one symmetric space data: root multiplicities."""

    m_alpha: int
    m_2alpha: int = 0

    def __post_init__(self):
        if self.m_alpha < 1:
            raise ValueError("m_alpha must be >= 1")
        if self.m_2alpha < 0:
            raise ValueError("m_2alpha must be >= 0")

    @property
    def rho(self) -> float:
        """rho(H) = m_alpha/2 + m_2alpha."""
        return 0.5 * self.m_alpha + self.m_2alpha

    @property
    def dim(self) -> int:
        """dim X = m_alpha + m_2alpha + 1."""
        return self.m_alpha + self.m_2alpha + 1


@dataclass(frozen=True)
class KTypeRankOne:
    """Rank-one K-type data; the fixed-subspace dimension is 1, so the
    type is captured by the scalars (d_alpha, d_2alpha) and the derived
    integers (r, s)."""

    d_alpha: float
    d_2alpha: float
    r: int
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be a nonnegative integer")
        if self.r > self.s:
            raise ValueError("need r <= s")


def _quadratic_residuals(space: RankOneSpace, kt: KTypeRankOne) -> tuple:
    m, m2 = space.m_alpha, space.m_2alpha
    res_r = kt.r * (kt.r + m2 - 1) + 0.25 * kt.d_2alpha
    res_s = kt.s * (kt.s + m + m2 - 1) + kt.d_alpha + 0.25 * kt.d_2alpha
    return res_r, res_s


def validate_ktype(space: RankOneSpace, kt: KTypeRankOne) -> None:
    res_r, res_s = _quadratic_residuals(space, kt)
    tol = 1e-12 * (1.0 + abs(kt.d_alpha) + abs(kt.d_2alpha))
    if abs(res_r) > tol or abs(res_s) > tol:
        raise ValueError(
            f"(r, s) = ({kt.r}, {kt.s}) violates the K-type quadratics "
            f"for multiplicities ({space.m_alpha}, {space.m_2alpha}): "
            f"residuals ({res_r:.3e}, {res_s:.3e})")


def solve_rs(space: RankOneSpace, d_alpha: float,
             d_2alpha: float) -> tuple[int, int]:
    """Integer roots (r, s) of the K-type quadratics.

    s is the nonnegative root of its quadratic; among the integer roots r
    of the other one that satisfy r <= s, the smallest nonnegative root is
    preferred (for m_2alpha = 0 the roots are {0, 1} and both produce the
    same radial function, so 0 is recorded).
    """
    m, m2 = space.m_alpha, space.m_2alpha

    def integer_roots(p: float, q: float) -> list[int]:
        # roots of x^2 + p x + q that are integers within tolerance
        disc = p * p - 4.0 * q
        if disc < 0:
            return []
        sq = math.sqrt(disc)
        out = []
        for x in ((-p + sq) / 2.0, (-p - sq) / 2.0):
            if abs(x - round(x)) <= RS_INT_TOL * (1.0 + abs(x)):
                k = int(round(x))
                if k not in out:
                    out.append(k)
        return out

    s_candidates = [x for x in integer_roots(m + m2 - 1.0,
                                             d_alpha + 0.25 * d_2alpha)
                    if x >= 0]
    if not s_candidates:
        raise NoIntegerRootError(
            f"no nonnegative integer s for d_alpha={d_alpha}, "
            f"d_2alpha={d_2alpha} at multiplicities ({m}, {m2})")
    s = min(s_candidates)
    r_candidates = [x for x in integer_roots(m2 - 1.0, 0.25 * d_2alpha)
                    if x <= s]
    if not r_candidates:
        raise NoIntegerRootError(
            f"no integer r <= s={s} for d_2alpha={d_2alpha} at "
            f"multiplicities ({m}, {m2})")
    nonneg = [x for x in r_candidates if x >= 0]
    r = min(nonneg) if nonneg else max(r_candidates)
    return r, s


def ktype_from_ds(space: RankOneSpace, d_alpha: float,
                  d_2alpha: float) -> KTypeRankOne:
    r, s = solve_rs(space, d_alpha, d_2alpha)
    return KTypeRankOne(d_alpha, d_2alpha, r, s)


def ktype_from_rs(space: RankOneSpace, r: int, s: int) -> KTypeRankOne:
    m, m2 = space.m_alpha, space.m_2alpha
    d_2alpha = -4.0 * r * (r + m2 - 1)
    d_alpha = -float(s * (s + m + m2 - 1)) - 0.25 * d_2alpha
    kt = KTypeRankOne(d_alpha, d_2alpha, r, s)
    validate_ktype(space, kt)
    return kt


TRIVIAL_KTYPE = KTypeRankOne(0.0, 0.0, 0, 0)


def sl2_ktype_for_char(char_n: int) -> KTypeRankOne:
    """K-type of the circle character of even weight char_n in the
    two-dimensional hyperbolic model: s = |char_n|/2, r = 0."""
    if char_n % 2:
        raise ValueError("character weight must be even")
    return ktype_from_rs(RankOneSpace(1, 0), 0, abs(char_n) // 2)


@lru_cache(maxsize=cm.CACHE_SIZE)
def c_lambda_delta(space: RankOneSpace, kt: KTypeRankOne,
                   Lam: complex) -> complex:
    """The K-type constant of the hypergeometric closed form: with
    w = i Lam + rho,

        G(n1) / G(d1) * G(n2) / G(d2),
        n1 = (w+s+r)/2, d1 = w/2,
        n2 = (w+1-m_2alpha+s-r)/2, d2 = (w+1-m_2alpha)/2.

    Each numerator lies an integer or a half-integer from each
    denominator.  Where s + r is even, each pairs with its own
    denominator, and where m_2alpha is even, with the other one: the
    constant is then a product of Pochhammer symbols (s linear factors
    where m_2alpha = 0).  Otherwise (s + r and m_2alpha odd) the
    numerators lie an integer apart, and so do the denominators, which
    leaves one log-Gamma pair, squared.  All four arguments are screened
    for poles, numerators first.
    """
    x = 0.5j * complex(Lam)
    rho, m2, s, r = space.rho, space.m_2alpha, kt.s, kt.r
    # each argument is i Lam / 2 (exact) plus an exact constant, so it is
    # rounded once, and so is each Pochhammer factor
    cn1, cn2 = 0.5 * (rho + s + r), 0.5 * (rho + 1 - m2 + s - r)
    cd1, cd2 = 0.5 * rho, 0.5 * (rho + 1 - m2)
    try:
        cm.screen_poles((x + cn1, x + cn2), (x + cd1, x + cd2))
    except cm.PoleError as exc:
        raise CPoleError(exc.side, exc.z) from None
    if (s + r) % 2 == 0:
        return (cm.pochhammer(x, (s + r) // 2, cd1)
                * cm.pochhammer(x, (s - r) // 2, cd2))
    if m2 % 2 == 0:
        # n1 = d2 + (s + r + m2 - 1)/2 and n2 = d1 + (s - r - m2 + 1)/2
        return (cm.pochhammer(x, (s + r + m2 - 1) // 2, cd2)
                * cm.pochhammer(x, (s - r - m2 + 1) // 2, cd1))
    # n1 = n2 + r + (m2 - 1)/2 and d1 = d2 + (m2 - 1)/2
    half = (m2 - 1) // 2
    log_pair = kernels.clgamma(x + cn2) - kernels.clgamma(x + cd2)
    return (cmath.exp(2.0 * log_pair) * cm.pochhammer(x, r + half, cn2)
            / cm.pochhammer(x, half, cd2))


def _hyp_parameters(space: RankOneSpace, kt: KTypeRankOne, Lam: complex):
    l = 1j * complex(Lam) - space.rho
    a = 0.5 * (kt.s + kt.r - l)
    b = 0.5 * (kt.s - kt.r - l + 1 - space.m_2alpha)
    c = kt.s + 0.5 * (space.m_alpha + space.m_2alpha + 1)
    return l, a, b, c


class _ClosedFormPlan:
    """What _closed_form needs that t does not change: the 2F1's plan, the
    cosh power, 2^{-l} with limit, and c_{Lam,delta}, which the first call
    at t > 0 fills (a pole of it raises on every such call and is never
    kept; a call at t = 0 does not touch it)."""

    __slots__ = ("hyp", "power", "scale", "const")


@lru_cache(maxsize=cm.CACHE_SIZE)
def _closed_form_plan(space: RankOneSpace, kt: KTypeRankOne, Lam: complex,
                      limit: bool) -> _ClosedFormPlan:
    """The _ClosedFormPlan of (space, kt, Lam, limit), the K-type
    validated.  The 2F1's plan knows b - a = (1 - m_2alpha)/2 - r
    exactly, so that its connection constants take one log-Gamma for
    Gamma(c - a) Gamma(c - b).

    For Im Lam > 0 that 2F1 grows like cosh^{2 Im Lam} t while cosh^l t
    decays, and at large t each alone over- or underflows.  There Euler's
    transformation F(a, b; c; z) = (1 - z)^{i Lam} F(c - a, c - b; c; z)
    (c - a - b = i Lam, 1 - z = sech^2 t) moves the growth into the cosh
    power, -i Lam - rho for phi, and leaves a bounded 2F1.
    """
    validate_ktype(space, kt)
    l, a, b, c = _hyp_parameters(space, kt, Lam)
    b_minus_a = 0.5 * (1 - space.m_2alpha) - kt.r
    power = 0 if limit else l
    if complex(Lam).imag > 0:
        a, b, power = c - a, c - b, power - 2j * complex(Lam)
        b_minus_a = -b_minus_a
    plan = _ClosedFormPlan()
    plan.hyp = cm.Gauss2F1Plan(a, b, c, b_minus_a)
    plan.power = power
    plan.scale = cmath.exp(-l * math.log(2.0)) if limit else None
    plan.const = None
    return plan


def _closed_form(space: RankOneSpace, kt: KTypeRankOne, Lam: complex,
                 t: float, limit: bool) -> complex:
    """phi(t) = c_{Lam,delta} tanh^s t cosh^l t F(a, b; c; tanh^2 t), or,
    with limit, (2 cosh t)^{-l} phi(t), in which the cosh powers cancel."""
    if not t >= 0:
        raise ValueError("t must be >= 0")
    plan = _closed_form_plan(space, kt, Lam, limit)
    value = 1.0 + 0j if kt.s == 0 else 0j
    if t > 0:
        if plan.const is None:
            plan.const = c_lambda_delta(space, kt, Lam)
        const = plan.const * math.tanh(t) ** kt.s
        lc = cm.log_cosh(float(t))
        # z = tanh^2 t is within rounding of 1: pass log(1 - z) = -2 log cosh t
        hyp = plan.hyp.at_log_complement(-2.0 * lc)
        power = plan.power
        value = const * cmath.exp(power * lc) * hyp if power else const * hyp
    return plan.scale * value if limit else value


def phi_tau(space: RankOneSpace, kt: KTypeRankOne, Lam: complex,
            t: float) -> complex:
    """Radial K-type spherical function at exp(t H), by the
    hypergeometric closed form.  Equals 1 at t = 0 for the trivial type
    and vanishes to order s at t = 0 otherwise."""
    return _closed_form(space, kt, Lam, t, limit=False)


def check_resonance(Lam: complex, N: int) -> None:
    two_il = 2j * complex(Lam)
    for n in range(2, N + 1, 2):
        if abs(n - two_il) < RESONANCE_TOL:
            raise ResonanceError(n, complex(Lam))


@lru_cache(maxsize=cm.CACHE_SIZE)
def hc_series_gammas(space: RankOneSpace, Lam: complex,
                     N: int = DEFAULT_SERIES_N) -> tuple[complex, ...]:
    """The coefficients g_0 = 1, g_1, ..., g_N of the exponential
    expansion (the odd ones vanish), generated by substituting the series
    into the radial eigen-equation

        u'' + (m coth t + 2 m2 coth 2t) u' = -(Lam^2 + rho^2) u.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    check_resonance(Lam, N)
    return tuple(kernels.hc_gamma_coeffs(space.m_alpha, space.m_2alpha,
                                         complex(Lam), N))


def series_tail_estimate(gammas: tuple[complex, ...], t: float) -> float:
    """A posteriori bound |g_N' e^{-N' t}| / (1 - e^{-(t - 1/2)}) on the
    tail that the coefficients g_0, ..., g_N of hc_series_gammas drop,
    with N' = N - N mod 2 the last even index (the odd coefficients
    vanish), valid under the sub-(1/2) exponential growth of the
    coefficients for t > 1/2."""
    if t <= 0.5:
        return math.inf
    n = len(gammas) - 1
    n -= n % 2
    return (abs(gammas[n]) * math.exp(-n * t)
            / (1.0 - math.exp(-(t - 0.5))))


@lru_cache(maxsize=cm.CACHE_SIZE)
def _series_terms(space: RankOneSpace, Lam: complex, N: int) -> tuple:
    """The two terms of the Weyl sum of hc_series_eval: for L = Lam, then
    L = -Lam, (g_0, g_2, g_4, ... at L, c(L)); the odd g_n vanish."""
    return tuple((hc_series_gammas(space, L, N)[::2],
                  c_alpha(L, space.m_alpha, space.m_2alpha).value)
                 for L in (complex(Lam), -complex(Lam)))


def hc_series_eval(space: RankOneSpace, Lam: complex, t: float,
                   N: int = DEFAULT_SERIES_N) -> complex:
    """Zonal function via the two-term Weyl sum of the exponential series,

        c(Lam) e^{(i Lam - rho) t} sum_n g_n(Lam) e^{-n t}
        + (Lam -> -Lam),

    valid for t > 0 away from resonances, each sum a Horner sum in
    e^{-2t} over the even n.  The coefficients and c(+-Lam) come from a
    cache shared by all calls.
    """
    if not t > 0:
        raise ValueError("the series representation requires t > 0")
    x = math.exp(-2.0 * t)
    total = 0j
    # the exponents take this call's Lam: a cache entry is shared by equal
    # Lam that differ in the sign of a zero part
    for L, (evens, c) in zip((complex(Lam), -complex(Lam)),
                             _series_terms(space, Lam, N)):
        inner = 0j
        for g in reversed(evens):
            inner = inner * x + g
        total += c * cmath.exp((1j * L - space.rho) * t) * inner
    return total


def C_sigma_minus(space: RankOneSpace, kt: KTypeRankOne,
                  Lam: complex) -> complex:
    """The scalar second-coefficient evaluated at the reflected parameter:
    C_sigma(-Lam) = c_{-Lam,delta} / c_{Lam,delta} * c(Lam)."""
    return (c_lambda_delta(space, kt, -complex(Lam))
            / c_lambda_delta(space, kt, Lam)
            * c_alpha(Lam, space.m_alpha, space.m_2alpha).value)


def limit_large_t(space: RankOneSpace, kt: KTypeRankOne, Lam: complex,
                  t: float) -> complex:
    """(2 cosh t)^{-l} phi(t); converges as t grows to
    ``limit_large_t_target`` provided Im(Lam) < 0 (the regime where the
    reflected exponential series term decays).  The cosh powers cancel:
    it is evaluated as 2^{-l} c_{Lam,delta} tanh^s t F(a, b; c; tanh^2 t),
    finite where each factor alone overflows."""
    return _closed_form(space, kt, Lam, t, limit=True)


def limit_large_t_target(space: RankOneSpace, kt: KTypeRankOne,
                         Lam: complex) -> complex:
    """Gamma(s + n/2)/Gamma(n/2) * c(Lam), n = dim X: the Pochhammer
    symbol (n/2)_s, a product of s exact factors, times c(Lam)."""
    return (cm.pochhammer(0.5 * space.dim, kt.s)
            * c_alpha(Lam, space.m_alpha, space.m_2alpha).value)


def small_t_ratio(space: RankOneSpace, kt: KTypeRankOne, Lam: complex,
                  t: float) -> complex:
    """phi(Lam, t) / phi(-Lam, t); tends to c_{Lam,delta} / c_{-Lam,delta}
    as t -> 0+ (the tanh/cosh factors and the hypergeometric factor
    cancel in the limit)."""
    num = phi_tau(space, kt, Lam, t)
    den = phi_tau(space, kt, -complex(Lam), t)
    if abs(den) < 1e-280:
        raise SmallDenominatorError(
            f"phi(-Lam, t) vanished at Lam = {Lam}, t = {t}")
    return num / den


def small_t_target(space: RankOneSpace, kt: KTypeRankOne,
                   Lam: complex) -> complex:
    return (c_lambda_delta(space, kt, Lam)
            / c_lambda_delta(space, kt, -complex(Lam)))


def radial_eigen_residual(space: RankOneSpace, Lam: complex, t: float,
                          h: float = 1e-3) -> float:
    """Relative residual of the zonal closed form in the radial
    eigen-equation at an interior point, by central differences."""
    phi = lambda x: phi_tau(space, TRIVIAL_KTYPE, Lam, x)
    f0 = phi(t)
    d1 = (phi(t + h) - phi(t - h)) / (2.0 * h)
    d2 = (phi(t + h) - 2.0 * f0 + phi(t - h)) / (h * h)
    coef = (space.m_alpha / math.tanh(t)
            + 2.0 * space.m_2alpha / math.tanh(2.0 * t))
    eig = -(complex(Lam) ** 2 + space.rho ** 2)
    return abs(d2 + coef * d1 - eig * f0) / max(abs(eig * f0), 1e-300)


# ---------------------------------------------------------------------------
# K-type catalog file support

def _catalog_records(doc) -> list[dict]:
    if not isinstance(doc, list):
        raise ValueError("K-type catalog must be a JSON array")
    out = []
    for rec in doc:
        space = RankOneSpace(int(rec["m_alpha"]), int(rec.get("m_2alpha", 0)))
        d_alpha = float(rec["d_alpha"])
        d_2alpha = float(rec.get("d_2alpha", 0.0))
        if "r" in rec and "s" in rec:
            kt = KTypeRankOne(d_alpha, d_2alpha, int(rec["r"]), int(rec["s"]))
            validate_ktype(space, kt)
        else:
            kt = ktype_from_ds(space, d_alpha, d_2alpha)
        out.append({"name": str(rec["name"]), "space": space, "ktype": kt})
    return out


def load_ktype_catalog(path=None) -> list[dict]:
    """Parse a K-type catalog file: a JSON array of records
    {name, m_alpha, m_2alpha, d_alpha, d_2alpha, r, s} with (r, s)
    computed from the quadratics when absent.  Without a path, the
    built-in catalog is loaded."""
    if path is None:
        data = resources.files("sphfun.data").joinpath(
            "ktypes.json").read_text(encoding="utf-8")
        return _catalog_records(json.loads(data))
    with open(path, encoding="utf-8") as fh:
        return _catalog_records(json.load(fh))


def catalog_lookup(records: list[dict], name: str,
                   space: RankOneSpace) -> KTypeRankOne:
    for rec in records:
        if rec["name"] == name and rec["space"] == space:
            return rec["ktype"]
    raise KeyError(
        f"no catalog K-type {name!r} for multiplicities "
        f"({space.m_alpha}, {space.m_2alpha})")
