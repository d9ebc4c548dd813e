"""Quadrature oracles on the ball model of hyperbolic space.

The ball model of n-dimensional hyperbolic space, whose horocycle bracket
is the logarithm of the Poisson kernel A(x, b)(H) =
log[(1 - |x|^2) / |x - b|^2], with alpha(H) = 1 and rho(H) = (n - 1)/2,
realizes every defining integral of the theory as a deterministic
quadrature: the boundary integral for the zonal spherical function, the
integral of e^{-(i lam + rho) H} over the opposite unipotent group for
the c-function (self-normalized so the value at lam = -i rho is exactly
1), the Eisenstein integral for circle characters, the second-coefficient
integral with the Weyl representative m* = k_{pi/2} (any representative
of the nontrivial coset gives the same value on even characters), and the
functional-equation double integrals.

Grids.  Each oracle takes Lam, and its points (t, z or the (t1, t2) of a
functional-equation case), as numbers or arrays that broadcast against
each other, and integrates every point of the broadcast as one row of
one quadrature batch; a number is the one-row case of the same code.
The value has the broadcast shape: a complex number when every argument
is a number, else a complex array (a list of reports for the
functional-equation checks).  Each row stops where it would stop alone,
so every point gets, bit for bit, the value of a call at that point
alone.  If any point raises, the call raises what the first failing
point, in C order, raises alone (a functional-equation check whose inner
batch runs out raises for the first failing (Lam, distance) pair of the
outer level or depth where that happens).

Conventions, pinned by cross-checks against the unimodular 2x2 matrix
model and its K A N factorization: the geodesic point at distance t in
the ball sits at Euclidean radius tanh(t/2); the boundary image of the
rotation k_theta is e^{2 i theta}; the opposite-unipotent coordinate is
normalized so that e^{alpha(H(nbar(v)))} = 1 + |v|^2/4, which matches the
matrix-model Iwasawa projection at n = 2 under v = 2x.

Boundary variable.  At distance t the Poisson kernel of the boundary
point at angle psi is P = 1/(cosh t - sinh t cos psi).  Every
Poisson-kernel oracle integrates in theta in [0, pi] with
y = -log P = t cos theta, the Mehler-Laplace representation of the Jacobi
function (Koornwinder 1984; Helgason, Groups and Geometric Analysis,
Ch. IV).  With s2 = sin^2(theta/2), c2 = cos^2(theta/2) and
F(x) = sinh(t x)/x (F(0) = t):

    phi_Lam(t) = (1/B_n) int_0^pi cos(Lam t cos theta) t |sin theta|^{n-2}
                 (F(s2) F(c2))^{(n-3)/2} / sinh^{n-2} t dtheta,

B_n = int_0^pi sin^{n-2} theta dtheta, and the plane's entry of weight 2k
is

    (1/pi) int_0^pi e^{-i Lam t cos theta} T_k(cos psi)
           t (F(s2) F(c2))^{-1/2} dtheta,  cos psi = (cosh t - e^y)/sinh t.

`_log_weight` forms the log of both weights from t, s2 and c2, with no
term that cancels or overflows (out to t = 1000 and beyond).  The
integrand has no peak: on the plane it is analytic, even and
2 pi-periodic in theta, so the trapezoid rule converges geometrically on
the half-circle table; for n >= 3 Gauss-Legendre on 2^k equal panels
runs it on [0, pi/2].
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import (DEFAULT_SPEC, QuadratureSpec, _exp_sinh_nodes,
                         exp_sinh_halfline, gauss_legendre_adaptive,
                         trapezoid_doubling)

__all__ = [
    "QuadratureSpec", "OracleReport", "DEFAULT_SPEC", "quad_phi_K",
    "quad_c_Nbar", "quad_eisenstein_sl2", "quad_Csigma_sl2",
    "functional_equation_check", "functional_equation_entry_sl2",
    "entry_function_sl2", "nbar_normalization",
]

CONVERGENCE_MARGIN = 0.05


class DivergentIntegralError(ValueError):
    """Spectral parameter outside the absolute-convergence region."""


@dataclass(frozen=True)
class OracleReport:
    """A closed-form vs quadrature comparison record."""

    closed_form: complex
    quadrature: complex
    abs_err: float
    rel_err: float
    nodes_used: int

    @staticmethod
    def build(closed_form: complex, quadrature: complex,
              nodes_used: int) -> "OracleReport":
        closed_form = complex(closed_form)
        quadrature = complex(quadrature)
        abs_err = abs(closed_form - quadrature)
        scale = max(abs(closed_form), abs(quadrature))
        rel_err = abs_err / scale if scale > 0 else abs_err
        return OracleReport(closed_form, quadrature,
                            abs_err, rel_err, int(nodes_used))


def _grid(Lam, *points, dtype=float) -> tuple:
    """Lam and points, each a number or an array of them, broadcast
    against each other: per argument a flat list in C order (complex for
    Lam, dtype for the points), then the broadcast shape, () when all
    are numbers."""
    arrays = np.broadcast_arrays(np.asarray(Lam, dtype=complex),
                                 *(np.asarray(x, dtype=dtype) for x in points))
    return (*(a.reshape(-1).tolist() for a in arrays), arrays[0].shape)


def _shaped(values, shape: tuple):
    """The complex values computed at the points of a grid of that
    shape: a complex number for the shape (), else a complex array."""
    if shape == ():
        return complex(values[0])
    return np.asarray(values, dtype=complex).reshape(shape)


# ---------------------------------------------------------------------------
# boundary integrals

@lru_cache(maxsize=64)
def _half_circle(nphi: int, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(s/2) and cos^2(s/2), the rows of one array, at the nodes
    s_j = 2pi (j + shift)/nphi with 0 <= s <= pi, and each node's weight
    in the mean: 2/nphi, the mirror node included, or 1/nphi at s = 0 and
    s = pi, their own mirrors.  cos^2(s/2) is sin^2 of half of pi - s,
    formed from its own integer multiple of pi/nphi, so it keeps its
    relative precision near s = pi as sin^2(s/2) does near s = 0.
    Read-only, since every later call shares them."""
    j2 = 2 * np.arange(int(0.5 * nphi - shift) + 1) + int(2 * shift)
    step = math.pi / nphi  # s is twice (j + shift), times pi/nphi
    weight = np.where((j2 == 0) | (j2 == nphi), 1.0, 2.0) / nphi
    sc = np.sin(0.5 * step * np.stack((j2, nphi - j2))) ** 2
    sc.flags.writeable = False
    weight.flags.writeable = False
    return sc, weight


def _scaled_sinhc(z: np.ndarray) -> np.ndarray:
    """g(z) = (1 - e^{-2z})/(2z) = e^{-z} sinh(z)/z at each z >= 0, and
    g(0) = 1: a number in (0, 1], formed through expm1, so it neither
    cancels near 0 nor overflows at large z."""
    return np.divide(-np.expm1(-2.0 * z), 2.0 * z, out=np.ones(z.shape),
                     where=z > 0.0)


def _log_weight(n: int, t: np.ndarray, sc: np.ndarray) -> tuple:
    """The log of the weight t |sin theta|^{n-2} (F(s2) F(c2))^{(n-3)/2}
    / sinh^{n-2} t of the boundary integral (see Boundary variable
    above), one row per distance t (shape (rows, 1, 1)), and g at t s2
    and at t c2, stacked as sc stacks s2 = sin^2(theta/2) and
    c2 = cos^2(theta/2) on its second-to-last axis.  Since
    F(x) = t e^{t x} g(t x), s2 + c2 = 1 and sin theta = 2 sqrt(s2 c2),
    the log is

        -rho t + ((n-3)/2) log(g(t s2) g(t c2))
               + (n-2) log(2 sqrt(s2 c2)/g(t)),

    rho = (n - 1)/2, whose terms neither cancel nor overflow."""
    g = _scaled_sinhc(t * sc)
    log_w = 0.5 * (n - 3) * np.log(g[:, 0] * g[:, 1]) - 0.5 * (n - 1) * t[:, 0]
    if n > 2:
        log_w += (n - 2) * (0.5 * np.log(4.0 * sc[..., 0, :] * sc[..., 1, :])
                            - np.log(_scaled_sinhc(t[:, 0])))
    return log_w, g


def _plane_means(lams: np.ndarray, t: np.ndarray, k: int,
                 spec: QuadratureSpec) -> np.ndarray:
    """Per row, the plane's entry of weight 2k at Lam lams[i] and distance
    t[i] > 0: the limit of the trapezoid means over theta of
    e^{log w - i Lam t cos theta} T_|k|(cos psi), one batch.  The integrand
    is a function of cos theta, so each level sums the nodes
    0 <= theta <= pi of the half-circle table, each paired with its mirror
    through its weight, with cos theta = c2 - s2 and cos psi from

        1 + cos psi = 2 s2 g(t s2)/g(t),
        1 - cos psi = 2 c2 g(t c2) e^{-2 t s2}/g(t),

    e^{-2 t s2} = 1 - 2 t s2 g(t s2), none of which cancels as t -> 0."""
    k = abs(k)
    t = t[:, None, None]
    ilt = (1j * lams)[:, None] * t[:, 0]
    g_t = _scaled_sinhc(t[:, 0])

    def mean_of(m: int, idx: np.ndarray, shift: float) -> np.ndarray:
        sc, weight = _half_circle(m, float(shift))
        log_w, g = _log_weight(2, t[idx], sc)
        terms = np.exp(log_w - ilt[idx] * (sc[1] - sc[0]))
        if k:
            s2g, c2g = sc[0] * g[:, 0], sc[1] * g[:, 1]
            x = (s2g - c2g * (1.0 - 2.0 * t[idx, 0] * s2g)) / g_t[idx]
            prev, cheb = 1.0, x
            for _ in range(k - 1):  # T_k(x), by the Chebyshev recurrence
                prev, cheb = cheb, 2.0 * x * cheb - prev
            weight = cheb * weight
        return np.sum(terms * weight, axis=1)

    values, _ = trapezoid_doubling(mean_of, len(lams), spec)
    return values


def _sphere_band_norm(n: int) -> float:
    # \int_0^pi sin^{n-2} theta dtheta = sqrt(pi) Gamma((n-1)/2)/Gamma(n/2),
    # the polar slice of the sphere
    return math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * (n - 1))
                                         - math.lgamma(0.5 * n))


def _ball_means(n: int, lams: np.ndarray, t: np.ndarray,
                spec: QuadratureSpec) -> np.ndarray:
    """Per row, phi_Lam(t) on the n-ball, n >= 3, at Lam lams[i] and
    distance t[i] > 0, by Gauss-Legendre on equal panels of [0, pi/2]:
    the weight is even about theta = pi/2, where y changes sign, so the
    integral over [0, pi] is that of 2 cos(Lam y) = e^{i Lam y} +
    e^{-i Lam y} over [0, pi/2]."""
    t = t[:, None, None]
    ilt = (1j * lams)[:, None] * t[:, 0]

    def f(theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        sc = np.stack((np.sin(0.5 * theta), np.cos(0.5 * theta)), axis=1) ** 2
        log_w, _ = _log_weight(n, t[idx], sc)
        phase = ilt[idx] * (sc[:, 1] - sc[:, 0])
        return np.exp(log_w + phase) + np.exp(log_w - phase)

    num, _ = gauss_legendre_adaptive(f, len(t), 0.0, 0.5 * math.pi, spec)
    return num / _sphere_band_norm(n)


def _boundary_means(n: int, k: int, lams, t, spec: QuadratureSpec
                    ) -> np.ndarray:
    """phi_Lam(t) on the n-ball (k = 0), or the plane's entry of weight
    2k (n = 2), at each (lams[i], t[i]); at t = 0 exactly 1 for k = 0 and
    0 for k != 0."""
    lams, t = np.asarray(lams, dtype=complex), np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    values = np.full(len(t), float(k == 0), dtype=complex)
    inner = np.flatnonzero(t > 0.0)
    if n == 2:
        values[inner] = _plane_means(lams[inner], t[inner], k, spec)
    else:
        values[inner] = _ball_means(n, lams[inner], t[inner], spec)
    return values


def quad_phi_K(n: int, Lam, t, spec: QuadratureSpec = DEFAULT_SPEC):
    """Zonal spherical function on n-dimensional hyperbolic space at
    distance t, as the normalized boundary integral of the Poisson kernel
    power P(x, b)^{i Lam + rho}, in the boundary variable theta (see
    above).  Lam and t are numbers or arrays that broadcast against each
    other (see Grids above).  The whole grid of (Lam, t) points is one
    batch: of the trapezoid rule on the plane, of Gauss-Legendre above
    it."""
    if n < 2:
        raise ValueError("need n >= 2")
    lams, t, shape = _grid(Lam, t)
    return _shaped(_boundary_means(n, 0, lams, t, spec), shape)


# ---------------------------------------------------------------------------
# opposite-unipotent integrals

def _radial_terms(r: np.ndarray, extra_char: int) -> tuple:
    """(log r, log(1 + r^2/4), log cos(extra_char atan(r/2)) or None) at
    the nodes r: the parts of the radial integrand that do not depend on
    the exponent."""
    logr = np.log(r)
    # log(1 + r^2/4), finite for every r
    log1pr = np.logaddexp(0.0, 2.0 * logr - math.log(4.0))
    logcos = None
    if extra_char:
        # the cosine changes sign along the ray, and the complex log
        # carries it
        with np.errstate(divide="ignore"):
            logcos = np.log(np.cos(extra_char * np.arctan(0.5 * r)) + 0j)
    return logr, log1pr, logcos


@lru_cache(maxsize=64)
def _level_radial_terms(k: int, extra_char: int) -> tuple:
    """_radial_terms at the nodes of exp-sinh level k, formed once per
    level for every exponent the rule meets there.  Read-only, since
    every later call shares them."""
    terms = _radial_terms(_exp_sinh_nodes(k)[0], extra_char)
    for arr in terms:
        if arr is not None:
            arr.flags.writeable = False
    return terms


def _log_nbar_radial(n: int, s: np.ndarray, extra_char: int):
    r"""log of the integrands of \int_0^infty (1+r^2/4)^{-s} r^{n-2}
    [cos(extra_char * atan(r/2))] dr, one row per exponent s, as a
    function of the exp-sinh level k and the rows.  The rule's nodes are
    r itself: the integrand decays like r^{n - 2 - 2 Re s}, algebraically,
    which is the decay the exp-sinh rule is built for (in u, r = sinh u,
    it decays exponentially, and the rule spends most of its nodes on
    terms that vanish).  The terms free of s are read from the table of
    level k."""
    p = n - 2

    def log_f(k: int, idx: np.ndarray) -> np.ndarray:
        logr, log1pr, logcos = _level_radial_terms(k, extra_char)
        out = -s[idx, None] * log1pr + p * logr
        if extra_char:
            out = out + logcos
        return out

    return log_f


def _nbar_radial(n: int, s, spec: QuadratureSpec,
                 extra_char: int = 0) -> np.ndarray:
    s = np.asarray(s, dtype=complex).reshape(-1)
    values, _ = exp_sinh_halfline(_log_nbar_radial(n, s, extra_char),
                                  len(s), spec)
    return values


@lru_cache(maxsize=64)
def nbar_normalization(n: int, spec: QuadratureSpec) -> complex:
    r"""The measure constant \int (1+|v|^2/4)^{-2 rho} dv over the
    (n-1)-dimensional opposite-unipotent coordinate (radial part only;
    the angular factor cancels in every normalized ratio).  Shared by the
    c-function and second-coefficient oracles."""
    return complex(_nbar_radial(n, n - 1.0, spec)[0])


def _convergent_exponents(Lam, rho: float) -> tuple[np.ndarray, tuple]:
    """s = i Lam + rho per Lam, flat in C order, each formed in complex
    scalar arithmetic, after checking absolute convergence,
    Re(i Lam) > CONVERGENCE_MARGIN, in that order; and the shape of
    Lam."""
    lams, shape = _grid(Lam)
    for lam in lams:
        if (1j * lam).real <= CONVERGENCE_MARGIN:
            raise DivergentIntegralError(
                f"need Re(i Lam) > {CONVERGENCE_MARGIN}, got "
                f"{(1j * lam).real}")
    return np.array([1j * lam + rho for lam in lams], dtype=complex), shape


def quad_c_Nbar(n: int, Lam, spec: QuadratureSpec = DEFAULT_SPEC):
    r"""c-function of n-dimensional hyperbolic space as the normalized
    integral over the opposite unipotent group,

        \int (1 + |v|^2/4)^{-(i Lam + rho)} dv / (same at Lam = -i rho),

    absolutely convergent for Re(i Lam) > 0 (margin 0.05 enforced).  The
    radial integral is taken in r = |v| by the exp-sinh rule directly, as
    its integrand decays like r^{-1 - 2 Re(i Lam)}: algebraically, which
    is the decay that rule is built for.  At the margin the weighted term
    of the outermost node, log r = (pi/2) sinh 6.5 = 522, is e^{-46} to
    e^{-42} of the integral for n = 2 to 5 and |Re Lam| <= 7.5, so the
    rule's truncation is far below the rounding of its sum.  Lam is a
    number or an array of them; an array is one exp-sinh batch."""
    if n < 2:
        raise ValueError("need n >= 2")
    s, shape = _convergent_exponents(Lam, 0.5 * (n - 1))
    norm = nbar_normalization(n, spec)
    return _shaped([complex(x) / norm for x in _nbar_radial(n, s, spec)],
                   shape)


def quad_Csigma_sl2(char_n: int, Lam, spec: QuadratureSpec = DEFAULT_SPEC):
    r"""Second-coefficient integral on the hyperbolic plane for the even
    circle character of weight char_n:

        \int e^{-(i Lam + rho)(H(nbar))} char(k(nbar)^{-1} m*) dnbar

    over the opposite unipotent group, normalized by the same measure
    constant as the c-function oracle.  With nbar = nbar(x), the rotation
    part is k_{-atan x}, and m* = k_{pi/2}; in the shared coordinate
    v = 2x the phase is char_n * (atan(v/2) + pi/2).  Lam is a number or
    an array of them; an array is one exp-sinh batch."""
    if char_n % 2:
        raise ValueError("character weight must be even (fixed-vector "
                         "condition for the centralizer)")
    s, shape = _convergent_exponents(Lam, 0.5)
    phase = (-1) ** (char_n // 2)  # e^{i pi char_n/2}, exactly
    norm = nbar_normalization(2, spec)
    return _shaped([phase * complex(x) / norm for x in
                    _nbar_radial(2, s, spec, extra_char=char_n)], shape)


# ---------------------------------------------------------------------------
# Eisenstein entries on the disk

def entry_function_sl2(char_n: int, Lam, z,
                       spec: QuadratureSpec = DEFAULT_SPEC):
    r"""Fixed-vector matrix entry of the Eisenstein integral for the even
    circle character of weight char_n, at the disk point z (Lam and z
    numbers or arrays that broadcast against each other, the grid one
    trapezoid batch):

        (1/2pi) \int_0^{2pi} P(z, e^{2 i theta})^{i Lam + rho}
                             e^{i char_n theta} dtheta.

    In psi = 2 theta this is the k-th Fourier coefficient, k = char_n/2,
    and the Poisson kernel is rotation invariant, so it equals
    e^{i k arg z} times the entry at the distance 2 atanh|z| of z from the
    origin.
    """
    if char_n % 2:
        raise ValueError("character weight must be even")
    lams, z, shape = _grid(Lam, z, dtype=complex)
    z = np.asarray(z, dtype=complex)
    radius = np.abs(z)
    if np.any(radius >= 1.0):
        raise ValueError("z must lie inside the unit disk")
    k = char_n // 2
    values = _boundary_means(2, k, lams, 2.0 * np.arctanh(radius), spec)
    return _shaped(np.exp(1j * k * np.angle(z)) * values, shape)


def quad_eisenstein_sl2(char_n: int, Lam, t,
                        spec: QuadratureSpec = DEFAULT_SPEC):
    """Eisenstein entry along the geodesic: entry_function_sl2 at the
    point of distance t (Lam and t numbers or arrays that broadcast
    against each other), integrated in the boundary variable from t
    itself."""
    if char_n % 2:
        raise ValueError("character weight must be even")
    lams, t, shape = _grid(Lam, t)
    return _shaped(_boundary_means(2, char_n // 2, lams, t, spec), shape)


# ---------------------------------------------------------------------------
# functional equations

def _composed_distances(t1, t2, c2):
    """Distance from the origin of x k y, with x and y the geodesic points
    at distances t1 and t2 and k the rotation by the angle gamma between
    the two segments, at c2 = cos^2(gamma/2).  Of
    cosh d = cosh t1 cosh t2 + sinh t1 sinh t2 cos gamma it takes the form
    sinh^2(d/2) = sinh^2((t1 - t2)/2) + sinh t1 sinh t2 c2, whose terms are
    >= 0, so d keeps its relative precision down to 0."""
    return 2.0 * np.arcsinh(np.sqrt(np.sinh(0.5 * (t1 - t2)) ** 2
                                    + np.sinh(t1) * np.sinh(t2) * c2))


def _composed_angles(t1, t2, s2, c2):
    """Argument of the disk point of x k y (as in _composed_distances),
    at s2 = sin^2(gamma/2) and c2 = cos^2(gamma/2).  The disk translation
    z -> (z + u1)/(1 + u1 z), u1 = tanh(t1/2), takes u2 e^{i gamma},
    u2 = tanh(t2/2), to that point; scaled by 2/((1 - u1^2)(1 - u2^2)),
    (u2 e^{i gamma} + u1) times the conjugate of (1 + u1 u2 e^{i gamma}) is
    sinh t1 cosh t2 + cosh t1 sinh t2 cos gamma + i sinh t2 sin gamma, whose
    real part is taken as sinh(t1 - t2) + 2 cosh t1 sinh t2 c2, so that it
    does not cancel where the point nears the origin."""
    return np.arctan2(2.0 * np.sinh(t2) * np.sqrt(s2 * c2),
                      np.sinh(t1 - t2) + 2.0 * np.cosh(t1) * np.sinh(t2) * c2)


def _functional_equation(n: int, k: int, Lam, t1, t2,
                         spec: QuadratureSpec):
    """The rotation average of phi (k = 0) or of the plane's entry E of
    weight 2k at x k y, against phi(x) phi(y) or E(x) phi(y), per case
    (Lam, t1, t2) of the broadcast: a report, or a list of them."""
    lams, t1s, t2s, shape = _grid(Lam, t1, t2)
    lam_of = np.array(lams, dtype=complex)
    t1s, t2s = np.array(t1s), np.array(t2s)
    cache: dict = {}
    nodes = np.zeros(len(lams), dtype=int)

    def at(idx: np.ndarray, s2, c2: np.ndarray) -> np.ndarray:
        # the integrand at the composed points of case idx[i], one per
        # c2[i, j] (and s2[i, j] for the entry's angle)
        nodes[:] += c2.shape[1] * np.bincount(idx, minlength=len(lams))
        t1, t2 = t1s[idx, None], t2s[idx, None]
        ds = _composed_distances(t1, t2, c2).ravel().tolist()
        keys = list(zip(np.repeat(lam_of[idx], c2.shape[1]).tolist(), ds))
        new = [key for key in dict.fromkeys(keys) if key not in cache]
        if new:
            new_lams, new_ds = zip(*new)
            cache.update(zip(new, quad_eisenstein_sl2(2 * k, new_lams, new_ds,
                                                      spec)
                             if k else quad_phi_K(n, new_lams, new_ds, spec)))
        values = np.array([cache[key] for key in keys],
                          dtype=complex).reshape(c2.shape)
        if k:
            values *= np.cos(k * _composed_angles(t1, t2, s2, c2))
        return values

    outer_spec = QuadratureSpec(
        abs_tol=max(spec.abs_tol, 1e-10), rel_tol=max(spec.rel_tol, 1e-9))
    if n > 2:
        def f(gamma: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return (at(idx, None, np.cos(0.5 * gamma) ** 2)
                    * np.sin(gamma) ** (n - 2))

        num, _ = gauss_legendre_adaptive(f, len(lams), 0.0, math.pi,
                                         outer_spec)
        lhs = num / _sphere_band_norm(n)
    else:
        def mean_of(m: int, idx: np.ndarray, shift: float) -> np.ndarray:
            sc, weight = _half_circle(m, float(shift))
            s2, c2 = np.broadcast_to(sc[:, None], (2, len(idx), len(weight)))
            return np.sum(at(idx, s2, c2) * weight, axis=1)

        lhs, _ = trapezoid_doubling(mean_of, len(lams), outer_spec)
    if k:
        rhs = (quad_eisenstein_sl2(2 * k, lam_of, t1s, spec)
               * quad_phi_K(2, lam_of, t2s, spec))
    else:
        phis = quad_phi_K(n, lam_of[:, None], np.column_stack((t1s, t2s)),
                          spec)
        rhs = phis[:, 0] * phis[:, 1]
    reports = [OracleReport.build(closed, value, nc)
               for closed, value, nc in zip(rhs, lhs, nodes)]
    return reports[0] if shape == () else reports


def functional_equation_check(n: int, Lam, t1, t2,
                              spec: QuadratureSpec = DEFAULT_SPEC):
    """Zonal functional equation: the rotation average of
    phi at the composed point against phi(t1) phi(t2).

    The group average over K reduces to the polar angle gamma between the
    two geodesic segments, and the composed point lies at the distance d
    of cosh d = cosh t1 cosh t2 + sinh t1 sinh t2 cos gamma.

    Lam, t1 and t2 are numbers or arrays that broadcast against each
    other, one case per point: an OracleReport for numbers, else a list
    of them, one per case in C order, each with its own case's outer
    nodes (the integrand's evaluations).  The cases are the rows of one
    outer batch, and at each of its levels the (Lam, distance) pairs not
    met before are one quad_phi_K batch, so equal pairs (every node of a
    case with t1 = 0, say) share one evaluation.  On the plane (n = 2)
    the average is over the circle, by the trapezoid rule on the
    half-circle table from 32 points, as in quad_phi_K; above it, by
    Gauss-Legendre on equal panels in gamma with the weight
    sin^{n-2} gamma.  The outer rule asks for no less than
    abs_tol 1e-10 and rel_tol 1e-9, the accuracy of its inner rows.
    """
    return _functional_equation(n, 0, Lam, t1, t2, spec)


def functional_equation_entry_sl2(char_n: int, Lam, t1, t2,
                                  spec: QuadratureSpec = DEFAULT_SPEC):
    """Joint-eigenfunction functional equation for the character entry E:
    the rotation average of E(x k y) against E(x) phi(y), with x, y the
    geodesic points at distances t1, t2.  The average runs over theta in
    [0, pi): k_{theta + pi} = -k_theta gives the same disk point, at the
    angle gamma = 2 theta.  E(x k y) is e^{i k angle} times the entry at
    the composed point's distance, and the points at gamma and -gamma
    share that distance with opposite angles, so the average is that of
    cos(k angle) times the entry at the distance over the half circle, as
    in functional_equation_check on the plane, whose batching it shares
    (the inner batches are quad_eisenstein_sl2's)."""
    if char_n % 2:
        raise ValueError("character weight must be even")
    return _functional_equation(2, char_n // 2, Lam, t1, t2, spec)
