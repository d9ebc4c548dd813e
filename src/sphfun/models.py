"""Concrete realizations and quadrature oracles.

Two models are implemented in full:

* the unimodular 2x2 matrix group acting on the hyperbolic plane, with
  the explicit K A N factorization (K rotations, A positive diagonal with
  a_t = diag(e^{t/2}, e^{-t/2}) so that alpha(H) = 1 and rho(H) = 1/2,
  N upper unipotent);
* the ball model of n-dimensional hyperbolic space, whose horocycle
  bracket is the logarithm of the Poisson kernel
  A(x, b)(H) = log[(1 - |x|^2) / |x - b|^2].

Every defining integral of the theory is realized as a deterministic
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

Conventions pinned by cross-checks: the geodesic point at distance t in
the ball sits at Euclidean radius tanh(t/2); the boundary image of the
rotation k_theta is e^{2 i theta}; the opposite-unipotent coordinate is
normalized so that e^{alpha(H(nbar(v)))} = 1 + |v|^2/4, which matches the
matrix-model Iwasawa projection at n = 2 under v = 2x.

Radii.  Along the geodesic the oracles take the radius u = tanh(t/2) and
its complement v = 2 e^{-t}/(1 + e^{-t}) each from t, and every ball-model
oracle forms the Poisson kernel from them in `_log_poisson`.  The circle
means behind the plane's oracles take the mean in the half-distance
chart (see `_circle_means`): the kernel's peak of width e^{-t} becomes two
of width e^{-t/2}, so the trapezoid rule resolves them with about e^{t/2}
nodes, and converges out to t of about 20.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import (DEFAULT_SPEC, QuadratureSpec, _exp_sinh_nodes,
                         exp_sinh_halfline, exp_sinh_level,
                         gauss_legendre_adaptive, trapezoid_doubling)

__all__ = [
    "Matrix2", "QuadratureSpec", "OracleReport", "DEFAULT_SPEC",
    "iwasawa_H", "iwasawa_decompose",
    "horocycle_bracket", "quad_phi_K", "quad_c_Nbar",
    "quad_eisenstein_sl2", "quad_Csigma_sl2", "functional_equation_check",
    "functional_equation_entry_sl2", "a_t_matrix", "k_theta_matrix",
    "nbar_matrix", "n_matrix", "sl2_to_ball", "boundary_circle_point",
    "entry_function_sl2", "nbar_normalization",
]

_DET_TOL = 1e-12
CONVERGENCE_MARGIN = 0.05


class DivergentIntegralError(ValueError):
    """Spectral parameter outside the absolute-convergence region."""


@dataclass(frozen=True)
class Matrix2:
    """Element of the unimodular 2x2 group."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.det - 1.0) > _DET_TOL:
            raise ValueError(f"matrix must have determinant 1, got {self.det}")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Matrix2":
        return Matrix2(self.d, -self.b, -self.c, self.a)


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


# ---------------------------------------------------------------------------
# matrix model

def a_t_matrix(t: float) -> Matrix2:
    return Matrix2(math.exp(0.5 * t), 0.0, 0.0, math.exp(-0.5 * t))


def k_theta_matrix(theta: float) -> Matrix2:
    return Matrix2(math.cos(theta), math.sin(theta),
                   -math.sin(theta), math.cos(theta))


def nbar_matrix(x: float) -> Matrix2:
    """Lower unipotent element of the opposite group."""
    return Matrix2(1.0, 0.0, x, 1.0)


def n_matrix(x: float) -> Matrix2:
    return Matrix2(1.0, x, 0.0, 1.0)


def iwasawa_H(g: Matrix2) -> float:
    """H-coordinate h of the K A N factorization g = k exp(h H) n, i.e.
    e^h = (first column norm)^2."""
    return math.log(g.a * g.a + g.c * g.c)


def iwasawa_decompose(g: Matrix2) -> tuple[float, float, float]:
    """(theta, h, x) with g = k_theta a_h n(x)."""
    h = iwasawa_H(g)
    theta = math.atan2(-g.c, g.a)
    ka = k_theta_matrix(theta) @ a_t_matrix(h)
    n = ka.inv() @ g
    return theta, h, n.b


def mobius_upper(g: Matrix2, z: complex) -> complex:
    return (g.a * z + g.b) / (g.c * z + g.d)


def sl2_to_ball(g: Matrix2) -> complex:
    """Image in the disk of the coset g K (base point i of the upper half
    plane, Cayley transform z -> (z - i)/(z + i))."""
    z = mobius_upper(g, 1j)
    return (z - 1j) / (z + 1j)


def _rotated_ball_points(g1: Matrix2, theta: np.ndarray,
                         g2: Matrix2) -> np.ndarray:
    """sl2_to_ball(g1 @ k_theta_matrix(theta) @ g2) at each angle of the
    array theta, with the products of Matrix2 written out."""
    cos, sin = np.cos(theta), np.sin(theta)
    a = g1.a * cos + g1.b * -sin
    b = g1.a * sin + g1.b * cos
    c = g1.c * cos + g1.d * -sin
    d = g1.c * sin + g1.d * cos
    z = ((a * g2.a + b * g2.c) * 1j + (a * g2.b + b * g2.d)) / (
        (c * g2.a + d * g2.c) * 1j + (c * g2.b + d * g2.d))
    return (z - 1j) / (z + 1j)


def boundary_circle_point(theta: float) -> complex:
    """Disk boundary image of the coset k_theta M: e^{2 i theta}."""
    return cmath.exp(2j * theta)


# ---------------------------------------------------------------------------
# ball model

def horocycle_bracket(x, b) -> float:
    """Horocycle bracket A(x, b)(H) = log[(1-|x|^2)/|x-b|^2] in the ball
    model with alpha(H) = 1, rho(H) = (n-1)/2, at the coordinates x of an
    interior point and b of a boundary point."""
    xv = np.asarray(x, float)
    bv = np.asarray(b, float)
    diff = xv - bv
    d2 = float(diff @ diff)
    if d2 < 1e-28:
        raise ValueError("x degenerately close to the boundary point b")
    return math.log((1.0 - float(xv @ xv)) / d2)


def geodesic_radius(t: float) -> float:
    """Euclidean radius of the point at hyperbolic distance t from the
    origin: tanh(t/2)."""
    return math.tanh(0.5 * t)


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


def _radii(ts: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """u = tanh(t/2) and v = 1 - u = 2 e^{-t}/(1 + e^{-t}) per distance t,
    each formed from t: v keeps its precision where u rounds to 1."""
    if any(t < 0 for t in ts):
        raise ValueError("t must be >= 0")
    u = np.array([geodesic_radius(t) for t in ts])
    v = np.array([2.0 * math.exp(-t) / (1.0 + math.exp(-t)) for t in ts])
    return u, v


def _log_poisson(u, v, s2):
    """log P, P = (1 - u^2)/(1 - 2u cos psi + u^2), at radius u with
    v = 1 - u and s2 = sin^2(psi/2), as log(v (2 - v)/(v^2 + 4 u s2)):
    no term cancels, not even at the peak psi = 0, where P = (1 + u)/v."""
    return np.log(v * (2.0 - v)) - np.log(v * v + 4.0 * u * s2)


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


# radii times circle nodes per level sum: bounds the node arrays of a
# large batch at a fine level (the radii are independent, so the values
# do not depend on it)
CIRCLE_CHUNK_NODES = 2 ** 18


def _circle_means(u: np.ndarray, v: np.ndarray, mu: np.ndarray,
                  harmonic: int, spec: QuadratureSpec) -> np.ndarray:
    """Per radius u[i], with v[i] = 1 - u[i], the limit of the circle
    means of P(u[i], psi)^mu[i] e^{i harmonic psi}: one trapezoid batch.

    The rule runs in the half-distance chart: psi is the boundary image
    of s under the disk automorphism z -> (z + r)/(1 + r z), with
    r = tanh(t/4) the radius of the geodesic midpoint, formed as
    u/(1 + w) and 1 - r = (v + w)/(1 + w), w = sqrt(v (2 - v)).  By the
    conformal invariance of the Poisson kernel the mean is that of
    P(r, s)^mu P(-r, s)^{1 - mu} T_k(cos psi(s)) over s, k = |harmonic|
    (the odd part of e^{i k psi} has mean 0): the kernel's one peak of
    width e^{-t} becomes two of width e^{-t/2}, at s = 0 and s = pi.
    P(-r, s) = P(r, pi - s), so both kernels are _log_poisson's, at
    sin^2(s/2) and at cos^2(s/2), and
    cos psi = (cos^2(s/2) - q sin^2(s/2))/(cos^2(s/2) + q sin^2(s/2)) with
    q = ((1 - r)/(1 + r))^2.  The integrand is even in s, so each level
    sums the nodes with 0 <= s <= pi, each paired with its mirror through
    its weight."""
    w = np.sqrt(v * (2.0 - v))
    r = (u / (1.0 + w))[:, None, None]
    rc = ((v + w) / (1.0 + w))[:, None, None]
    q = (rc / (1.0 + r))[:, 0] ** 2
    mu = mu[:, None]
    k = abs(harmonic)

    def weighted_sum(part: np.ndarray, sc: np.ndarray,
                     weight: np.ndarray) -> np.ndarray:
        # log P(r, s) and log P(r, pi - s) = log P(-r, s)
        log_p = _log_poisson(r[part], rc[part], sc)
        power = np.exp(log_p[:, 1] + mu[part] * (log_p[:, 0] - log_p[:, 1]))
        if k:
            qs2 = q[part] * sc[0]
            x = (sc[1] - qs2) / (sc[1] + qs2)  # cos psi
            t_prev, t_k = 1.0, x
            for _ in range(k - 1):  # T_k(x), by the Chebyshev recurrence
                t_prev, t_k = t_k, 2.0 * x * t_k - t_prev
            weight = t_k * weight
        return np.sum(power * weight, axis=1)

    def mean_of(m: int, idx: np.ndarray, shift: float) -> np.ndarray:
        sc, weight = _half_circle(m, float(shift))
        step = max(1, CIRCLE_CHUNK_NODES // m)
        return np.concatenate([weighted_sum(idx[i:i + step], sc, weight)
                               for i in range(0, len(idx), step)])

    values, _ = trapezoid_doubling(mean_of, len(u), spec)
    return values


def _exponents(lams: list, rho: float) -> np.ndarray:
    """i Lam + rho per Lam, each formed in complex scalar arithmetic."""
    return np.array([1j * lam + rho for lam in lams], dtype=complex)


def _sphere_band_norm(n: int) -> float:
    # \int_0^pi sin^{n-2} theta dtheta = sqrt(pi) Gamma((n-1)/2)/Gamma(n/2),
    # the polar slice of the sphere
    return math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * (n - 1))
                                         - math.lgamma(0.5 * n))


def quad_phi_K(n: int, Lam, t, spec: QuadratureSpec = DEFAULT_SPEC):
    """Zonal spherical function on n-dimensional hyperbolic space at
    distance t, as the normalized boundary integral of the Poisson kernel
    power P(x, b)^{i Lam + rho}.  Lam and t are numbers or arrays that
    broadcast against each other (see Grids above).  The whole grid of
    (Lam, t) points is one batch: of the trapezoid rule on the plane, in
    the half-distance chart of _circle_means, of the adaptive
    Gauss-Legendre rule in the polar angle above it."""
    if n < 2:
        raise ValueError("need n >= 2")
    lams, t, shape = _grid(Lam, t)
    u, v = _radii(t)
    mu = _exponents(lams, 0.5 * (n - 1))
    values = np.ones(len(u), dtype=complex)
    inner = np.flatnonzero(u != 0.0)
    if n == 2:
        values[inner] = _circle_means(u[inner], v[inner], mu[inner], 0, spec)
    elif inner.size:
        values[inner] = _phi_polar(n, mu[inner], u[inner], v[inner], spec)
    return _shaped(values, shape)


def _phi_polar(n: int, mu: np.ndarray, u: np.ndarray, v: np.ndarray,
               spec: QuadratureSpec) -> np.ndarray:
    # per radius u[i], the normalized polar-angle integral of P^mu[i]
    p = n - 2

    def f(theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        log_p = _log_poisson(u[idx, None], v[idx, None],
                             np.sin(0.5 * theta) ** 2)
        return np.exp(mu[idx, None] * log_p) * np.sin(theta) ** p

    num, _ = gauss_legendre_adaptive(f, len(u), 0.0, math.pi, spec)
    return num / _sphere_band_norm(n)


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
    """_radial_terms at the nodes of exp-sinh level k.  Read-only, since
    every later call shares them."""
    terms = _radial_terms(_exp_sinh_nodes(k)[0], extra_char)
    for arr in terms:
        if arr is not None:
            arr.flags.writeable = False
    return terms


def _log_nbar_radial(n: int, s: np.ndarray, extra_char: int):
    r"""log of the integrands of \int_0^infty (1+r^2/4)^{-s} r^{n-2}
    [cos(extra_char * atan(r/2))] dr, one row per exponent s, as a
    function of the nodes r and the rows.  The rule's nodes are r itself:
    the integrand decays like r^{n - 2 - 2 Re s}, algebraically, which is
    the decay the exp-sinh rule is built for (in u, r = sinh u, it decays
    exponentially, and the rule spends most of its nodes on terms that
    vanish).  At the rule's own node tables the terms free of s are read
    from the table of that level."""
    p = n - 2

    def log_f(r: np.ndarray, idx: np.ndarray) -> np.ndarray:
        k = exp_sinh_level(r)
        logr, log1pr, logcos = (
            _radial_terms(r, extra_char) if k is None
            else _level_radial_terms(k, extra_char))
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
    """s = i Lam + rho per Lam, flat in C order, after checking absolute
    convergence, Re(i Lam) > CONVERGENCE_MARGIN, in that order; and the
    shape of Lam."""
    lams, shape = _grid(Lam)
    for lam in lams:
        if (1j * lam).real <= CONVERGENCE_MARGIN:
            raise DivergentIntegralError(
                f"need Re(i Lam) > {CONVERGENCE_MARGIN}, got "
                f"{(1j * lam).real}")
    return _exponents(lams, rho), shape


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
    phase = cmath.exp(0.5j * math.pi * char_n)
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
    e^{i k arg z} times the same coefficient at the radius |z|.
    """
    if char_n % 2:
        raise ValueError("character weight must be even")
    lams, z, shape = _grid(Lam, z, dtype=complex)
    u = np.array([abs(x) for x in z])
    if np.any(u >= 1.0):
        raise ValueError("z must lie inside the unit disk")
    k = char_n // 2
    values = _circle_means(u, 1.0 - u, _exponents(lams, 0.5), k, spec)
    return _shaped([cmath.exp(1j * k * cmath.phase(x)) * complex(v)
                    for x, v in zip(z, values)], shape)


def quad_eisenstein_sl2(char_n: int, Lam, t,
                        spec: QuadratureSpec = DEFAULT_SPEC):
    """Eisenstein entry along the geodesic: at the point of distance t
    (Lam and t numbers or arrays that broadcast against each other), the
    entry_function_sl2 at the radius tanh(t/2), with the radius and its
    complement formed from t."""
    lams, t, shape = _grid(Lam, t)
    u, v = _radii(t)
    if char_n % 2:
        raise ValueError("character weight must be even")
    return _shaped(_circle_means(u, v, _exponents(lams, 0.5), char_n // 2,
                                 spec), shape)


# ---------------------------------------------------------------------------
# functional equations

def functional_equation_check(n: int, Lam, t1, t2,
                              spec: QuadratureSpec = DEFAULT_SPEC):
    """Zonal functional equation: the rotation average of
    phi at the composed point against phi(t1) phi(t2).

    The group average over K reduces to the polar angle gamma between the
    two geodesic segments, with
    cosh d(gamma) = cosh t1 cosh t2 + sinh t1 sinh t2 cos gamma.

    Lam, t1 and t2 are numbers or arrays that broadcast against each
    other, one case per point: an OracleReport for numbers, else a list
    of them, one per case in C order, each with its own case's outer
    nodes (the integrand's evaluations).  The cases are the rows of one
    outer batch, and at each of its levels (bisection depths) the
    (Lam, distance) pairs not met before are one quad_phi_K batch, so
    equal pairs (every node of a case with t1 = 0, say) share one
    evaluation.  On the plane (n = 2) the average is over the circle,
    by the trapezoid rule on the half-circle table from 8 points, as in
    quad_phi_K; above it, by adaptive Gauss-Legendre in gamma with the
    weight sin^{n-2} gamma.
    """
    lams, t1s, t2s, shape = _grid(Lam, t1, t2)
    lam_of = np.array(lams, dtype=complex)
    # per case, the constant terms of cosh d(gamma), in float arithmetic
    cc = np.array([math.cosh(a) * math.cosh(b) for a, b in zip(t1s, t2s)])
    ss = np.array([math.sinh(a) * math.sinh(b) for a, b in zip(t1s, t2s)])
    p = n - 2
    cache: dict = {}
    nodes = np.zeros(len(lams), dtype=int)

    def phi_at(idx: np.ndarray, cos_gamma: np.ndarray) -> np.ndarray:
        # phi at the composed points of case idx[i], one per cos_gamma[i]
        nodes[:] += cos_gamma.shape[1] * np.bincount(idx, minlength=len(lams))
        arg = cc[idx, None] + ss[idx, None] * cos_gamma
        ds = np.arccosh(np.maximum(arg, 1.0)).ravel().tolist()
        keys = list(zip(np.repeat(lam_of[idx], cos_gamma.shape[1]).tolist(),
                        ds))
        new = [k for k in dict.fromkeys(keys) if k not in cache]
        if new:
            new_lams, new_ds = zip(*new)
            cache.update(zip(new, quad_phi_K(n, new_lams, new_ds, spec)))
        return np.array([cache[k] for k in keys],
                        dtype=complex).reshape(cos_gamma.shape)

    outer_spec = QuadratureSpec(
        abs_tol=max(spec.abs_tol, 1e-10), rel_tol=max(spec.rel_tol, 1e-9))
    if p:
        def f(gamma: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return phi_at(idx, np.cos(gamma)) * np.sin(gamma) ** p

        num, _ = gauss_legendre_adaptive(f, len(lams), 0.0, math.pi,
                                         outer_spec)
        lhs = num / _sphere_band_norm(n)
    else:
        def mean_of(m: int, idx: np.ndarray, shift: float) -> np.ndarray:
            sc, weight = _half_circle(m, float(shift))
            cos_gamma = np.broadcast_to(sc[1] - sc[0],
                                        (len(idx), len(weight)))
            return np.sum(phi_at(idx, cos_gamma) * weight, axis=1)

        lhs, _ = trapezoid_doubling(mean_of, len(lams), outer_spec, n0=8)
    phis = quad_phi_K(n, lam_of[:, None],
                      np.column_stack((t1s, t2s)), spec)
    reports = [OracleReport.build(complex(phi1) * complex(phi2),
                                  complex(value), nc)
               for value, (phi1, phi2), nc in zip(lhs, phis, nodes)]
    return reports[0] if shape == () else reports


def functional_equation_entry_sl2(char_n: int, Lam, t1, t2,
                                  spec: QuadratureSpec = DEFAULT_SPEC):
    """Joint-eigenfunction functional equation for the character entry E:
    the rotation average of E(x k y) against E(x) phi(y), with x, y the
    geodesic points at distances t1, t2.  The average runs over theta in
    [0, pi): k_{theta + pi} = -k_theta gives the same disk point.  Lam,
    t1 and t2 broadcast to the cases as in functional_equation_check; the
    cases are the rows of one outer trapezoid batch, and the disk points
    of every case at one level are one entry_function_sl2 batch."""
    lams, t1s, t2s, shape = _grid(Lam, t1, t2)
    g1s = [a_t_matrix(t) for t in t1s]
    g2s = [a_t_matrix(t) for t in t2s]
    nodes = np.zeros(len(lams), dtype=int)

    def mean_of(m: int, idx: np.ndarray, shift: float) -> np.ndarray:
        # a shifted level's m new nodes complete a rule of 2m points
        nodes[idx] += m if shift == 0.0 else 2 * m
        theta = math.pi * (np.arange(m) + shift) / m
        z = np.concatenate([_rotated_ball_points(g1s[c], theta, g2s[c])
                            for c in idx.tolist()])
        values = entry_function_sl2(char_n, np.repeat(np.take(lams, idx), m),
                                    z, spec)
        return np.array([complex(np.mean(values[i:i + m]))
                         for i in range(0, len(values), m)])

    lhs, _ = trapezoid_doubling(mean_of, len(lams), spec, n0=8)
    rhs = zip(entry_function_sl2(char_n, lams,
                                 [sl2_to_ball(g) for g in g1s], spec),
              quad_phi_K(2, lams, t2s, spec))
    reports = [OracleReport.build(complex(e) * complex(phi), value, nc)
               for (e, phi), value, nc in zip(rhs, lhs, nodes)]
    return reports[0] if shape == () else reports
