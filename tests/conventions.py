"""The unimodular 2x2 matrix model of the hyperbolic plane and the
ball-model conventions the oracles of `sphfun.models` are checked
against, and the half sum rho of the positive roots of a root datum,
which the root-data and c-function tests evaluate at.

K is the rotations k_theta, A the positive diagonals
a_t = diag(e^{t/2}, e^{-t/2}) (so that alpha(H) = 1 and rho(H) = 1/2), N
the upper unipotents; the coset g K is the point g . i of the upper half
plane, and the Cayley transform z -> (z - i)/(z + i) carries it to the
disk.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from sphfun.rootdata import RootDatum, SpectralParam

_DET_TOL = 1e-12


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


def rotated_ball_points(g1: Matrix2, theta: np.ndarray,
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


def rho(datum: RootDatum) -> SpectralParam:
    """Half the multiplicity-weighted sum of the positive roots:
    rho = 1/2 sum (m_alpha + 2 m_2alpha) alpha over indivisible alpha."""
    acc = [0.0] * datum.rank
    for alpha, (m, m2) in zip(datum.positive_roots, datum.mult):
        c = 0.5 * (m + 2.0 * m2)
        acc = [s + c * x for s, x in zip(acc, alpha)]
    return SpectralParam.of(acc)
