"""Deterministic quadrature engines for the integral oracles.

Three rules cover every defining integral of the package:

* adaptive composite Gauss-Legendre on finite intervals (bisection driven
  by the 20- vs 40-point discrepancy, leftmost-first accumulation with
  compensated summation, so results are reproducible bit for bit);
* trapezoid doubling for smooth periodic integrands;
* a double-exponential rule, the one rule for half-line integrals,
  applied after the x = sinh u substitution by the callers; the integrand
  is supplied in log form so the algebraic tails can never overflow.

All routines return (value, nodes_used) and raise ToleranceNotMetError
with the achieved estimate when the node budget runs out.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

GL_MAX_BISECTIONS = 2 ** 14
TRAPEZOID_MAX_NODES = 2 ** 18
EXP_SINH_MAX_LEVEL_NODES = 2 ** 14

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the oracle integrals."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()


class ToleranceNotMetError(RuntimeError):
    def __init__(self, achieved: float, target: float, nodes: int):
        self.achieved = achieved
        self.target = target
        self.nodes = nodes
        super().__init__(
            f"quadrature error estimate {achieved:.3e} did not reach "
            f"{target:.3e} within {nodes} nodes")


@lru_cache(maxsize=16)
def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


class _Kahan:
    """Compensated complex accumulator."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0j
        self.c = 0j

    def add(self, x: complex):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _panel(f, a: float, b: float, n: int) -> complex:
    x, w = gl_rule(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * complex(np.sum(w * f(mid + half * x)))


def gauss_legendre_adaptive(f: Callable[[np.ndarray], np.ndarray],
                            a: float, b: float,
                            spec: QuadratureSpec = DEFAULT_SPEC
                            ) -> tuple[complex, int]:
    """Integrate the vectorized complex integrand f over [a, b]."""
    total = _Kahan()
    nodes = 0
    budget = GL_MAX_BISECTIONS

    def tol_for(width: float, coarse: complex) -> float:
        frac = width / (b - a)
        return max(spec.abs_tol, spec.rel_tol * abs(coarse)) * frac

    # recursive bisection, left child first: deterministic order
    def visit(lo: float, hi: float, depth: int):
        nonlocal nodes, budget
        coarse = _panel(f, lo, hi, 20)
        fine = _panel(f, lo, hi, 40)
        nodes += 60
        err = abs(fine - coarse)
        if err <= tol_for(hi - lo, fine) or depth >= 48:
            total.add(fine)
            return
        budget -= 1
        if budget <= 0:
            raise ToleranceNotMetError(err, tol_for(hi - lo, fine), nodes)
        midpt = 0.5 * (lo + hi)
        visit(lo, midpt, depth + 1)
        visit(midpt, hi, depth + 1)

    visit(float(a), float(b), 0)
    return total.s, nodes


def trapezoid_doubling(mean_of: Callable[[int], complex],
                       spec: QuadratureSpec = DEFAULT_SPEC,
                       n0: int = 32) -> tuple[complex, int]:
    """Limit of mean_of(n) (the n-point uniform mean of a smooth periodic
    integrand over its period) under doubling of n."""
    n = n0
    prev = mean_of(n)
    nodes = n
    while True:
        n *= 2
        cur = mean_of(n)
        nodes += n
        if abs(cur - prev) <= max(spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur, nodes
        if n > TRAPEZOID_MAX_NODES:
            raise ToleranceNotMetError(
                abs(cur - prev),
                max(spec.abs_tol, spec.rel_tol * abs(cur)), nodes)
        prev = cur


_ES_UMAX = 6.5  # exp((pi/2) sinh 6.5) ~ 1e225: still finite in log space


def _exp_sinh_level(log_f, h: float) -> tuple[complex, int]:
    k = np.arange(-int(_ES_UMAX / h), int(_ES_UMAX / h) + 1)
    kh = k * h
    u = np.exp(0.5 * math.pi * np.sinh(kh))
    logw = np.log(0.5 * math.pi * h * np.cosh(kh)) + np.log(u)
    vals = log_f(u) + logw
    # overflow-free: everything stays in log space until the final exp
    re = vals.real
    m = float(np.max(re))
    if not math.isfinite(m):
        finite = np.isfinite(re)
        vals = vals[finite]
        if vals.size == 0:
            return 0j, len(u)
        m = float(np.max(vals.real))
    return complex(np.exp(m) * np.sum(np.exp(vals - m))), len(u)


def exp_sinh_halfline(log_f: Callable[[np.ndarray], np.ndarray],
                      spec: QuadratureSpec = DEFAULT_SPEC
                      ) -> tuple[complex, int]:
    """Integral over (0, inf) of exp(log_f(u)), by the double-exponential
    rule with step halving.  log_f must be vectorized and may return -inf
    real parts where the integrand underflows."""
    h = 0.5
    prev, nodes = _exp_sinh_level(log_f, h)
    while True:
        h *= 0.5
        cur, n = _exp_sinh_level(log_f, h)
        nodes += n
        if abs(cur - prev) <= max(spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur, nodes
        if n > EXP_SINH_MAX_LEVEL_NODES:
            raise ToleranceNotMetError(
                abs(cur - prev),
                max(spec.abs_tol, spec.rel_tol * abs(cur)), nodes)
        prev = cur
