"""Deterministic quadrature engines for the integral oracles.

Three rules cover every defining integral of the package:

* adaptive composite Gauss-Legendre on finite intervals (bisection driven
  by the 20- vs 40-point discrepancy, leftmost-first accumulation with
  compensated summation, so results are reproducible bit for bit);
* trapezoid doubling for smooth periodic integrands;
* a double-exponential rule, the one rule for half-line integrals,
  applied after the x = sinh u substitution by the callers; the integrand
  is supplied in log form so the algebraic tails can never overflow.

The last two integrate a batch of rows (one integrand each) with one
NumPy pass per refinement level; each row stops at the level where it
would stop alone.  All routines return (value or values, nodes_used as
an int) and raise ToleranceNotMetError with the achieved estimate when
the node budget runs out; for a batch, that of its first row in input
order that ran out.
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
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and > 0, got "
                             f"abs_tol={self.abs_tol} rel_tol={self.rel_tol}")


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


def _halving_batch(level, rows: int, spec: QuadratureSpec, cap: int
                   ) -> tuple[np.ndarray, int]:
    # level(k, idx) -> (values of the rows idx at refinement level k,
    # nodes per row); a row leaves the batch at the first level whose value
    # is within tolerance of the previous one, as it would run alone
    values = np.empty(rows, dtype=complex)
    idx = np.arange(rows)
    if not rows:
        return values, 0
    prev, n = level(0, idx)
    nodes, row_nodes = n * rows, n
    k = 0
    while idx.size:
        k += 1
        cur, n = level(k, idx)
        nodes += n * idx.size
        row_nodes += n
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(cur))
        err = np.abs(cur - prev)
        done = err <= target
        values[idx[done]] = cur[done]
        if n > cap and not done.all():
            first = int(np.argmin(done))  # first row, in input order
            raise ToleranceNotMetError(float(err[first]),
                                       float(target[first]), row_nodes)
        idx, prev = idx[~done], cur[~done]
    return values, nodes


def trapezoid_doubling(mean_of: Callable[[int, np.ndarray], np.ndarray],
                       rows: int, spec: QuadratureSpec = DEFAULT_SPEC,
                       n0: int = 32) -> tuple[np.ndarray, int]:
    """Limits under doubling of n of rows smooth periodic integrals.

    mean_of(n, idx) returns, for each row index in idx, the n-point
    uniform mean of that row's integrand over its period.  A row leaves
    the batch at the first doubling that meets the tolerance, so its
    value is the one a one-row run gives.  Returns the values and the
    nodes summed over rows."""
    def level(k, idx):
        n = n0 << k
        return mean_of(n, idx), n

    return _halving_batch(level, rows, spec, TRAPEZOID_MAX_NODES)


_ES_UMAX = 6.5  # exp((pi/2) sinh 6.5) ~ 1e225: still finite in log space


def _exp_sinh_level(log_f, h: float, idx: np.ndarray
                    ) -> tuple[np.ndarray, int]:
    k = np.arange(-int(_ES_UMAX / h), int(_ES_UMAX / h) + 1)
    kh = k * h
    u = np.exp(0.5 * math.pi * np.sinh(kh))
    logw = np.log(0.5 * math.pi * h * np.cosh(kh)) + np.log(u)
    vals = log_f(u, idx) + logw
    # overflow-free: everything stays in log space until the final exp
    m = np.max(vals.real, axis=1)
    ok = np.isfinite(m)
    out = np.zeros(len(idx), dtype=complex)
    out[ok] = np.exp(m[ok]) * np.sum(np.exp(vals[ok] - m[ok, None]), axis=1)
    for i in np.flatnonzero(~ok):
        # a row with a non-finite maximum sums its finite entries only
        row = vals[i][np.isfinite(vals[i].real)]
        if row.size:
            top = np.max(row.real)
            out[i] = np.exp(top) * np.sum(np.exp(row - top))
    return out, len(u)


def exp_sinh_halfline(log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      rows: int, spec: QuadratureSpec = DEFAULT_SPEC
                      ) -> tuple[np.ndarray, int]:
    """Integrals over (0, inf) of exp(log_f(u, idx)), one per row, by the
    double-exponential rule with step halving.

    log_f(u, idx) returns the log integrand at the nodes u, one row per
    row index in idx, and may return -inf real parts where an integrand
    underflows.  A row leaves the batch at the first halving that meets
    the tolerance, so its value is the one a one-row run gives.  Returns
    the values and the nodes summed over rows."""
    return _halving_batch(
        lambda k, idx: _exp_sinh_level(log_f, 0.5 ** (k + 1), idx),
        rows, spec, EXP_SINH_MAX_LEVEL_NODES)
