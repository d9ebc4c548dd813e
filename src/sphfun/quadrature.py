"""Deterministic quadrature engines for the integral oracles.

Three rules cover every defining integral of the package, each a
sequence of refinement levels:

* composite Gauss-Legendre on finite intervals, for integrands analytic
  there: level k is the 20- and 40-point sum over 2^k equal panels, and
  their difference is the level's error estimate;
* trapezoid doubling for smooth periodic integrands, from 32 points;
* a double-exponential (exp-sinh) rule, the one rule for half-line
  integrals, built for integrands that decay algebraically, so the
  callers apply it to their variable directly; the integrand is supplied
  in log form so the algebraic tails can never overflow, and is told
  the level, whose nodes are fixed, so that it can keep per-level tables.

All three run through one level loop, which integrates a batch of rows
(one integrand each) with one NumPy pass per level.  The rows of a
batch may be integrands of different parameters (the oracles of
`models` put one row per (Lam, point) pair in one batch).  A row leaves
the batch at the first level whose error estimate is within
max(abs_tol, rel_tol |value|), where it would stop alone, so a batch
returns, bit for bit, the values of one-row runs.  The trapezoid and
double-exponential levels are nested: each evaluates only the nodes that
are new at that level and adds them to the row's running sum, and the
error estimate is the change from the level before.  All routines return
(values, nodes_used as an int).  nodes_used counts rule points, summed
over the levels and rows, not integrand evaluations: a nested level of
2n points evaluates its n new nodes.  Each rule caps the rule points of
a level; a batch with rows open past the cap raises the
ToleranceNotMetError of the first of them, in input order, which is the
error its one-row run raises, since the open rows reach each level
together.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# a Gauss-Legendre row still open at 2^14 panels, the first level past
# this cap, raises after 60 (2^15 - 1), about 2M, rule points
GL_MAX_LEVEL_NODES = 60 * 2 ** 13
# panels per call of a Gauss-Legendre integrand: bounds the node arrays
# of a large batch at a deep level (the panels are independent, so the
# values do not depend on it)
GL_CHUNK_PANELS = 2 ** 12
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


# the positive nodes of the 20- and 40-point Gauss-Legendre rules and
# their weights, in increasing order, each the double nearest the exact
# value (from 40-digit roots of P_n, weight 2/((1 - x^2) P_n'(x)^2))
_GL_POSITIVE_HALF = {
    20: ((0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
          0.5108670019508271, 0.636053680726515, 0.7463319064601508,
          0.8391169718222188, 0.912234428251326, 0.9639719272779138,
          0.9931285991850949),
         (0.15275338713072584, 0.14917298647260374, 0.14209610931838204,
          0.13168863844917664, 0.11819453196151841, 0.10193011981724044,
          0.08327674157670475, 0.06267204833410907, 0.04060142980038694,
          0.017614007139152118)),
    40: ((0.03877241750605082, 0.11608407067525521, 0.1926975807013711,
          0.2681521850072537, 0.3419940908257585, 0.413779204371605,
          0.4830758016861787, 0.5494671250951282, 0.6125538896679802,
          0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
          0.8246122308333117, 0.8659595032122595, 0.9020988069688743,
          0.9328128082786765, 0.9579168192137917, 0.9772599499837743,
          0.990726238699457, 0.9982377097105593),
         (0.0775059479784248, 0.07703981816424797, 0.07611036190062624,
          0.07472316905796826, 0.07288658239580406, 0.07061164739128678,
          0.0679120458152339, 0.06480401345660104, 0.06130624249292894,
          0.05743976909939155, 0.05322784698393682, 0.04869580763507223,
          0.04387090818567327, 0.038782167974472016, 0.033460195282547844,
          0.0279370069800234, 0.02224584919416696, 0.01642105838190789,
          0.010498284531152813, 0.004521277098533191)),
}


@lru_cache(maxsize=2)
def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] for n = 20 or 40, in
    increasing order: the positive half, mirrored.  Read-only, since
    every later call shares them."""
    x, w = (np.array(half) for half in _GL_POSITIVE_HALF[n])
    x = np.concatenate((-x[::-1], x))
    w = np.concatenate((w[::-1], w))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _halving_batch(level, rows: int, spec: QuadratureSpec, cap: int
                   ) -> tuple[np.ndarray, int]:
    # level(k, idx, state) -> (values of the rows idx at refinement level
    # k, their error estimates, their running state, rule points per
    # row); state is None at level 0, then the tuple of per-row arrays
    # the level before returned, for the rows idx.  A row leaves the
    # batch at the first level whose error estimate is within tolerance,
    # as it would run alone
    values = np.empty(rows, dtype=complex)
    idx = np.arange(rows)
    state = None
    nodes = row_nodes = k = 0
    while idx.size:
        cur, err, state, n = level(k, idx, state)
        nodes += n * idx.size
        row_nodes += n
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(cur))
        done = err <= target
        values[idx[done]] = cur[done]
        if n > cap and not done.all():
            first = int(np.argmin(done))  # first row, in input order
            raise ToleranceNotMetError(float(err[first]),
                                       float(target[first]), row_nodes)
        keep = ~done
        idx, state = idx[keep], tuple(s[keep] for s in state)
        k += 1
    return values, nodes


def _change(cur: np.ndarray, state) -> np.ndarray:
    # a nested rule's error estimate: per row, the change from the value
    # of the level before, the last entry of its state (none at level 0)
    return np.abs(cur - state[-1]) if state else np.full(cur.shape, np.inf)


def gauss_legendre_adaptive(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                            rows: int, a: float, b: float,
                            spec: QuadratureSpec = DEFAULT_SPEC
                            ) -> tuple[np.ndarray, int]:
    """Integrals over [a, b] of rows vectorized complex integrands, by
    composite Gauss-Legendre on 2^k equal panels, k = 0, 1, ...

    f(x, idx) returns, for each panel i, the integrand of row idx[i] at
    the nodes x[i] (one row of x per panel).  Level k is one call of f
    over the 2^k panels of every open row (one call per GL_CHUNK_PANELS
    of them, where there are more).  A row's value there is its 40-point
    sum over its panels, and it stops at the first level where that sum
    agrees with the 20-point one to tolerance: the whole row's difference
    is tested, not each panel's, so panels that cancel cannot push a
    target below their own rounding.  The rule refines uniformly, not
    where the error is, so it serves integrands analytic on [a, b]; the
    name stays adaptive, since each row picks its own level.  Returns
    the values and the nodes summed over rows."""
    x20, w20 = gl_rule(20)
    x40, w40 = gl_rule(40)
    x = np.concatenate((x20, x40))

    def level(k, idx, state):
        half = (b - a) / (2 << k)  # half a panel's width
        # the panels of every row, rows in order and a row's left to right
        coarse, fine = np.empty((2, idx.size << k), dtype=complex)
        for start in range(0, coarse.size, GL_CHUNK_PANELS):
            p = np.arange(start, min(start + GL_CHUNK_PANELS, coarse.size))
            row, j = np.divmod(p, 1 << k)
            mid = a + (2 * j + 1) * half
            vals = f(mid[:, None] + half * x, idx[row])
            coarse[p] = half * np.add.reduce(w20 * vals[:, :20], axis=1)
            fine[p] = half * np.add.reduce(w40 * vals[:, 20:], axis=1)
        coarse = np.add.reduce(coarse.reshape(idx.size, -1), axis=1)
        fine = np.add.reduce(fine.reshape(idx.size, -1), axis=1)
        return fine, np.abs(fine - coarse), (), 60 << k

    return _halving_batch(level, rows, spec, GL_MAX_LEVEL_NODES)


def trapezoid_doubling(
        mean_of: Callable[[int, np.ndarray, float], np.ndarray],
        rows: int, spec: QuadratureSpec = DEFAULT_SPEC
        ) -> tuple[np.ndarray, int]:
    """Limits under doubling of n of rows smooth periodic integrals.

    mean_of(n, idx, shift) returns, for each row index in idx, the mean
    of that row's integrand over the n uniform nodes (j + shift)/n of its
    period, j = 0, ..., n - 1.  The rule starts from the 32-point mean
    (shift 0); each doubling averages the mean so far with the mean over
    the nodes midway between the old ones (shift 1/2), so every node is
    evaluated once.  A row leaves the batch at the first doubling that
    meets the tolerance, so its value is the one a one-row run gives.
    Returns the values and the rule points (32, 64, ... per level)
    summed over rows."""
    def level(k, idx, state):
        if k:
            cur = 0.5 * (state[0] + mean_of(32 << (k - 1), idx, 0.5))
        else:
            cur = mean_of(32, idx, 0.0)
        return cur, _change(cur, state), (cur,), 32 << k

    return _halving_batch(level, rows, spec, TRAPEZOID_MAX_NODES)


_ES_UMAX = 6.5  # exp((pi/2) sinh 6.5) ~ 1e225: still finite in log space


@lru_cache(maxsize=16)
def _exp_sinh_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x = exp((pi/2) sinh(j h)) and log weights, log(x dx/du h), of
    the level with step h = 2^-(k+1), |j| <= 6.5/h: at level 0 all of
    them, after it the odd j, the nodes new at that level.  Read-only,
    since every later call shares them."""
    h = 0.5 ** (k + 1)
    m = int(_ES_UMAX / h)
    jh = (np.arange(1 - m, m, 2) if k else np.arange(-m, m + 1)) * h
    u = np.exp(0.5 * math.pi * np.sinh(jh))
    logw = np.log(0.5 * math.pi * h * np.cosh(jh)) + np.log(u)
    u.flags.writeable = False
    logw.flags.writeable = False
    return u, logw


def _log_sum(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, (m, s) with e^m s the sum of exp over the entries whose
    real part is finite, overflow-free; m = -inf and s = 0 for a row with
    none."""
    fin = np.isfinite(vals.real)
    m = np.max(vals.real, axis=1, where=fin, initial=-np.inf)
    with np.errstate(invalid="ignore"):
        s = np.sum(np.exp(np.where(fin, vals - m[:, None], -np.inf)), axis=1)
    return m, s


def exp_sinh_halfline(log_f: Callable[[int, np.ndarray], np.ndarray],
                      rows: int, spec: QuadratureSpec = DEFAULT_SPEC
                      ) -> tuple[np.ndarray, int]:
    """Integrals over (0, inf) of the exp of log integrands, one per row,
    by the double-exponential rule with step halving.

    log_f(k, idx) returns the log integrand at the nodes of level k,
    _exp_sinh_nodes(k)[0], one row per row index in idx, and may return
    -inf real parts where an integrand underflows; only the entries with
    a finite real part are summed.  Each halving evaluates only the new
    nodes and keeps the running sum in log space.  A row leaves the batch
    at the first halving that meets the tolerance, so its value is the
    one a one-row run gives.  Returns the values and the rule points
    summed over rows."""
    def level(k, idx, state):
        m, s = _log_sum(log_f(k, idx) + _exp_sinh_nodes(k)[1])
        if k:
            # the old nodes keep their weights at half the step
            m0, s0, _ = state
            top = np.maximum(m0, m)
            with np.errstate(invalid="ignore"):
                s = np.where(np.isfinite(top), 0.5 * s0 * np.exp(m0 - top)
                             + s * np.exp(m - top), 0j)
            m = top
        cur = np.exp(m) * s
        return (cur, _change(cur, state), (m, s, cur),
                2 * int(_ES_UMAX / 0.5 ** (k + 1)) + 1)

    return _halving_batch(level, rows, spec, EXP_SINH_MAX_LEVEL_NODES)
