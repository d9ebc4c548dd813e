"""Hot numeric kernels, in pure Python and NumPy.

The one implementation of ``clgamma``, ``hyp2f1_series``,
``hc_gamma_coeffs`` and ``poisson_circle_sum``.  Everything here is a
pure function of its arguments.

The log-Gamma kernel uses a 15-term Lanczos rational approximation
(g = 607/128) with reflection into the left half plane, good to roughly
1e-14 relative accuracy.  The reflection takes sin(pi z) after removing
the nearest integer from z exactly, so that no rounding of pi z is
magnified next to the poles.
"""

import cmath
import math

import numpy as np

_LANCZOS_G = 4.7421875  # 607/128
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297364
_LOG_PI = 1.1447298858494001741434273513
_TWO_PI = 2.0 * math.pi


def _lanczos_sum(z: complex) -> complex:
    # series for Gamma(z), valid for Re z >= 0.5
    s = _LANCZOS[0] + 0j
    for k in range(1, 15):
        s += _LANCZOS[k] / (z - 1.0 + k)
    return s


def _log_sin(z: complex) -> complex:
    # log sin(pi z), stable for large |Im pi z| where sin overflows
    if abs(math.pi * z.imag) < 34.0:
        # sin(pi z) = (-1)^n sin(pi (z - n)); z - n is exact, and the
        # components are scaled one by one so that a -0 Im z is kept
        n = round(z.real)
        s = cmath.sin(complex(math.pi * (z.real - n), math.pi * z.imag))
        return cmath.log(-s if n % 2 else s)
    w = math.pi * z
    if w.imag > 0.0:
        # sin w = -e^{-iw}/(2i) (1 - e^{2iw})
        return (-1j * w + complex(-math.log(2.0), 0.5 * math.pi)
                + cmath.log(1.0 - cmath.exp(2j * w)))
    return (1j * w + complex(-math.log(2.0), -0.5 * math.pi)
            + cmath.log(1.0 - cmath.exp(-2j * w)))


def clgamma(z: complex) -> complex:
    """The principal branch of log Gamma(z), analytic off (-inf, 0]."""
    z = complex(z)
    if z.real < 0.5:
        # reflection; the whole turns of 2 pi i undo those of _log_sin and
        # pick the principal branch (Hare, J. Algorithms 25 (1997), 221-236)
        log_sin = _log_sin(z)
        turns = (round(log_sin.imag / _TWO_PI)
                 + math.copysign(1.0, z.imag)
                 * math.floor(0.5 * z.real + 0.25))
        return (complex(_LOG_PI, _TWO_PI * turns) - log_sin
                - clgamma(1.0 - z))
    t = z + (_LANCZOS_G - 0.5)
    return (_LOG_SQRT_2PI + (z - 0.5) * cmath.log(t) - t
            + cmath.log(_lanczos_sum(z)))


def hyp2f1_series(a: complex, b: complex, c: complex, z: complex,
                  tol: float, max_terms: int) -> tuple[complex, int, float]:
    """Raw Gauss series sum_{n} (a)_n (b)_n / ((c)_n n!) z^n.

    Stops at a zero term, where the series terminates, or on the tail
    bound |term| q / (1 - q) <= tol |sum|, q = max(|r_n|, |z|) < 1, once
    n >= max(|a|, |b|, |c|) is past the hump of the term ratio
    r_n = (a+n)(b+n) z / ((c+n)(n+1)), which from there on moves
    monotonically towards |z|.  Returns (value, terms_used, largest
    |term|); terms_used == -1 signals that the tolerance was not met
    within max_terms.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    az = abs(z)
    hump = max(abs(a), abs(b), abs(c))
    term = 1.0 + 0j
    total = 1.0 + 0j
    largest = 1.0
    for n in range(max_terms):
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        term *= ratio
        total += term
        if term == 0:
            return total, n + 1, largest
        size = abs(term)
        if size > largest:
            largest = size
        if n >= hump:
            q = abs(ratio)
            if q < az:
                q = az
            if q < 1.0 and size * q <= \
                    tol * (1.0 - q) * max(abs(total), 1e-300):
                return total, n + 1, largest
    return total, -1, largest


def hc_gamma_coeffs(m_alpha: int, m_2alpha: int, lam: complex,
                    n_max: int) -> np.ndarray:
    """Coefficients of the radial eigenfunction expansion in e^{-n t}.

    Recursion obtained by substituting e^{(i lam - rho) t} sum g_n e^{-n t}
    into u'' + (m coth t + 2 m2 coth 2t) u' = -(lam^2 + rho^2) u and
    matching coefficients; g_0 = 1 and odd coefficients vanish.
    Resonant denominators (n == 2 i lam) must be excluded by the caller.
    """
    lam = complex(lam)
    rho = 0.5 * m_alpha + m_2alpha
    ilam = 1j * lam
    g = np.zeros(n_max + 1, dtype=np.complex128)
    g[0] = 1.0
    for n in range(2, n_max + 1, 2):
        acc = 0.0 + 0j
        k = 2
        while k <= n:
            acc += 2.0 * m_alpha * g[n - k] * (ilam - rho - (n - k))
            k += 2
        k = 4
        while k <= n:
            acc += 4.0 * m_2alpha * g[n - k] * (ilam - rho - (n - k))
            k += 4
        g[n] = -acc / (n * (n - 2.0 * ilam))
    return g


def poisson_circle_sum(u, mu: complex, harmonic: int,
                       nphi: int) -> np.ndarray:
    """For each radius in the 1-D array u, the mean over the uniform
    nphi-point grid on [0, 2pi) of P(u, psi)^mu e^{i harmonic psi} with
    P = (1-u^2)/(1-2u cos psi+u^2)."""
    mu = complex(mu)
    u = np.asarray(u, dtype=float)[:, None]
    psi = np.arange(nphi) * (2.0 * math.pi / nphi)
    pk = (1.0 - u * u) / (1.0 - 2.0 * u * np.cos(psi) + u * u)
    vals = np.exp(mu * np.log(pk))
    if harmonic:
        vals = vals * np.exp(1j * harmonic * psi)
    return vals.mean(axis=1)
