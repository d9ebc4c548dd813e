# cython: language_level=3
"""Hot numeric kernels, compiled edition.

Twin of ``sphfun._kernels_py`` — same names, same semantics, typed loops.
"""

import numpy as np

cimport numpy as cnp
from libc.math cimport (atan2, copysign, cos, exp, fabs, floor, hypot, log,
                        M_PI, rint, sin)

cnp.import_array()

BACKEND_NAME = "cython"

cdef double _LANCZOS_G = 4.7421875  # 607/128
cdef double[15] _LANCZOS
_LANCZOS[0] = 0.99999999999999709182
_LANCZOS[1] = 57.156235665862923517
_LANCZOS[2] = -59.597960355475491248
_LANCZOS[3] = 14.136097974741747174
_LANCZOS[4] = -0.49191381609762019978
_LANCZOS[5] = 0.33994649984811888699e-4
_LANCZOS[6] = 0.46523628927048575665e-4
_LANCZOS[7] = -0.98374475304879564677e-4
_LANCZOS[8] = 0.15808870322491248884e-3
_LANCZOS[9] = -0.21026444172410488319e-3
_LANCZOS[10] = 0.21743961811521264320e-3
_LANCZOS[11] = -0.16431810653676389022e-3
_LANCZOS[12] = 0.84418223983852743293e-4
_LANCZOS[13] = -0.26190838401581408670e-4
_LANCZOS[14] = 0.36899182659531622704e-5

cdef double _LOG_SQRT_2PI = 0.9189385332046727417803297364
cdef double _LOG_PI = 1.1447298858494001741434273513


cdef inline double complex _cexp(double complex z) noexcept:
    cdef double m = exp(z.real)
    return m * cos(z.imag) + 1j * (m * sin(z.imag))


cdef inline double complex _clog(double complex z) noexcept:
    return log(hypot(z.real, z.imag)) + 1j * atan2(z.imag, z.real)


cdef inline double complex _csin(double complex z) noexcept:
    cdef double ep = exp(z.imag), em = exp(-z.imag)
    return sin(z.real) * 0.5 * (ep + em) + 1j * (cos(z.real) * 0.5 * (ep - em))


cdef double complex _lanczos_sum(double complex z) noexcept:
    cdef double complex s = _LANCZOS[0]
    cdef int k
    for k in range(1, 15):
        s = s + _LANCZOS[k] / (z - 1.0 + k)
    return s


cdef double complex _log_sin(double complex w) noexcept:
    if fabs(w.imag) < 34.0:
        return _clog(_csin(w))
    if w.imag > 0.0:
        return (-1j * w + (-log(2.0) + 1j * (0.5 * M_PI))
                + _clog(1.0 - _cexp(2j * w)))
    return (1j * w + (-log(2.0) - 1j * (0.5 * M_PI))
            + _clog(1.0 - _cexp(-2j * w)))


cdef double complex _clgamma(double complex z) noexcept:
    cdef double complex t, log_sin
    cdef double turns
    if z.real < 0.5:
        log_sin = _log_sin(M_PI * z)
        turns = (rint(log_sin.imag / (2.0 * M_PI))
                 + copysign(1.0, z.imag) * floor(0.5 * z.real + 0.25))
        return (_LOG_PI + 1j * (2.0 * M_PI * turns) - log_sin
                - _clgamma(1.0 - z))
    t = z + (_LANCZOS_G - 0.5)
    return (_LOG_SQRT_2PI + (z - 0.5) * _clog(t) - t
            + _clog(_lanczos_sum(z)))


def clgamma(z):
    """The principal branch of log Gamma(z); see the pure-Python twin."""
    return _clgamma(complex(z))


def hyp2f1_series(a, b, c, z, double tol, int max_terms):
    """Raw Gauss series; returns (value, terms_used, largest |term|),
    terms_used -1 on non-convergence.  Same stopping rule as the
    pure-Python twin."""
    cdef double complex ca = complex(a), cb = complex(b)
    cdef double complex cc = complex(c), cz = complex(z)
    cdef double complex term = 1.0, total = 1.0, ratio
    cdef double az = hypot(cz.real, cz.imag)
    cdef double hump = max(hypot(ca.real, ca.imag), hypot(cb.real, cb.imag),
                           hypot(cc.real, cc.imag))
    cdef double q, mag, size, largest = 1.0
    cdef int n
    for n in range(max_terms):
        ratio = (ca + n) * (cb + n) / ((cc + n) * (n + 1.0)) * cz
        term = term * ratio
        total = total + term
        if term.real == 0.0 and term.imag == 0.0:
            return total, n + 1, largest
        size = hypot(term.real, term.imag)
        if size > largest:
            largest = size
        if n >= hump:
            q = max(hypot(ratio.real, ratio.imag), az)
            mag = hypot(total.real, total.imag)
            if mag < 1e-300:
                mag = 1e-300
            if q < 1.0 and size * q <= tol * (1.0 - q) * mag:
                return total, n + 1, largest
    return total, -1, largest


def hc_gamma_coeffs(int m_alpha, int m_2alpha, lam, int n_max):
    """Radial-expansion coefficients; see the pure-Python twin."""
    cdef double complex clam = complex(lam)
    cdef double rho = 0.5 * m_alpha + m_2alpha
    cdef double complex ilam = 1j * clam
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] g = np.zeros(
        n_max + 1, dtype=np.complex128)
    cdef int n, k
    cdef double complex acc
    g[0] = 1.0
    for n in range(2, n_max + 1, 2):
        acc = 0.0
        k = 2
        while k <= n:
            acc = acc + 2.0 * m_alpha * g[n - k] * (ilam - rho - (n - k))
            k += 2
        k = 4
        while k <= n:
            acc = acc + 4.0 * m_2alpha * g[n - k] * (ilam - rho - (n - k))
            k += 4
        g[n] = -acc / (n * (n - 2.0 * ilam))
    return g


def poisson_circle_sum(u, mu, int harmonic, int nphi):
    """Per radius of u, the mean of P(u,psi)^mu e^{i harmonic psi} over
    the uniform grid."""
    cdef cnp.ndarray[cnp.float64_t, ndim=1] radii = np.ascontiguousarray(
        u, dtype=np.float64)
    cdef Py_ssize_t rows = radii.shape[0]
    cdef cnp.ndarray[cnp.complex128_t, ndim=1] out = np.empty(
        rows, dtype=np.complex128)
    cdef double complex cmu = complex(mu)
    cdef double mre = cmu.real, mim = cmu.imag
    cdef double acc_re, acc_im, r
    cdef double psi, logpk, mag, phase, h = 2.0 * M_PI / nphi
    cdef Py_ssize_t i
    cdef int j
    for i in range(rows):
        r = radii[i]
        acc_re = 0.0
        acc_im = 0.0
        for j in range(nphi):
            psi = j * h
            logpk = log((1.0 - r * r)
                        / (1.0 - 2.0 * r * cos(psi) + r * r))
            mag = exp(mre * logpk)
            phase = mim * logpk + harmonic * psi
            acc_re += mag * cos(phase)
            acc_im += mag * sin(phase)
        out[i] = complex(acc_re / nphi, acc_im / nphi)
    return out
