"""Compiled vs pure-Python kernel parity.

The two backends must agree to rounding on every kernel; the suite skips
the comparison when the extension is unavailable (the package then runs
on the pure-Python kernels alone).
"""

import importlib

import numpy as np
import pytest

from sphfun import _kernels_py as py_kernels

cy_kernels = None
try:
    cy_kernels = importlib.import_module("sphfun._kernels")
except ImportError:
    pass

needs_ext = pytest.mark.skipif(cy_kernels is None,
                               reason="compiled kernels not built")

RNG = np.random.default_rng(123)


def sample_points(count):
    return [complex(a, b) for a, b in
            zip(RNG.uniform(-8, 8, count), RNG.uniform(-8, 8, count))]


@needs_ext
class TestParity:
    def test_log_gamma(self):
        for z in sample_points(200):
            if abs(z.real - round(z.real)) < 0.05 and z.real <= 0.5:
                continue
            a = py_kernels.clgamma(z)
            b = cy_kernels.clgamma(z)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_log_gamma_large_imaginary(self):
        for z in (0.3 + 80j, -0.2 - 55j, 1.5 + 40j):
            a = py_kernels.clgamma(z)
            b = cy_kernels.clgamma(z)
            assert b == pytest.approx(a, rel=1e-12)

    def test_hyp2f1_series(self):
        for _ in range(50):
            a = complex(RNG.uniform(-2, 2), RNG.uniform(-1, 1))
            b = complex(RNG.uniform(-2, 2), RNG.uniform(-1, 1))
            c = complex(RNG.uniform(1, 3), RNG.uniform(-1, 1))
            z = complex(RNG.uniform(-0.8, 0.8), RNG.uniform(-0.4, 0.4))
            va, na, la = py_kernels.hyp2f1_series(a, b, c, z, 1e-13, 10000)
            vb, nb, lb = cy_kernels.hyp2f1_series(a, b, c, z, 1e-13, 10000)
            assert na == nb
            assert vb == pytest.approx(va, rel=1e-13)
            assert lb == pytest.approx(la, rel=1e-13)

    def test_hc_gamma_coeffs(self):
        for (m, m2) in ((1, 0), (2, 0), (2, 1), (4, 3)):
            lam = complex(RNG.uniform(0.3, 2), RNG.uniform(-1, 1))
            ga = py_kernels.hc_gamma_coeffs(m, m2, lam, 40)
            gb = cy_kernels.hc_gamma_coeffs(m, m2, lam, 40)
            assert np.allclose(ga, gb, rtol=1e-13, atol=1e-300)

    def test_poisson_circle_sum(self):
        for _ in range(20):
            u = RNG.uniform(0, 0.95, 7)
            mu = complex(RNG.uniform(0, 2), RNG.uniform(-1, 1))
            k = int(RNG.integers(0, 4))
            a = py_kernels.poisson_circle_sum(u, mu, k, 256)
            b = cy_kernels.poisson_circle_sum(u, mu, k, 256)
            assert b.shape == a.shape == (7,)
            assert b == pytest.approx(a, rel=1e-13, abs=1e-15)


class TestSelection:
    def test_backend_reported(self):
        from sphfun import backend_name
        assert backend_name() in ("cython", "python")

    def test_python_backend_forced(self, monkeypatch):
        # re-import the selector with the override set, in a child that
        # imports the same sphfun as this process
        import os
        import subprocess
        import sys
        import sphfun
        src = os.path.dirname(os.path.dirname(sphfun.__file__))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import os; os.environ['SPHFUN_BACKEND']='python'; "
                "import sphfun; print(sphfun.backend_name())")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "python"
