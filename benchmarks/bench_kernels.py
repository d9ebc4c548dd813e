"""Time the scalar kernels, each branch of the Gauss 2F1 and the
single-root c-factors.

Usage:
    python benchmarks/bench_kernels.py [--repeat 5] [--scale 1.0]

The first table (L0) times each kernel of ``sphfun._kernels_py`` on a
representative workload: microseconds per call, best of the repeats.  A
second table (L1) times ``complexmath.gauss_2f1`` on each of its
branches: microseconds per call with its per-(a, b, c) constants cached
(warm) and computed afresh (cold), and the series terms per call.  A
third (L2/L4) times ``cfun.c_full`` and ``c_sigma`` at the longest
element on A2 and B2, and ``verify.check_cocycle`` on the cocycle
suite's samples, with the single-root factor cache cleared before each
call (cold) and kept (warm): the time per call, the factors each call
asks for and how many of them it evaluates.
"""

import argparse
import time

import numpy as np

from sphfun import _kernels_py, cfun, complexmath as cm, rootdata as rd, \
    verify


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(scale):
    """(name, calls, fn) of each kernel workload; fn makes the calls."""
    k = _kernels_py
    rng = np.random.default_rng(2024)
    n_gamma = int(20000 * scale)
    zs = [complex(a, b) for a, b in zip(rng.uniform(0.6, 8, n_gamma),
                                        rng.uniform(-8, 8, n_gamma))]
    n_hyp = int(2000 * scale)
    hyp_args = [(complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
                 complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
                 complex(rng.uniform(2.2, 4), rng.uniform(-1, 1)),
                 rng.uniform(-0.85, 0.85)) for _ in range(n_hyp)]
    recursions = [(m, m2) for (m, m2) in ((1, 0), (2, 0), (2, 1), (4, 3))
                  for _ in range(int(50 * scale))]
    # the sizes the quadrature oracles use: one `sphfun verify --suite
    # all` makes 163 circle-sum calls over 2053 radii in all, up to 64
    # radii a call, at 32 to 512 nodes
    radii = np.linspace(0.05, 0.9, 16)
    n_circle = int(125 * scale)

    def circle(nodes):
        return lambda: [k.poisson_circle_sum(radii, 0.8 - 0.3j, j % 3, nodes)
                        for j in range(n_circle)]

    return [
        ("log-gamma scalar grid", n_gamma,
         lambda: [k.clgamma(z) for z in zs]),
        ("2F1 series grid", n_hyp,
         lambda: [k.hyp2f1_series(a, b, c, z, 1e-13, 100000)
                  for (a, b, c, z) in hyp_args]),
        ("series recursion", len(recursions),
         lambda: [k.hc_gamma_coeffs(m, m2, 0.9 - 0.4j, 60)
                  for (m, m2) in recursions]),
    ] + [(f"circle sum, {n} nodes", n_circle, circle(n))
         for n in (32, 64, 128, 256, 512)]


# (branch, a, b, c - a - b, z); the first four are series and connection
# formula with c - a - b far from an integer
A, B = 0.3 + 0.2j, 0.9 - 0.4j
GAUSS_CASES = [
    ("power series, |z| = 0.5", A, B, 1.3j, 0.5),
    ("power series, |z| = 0.69", A, B, 1.3j, 0.69),
    ("connection, 1 - z = 0.2", A, B, 1.3j, 0.8),
    ("connection, 1 - z = 1e-3", A, B, 1.3j, 0.999),
    ("log case d = 0", A, B, 0.0, 0.8),
    ("log case d = 1e-6", A, B, 1e-6, 0.8),
    ("log case d = 0.1", A, B, 0.1, 0.8),
    ("log case d = -1 + 1e-6", A, B, -1.0 + 1e-6, 0.8),
    ("terminating, a = -3", -3.0, B, 1.3j, 0.8),
]


def counted_terms(args):
    """Series terms of one gauss_2f1 call: the kernel's and those of the
    connection formula's sum."""
    terms = []
    kernel, conn = cm.kernels.hyp2f1_series, cm._connection_sum

    def count(fn):
        def wrapped(*a):
            value = fn(*a)
            terms.append(max(value[1], 0))
            return value
        return wrapped
    cm.kernels.hyp2f1_series = count(kernel)
    cm._connection_sum = count(conn)
    try:
        cm._connection_coeffs.cache_clear()
        cm.gauss_2f1(*args)
    finally:
        cm.kernels.hyp2f1_series, cm._connection_sum = kernel, conn
    return sum(terms)


def gauss_table(repeat, scale):
    calls = max(1, int(200 * scale))
    print("\ngauss_2f1 by branch")
    print(f"{'branch':<28}{'us warm':>9}{'us cold':>9}{'terms':>7}")
    for name, a, b, d, z in GAUSS_CASES:
        args = (a, b, a + b + d, z)

        def warm():
            for _ in range(calls):
                cm.gauss_2f1(*args)

        def cold():
            for _ in range(calls):
                cm._connection_coeffs.cache_clear()
                cm.gauss_2f1(*args)
        cm.gauss_2f1(*args)
        t_warm = timed(warm, repeat) / calls * 1e6
        t_cold = timed(cold, repeat) / calls * 1e6
        print(f"{name:<28}{t_warm:>9.1f}{t_cold:>9.1f}"
              f"{counted_terms(args):>7}")


def factor_table(repeat, scale):
    lam = rd.SpectralParam.of([0.9 - 0.5j, 0.4 - 0.7j])
    cases = []
    for name, d in (("A2", rd.datum_a2()), ("B2", rd.datum_b2())):
        w0 = rd.longest_element(d)
        cases += [(f"c_full, {name}", "us",
                   lambda d=d: cfun.c_full(d, lam)),
                  (f"c_sigma(w0), {name}", "us",
                   lambda d=d, w0=w0: cfun.c_sigma(d, w0, lam))]
    samples = verify._cocycle_samples()
    cases.append(("check_cocycle", "ms",
                  lambda: verify.check_cocycle(samples)))
    cache = cfun._log_factor_quotient

    def evaluated(fn):
        # (factors asked for, factors evaluated) by one call
        before = cache.cache_info()
        fn()
        after = cache.cache_info()
        misses = after.misses - before.misses
        return after.hits - before.hits + misses, misses

    print("\nsingle-root factors")
    print(f"{'call':<22}{'unit':>5}{'cold':>9}{'warm':>9}{'factors':>9}"
          f"{'eval cold':>11}{'eval warm':>11}")
    for name, unit, fn in cases:
        to_unit, calls = {"us": (1e6, 200), "ms": (1e3, 5)}[unit]
        calls = max(1, int(calls * scale))

        def warm():
            for _ in range(calls):
                fn()

        def cold():
            for _ in range(calls):
                cache.cache_clear()
                fn()
        fn()
        t_warm = timed(warm, repeat) / calls * to_unit
        _, eval_warm = evaluated(fn)
        t_cold = timed(cold, repeat) / calls * to_unit
        cache.cache_clear()
        asked, eval_cold = evaluated(fn)
        print(f"{name:<22}{unit:>5}{t_cold:>9.1f}{t_warm:>9.1f}{asked:>9}"
              f"{eval_cold:>11}{eval_warm:>11}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()

    print(f"{'kernel':<24}{'us/call':>10}")
    for name, calls, fn in workloads(args.scale):
        print(f"{name:<24}{timed(fn, args.repeat) / calls * 1e6:>10.2f}")
    gauss_table(args.repeat, args.scale)
    factor_table(args.repeat, args.scale)


if __name__ == "__main__":
    main()
