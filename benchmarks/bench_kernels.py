"""Time the scalar kernels, each branch of the Gauss 2F1, the closed
form phi_tau, the single-root c-factors, the verify suites and the
command-line parser.

Usage:
    python benchmarks/bench_kernels.py [--repeat 5] [--scale 1.0]

The first table (L0) times each kernel of ``sphfun._kernels_py`` on a
representative workload: microseconds per call, best of the repeats.
The Poisson-kernel boundary integrals are no kernel: ``models`` runs
them in the boundary variable theta, with y = -log P = t cos theta; the
L3/L4 table times them inside the verify suites.  A second table (L1) times ``complexmath.gauss_2f1`` on each of its
branches: microseconds per call with its per-(a, b, c) constants held
in one ``Gauss2F1Plan`` (warm) and computed afresh by each
``gauss_2f1`` call (cold), and the series terms per call.  A third (L2)
times ``rankone.phi_tau`` over the rank1-grid t-grid at one Lam:
microseconds per call with the closed-form plans, which hold the 2F1's,
cleared before each sweep of the grid (cold) and kept (warm).  A per-Lam set-up
table (L1/L2) times the constants a new Lam costs: ``c_lambda_delta``
per K-type, the single-root factor ``c_alpha`` per (m, m2), the 2F1
connection constants at phi_tau's parameters, ``hc_series_gammas``, and
``phi_tau`` at t = 0.05 and 20, at a new Lam and warm.  A fourth (L2/L4)
times ``cfun.c_full`` and ``c_sigma`` at the longest element on A2 and
B2, and ``verify.check_cocycle`` on the cocycle suite's samples, with the
single-root factor cache cleared before each call (cold) and kept
(warm): the time per call, the factors each call asks the cache for
(its ``c_alpha`` calls: one per (parameter, root) a factor record
multiplies) and how many of them it evaluates.  A fifth (L2/L4) times
the Weyl layer: building
the A2 and B2 catalog data and the A2 datum from a JSON file, then
``rootdata.restrict``, ``weyl_apply`` and ``cfun.c_sigma`` at the
longest A2 element on one datum, and ``verify --suite cocycle`` and
``det-a`` through ``cli.main`` in process.  A sixth (L3/L4) times each
verify suite in process (``verify.run_suites``, best of the repeats),
counts the calls it makes of each quadrature oracle of ``models``,
nested calls included, and the rule points each quadrature rule uses
for them (in a warm run: a measure constant the oracles cache, such as
``nbar_normalization``, is not counted again).  The last (L5) times
``cli.build_parser`` for each command and for all of them, and one
in-process ``cli.main`` call.
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import time

import numpy as np

from sphfun import _kernels_py, cfun, cli, complexmath as cm, \
    models, rankone as r1, rootdata as rd, verify


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
    return [
        ("log-gamma scalar grid", n_gamma,
         lambda: [k.clgamma(z) for z in zs]),
        ("2F1 series grid", n_hyp,
         lambda: [k.hyp2f1_series(a, b, c, z, 1e-13, 100000)
                  for (a, b, c, z) in hyp_args]),
        ("series recursion", len(recursions),
         lambda: [k.hc_gamma_coeffs(m, m2, 0.9 - 0.4j, 60)
                  for (m, m2) in recursions]),
    ]


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
        plan, z = cm.Gauss2F1Plan(*args[:3]), complex(z)

        def warm():
            for _ in range(calls):
                plan.value(z, 1.0 - z)

        def cold():
            for _ in range(calls):
                cm.gauss_2f1(*args)
        plan.value(z, 1.0 - z)
        t_warm = timed(warm, repeat) / calls * 1e6
        t_cold = timed(cold, repeat) / calls * 1e6
        print(f"{name:<28}{t_warm:>9.1f}{t_cold:>9.1f}"
              f"{counted_terms(args):>7}")


# the t-grid of the rank1-grid workload: both 2F1 branches
T_GRID = (0.05, 0.2, 0.5, 0.9, 1.4, 1.8, 2.5, 3.0, 5.0, 8.0, 12.0, 20.0)


def phi_table(repeat, scale):
    space = r1.RankOneSpace(2, 0)
    kt = r1.catalog_lookup(r1.load_ktype_catalog(), "s1r0", space)
    sweeps = max(1, int(50 * scale))

    def sweep(clear):
        def run():
            for _ in range(sweeps):
                if clear:
                    r1._closed_form_plan.cache_clear()
                for t in T_GRID:
                    r1.phi_tau(space, kt, 0.9 - 0.3j, t)
        return run
    print("\nphi_tau over the rank1-grid t-grid")
    print(f"{'call':<28}{'us cold':>9}{'us warm':>9}")
    per_call = [timed(sweep(clear), repeat) / (sweeps * len(T_GRID)) * 1e6
                for clear in (True, False)]
    print(f"{'phi_tau, Lam = 0.9 - 0.3i':<28}{per_call[0]:>9.1f}"
          f"{per_call[1]:>9.1f}")


def setup_table(repeat, scale):
    # 64 distinct Lam per row, more than a per-Lam cache holds, so every
    # call of a cold row misses; the Lam of the rank1-grid workload's
    # kind: 0 < Re Lam < 3, |Im Lam| < 0.45
    rng = np.random.default_rng(18)
    lams = [complex(x, y) for x, y in zip(rng.uniform(0.05, 3.0, 64),
                                          rng.uniform(-0.45, 0.45, 64))]
    catalog = r1.load_ktype_catalog()
    h2, h3, ch2 = r1.RankOneSpace(1, 0), r1.RankOneSpace(2, 0), \
        r1.RankOneSpace(2, 1)
    ktypes = [(sp, name, r1.catalog_lookup(catalog, name, sp))
              for sp, name in ((h2, "s2r0"), (h3, "s1r0"), (ch2, "s1r1"),
                               (ch2, "s2r1"))]

    def label(sp, name):
        return f"{name} ({sp.m_alpha},{sp.m_2alpha})"

    def hyp_args(sp, kt):
        return [r1._hyp_parameters(sp, kt, lam)[1:] for lam in lams]

    cases = [(f"c_lambda_delta, {label(sp, name)}",
              lambda sp=sp, kt=kt: [r1.c_lambda_delta(sp, kt, lam)
                                    for lam in lams])
             for sp, name, kt in ktypes]
    cases += [(f"c_alpha, (m, m2) = ({m}, {m2})",
               lambda m=m, m2=m2: [cfun.c_alpha(lam, m, m2) for lam in lams])
              for m, m2 in ((1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (4, 3),
                            (8, 7))]
    cases += [(f"_connection_coeffs, {label(sp, name)}",
               lambda args=hyp_args(sp, kt): [
                   cm._connection_coeffs(*(complex(p) for p in abc))
                   for abc in args])
              for sp, name, kt in ktypes[1:2] + ktypes[3:]]
    cases += [(f"hc_series_gammas, ({sp.m_alpha},{sp.m_2alpha})",
               lambda sp=sp: [r1.hc_series_gammas(sp, lam) for lam in lams])
              for sp in (h2, ch2)]
    sp, _, kt = ktypes[1]
    for t in (0.05, 20.0):
        cases += [(f"phi_tau, t = {t:g}, new Lam",
                   lambda t=t: [r1.phi_tau(sp, kt, lam, t) for lam in lams]),
                  (f"phi_tau, t = {t:g}, warm",
                   lambda t=t: [r1.phi_tau(sp, kt, lams[0], t)
                                for _ in lams])]
    rounds = max(1, int(20 * scale))
    print("\nper-Lam set-up (a new Lam per call unless warm)")
    print(f"{'call':<34}{'us':>9}")
    for name, fn in cases:
        fn()

        def run():
            for _ in range(rounds):
                fn()
        us = timed(run, repeat) / (rounds * len(lams)) * 1e6
        print(f"{name:<34}{us:>9.2f}")


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
    cache = cfun._factor_value

    def evaluated(fn):
        # (factors asked for, factors evaluated) by one call
        before = cache.cache_info()
        fn()
        after = cache.cache_info()
        misses = after.misses - before.misses
        return after.hits - before.hits + misses, misses

    print("\nsingle-root factors")
    print(f"{'call':<22}{'unit':>5}{'cold':>9}{'warm':>9}{'asked':>9}"
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


def weyl_table(repeat, scale):
    s3 = math.sqrt(3.0) / 2.0
    doc = {"rank": 2, "simple_roots": [[1.0, 0.0], [-0.5, s3]],
           "positive_indivisible_roots": [[1.0, 0.0], [-0.5, s3],
                                          [0.5, s3]],
           "multiplicities": []}
    a2 = rd.datum_a2()
    w0 = rd.longest_element(a2)
    lam = rd.SpectralParam.of([0.9 - 0.5j, 0.4 - 0.7j])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a2.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        cases = [
            ("datum_a2()", "us", rd.datum_a2),
            ("datum_b2()", "us", rd.datum_b2),
            ("datum_from_json, A2", "us", lambda: rd.datum_from_json(path)),
            ("restrict, A2", "us", lambda: rd.restrict(a2, lam, 2)),
            ("weyl_apply(w0), A2", "us", lambda: rd.weyl_apply(a2, w0, lam)),
            ("c_sigma(w0), A2", "us", lambda: cfun.c_sigma(a2, w0, lam)),
        ] + [(f"verify --suite {suite}", "ms", lambda suite=suite: cli.main(
            ["verify", "--suite", suite])) for suite in ("cocycle", "det-a")]
        print("\nWeyl layer")
        print(f"{'call':<26}{'unit':>5}{'time':>9}")
        for name, unit, fn in cases:
            to_unit, calls = {"us": (1e6, 2000), "ms": (1e3, 10)}[unit]
            calls = max(1, int(calls * scale))

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    for _ in range(calls):
                        fn()
            run()
            print(f"{name:<26}{unit:>5}"
                  f"{timed(run, repeat) / calls * to_unit:>9.2f}")


ORACLES = ("quad_phi_K", "quad_c_Nbar", "quad_Csigma_sl2",
           "quad_eisenstein_sl2", "entry_function_sl2",
           "functional_equation_check", "functional_equation_entry_sl2")


RULES = {"gauss_legendre_adaptive": "gauss-legendre",
         "trapezoid_doubling": "trapezoid", "exp_sinh_halfline": "exp-sinh"}


def oracle_counts(fn):
    """The calls fn() makes of each oracle of ``models`` that it calls,
    nested calls included, and the rule points each quadrature rule
    returns to ``models``."""
    calls = dict.fromkeys(ORACLES, 0)
    points = dict.fromkeys(RULES, 0)
    originals = {name: getattr(models, name) for name in (*ORACLES, *RULES)}

    def counted(name):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapped

    def measured(name):
        def wrapped(*args, **kwargs):
            values, nodes = originals[name](*args, **kwargs)
            points[name] += nodes
            return values, nodes
        return wrapped
    for name in ORACLES:
        setattr(models, name, counted(name))
    for name in RULES:
        setattr(models, name, measured(name))
    try:
        fn()
    finally:
        for name, orig in originals.items():
            setattr(models, name, orig)
    return ({name: n for name, n in calls.items() if n},
            {RULES[name]: n for name, n in points.items() if n})


def suite_table(repeat, scale):
    runs = max(1, int(20 * scale))
    print("\nverify suites in process")
    print(f"{'suite':<22}{'ms':>8}  oracle calls; rule points")
    for suite in verify.SUITES:
        def run():
            for _ in range(runs):
                verify.run_suites([suite])
        run()
        ms = timed(run, repeat) / runs * 1e3
        calls, points = oracle_counts(lambda: verify.run_suites([suite]))
        counts = ", ".join(f"{k} {n}" for k, n in calls.items()) or "-"
        if points:
            counts += "; " + ", ".join(f"{k} {n}" for k, n in points.items())
        print(f"{suite:<22}{ms:>8.2f}  {counts}")


def cli_table(repeat, scale):
    calls = max(1, int(200 * scale))
    print("\ncommand line")
    print(f"{'call':<34}{'unit':>5}{'time':>9}")
    for command in [None, *cli.COMMANDS]:
        t = timed(lambda: [cli.build_parser(command)
                           for _ in range(calls)], repeat)
        name = f"build_parser({command or ''})"
        print(f"{name:<34}{'us':>5}{t / calls * 1e6:>9.1f}")
    argv = ["simple-check", "--space", "h2", "--lambda", "0,1.5"]

    def run():
        for _ in range(calls):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    print(f"{'main(simple-check)':<34}{'ms':>5}"
          f"{timed(run, repeat) / calls * 1e3:>9.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()

    print(f"{'kernel':<24}{'us/call':>10}")
    for name, calls, fn in workloads(args.scale):
        print(f"{name:<24}{timed(fn, args.repeat) / calls * 1e6:>10.2f}")
    gauss_table(args.repeat, args.scale)
    phi_table(args.repeat, args.scale)
    setup_table(args.repeat, args.scale)
    factor_table(args.repeat, args.scale)
    weyl_table(args.repeat, args.scale)
    suite_table(args.repeat, args.scale)
    cli_table(args.repeat, args.scale)


if __name__ == "__main__":
    main()
