"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with -s to stream them).

Criteria 3, 4, 5 and 9-12 draw their own samples and run the check
functions of `sphfun.verify`, the checks behind `sphfun verify`, on
them; each asserts its own bound on the returned rows.  Every tolerance
is fixed here, not calibrated.  Criterion 8 checks the large-t limit of
the normalized K-type function at the time its exact rate allows: the
remainder is |B/A| (sech^2 t)^{|Im lam|} (connection-formula
coefficients B, A), about 4e-5 at t = 18 and decay margin 0.3, so the
1e-5 bound is asserted at t = 24 for that margin (t = 18 for margin
0.8), and the t = 18 deviation is asserted to be that remainder.
"""

import cmath
import math
import pathlib
import time

import numpy as np
import pytest

from sphfun import cfun
from sphfun import complexmath as cm
from sphfun import higherrank as hr
from sphfun import rankone as r1
from sphfun import rootdata as rd
from sphfun import verify as vf

from test_complexmath import hyp2f1_at_one_oracle

H2 = r1.RankOneSpace(1, 0)
H3 = r1.RankOneSpace(2, 0)
H5 = r1.RankOneSpace(4, 0)


def report(num, name, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status} "
          f"[{detail}; {elapsed:.2f}s of {budget:.0f}s budget]")


def strip_samples(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if min(cm.distance_to_nonpos_int(w)
               for w in (z, 1 - z, z + 0.5, 2 * z)) > 0.1:
            out.append(z)
    return out


def margin_samples(count, seed, lo=0.2, hi=1.2):
    rng = np.random.default_rng(seed)
    return [complex(rng.uniform(0.3, 2.5), -rng.uniform(lo, hi))
            for _ in range(count)]


def weyl_samples(rng, count):
    return [rd.SpectralParam.of(rng.uniform(0.2, 2.0, 2)
                                - 1j * rng.uniform(0.1, 1.2, 2))
            for _ in range(count)]


def rel_to_closed(row):  # a verify row's rel_err divides by max |value|
    return row["abs_err"] / abs(complex(row["closed_re"], row["closed_im"]))


def test_criterion_01_gamma_identities():
    budget, t0 = 1.0, time.time()
    worst = 0.0
    for z in strip_samples(1000, seed=101):
        refl = abs(cm.gamma(z) * cm.gamma(1 - z)
                   * cmath.sin(cmath.pi * z) / cmath.pi - 1.0)
        dup = cm.gamma(2 * z)
        dup_err = abs(dup - cm.gamma(z) * cm.gamma(z + 0.5)
                      * 2.0 ** (2 * z - 1) / math.sqrt(math.pi)) / abs(dup)
        worst = max(worst, refl, dup_err)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < budget
    report(1, "gamma identities", ok, f"worst rel {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-12
    assert elapsed < budget


def test_criterion_02_gauss_summation():
    budget, t0 = 5.0, time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        a = complex(rng.uniform(0.1, 1.5), rng.uniform(-1, 1))
        b = complex(rng.uniform(0.1, 1.5), rng.uniform(-1, 1))
        c = a + b + complex(rng.uniform(0.55, 2.0), rng.uniform(-1, 1))
        val = cm.gauss_2f1_at_one(a, b, c)
        oracle = hyp2f1_at_one_oracle(a, b, c)
        worst = max(worst, abs(val - oracle) / abs(oracle))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < budget
    report(2, "gauss summation", ok, f"worst rel {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-8
    assert elapsed < budget


def test_criterion_03_c_vs_defining_integral():
    budget, t0 = 30.0, time.time()
    rows = vf.check_c_vs_integral(
        [(n, r1.RankOneSpace(n - 1, 0)) for n in (2, 3, 4)],
        margin_samples(20, seed=103))
    worst = max(rel_to_closed(row) for row in rows)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < budget
    report(3, "c vs defining integral", ok, f"worst rel {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-6
    assert elapsed < budget


def test_criterion_04_zonal_vs_boundary_integral():
    budget, t0 = 30.0, time.time()
    rng = np.random.default_rng(104)
    lams = [complex(rng.uniform(0.2, 2.0), rng.uniform(-0.8, 0.8))
            for _ in range(10)]
    rows = vf.check_phi_vs_integral([(2, H2)], lams)
    worst = max(row["abs_err"] for row in rows)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < budget
    report(4, "zonal vs boundary integral", ok, f"worst abs {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-8
    assert elapsed < budget


def test_criterion_05_functional_equation():
    budget, t0 = 120.0, time.time()
    rng = np.random.default_rng(105)
    lams = [complex(rng.uniform(0.3, 1.5), rng.uniform(-0.4, 0.4))
            for _ in range(10)]
    rows = vf.check_functional_equation(2, lams[:5], lams[5:])
    worst = max(row["rel_err"] for row in rows
                if not row["case"].startswith("entry"))
    worst_entry = max(row["rel_err"] for row in rows
                      if row["case"].startswith("entry"))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and worst_entry <= 1e-6 and elapsed < budget
    report(5, "functional equation", ok,
           f"zonal {worst:.2e} entry {worst_entry:.2e}", budget, elapsed)
    assert worst <= 1e-6
    assert worst_entry <= 1e-6
    assert elapsed < budget


def test_criterion_06_series_vs_closed_form():
    budget, t0 = 5.0, time.time()
    rng = np.random.default_rng(106)
    worst = 0.0
    for space in (H2, H3):
        for _ in range(10):
            lam = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.9, 0.9))
            for t in (1.0, 1.5, 2.0, 3.0):
                series = r1.hc_series_eval(space, lam, t, 40)
                closed = r1.phi_tau(space, r1.TRIVIAL_KTYPE, lam, t)
                worst = max(worst, abs(series - closed) / abs(closed))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < budget
    report(6, "series vs closed form", ok, f"worst rel {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-8
    assert elapsed < budget


def test_criterion_07_coefficient_growth():
    budget, t0 = 1.0, time.time()
    rng = np.random.default_rng(107)
    worst = -math.inf
    for _ in range(10):
        lam = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))
        gammas = r1.hc_series_gammas(H2, lam, 60)
        # log|g_n|/n over n >= 20, the odd g_n (zero) left out
        worst = max(worst, *(math.log(abs(g)) / n
                             for n, g in enumerate(gammas) if n >= 20 and g))
    elapsed = time.time() - t0
    ok = worst < 0.5 and elapsed < budget
    report(7, "coefficient growth", ok, f"max log|g_n|/n = {worst:.3f}",
           budget, elapsed)
    assert worst < 0.5
    assert elapsed < budget


@pytest.mark.parametrize("space,name,eta", [
    (H2, "s2r0", 0.3), (H2, "s2r0", 0.8),
    (H3, "s1r0", 0.3), (H3, "s1r0", 0.8)])
def test_criterion_08_asymptotic_limit(space, name, eta):
    # decay margin |Im lam| = eta; the limit regime is Im lam < 0 (the
    # reflected series term decays), so lam = 0.5 - i eta.  The remainder
    # is |B/A| (sech^2 t)^eta by the 2F1 connection formula at z = 1, so
    # the 1e-5 bound holds from t_far on, with ~10x headroom.
    budget, t0 = 5.0, time.time()
    kt = r1.catalog_lookup(r1.load_ktype_catalog(), name, space)
    lam = 0.5 - 1j * eta
    t_far = {0.3: 24.0, 0.8: 18.0}[eta]
    target = r1.limit_large_t_target(space, kt, lam)

    def rel(t):
        return abs(r1.limit_large_t(space, kt, lam, t) - target) / abs(target)

    e_far, e10, e18 = rel(t_far), rel(10.0), rel(18.0)
    _, a, b, c = r1._hyp_parameters(space, kt, lam)
    b_over_a = cm.gamma_ratio((a + b - c, c - a, c - b), (c - a - b, a, b))
    pred18 = abs(b_over_a) * (1.0 / math.cosh(18.0) ** 2) ** eta
    pred_ok = abs(e18 - pred18) <= 1e-3 * pred18 + 1e-13
    elapsed = time.time() - t0
    ok = e_far <= 1e-5 and e10 > e_far and pred_ok and elapsed < budget
    report(8, f"asymptotic limit m={space.m_alpha} eta={eta}", ok,
           f"rel({t_far:g}) {e_far:.2e} rel(10) {e10:.2e} "
           f"rel(18) {e18:.2e} pred(18) {pred18:.2e}", budget, elapsed)
    assert e10 > e_far
    assert pred_ok
    assert elapsed < budget
    assert e_far <= 1e-5


def test_criterion_09_second_coefficient_integral():
    budget, t0 = 30.0, time.time()
    rows = vf.check_csigma(margin_samples(10, seed=109))
    worst = max(rel_to_closed(row) for row in rows)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < budget
    report(9, "second coefficient vs integral", ok,
           f"worst rel {worst:.2e}", budget, elapsed)
    assert worst <= 1e-6
    assert elapsed < budget


def test_criterion_10_hilbert_schmidt_identity():
    budget, t0 = 2.0, time.time()
    rng = np.random.default_rng(110)
    rows = vf.check_hs_norm([(space, s, float(rng.uniform(0.3, 3.0)))
                             for space in (H2, H5) for s in (1, 2)
                             for _ in range(20)])
    worst = max(row["rel_err"] for row in rows)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < budget
    report(10, "hilbert-schmidt identity", ok, f"worst rel {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-8
    assert elapsed < budget


def test_criterion_11_cocycle_law():
    budget, t0 = 5.0, time.time()
    rng = np.random.default_rng(111)
    samples = []
    for name, datum in (("a2", rd.datum_a2()), ("b2", rd.datum_b2())):
        pair_lams = weyl_samples(rng, 100)
        samples.append((name, datum, pair_lams, weyl_samples(rng, 20)))
    rows = vf.check_cocycle(samples)
    pair_rows = [row for row in rows if "pairs=" in row["case"]]
    pairs_ok = all(row["passed"] and not row["case"].endswith("pairs=0")
                   for row in pair_rows)
    # a pair row's abs_err is its datum's worst defect
    worst_pair = max(row["abs_err"] for row in pair_rows)
    worst_longest = max(rel_to_closed(row) for row in rows
                        if row["case"].endswith("longest=full"))
    elapsed = time.time() - t0
    ok = pairs_ok and worst_longest <= 1e-13 and elapsed < budget
    report(11, "cocycle law", ok,
           f"pairs {worst_pair:.2e} longest {worst_longest:.2e}",
           budget, elapsed)
    assert pairs_ok
    assert worst_longest <= 1e-13
    assert elapsed < budget


def test_criterion_12_determinant_formula():
    budget, t0 = 1.0, time.time()
    rng = np.random.default_rng(112)
    rank_one_lams = [complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
                     for _ in range(20)]
    table = hr.table_from_json(
        pathlib.Path(__file__).parent / "data" / "a2_table.json")
    rows = vf.check_det_a(rank_one_lams, weyl_samples(rng, 20), table)
    worst_rankone = max(rel_to_closed(row) for row in rows
                        if row["case"].startswith("rank-one"))
    worst_paths = max(rel_to_closed(row) for row in rows
                      if row["case"] == "a2 two-path")
    elapsed = time.time() - t0
    ok = worst_rankone <= 1e-12 and worst_paths <= 1e-10 and \
        elapsed < budget
    report(12, "determinant formula", ok,
           f"rank-one {worst_rankone:.2e} two-path {worst_paths:.2e}",
           budget, elapsed)
    assert worst_rankone <= 1e-12
    assert worst_paths <= 1e-10
    assert elapsed < budget


def test_criterion_13_simplicity_predicate():
    budget, t0 = 1.0, time.time()
    d = rd.datum_a1(1, 0)
    flagged = not cfun.is_simple(d, rd.SpectralParam.of([1.5j]))
    rng = np.random.default_rng(113)
    generic_ok = True
    for _ in range(50):
        lam = complex(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0))
        generic_ok = generic_ok and cfun.is_simple(
            d, rd.SpectralParam.of([lam]))
    # flipping multiplicities moves the flagged set exactly as the
    # recomputed arguments dictate
    consistent = True
    candidates = [0.5j * k for k in range(-8, 9)]
    for (m, m2) in ((1, 0), (2, 0), (3, 0), (2, 1)):
        dm = rd.datum_a1(m, m2)
        for lam in candidates:
            w = 1j * lam
            args = (0.5 * (0.5 * m + 1 + w), 0.5 * (0.5 * m + m2 + w))
            brute = all(cm.distance_to_nonpos_int(a) >= 1e-9 for a in args)
            consistent = consistent and (
                cfun.is_simple(dm, rd.SpectralParam.of([lam])) == brute)
    elapsed = time.time() - t0
    ok = flagged and generic_ok and consistent and elapsed < budget
    report(13, "simplicity predicate", ok,
           f"flagged={flagged} generic={generic_ok} "
           f"flip-consistent={consistent}", budget, elapsed)
    assert flagged and generic_ok and consistent
    assert elapsed < budget


def test_criterion_14_small_t_limit():
    budget, t0 = 1.0, time.time()
    worst = 0.0
    for s in (1, 2):
        kt = r1.ktype_from_rs(H2, 0, s)
        for lam in (0.7 + 0j, 1.1 - 0.3j):
            got = r1.small_t_ratio(H2, kt, lam, 1e-3)
            want = r1.small_t_target(H2, kt, lam)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < budget
    report(14, "small-t limit", ok, f"worst rel {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-4
    assert elapsed < budget


def test_criterion_15_radial_eigen_equation():
    budget, t0 = 1.0, time.time()
    lam = 0.9 - 0.6j
    worst = 0.0
    for t in np.linspace(0.4, 3.0, 20):
        worst = max(worst, r1.radial_eigen_residual(H2, lam, float(t)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < budget
    report(15, "radial eigen-equation", ok, f"worst rel {worst:.2e}",
           budget, elapsed)
    assert worst <= 1e-6
    assert elapsed < budget
