"""Named verification suites: every closed form against its independent
integral oracle, at fixed tolerances.

Each suite returns a list of row dicts with a shared column layout, and
the CLI `verify` command renders them and sets the exit status.  A
suite's signature lists the keywords of `run_suites` it reads (spec,
space, ktype, catalog), and it is passed only those.  Most suites call
a check function (check_*) on fixed samples small enough to run in
seconds; the acceptance battery in the tests runs the same checks on
its own samples.
"""

import inspect
import itertools
import math

import numpy as np

from . import cfun, higherrank as hr, models as md, rankone as r1
from . import rootdata as rd
from .models import OracleReport
from .quadrature import DEFAULT_SPEC, QuadratureSpec

SUITES = {}
# the keywords each suite reads, taken from its signature when registered
SUITE_OPTIONS = {}
# suites that read only the multiplicities of a --space selector, so they
# also run on rank-one spaces that are not real hyperbolic spaces
RANK_ONE_SUITES = frozenset({"asymptotic", "hs-norm"})
H2 = r1.RankOneSpace(1, 0)


def _register(name):
    def deco(fn):
        SUITES[name] = fn
        SUITE_OPTIONS[name] = frozenset(inspect.signature(fn).parameters)
        return fn
    return deco


def _row(suite: str, case: str, report: OracleReport, tol: float) -> dict:
    return {
        "suite": suite,
        "case": case,
        "closed_re": report.closed_form.real,
        "closed_im": report.closed_form.imag,
        "quad_re": report.quadrature.real,
        "quad_im": report.quadrature.imag,
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "nodes": report.nodes_used,
        "tol": tol,
        "passed": report.rel_err <= tol,
    }


def _lambda_samples(count: int, seed: int = 11,
                    im_range=(-1.2, -0.2)) -> list[complex]:
    rng = np.random.default_rng(seed)
    re = rng.uniform(0.3, 2.5, count)
    im = rng.uniform(*im_range, count)
    return [complex(a, b) for a, b in zip(re, im)]


def _spaces_for(selector) -> list[tuple[int, r1.RankOneSpace]]:
    if selector is None:
        return [(2, H2), (3, r1.RankOneSpace(2, 0)),
                (4, r1.RankOneSpace(3, 0))]
    n, space = selector
    return [(n, space)]


def _sl2_char_ktype(char_n: int, catalog) -> r1.KTypeRankOne:
    """K-type for an even circle character, from the catalog file when
    one is supplied (so catalog errors surface against the integral
    oracles), else from the built-in mapping."""
    if catalog is None:
        return r1.sl2_ktype_for_char(char_n)
    records = r1.load_ktype_catalog(catalog)
    name = "trivial" if char_n == 0 else f"s{char_n // 2}r0"
    return r1.catalog_lookup(records, name, H2)


def check_c_vs_integral(spaces, lams, spec=DEFAULT_SPEC) -> list[dict]:
    """Product formula against the opposite-unipotent integral, on each
    (n, space) of spaces at each Lam of lams."""
    rows = []
    for n, sp in spaces:
        quads = md.quad_c_Nbar(n, lams, spec)
        for lam, quad in zip(lams, quads):
            closed = cfun.c_alpha(lam, sp.m_alpha, sp.m_2alpha).value
            rows.append(_row("c-vs-integral", f"n={n} lam={lam:.4g}",
                             OracleReport.build(closed, quad, 0), 1e-6))
    return rows


@_register("c-vs-integral")
def suite_c_vs_integral(spec: QuadratureSpec = DEFAULT_SPEC,
                        space=None) -> list[dict]:
    return check_c_vs_integral(_spaces_for(space), _lambda_samples(8), spec)


def check_phi_vs_integral(spaces, lams, spec=DEFAULT_SPEC) -> list[dict]:
    """Zonal closed form against the boundary integral, on each (n, space)
    of spaces at each Lam of lams and t = 0, 0.5, 1, 2, 3."""
    rows = []
    ts = (0.0, 0.5, 1.0, 2.0, 3.0)
    for n, sp in spaces:
        # one batch per space: a row of quads per Lam
        quads = md.quad_phi_K(n, np.array(lams, dtype=complex)[:, None], ts,
                              spec)
        for lam, quads_at in zip(lams, quads):
            for t, quad in zip(ts, quads_at):
                closed = r1.phi_tau(sp, r1.TRIVIAL_KTYPE, lam, t)
                row = _row("phi-vs-integral", f"n={n} lam={lam:.4g} t={t}",
                           OracleReport.build(closed, quad, 0), 1e-8)
                row["passed"] = row["abs_err"] <= 1e-8
                rows.append(row)
    return rows


@_register("phi-vs-integral")
def suite_phi_vs_integral(spec: QuadratureSpec = DEFAULT_SPEC,
                          space=None) -> list[dict]:
    lams = _lambda_samples(5, seed=5, im_range=(-0.6, 0.6))
    return check_phi_vs_integral(_spaces_for(space), lams, spec)


def check_functional_equation(n, lams, entry_lams,
                              spec=DEFAULT_SPEC) -> list[dict]:
    """Zonal functional equation on the n-ball at each Lam of lams, then
    the character-entry variant on H2 at each Lam of entry_lams."""
    rows = []
    ts = ((0.0, 1.0), (1.0, 1.0), (0.5, 2.0))
    # every (Lam, t1, t2) case in one batch, Lam-major
    reps = md.functional_equation_check(
        n, np.array(lams, dtype=complex)[:, None], *np.transpose(ts), spec)
    for (lam, (t1, t2)), rep in zip(itertools.product(lams, ts), reps):
        rows.append(_row("functional-equation",
                         f"n={n} lam={lam:.4g} t=({t1},{t2})", rep, 1e-6))
    reps = md.functional_equation_entry_sl2(2, entry_lams, 1.0, 1.0, spec)
    for lam, rep in zip(entry_lams, reps):
        rows.append(_row("functional-equation",
                         f"entry char=2 lam={lam:.4g}", rep, 1e-6))
    return rows


@_register("functional-equation")
def suite_functional_equation(spec: QuadratureSpec = DEFAULT_SPEC,
                              space=None) -> list[dict]:
    n = space[0] if space else 2
    entry_lams = _lambda_samples(2, seed=29, im_range=(-0.4, 0.4))
    return check_functional_equation(
        n, _lambda_samples(3, seed=23, im_range=(-0.4, 0.4)),
        entry_lams if n == 2 else [], spec)


@_register("eisenstein")
def suite_eisenstein(spec: QuadratureSpec = DEFAULT_SPEC,
                     catalog=None) -> list[dict]:
    """Eisenstein-entry quadrature is proportional to the closed form
    with a t-independent constant (1/s! in this normalization)."""
    rows = []
    ts = (0.5, 1.0, 2.0)
    lams = _lambda_samples(3, seed=31, im_range=(-0.5, 0.5))
    for char_n in (2, 4):
        kt = _sl2_char_ktype(char_n, catalog)
        # one batch per character: a row of quads per Lam
        quads = md.quad_eisenstein_sl2(
            char_n, np.array(lams, dtype=complex)[:, None], ts, spec)
        for lam, quads_at in zip(lams, quads):
            ratios = [complex(quad) / r1.phi_tau(H2, kt, lam, t)
                      for t, quad in zip(ts, quads_at)]
            expected = 1.0 / math.factorial(kt.s)
            spread = max(abs(rt - ratios[0]) for rt in ratios)
            rep = OracleReport.build(expected + 0j, ratios[0], 0)
            row = _row("eisenstein",
                       f"char={char_n} lam={lam:.4g} ratio-spread"
                       f"={spread:.2e}", rep, 1e-6)
            row["passed"] = row["passed"] and spread <= 1e-6
            rows.append(row)
    return rows


@_register("asymptotic")
def suite_asymptotic(space=None, ktype=None) -> list[dict]:
    """Large-t limit of the normalized K-type function.  The remainder is
    |B/A| (sech^2 t)^{|Im lam|} (2F1 connection coefficients at z = 1),
    so the 1e-5 bound is asserted, with monotone decay from t = 10, at
    the far time that rate allows: t = 24 at margin 0.3, t = 18 at 0.8."""
    rows = []
    if space is None:
        sp3 = r1.RankOneSpace(2, 0)
        cases = [(H2, r1.ktype_from_rs(H2, 0, 2)),
                 (sp3, r1.ktype_from_rs(sp3, 0, 1))]
    else:
        sp = space[1]
        kt = ktype if ktype is not None else r1.TRIVIAL_KTYPE
        cases = [(sp, kt)]
    for sp, kt in cases:
        for eta, t_far in ((0.3, 24.0), (0.8, 18.0)):
            lam = 0.5 - 1j * eta
            target = r1.limit_large_t_target(sp, kt, lam)
            v_far, v10 = (r1.limit_large_t(sp, kt, lam, t)
                          for t in (t_far, 10.0))
            e_far = abs(v_far - target) / abs(target)
            e10 = abs(v10 - target) / abs(target)
            rep = OracleReport.build(target, v_far, 0)
            row = _row("asymptotic",
                       f"m=({sp.m_alpha},{sp.m_2alpha}) s={kt.s} "
                       f"eta={eta} t={t_far:g} err10={e10:.2e}", rep, 1e-5)
            row["passed"] = e10 > e_far and e_far <= 1e-5
            rows.append(row)
    return rows


def check_csigma(lams, spec=DEFAULT_SPEC, catalog=None) -> list[dict]:
    """Scalar second coefficient against its unipotent integral, for the
    circle characters 0, 2, 4 at each Lam of lams."""
    rows = []
    for char_n in (0, 2, 4):
        kt = _sl2_char_ktype(char_n, catalog)
        quads = md.quad_Csigma_sl2(char_n, lams, spec)
        for lam, quad in zip(lams, quads):
            closed = r1.C_sigma_minus(H2, kt, lam)
            rows.append(_row("csigma", f"char={char_n} lam={lam:.4g}",
                             OracleReport.build(closed, quad, 0), 1e-6))
    return rows


@_register("csigma")
def suite_csigma(spec: QuadratureSpec = DEFAULT_SPEC,
                 catalog=None) -> list[dict]:
    return check_csigma(_lambda_samples(4, seed=37), spec, catalog)


def _weyl_lambda(rng) -> rd.SpectralParam:
    """A rank-two Lam with Re in [0.2, 2) and -Im in [0.1, 1)."""
    return rd.SpectralParam.of(rng.uniform(0.2, 2.0, 2)
                               - 1j * rng.uniform(0.1, 1.0, 2))


def check_cocycle(samples) -> list[dict]:
    """Per (name, datum, pair_lams, longest_lams) of samples: one row for
    partial c multiplicativity over length-additive pairs at pair_lams,
    then one per Lam of longest_lams for c_sigma(w0) against c_full."""
    rows = []
    for name, datum, pair_lams, longest_lams in samples:
        elements = rd.enumerate_weyl(datum)
        pairs = []
        for u in elements:
            for v in elements:
                uv = rd.WeylElement(u.word + v.word)
                if len(u.word) and len(v.word) and rd.is_reduced(datum, uv):
                    pairs.append((u, v, uv))
        worst = 0.0
        rights = list(dict.fromkeys(v for _, v, _ in pairs))
        for lam in pair_lams:
            # one factor record for lam and one per v(lam), v a right
            # factor, so each (parameter, root) factor is evaluated once
            at_lam = cfun.FactorRecord(datum, lam)
            at = {v: (cfun.FactorRecord(datum, rd.weyl_apply(datum, v, lam)),
                      at_lam.partial(v)) for v in rights}
            for u, v, uv in pairs:
                at_v_lam, c_v = at[v]
                lhs = at_lam.partial(uv)
                rhs = at_v_lam.partial(u) * c_v
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
        # abs/rel_err carry the worst defect exactly; 1 + worst rounds it
        rep = OracleReport(1.0 + 0j, 1.0 + worst + 0j, worst, worst, 0)
        rows.append(_row("cocycle", f"{name} pairs={len(pairs)}", rep,
                         1e-10))
        w0 = rd.longest_element(datum)
        for lam in longest_lams:
            at_lam = cfun.FactorRecord(datum, lam)
            rep = OracleReport.build(at_lam.product(range(datum.n_positive)),
                                     at_lam.partial(w0), 0)
            rows.append(_row("cocycle", f"{name} longest=full", rep, 1e-13))
    return rows


def _cocycle_samples() -> list[tuple]:
    """The cocycle suite's fixed samples: per datum, ten Lam for the pairs
    and one for the longest element."""
    rng = np.random.default_rng(41)
    return [(name, datum, [_weyl_lambda(rng) for _ in range(10)],
             [_weyl_lambda(rng)])
            for name, datum in (("a2", rd.datum_a2()), ("b2", rd.datum_b2()))]


@_register("cocycle")
def suite_cocycle() -> list[dict]:
    return check_cocycle(_cocycle_samples())


def check_det_a(rank_one_lams, a2_lams, a2_table) -> list[dict]:
    """Determinant formula: the rank-one reduction to C_sigma at each Lam
    of rank_one_lams (case "rank-one ..."), then the two-path check of
    a2_table over the longest A2 element at each Lam of a2_lams."""
    rows = []
    h2_datum = rd.datum_a1(1, 0)
    kt = r1.ktype_from_rs(H2, 0, 2)
    table1 = hr.FactorKTypeTable((1,), 1, {(1, 1): kt})
    for lam in rank_one_lams:
        det = hr.det_A(h2_datum, rd.WeylElement.of(1),
                       rd.SpectralParam.of([lam]), table1)
        rep = OracleReport.build(r1.C_sigma_minus(H2, kt, lam), det, 0)
        rows.append(_row("det-a", f"rank-one lam={lam:.4g}", rep, 1e-12))
    a2 = rd.datum_a2()
    w0 = rd.longest_element(a2)
    for lam in a2_lams:
        d1 = hr.det_A(a2, w0, lam, a2_table)
        d2 = hr.det_A_by_factors(a2, w0, lam, a2_table)
        rows.append(_row("det-a", "a2 two-path",
                         OracleReport.build(d1, d2, 0), 1e-10))
    return rows


@_register("det-a")
def suite_det_a() -> list[dict]:
    rng = np.random.default_rng(43)
    rank_one_lams = [complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
                     for _ in range(5)]
    a2_lams = [_weyl_lambda(rng) for _ in range(5)]
    kts = [r1.ktype_from_rs(H2, 0, s) for s in (1, 2, 3)]
    table = hr.FactorKTypeTable((1, 2, 1), 2, {
        (1, 1): kts[0], (1, 2): kts[1], (2, 1): kts[1], (2, 2): kts[2],
        (3, 1): kts[0], (3, 2): kts[2]})
    return check_det_a(rank_one_lams, a2_lams, table)


def check_hs_norm(samples) -> list[dict]:
    """Hilbert-Schmidt norm identity at each (space, s, Lam) of samples,
    Lam real, for the K-type (r, s) = (0, s)."""
    rows = []
    for sp, s, lam in samples:
        rep = hr.hs_norm_check(sp, r1.ktype_from_rs(sp, 0, s), lam)
        rows.append(_row(
            "hs-norm", f"m=({sp.m_alpha},{sp.m_2alpha}) s={s} lam={lam:.3f}",
            rep, 1e-8))
    return rows


@_register("hs-norm")
def suite_hs_norm(space=None) -> list[dict]:
    rng = np.random.default_rng(47)
    spaces = [space[1]] if space else [H2, r1.RankOneSpace(4, 0)]
    return check_hs_norm([(sp, s, float(rng.uniform(0.3, 3.0)))
                          for sp in spaces for s in (1, 2) for _ in range(5)])


# suites that read a --ktype; the others run fixed K-type tables
KTYPE_SUITES = frozenset(name for name, options in SUITE_OPTIONS.items()
                         if "ktype" in options)


def suite_names(names) -> list[str]:
    """The suites to run: every suite for ["all"], else names, which
    must all be registered (KeyError otherwise)."""
    if names == ["all"]:
        return list(SUITES)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; available: "
                           f"{', '.join(sorted(SUITES))}, all")
    return list(names)


def run_suites(names, spec: QuadratureSpec = DEFAULT_SPEC, space=None,
               ktype=None, catalog=None) -> list[dict]:
    given = {"spec": spec, "space": space, "ktype": ktype,
             "catalog": catalog}
    rows = []
    for name in suite_names(names):
        rows.extend(SUITES[name](**{key: value
                                    for key, value in given.items()
                                    if key in SUITE_OPTIONS[name]}))
    return rows
