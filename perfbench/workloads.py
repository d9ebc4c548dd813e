"""The benchmark's workloads: seeded inputs, the op each input drives,
its reference, and the check of an op's output against that reference.

Each workload is closed loop: one caller in one process issues op after
op from a fixed list of inputs made from the seed, cycling through the
list.  The library sees only the generated inputs.

An op output is a JSON-able structure in which a complex value is a
``[re, im]`` pair and a call that raised is ``["raised", <class name>]``.
References are computed by ``references`` in the parent process, never
inside a timed region.  ``check`` returns ``(ok, detail)``.
``known_defect`` marks the inputs in the Lambda ~ 0 class, whose
inaccuracy is an open library defect: their misses are counted on their
own (``known_defect_ops_frac``) and do not count as passing ops, but they
do not count as failed ops or make the run incorrect.
"""

import cmath
import math

import numpy as np

from tracer import VERIFY_SUITES

RAISED = "raised"


def _c(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _raised(exc: BaseException) -> list:
    return [RAISED, type(exc).__name__]


def _is_raised(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and value[0] == RAISED


# ---------------------------------------------------------------------------
# rank1-grid

# Both 2F1 branches: tanh^2 t <= 0.9 (power series) up to t ~ 1.82, the
# connection formula beyond.
T_GRID = (0.05, 0.2, 0.5, 0.9, 1.4, 1.8, 2.5, 3.0, 5.0, 8.0, 12.0, 20.0)
SERIES_T = tuple(t for t in T_GRID if t > 0.5)
# Relative tolerances against the 30-digit references.  phi and the series
# are measured against max(|ref|, |phi at Lambda = 0|): a real Lambda makes
# phi oscillate through zeros, while at Lambda ~ 0 the criterion is purely
# relative, so the known defect there is counted.
PHI_RTOL = 1e-10
C_RTOL = 1e-12
SMALL_LAMBDA = 1e-3
SMALL_MAGS = (1e-6, 1e-4)
CATALOG_SIZE = 15  # entries of sphfun/data/ktypes.json


class Rank1Grid:
    name = "rank1-grid"
    why = ("time in kernels, complexmath and rankone over all 15 catalog "
           "K-types; the t-grid spans both 2F1 branches and Lambda ~ 0 drives "
           "the degenerate one; no rootdata or quadrature")
    tail_percentile = 95.0

    def __init__(self, root):
        from sphfun import cfun, rankone as r1
        self.cfun, self.r1 = cfun, r1
        self.catalog = r1.load_ktype_catalog()

    @staticmethod
    def inputs(seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        out = []
        for entry in range(CATALOG_SIZE):
            lams = [complex(rng.uniform(0.05, 3.0), 0.0) for _ in range(3)]
            # complex values in the strip |Im Lambda| < rho (rho >= 1/2)
            lams += [complex(rng.uniform(0.05, 3.0),
                             0.45 * rng.uniform(-1.0, 1.0)) for _ in range(3)]
            # Lambda ~ 0: exactly 0, and seeded phases at |Lambda| = 1e-6
            # (inside the known defect) and 1e-4 (outside it)
            lams += [0j] + [mag * cmath.exp(1j * rng.uniform(-0.25, 0.25)
                                            * math.pi) for mag in SMALL_MAGS]
            out += [{"entry": entry, "lam": _c(lam)} for lam in lams]
        return out

    @staticmethod
    def kind(inp: dict):
        return inp["entry"]

    def op(self, inp: dict):
        r1, cfun = self.r1, self.cfun
        rec = self.catalog[inp["entry"]]
        sp, kt = rec["space"], rec["ktype"]
        lam = _z(inp["lam"])

        def call(fn, *args):
            try:
                return _c(fn(*args))
            except Exception as exc:  # recorded and judged by check()
                return _raised(exc)

        out = {"c": call(lambda: cfun.c_alpha(lam, sp.m_alpha,
                                              sp.m_2alpha).value),
               "phi": [call(r1.phi_tau, sp, kt, lam, t) for t in T_GRID],
               "csigma": call(r1.C_sigma_minus, sp, kt, lam)}
        if kt.s == 0 and kt.r == 0:
            out["series"] = [call(r1.hc_series_eval, sp, lam, t)
                             for t in SERIES_T]
        return out

    @staticmethod
    def known_defect(inp: dict) -> bool:
        return abs(_z(inp["lam"])) <= SMALL_LAMBDA

    @staticmethod
    def references(inputs: list[dict]) -> list:
        from sphfun import rankone as r1
        import mpmath as mp
        mp.mp.dps = 30
        catalog = r1.load_ktype_catalog()
        mag = {}
        refs = []
        for inp in inputs:
            rec = catalog[inp["entry"]]
            sp, kt = rec["space"], rec["ktype"]
            if inp["entry"] not in mag:
                mag[inp["entry"]] = [abs(_mp_phi(mp, sp, kt, mp.mpc(0), t))
                                     for t in T_GRID]
            lam = mp.mpc(*inp["lam"])
            c_plus = _mp_c(mp, sp, lam)
            c_minus = _mp_c(mp, sp, -lam)
            phi = [_mp_phi(mp, sp, kt, lam, t) for t in T_GRID]
            ref = {"mag": [float(m) for m in mag[inp["entry"]]],
                   "phi": [_c(complex(v)) for v in phi],
                   "c": None if c_plus is None else _c(complex(c_plus))}
            if c_plus is None:
                ref["csigma"] = None
            else:
                ref["csigma"] = _c(complex(
                    _mp_cdelta(mp, sp, kt, -lam) / _mp_cdelta(mp, sp, kt, lam)
                    * c_plus))
            if kt.s == 0 and kt.r == 0:
                # the series is c(L) Phi_L + c(-L) Phi_-L: a pole of either
                # c factor is a pole of the representation
                pole = c_plus is None or c_minus is None
                ref["series"] = None if pole else [
                    ref["phi"][T_GRID.index(t)] for t in SERIES_T]
            refs.append(ref)
        return refs

    @staticmethod
    def check(inp: dict, out, ref) -> tuple[bool, str]:
        bad = []

        def scalar(key, value, expect, tol, scale=None):
            if expect is None:  # reference is a pole of the formula
                if not (_is_raised(value) and "Pole" in value[1]):
                    bad.append(f"{key}: expected a pole, got {value}")
                return
            if _is_raised(value):
                bad.append(f"{key}: raised {value[1]}")
                return
            v, r = _z(value), _z(expect)
            err = abs(v - r) / max(abs(r), scale or 0.0, 1e-300)
            if not err <= tol:
                bad.append(f"{key}: rel err {err:.3e} > {tol:g}")

        scalar("c", out["c"], ref["c"], C_RTOL)
        scalar("csigma", out["csigma"], ref["csigma"], C_RTOL)
        for t, v, r, m in zip(T_GRID, out["phi"], ref["phi"], ref["mag"]):
            scalar(f"phi(t={t})", v, r, PHI_RTOL, m)
        if "series" in ref:
            mags = [ref["mag"][T_GRID.index(t)] for t in SERIES_T]
            refs = ref["series"] or [None] * len(SERIES_T)
            for t, v, r, m in zip(SERIES_T, out["series"], refs, mags):
                scalar(f"series(t={t})", v, r, PHI_RTOL, m)
        return not bad, "; ".join(bad[:3])


def _mp_c(mp, sp, lam):
    """c_alpha by the product formula with its calibration constant, or
    None at a pole of the numerator Gamma."""
    m, m2 = sp.m_alpha, sp.m_2alpha
    rho0 = mp.mpf(m) / 2 + m2

    def verbatim(w):
        return (mp.power(2, -(w - rho0)) * mp.gamma(mp.mpf(m + m2 + 1) / 2)
                * mp.gamma(w) / (mp.gamma((mp.mpf(m) / 2 + 1 + w) / 2)
                                 * mp.gamma((mp.mpf(m) / 2 + m2 + w) / 2)))

    w = 1j * lam
    k = min(0, int(mp.nint(w.real)))
    if abs(w - k) <= 1e-12:
        return None
    return verbatim(w) / verbatim(rho0)


def _mp_cdelta(mp, sp, kt, lam):
    rho = mp.mpf(sp.m_alpha) / 2 + sp.m_2alpha
    w = 1j * lam + rho
    m2 = sp.m_2alpha
    return (mp.gamma((w + kt.s + kt.r) / 2) / mp.gamma(w / 2)
            * mp.gamma((w + 1 - m2 + kt.s - kt.r) / 2)
            / mp.gamma((w + 1 - m2) / 2))


def _mp_phi(mp, sp, kt, lam, t):
    """The hypergeometric closed form of phi_tau at 30 digits."""
    rho = mp.mpf(sp.m_alpha) / 2 + sp.m_2alpha
    l = 1j * lam - rho
    a = (kt.s + kt.r - l) / 2
    b = (kt.s - kt.r - l + 1 - sp.m_2alpha) / 2
    c = kt.s + mp.mpf(sp.m_alpha + sp.m_2alpha + 1) / 2
    t = mp.mpf(t)
    th = mp.tanh(t)
    return (_mp_cdelta(mp, sp, kt, lam) * th ** kt.s
            * mp.exp(l * mp.log(mp.cosh(t))) * mp.hyp2f1(a, b, c, th ** 2))


# ---------------------------------------------------------------------------
# cli

CLI_DIR = ".bench_run/cli"
CLI_REL_TOL = 1e-12
# the A2 factor K-type table of the det-a suite: s = 1, 2, 3 on the
# hyperbolic plane, two K-types per factor of the word (1, 2, 1)
A2_TABLE_S = {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 3, (3, 1): 1,
              (3, 2): 3}
A2_DATUM_FILE = f"{CLI_DIR}/a2_datum.json"
A2_TABLE_FILE = f"{CLI_DIR}/a2_table.json"


def _pair(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


class Cli:
    name = "cli"
    why = ("sphfun.cli.main in process over 5 commands and the 9 verify "
           "suites: the only workload through cli, verify, rootdata, "
           "quadrature, models and higherrank; setup_s runs each once, cold")
    tail_percentile = 75.0

    def __init__(self, root):
        import json
        from sphfun import cli
        self.cli = cli
        for rel, doc in self.files().items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")

    def op(self, inp: dict):
        import contextlib
        import io
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(inp["argv"])
        return [code, out.getvalue()]

    @staticmethod
    def inputs(seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, 4])

        def cz(im_lo, im_hi):
            return complex(round(rng.uniform(0.3, 2.5), 6),
                           round(rng.uniform(im_lo, im_hi), 6))

        space = ("h2", "hn:3", "hn:4")[int(rng.integers(3))]
        lam = cz(-0.4, 0.4)
        b2 = [cz(-1.0, -0.1), cz(-1.0, -0.1)]
        a2 = [cz(-1.0, -0.1), cz(-1.0, -0.1)]
        a2_det = [cz(-1.0, -0.1), cz(-1.0, -0.1)]
        lo = round(rng.uniform(0.0, 1.0), 6)
        im = round(rng.uniform(-0.5, 0.5), 6)
        vec = ";".join
        ops = [
            {"cmd": "phi-eval", "space": space, "lam": _c(lam),
             "argv": ["phi-eval", "--space", space, "--lambda", _pair(lam),
                      "--t-grid", "0.5:3:6", "--methods", "closed,series"]},
            {"cmd": "c-eval", "lam": [_c(z) for z in b2],
             "argv": ["c-eval", "--space", "b2", "--lambda", _pair(b2[0]),
                      "--lambda-vec", vec(_pair(z) for z in b2)]},
            {"cmd": "csigma-eval", "lam": [_c(z) for z in a2],
             "argv": ["csigma-eval", "--space", "a2", "--word", "1,2,1",
                      "--lambda", _pair(a2[0]),
                      "--lambda-vec", vec(_pair(z) for z in a2)]},
            {"cmd": "det-a", "lam": [_c(z) for z in a2_det],
             "argv": ["det-a", "--datum", A2_DATUM_FILE, "--table",
                      A2_TABLE_FILE, "--lambda", _pair(a2_det[0]),
                      "--lambda-vec", vec(_pair(z) for z in a2_det)]},
            {"cmd": "simple-check", "lo": lo, "im": im,
             "argv": ["simple-check", "--datum", A2_DATUM_FILE,
                      "--lambda-grid", f"{lo!r}:{lo + 2.0!r}:5",
                      "--im", repr(im)]},
        ]
        ops += [{"cmd": "verify", "suite": s,
                 "argv": ["verify", "--suite", s]} for s in VERIFY_SUITES]
        return ops

    @staticmethod
    def files() -> dict[str, object]:
        """The datum and factor-table documents the CLI ops read."""
        s3 = math.sqrt(3.0) / 2.0
        datum = {"rank": 2, "simple_roots": [[1.0, 0.0], [-0.5, s3]],
                 "positive_indivisible_roots": [[1.0, 0.0], [-0.5, s3],
                                                [0.5, s3]],
                 "multiplicities": [{"root_index": i, "m_alpha": 1,
                                     "m_2alpha": 0} for i in range(3)]}
        entries = [{"j": j, "i": i, "m_alpha": 1, "m_2alpha": 0,
                    "d_alpha": -float(s * s), "d_2alpha": 0.0, "r": 0, "s": s}
                   for (j, i), s in sorted(A2_TABLE_S.items())]
        return {A2_DATUM_FILE: datum,
                A2_TABLE_FILE: {"word": [1, 2, 1], "entries": entries}}

    @staticmethod
    def kind(inp: dict):
        return inp["cmd"], inp.get("suite")

    @staticmethod
    def known_defect(inp: dict) -> bool:
        return False

    @staticmethod
    def references(inputs: list[dict]) -> list:
        """Expected exit code and rows, from the library in process."""
        from sphfun import cfun, higherrank as hr, rankone as r1
        from sphfun import rootdata as rd, verify as vf
        docs = Cli.files()
        a2 = rd.datum_from_dict(docs[A2_DATUM_FILE])
        table = hr.table_from_dict(docs[A2_TABLE_FILE])
        refs = []
        for inp in inputs:
            cmd = inp["cmd"]
            code = 0
            if cmd == "phi-eval":
                n = 2 if inp["space"] == "h2" else int(inp["space"][3:])
                sp = r1.RankOneSpace(n - 1, 0)
                lam = _z(inp["lam"])
                rows = []
                for k in range(6):
                    t = 0.5 + k * ((3.0 - 0.5) / 5)
                    closed = r1.phi_tau(sp, r1.TRIVIAL_KTYPE, lam, t)
                    series = r1.hc_series_eval(sp, lam, t, 40)
                    rows.append({"t": t, "phi_closed_re": closed.real,
                                 "phi_closed_im": closed.imag,
                                 "phi_series_re": series.real,
                                 "phi_series_im": series.imag})
            elif cmd in ("c-eval", "csigma-eval", "det-a"):
                vec = rd.SpectralParam.of([_z(p) for p in inp["lam"]])
                if cmd == "c-eval":
                    v = cfun.c_full(rd.datum_b2(), vec).value
                    rows = [{"c_re": v.real, "c_im": v.imag}]
                elif cmd == "csigma-eval":
                    v = cfun.c_sigma(rd.datum_a2(), rd.WeylElement.of(1, 2, 1),
                                     vec).value
                    rows = [{"c_re": v.real, "c_im": v.imag}]
                else:
                    v = hr.det_A(a2, rd.WeylElement(table.word), vec, table)
                    rows = [{"det_re": v.real, "det_im": v.imag}]
            elif cmd == "simple-check":
                rows = []
                lo = inp["lo"]
                step = ((lo + 2.0) - lo) / 4
                for k in range(5):
                    lam = complex(lo + k * step, inp["im"])
                    param = rd.SpectralParam.of([lam, 0j])
                    rows.append({"lambda_re": lam.real,
                                 "simple": cfun.is_simple(a2, param)})
            else:
                rows = []
                for row in vf.run_suites([inp["suite"]]):
                    rows.append({k: row[k] for k in (
                        "closed_re", "closed_im", "quad_re", "quad_im",
                        "passed")})
                code = 0 if all(r["passed"] for r in rows) else 1
            refs.append({"code": code, "rows": rows})
        return refs

    @staticmethod
    def check(inp: dict, out, ref) -> tuple[bool, str]:
        import csv
        import io
        code, stdout = out
        if code != ref["code"]:
            return False, f"{inp['cmd']} exit code {code} != {ref['code']}"
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != len(ref["rows"]):
            return False, (f"{inp['cmd']} printed {len(rows)} rows, "
                           f"expected {len(ref['rows'])}")
        for got, want in zip(rows, ref["rows"]):
            for key, expect in want.items():
                text = got.get(key)
                if isinstance(expect, bool):
                    good = text == ("true" if expect else "false")
                else:
                    try:
                        value = float(text)
                    except (TypeError, ValueError):
                        good = False
                    else:
                        good = abs(value - expect) <= \
                            CLI_REL_TOL * max(abs(expect), 1e-300)
                if not good:
                    return False, (f"{inp['cmd']} column {key}: {text!r} vs "
                                   f"{expect!r}")
        return True, ""


WORKLOADS = {cls.name: cls for cls in (Rank1Grid, Cli)}
