"""Command-line front end.

Subcommands: c-eval, csigma-eval, phi-eval, simple-check, verify, det-a,
limits.  Complex numbers are `re,im` pairs, grids are `start:stop:count`,
spaces are `h2 | hn:<n> | rankone:<m_alpha>,<m_2alpha> | <datum.json>`
(`ranke1:` is accepted as an alias of `rankone:`).  Output is CSV or JSON
with identical field names; identical configuration produces
byte-identical output.  Exit codes: 0 success, 1 evaluation/verification
failure, 2 usage/configuration error.  The COMMANDS table declares the
options of each subcommand and when it reads each one; a given option
that the command would not read is a usage error.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys

from . import cfun, higherrank as hr, models as md, rankone as r1
from . import rootdata as rd
from . import verify as vf
from .complexmath import HypConvergenceError, HypDomainError, PoleError
from .quadrature import DEFAULT_SPEC, QuadratureSpec, ToleranceNotMetError

EXIT_OK = 0
EXIT_EVAL = 1
EXIT_USAGE = 2

EVAL_ERRORS = (PoleError, cfun.CPoleError, HypDomainError,
               HypConvergenceError, ToleranceNotMetError,
               md.DivergentIntegralError, r1.ResonanceError,
               r1.SmallDenominatorError, ZeroDivisionError, OverflowError)


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"cannot parse complex number {text!r}; use re,im")


def parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid {text!r} must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    if count < 1:
        raise UsageError("grid count must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


class Space:
    """Resolved space selector: a root datum, plus rank-one data and the
    ball-model dimension when applicable."""

    def __init__(self, datum, rankone_space, ball_n):
        self.datum = datum
        self.rankone = rankone_space
        self.ball_n = ball_n


def resolve_space(args) -> Space:
    """The space that --space or --datum (exactly one is given) selects."""
    return parse_space(args.space if args.space is not None else args.datum)


def parse_space(text: str) -> Space:
    low = text.lower()
    if low == "h2":
        return Space(rd.datum_a1(1, 0), r1.RankOneSpace(1, 0), 2)
    if low.startswith("hn:"):
        try:
            n = int(low.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad dimension in {text!r}") from None
        if n < 2:
            raise UsageError("hyperbolic dimension must be >= 2")
        return Space(rd.datum_a1(n - 1, 0), r1.RankOneSpace(n - 1, 0), n)
    if low.startswith(("rankone:", "ranke1:")):
        body = low.split(":", 1)[1]
        try:
            m, m2 = (int(x) for x in body.split(","))
        except ValueError:
            raise UsageError(
                f"bad multiplicities in {text!r}; use rankone:m,m2"
            ) from None
        ball_n = m + 1 if m2 == 0 else None
        return Space(rd.datum_a1(m, m2), r1.RankOneSpace(m, m2), ball_n)
    if low in ("a2", "b2", "a1xa1"):
        return Space(rd.datum_by_name(low), None, None)
    if os.path.exists(text):
        datum = rd.datum_from_json(text)
        rank1 = None
        if datum.rank == 1 and datum.n_positive == 1:
            m, m2 = datum.mult_of(0)
            rank1 = r1.RankOneSpace(m, m2)
        return Space(datum, rank1, None)
    raise UsageError(f"unknown space selector {text!r}")


def lambda_values(args) -> list[complex]:
    if args.lam is not None:
        return [parse_complex(args.lam)]
    return [complex(x, args.im) for x in parse_grid(args.lambda_grid)]


def spectral_param(args, datum: rd.RootDatum,
                   lam: complex) -> rd.SpectralParam:
    """The spectral parameter: --lambda-vec, one re,im component per
    rank, or else (lam, 0, ..., 0)."""
    if not args.lambda_vec:
        return rd.SpectralParam.of([lam] + [0j] * (datum.rank - 1))
    vec = [parse_complex(p) for p in args.lambda_vec.split(";")]
    if len(vec) != datum.rank:
        raise UsageError(f"--lambda-vec has {len(vec)} components; the "
                         f"datum has rank {datum.rank}")
    return rd.SpectralParam.of(vec)


def t_values(args) -> list[float]:
    """The times of --t or --t-grid, each finite and >= 0."""
    ts = [args.t] if args.t is not None else parse_grid(args.t_grid)
    for t in ts:
        if not math.isfinite(t):
            raise UsageError(f"t must be finite, got {t}")
        if t < 0:
            raise UsageError("t must be >= 0")
    return ts


def phi_methods(args) -> list[str]:
    """The --methods list of phi-eval: closed, series and quadrature."""
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods names no method")
    for m in methods:
        if m not in ("closed", "series", "quadrature"):
            raise UsageError(f"unknown method {m!r}")
    return methods


def quad_spec(args) -> QuadratureSpec:
    kw = {}
    if args.abs_tol is not None:
        kw["abs_tol"] = args.abs_tol
    if args.rel_tol is not None:
        kw["rel_tol"] = args.rel_tol
    return QuadratureSpec(**kw) if kw else DEFAULT_SPEC


def resolve_ktype(args, space: Space) -> r1.KTypeRankOne:
    name = args.ktype
    if space.rankone is None:
        raise UsageError("K-types require a rank-one space")
    if not name:
        return r1.TRIVIAL_KTYPE
    if name.startswith("d:"):
        try:
            d_a, d_2a = (float(x) for x in name[2:].split(","))
        except ValueError:
            raise UsageError(
                f"bad explicit K-type {name!r}; use d:<d_alpha>,<d_2alpha>"
            ) from None
        return r1.ktype_from_ds(space.rankone, d_a, d_2a)
    records = r1.load_ktype_catalog(args.catalog)
    try:
        return r1.catalog_lookup(records, name, space.rankone)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit(rows: list[dict], args) -> None:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    def json_value(v):
        return _fmt(v) if isinstance(v, float) else v

    if not rows:
        out = ""
    elif args.format == "json":
        payload = [{k: json_value(v) for k, v in row.items()}
                   for row in rows]
        out = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])
        out = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _emit_c_values(args, fn) -> int:
    """Emit a row of fn(lam) for each lam of --lambda or --lambda-grid."""
    rows = []
    ok = True
    for lam in lambda_values(args):
        row = {"lambda_re": lam.real, "lambda_im": lam.imag}
        try:
            value = fn(lam)
        except EVAL_ERRORS as exc:
            pole = isinstance(exc, (PoleError, cfun.CPoleError))
            row.update(c_re="", c_im="", pole_flag=pole, error=str(exc))
            ok = False
        else:
            row.update(c_re=value.real, c_im=value.imag, pole_flag=False,
                       error="")
        rows.append(row)
    emit(rows, args)
    return EXIT_OK if ok else EXIT_EVAL


def cmd_c_eval(args) -> int:
    space = resolve_space(args)

    def evaluate(lam: complex) -> complex:
        param = spectral_param(args, space.datum, lam)
        if space.datum.rank == 1:
            m, m2 = space.datum.mult_of(0)
            return cfun.c_alpha(param.coords[0], m, m2).value
        return cfun.c_full(space.datum, param).value
    return _emit_c_values(args, evaluate)


def cmd_csigma_eval(args) -> int:
    space = resolve_space(args)
    if args.word is not None:
        word = rd.WeylElement(tuple(int(x) for x in args.word.split(",")))
        datum = space.datum

        def evaluate(lam: complex) -> complex:
            return cfun.c_sigma(datum, word,
                                spectral_param(args, datum, lam)).value
    else:
        if space.rankone is None:
            raise UsageError("csigma-eval without --word needs a rank-one "
                             "space and --ktype")
        kt = resolve_ktype(args, space)

        def evaluate(lam: complex) -> complex:
            return r1.C_sigma_minus(space.rankone, kt, lam)
    return _emit_c_values(args, evaluate)


def _attempt(fn):
    """fn(), or the evaluation error it raised in place of its value."""
    try:
        return fn()
    except EVAL_ERRORS as exc:
        return exc


def _per_t(fn, ts: list[float]) -> list:
    """fn at every t of ts in one call (a quadrature oracle integrates the
    grid as one batch): a value per t, or, when that call raises, each t
    on its own, with its error in place of its value."""
    try:
        return [complex(v) for v in fn(ts)]
    except EVAL_ERRORS:
        return [_attempt(lambda: complex(fn(t))) for t in ts]


def _value(got):
    """A value from _attempt or _per_t, raising the error stored in its
    place."""
    if isinstance(got, Exception):
        raise got
    return got


def cmd_phi_eval(args) -> int:
    space = resolve_space(args)
    if space.rankone is None:
        raise UsageError("phi-eval needs a rank-one space")
    kt = resolve_ktype(args, space)
    methods = phi_methods(args)
    if "quadrature" in methods:
        if space.ball_n is None:
            raise UsageError("quadrature method needs a hyperbolic-space "
                             "selector (h2 or hn:<n>)")
        if kt.s != 0 and space.ball_n != 2:
            raise UsageError("nontrivial K-type quadrature is available "
                             "on h2 only")
    if "series" in methods and kt.s != 0:
        raise UsageError("--methods series needs a K-type with s = 0")
    spec = quad_spec(args)
    rows = []
    ok = True
    for lam in lambda_values(args):
        ts = t_values(args)
        # per method, in evaluation order: a value or an error per t
        results = {}
        if "closed" in methods:
            results["closed"] = [_attempt(
                lambda: r1.phi_tau(space.rankone, kt, lam, t)) for t in ts]
        if "series" in methods:
            results["series"] = [_attempt(
                lambda: r1.hc_series_eval(space.rankone, lam, t,
                                          args.series_n))
                if t > 0 else None for t in ts]
        if "quadrature" in methods:
            if kt.s == 0:
                results["quadrature"] = _per_t(
                    lambda x: md.quad_phi_K(space.ball_n, lam, x, spec), ts)
            else:
                results["quadrature"] = _per_t(
                    lambda x: md.quad_eisenstein_sl2(2 * kt.s, lam, x, spec),
                    ts)
        for i, t in enumerate(ts):
            row = {"t": t, "lambda_re": lam.real, "lambda_im": lam.imag}
            values = {}
            # a method that raises leaves its error, not the others' values
            errors = []
            for name, per_t in results.items():
                if per_t[i] is None:
                    continue
                try:
                    values[name] = _value(per_t[i])
                    if name == "series":
                        # the cached coefficients hc_series_eval used
                        gammas = r1.hc_series_gammas(space.rankone, lam,
                                                     args.series_n)
                        row["series_tail_estimate"] = \
                            r1.series_tail_estimate(gammas, t)
                except EVAL_ERRORS as exc:
                    values.pop(name, None)
                    errors.append(f"{name}: {exc}")
                    ok = False
            row["error"] = "; ".join(errors)
            for name in ("closed", "series", "quadrature"):
                if name in values:
                    row[f"phi_{name}_re"] = values[name].real
                    row[f"phi_{name}_im"] = values[name].imag
            present = list(values.values())
            if len(present) > 1:
                errs = [abs(a - b) for i, a in enumerate(present)
                        for b in present[i + 1:]]
                row["max_pairwise_err"] = max(errs)
            rows.append(row)
    emit(rows, args)
    return EXIT_OK if ok else EXIT_EVAL


def cmd_simple_check(args) -> int:
    space = resolve_space(args)
    rows = []
    for lam in lambda_values(args):
        param = spectral_param(args, space.datum, lam)
        rows.append({
            "lambda_re": lam.real,
            "lambda_im": lam.imag,
            "simple": cfun.is_simple(space.datum, param, args.tol),
        })
    emit(rows, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = vf.suite_names([args.suite])
    spec = quad_spec(args)
    space = ktype = None
    if args.space is not None:
        sp = parse_space(args.space)
        if sp.rankone is None or (sp.ball_n is None and
                                  args.suite not in vf.RANK_ONE_SUITES):
            raise UsageError("verify suites run on hyperbolic-space "
                             "selectors (h2, hn:<n>); rankone:<m>,<m2> "
                             "only with %s" % ", ".join(
                                 sorted(vf.RANK_ONE_SUITES)))
        space = (sp.ball_n, sp.rankone)
        if args.ktype:
            ktype = resolve_ktype(args, sp)
    try:
        rows = vf.run_suites(names, spec=spec, space=space, ktype=ktype,
                             catalog=args.catalog)
    except EVAL_ERRORS as exc:
        sys.stderr.write(f"verification aborted: {exc}\n")
        return EXIT_EVAL
    emit(rows, args)
    failed = [row for row in rows if not row["passed"]]
    if failed:
        sys.stderr.write(f"{len(failed)} of {len(rows)} checks failed\n")
        return EXIT_EVAL
    return EXIT_OK


def cmd_det_a(args) -> int:
    space = resolve_space(args)
    table = hr.table_from_json(args.table)
    word = rd.WeylElement(table.word)
    rows = []
    ok = True
    for lam in lambda_values(args):
        param = spectral_param(args, space.datum, lam)
        base = {"lambda_re": lam.real, "lambda_im": lam.imag,
                "word": " ".join(str(x) for x in word.word)}
        try:
            det = hr.det_A(space.datum, word, param, table)
            base.update(det_re=det.real, det_im=det.imag, error="")
        except (EVAL_ERRORS + (ValueError,)) as exc:
            base.update(det_re="", det_im="", error=str(exc))
            ok = False
        rows.append(base)
    emit(rows, args)
    return EXIT_OK if ok else EXIT_EVAL


def cmd_limits(args) -> int:
    space = resolve_space(args)
    if space.rankone is None:
        raise UsageError("limits needs a rank-one space")
    kt = resolve_ktype(args, space)
    rows = []
    ok = True
    for lam in lambda_values(args):
        # a pole here is an error on each row of this lam
        target = _attempt(
            lambda: r1.limit_large_t_target(space.rankone, kt, lam))
        small_target = _attempt(
            lambda: r1.small_t_target(space.rankone, kt, lam))
        for t in t_values(args):
            row = {"t": t, "lambda_re": lam.real, "lambda_im": lam.imag}
            try:
                big = r1.limit_large_t(space.rankone, kt, lam, t)
                row["large_t_re"] = big.real
                row["large_t_im"] = big.imag
                row["large_t_rel_err"] = (abs(big - _value(target))
                                          / abs(target))
                if t > 0:
                    ratio = r1.small_t_ratio(space.rankone, kt, lam, t)
                    row["small_t_ratio_rel_err"] = (
                        abs(ratio - _value(small_target))
                        / abs(small_target))
                row["error"] = ""
            except EVAL_ERRORS as exc:
                row["error"] = str(exc)
                ok = False
            rows.append(row)
    emit(rows, args)
    return EXIT_OK if ok else EXIT_EVAL


def _dest(flag: str) -> str:
    return OPTIONS[flag].get("dest", flag[2:].replace("-", "_"))


def _catalog_ktype(args) -> bool:
    return bool(args.ktype) and not args.ktype.startswith("d:")


def _suite_reads(key: str):
    """Whether a suite that --suite runs takes the run_suites keyword key."""
    return lambda args: any(key in vf.SUITE_OPTIONS[name]
                            for name in vf.suite_names([args.suite]))


# The option surface, in one table.  OPTIONS holds the argparse keywords
# of every option; each is registered with default None, so an option was
# given exactly when its value is not None, and DEFAULTS fills in the rest
# once the check has passed.  COMMANDS lists, for each subcommand, the
# options it registers, each mapped to None when the command always reads
# it, or else to (reads, reason): the command reads the option only when
# reads(args) holds and otherwise rejects it with "<flag> <reason>".  A
# command that registers every option of a ONE_OF group takes exactly one.
OPTIONS = {
    "--suite": dict(required=True, help="one of %s, or all"
                    % ", ".join(sorted(vf.SUITES))),
    "--space": dict(help="h2 | hn:<n> | rankone:<m>,<m2> | a2 | b2 | "
                         "datum-file path"),
    "--datum": dict(help="root-datum JSON path (alternative to --space)"),
    "--lambda": dict(dest="lam", help="spectral parameter re,im"),
    "--lambda-grid": dict(help="real-part grid start:stop:count"),
    "--im": dict(type=float, help="imaginary part used with --lambda-grid"),
    "--lambda-vec": dict(help="full parameter re,im;re,im;..., one per rank"),
    "--t": dict(type=float, help="radial coordinate"),
    "--t-grid": dict(help="t grid start:stop:count"),
    "--ktype": dict(help="catalog name or d:<d_a>,<d_2a>"),
    "--catalog": dict(help="K-type catalog JSON path"),
    "--abs-tol": dict(type=float, help="quadrature absolute tolerance"),
    "--rel-tol": dict(type=float, help="quadrature relative tolerance"),
    "--format": dict(choices=["csv", "json"]),
    "--out": dict(help="output path (default stdout)"),
    "--word": dict(help="Weyl word: comma-separated 1-based root indices"),
    "--methods": dict(help="comma subset of closed,series,quadrature"),
    "--series-n": dict(type=int, help="series truncation order"),
    "--tol": dict(type=float, help="simplicity tolerance"),
    "--table": dict(required=True, help="factor-table JSON path"),
}
DEFAULTS = {"--im": 0.0, "--format": "csv", "--methods": "closed",
            "--series-n": 40, "--tol": cfun.SIMPLE_TOL}
ONE_OF = (("--space", "--datum"), ("--lambda", "--lambda-grid"),
          ("--t", "--t-grid"))

_SPACE = {"--space": None, "--datum": None}
_LAMBDA = {"--lambda": None, "--lambda-grid": None,
           "--im": (lambda args: args.lambda_grid is not None,
                    "is read only with --lambda-grid")}
_LAMBDA_VEC = {"--lambda-vec": (lambda args: args.lambda_grid is None,
                                "is read only with --lambda")}
_T = {"--t": None, "--t-grid": None}
_KTYPE = {"--ktype": None, "--catalog": (
    _catalog_ktype, "is read only with a catalog --ktype name")}
_OUTPUT = {"--format": None, "--out": None}
_QUADRATURE = (lambda args: "quadrature" in phi_methods(args),
               "is read only with --methods quadrature")
_BY_SUITE = "is not read by suite {suite}"

COMMANDS = {
    "c-eval": (cmd_c_eval, "evaluate the c-function", {
        **_SPACE, **_LAMBDA, **_LAMBDA_VEC, **_OUTPUT}),
    "csigma-eval": (cmd_csigma_eval, "partial c (with --word) or the "
                    "rank-one second coefficient (with --ktype)", {
        **_SPACE, **_LAMBDA,
        "--lambda-vec": (lambda args: (args.word is not None
                                       and args.lambda_grid is None),
                         "is read only with --word and --lambda"),
        "--ktype": (lambda args: args.word is None,
                    "is read only without --word"),
        "--catalog": (lambda args: args.word is None and _catalog_ktype(args),
                      "is read only with a catalog --ktype name, without "
                      "--word"),
        **_OUTPUT, "--word": None}),
    "phi-eval": (cmd_phi_eval, "evaluate spherical functions", {
        **_SPACE, **_LAMBDA, **_T, **_KTYPE, "--abs-tol": _QUADRATURE,
        "--rel-tol": _QUADRATURE, **_OUTPUT, "--methods": None,
        "--series-n": (lambda args: "series" in phi_methods(args),
                       "is read only with --methods series")}),
    "simple-check": (cmd_simple_check, "simplicity predicate of the "
                     "parameter", {
        **_SPACE, **_LAMBDA, **_LAMBDA_VEC, **_OUTPUT, "--tol": None}),
    "verify": (cmd_verify, "run a named verification suite", {
        "--suite": None,
        "--space": (_suite_reads("space"), _BY_SUITE),
        "--ktype": (lambda args: (args.suite in vf.KTYPE_SUITES
                                  and args.space is not None),
                    "is read only by suite %s, with --space"
                    % ", ".join(sorted(vf.KTYPE_SUITES))),
        # resolve_ktype reads the catalog for a catalog K-type name
        "--catalog": (lambda args: (_suite_reads("catalog")(args)
                                    or _catalog_ktype(args)), _BY_SUITE),
        "--abs-tol": (_suite_reads("spec"), _BY_SUITE),
        "--rel-tol": (_suite_reads("spec"), _BY_SUITE), **_OUTPUT}),
    "det-a": (cmd_det_a, "determinant of the intertwining operator from a "
              "factor table", {
        **_SPACE, **_LAMBDA, **_LAMBDA_VEC, **_OUTPUT,
        "--table": None}),
    "limits": (cmd_limits, "large-t and small-t diagnostics", {
        **_SPACE, **_LAMBDA, **_T, **_KTYPE, **_OUTPUT}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the command line.  For the name of a command it holds
    that subcommand alone, all that a call naming it can parse, and its
    usage line still lists every command; otherwise every subcommand.  It
    is built per call: a process parses one command line."""
    ap = argparse.ArgumentParser(
        prog="sphfun",
        description="c-functions and spherical functions on rank-one "
                    "symmetric spaces, with quadrature verification")
    if command in COMMANDS:
        names = [command]
        sub = ap.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(COMMANDS))
    else:
        names = list(COMMANDS)
        sub = ap.add_subparsers(dest="command", required=True)
    for name in names:
        _, summary, rules = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        # argparse reads a word that starts with "-" as an option unless it
        # is a plain number; no option name starts with "-<digit>" or
        # "-.<digit>", so such a word is a value: --lambda -0.5,0.2
        p._negative_number_matcher = re.compile(r"-\.?\d")
        for flag in rules:
            p.add_argument(flag, **OPTIONS[flag])
    return ap


def check_options(args) -> None:
    """Hold args to the table row of its command: exactly one option of
    each ONE_OF group, and no given option the command would not read;
    then fill in DEFAULTS."""
    rules = COMMANDS[args.command][2]
    given = {flag for flag in rules if getattr(args, _dest(flag)) is not None}
    for group in ONE_OF:
        if rules.keys() >= set(group) and len(given.intersection(group)) != 1:
            raise UsageError("provide exactly one of " + " or ".join(group))
    for flag, value in DEFAULTS.items():
        if flag in rules and flag not in given:
            setattr(args, _dest(flag), value)
    for flag, rule in rules.items():
        if flag in given and rule is not None and not rule[0](args):
            raise UsageError(f"{flag} " + rule[1].format_map(vars(args)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        check_options(args)
        return COMMANDS[args.command][0](args)
    except (UsageError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
