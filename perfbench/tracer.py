"""In-memory span tracing of sphfun's public functions, from outside the
library.

``Tracer.install`` replaces each traced function in every sphfun module
namespace that binds it (``c_alpha`` is bound in ``cfun``, ``rankone`` and
``higherrank``, for instance) with a wrapper that records one span: name,
start, end, parent span and op id.  Spans stay in flat arrays until the
run ends; ``layer_metrics`` then derives self time (span duration minus
the child spans it covers) and the per-layer counts.

Every per-layer metric is normalised per op (``calls`` is calls per op,
``self_ms`` is self milliseconds per op), except the verify suites'
``wall_ms`` (mean wall time per suite call), ``cli.import_ms`` and the
cache hit ratio.  A traced function that a later version of the library
no longer has is reported as zero and listed under ``missing``.
"""

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


# Count hooks run after each traced call, with result None if it raised.
def _hook_terms(tracer, args, result):
    if result is not None and result[1] > 0:
        tracer.count("kernels.hyp2f1_series.terms", result[1])


def _hook_circle_nodes(tracer, args, result):
    tracer.count("kernels.poisson_circle_sum.nodes", args[3])


def _hook_branch(tracer, args, result):
    a, b, c, z = args[:4]
    z = complex(z)
    br = classify_2f1(a, b, c, z, 1.0 - z)
    tracer.count(f"complexmath.gauss_2f1.{br}.calls", 1)


def _hook_branch_complement(tracer, args, result):
    a, b, c, zc = args[:4]
    zc = complex(zc)
    br = classify_2f1(a, b, c, 1.0 - zc, zc)
    tracer.count(f"complexmath.gauss_2f1.{br}.calls", 1)


def _nodes(span_name):
    """Hook adding the node count a quadrature routine returns."""
    def hook(tracer, args, result):
        if result is not None:
            tracer.count(span_name + ".nodes", result[1])
    return hook


# (span name, module, attribute, count hook)
_KERNELS = "kernels"
_GL = "quadrature.gauss_legendre_adaptive"
_TRAP = "quadrature.trapezoid_doubling"
_ES = "quadrature.exp_sinh_halfline"
TRACED = [
    ("kernels.clgamma", _KERNELS, "clgamma", None),
    ("kernels.cgamma", _KERNELS, "cgamma", None),
    ("kernels.hyp2f1_series", _KERNELS, "hyp2f1_series", _hook_terms),
    ("kernels.hc_gamma_coeffs", _KERNELS, "hc_gamma_coeffs", None),
    ("kernels.poisson_circle_sum", _KERNELS, "poisson_circle_sum",
     _hook_circle_nodes),
    ("complexmath.log_gamma", "sphfun.complexmath", "log_gamma", None),
    ("complexmath.gauss_2f1", "sphfun.complexmath", "gauss_2f1",
     _hook_branch),
    ("complexmath.gauss_2f1", "sphfun.complexmath", "gauss_2f1_complement",
     _hook_branch_complement),
    ("cfun.c_alpha", "sphfun.cfun", "c_alpha", None),
    ("cfun.c_sigma", "sphfun.cfun", "c_sigma", None),
    ("cfun.c_full", "sphfun.cfun", "c_full", None),
    ("rootdata.negative_set_indices", "sphfun.rootdata",
     "negative_set_indices", None),
    ("rootdata.weyl_apply", "sphfun.rootdata", "weyl_apply", None),
    ("rootdata.restrict", "sphfun.rootdata", "restrict", None),
    ("rootdata.is_reduced", "sphfun.rootdata", "is_reduced", None),
    ("rootdata.enumerate_weyl", "sphfun.rootdata", "enumerate_weyl", None),
    ("rankone.phi_tau", "sphfun.rankone", "phi_tau", None),
    ("rankone.hc_series_eval", "sphfun.rankone", "hc_series_eval", None),
    ("rankone.c_lambda_delta", "sphfun.rankone", "c_lambda_delta", None),
    ("rankone.validate_ktype", "sphfun.rankone", "validate_ktype", None),
    (_GL, "sphfun.quadrature", "gauss_legendre_adaptive", _nodes(_GL)),
    (_TRAP, "sphfun.quadrature", "trapezoid_doubling", _nodes(_TRAP)),
    (_ES, "sphfun.quadrature", "exp_sinh_halfline", _nodes(_ES)),
    ("models.quad_c_Nbar", "sphfun.models", "quad_c_Nbar", None),
    ("models.quad_phi_K", "sphfun.models", "quad_phi_K", None),
    ("models.quad_Csigma_sl2", "sphfun.models", "quad_Csigma_sl2", None),
    ("models.quad_eisenstein_sl2", "sphfun.models", "quad_eisenstein_sl2",
     None),
    ("models.entry_function_sl2", "sphfun.models", "entry_function_sl2",
     None),
    ("models.functional_equation_check", "sphfun.models",
     "functional_equation_check", None),
    ("higherrank.det_A", "sphfun.higherrank", "det_A", None),
    ("higherrank.det_A_by_factors", "sphfun.higherrank", "det_A_by_factors",
     None),
    ("higherrank.lambda_chain", "sphfun.higherrank", "lambda_chain", None),
    ("cli.main", "sphfun.cli", "main", None),
    ("cli.emit", "sphfun.cli", "emit", None),
]

VERIFY_SUITES = ("asymptotic", "c-vs-integral", "cocycle", "csigma", "det-a",
                 "eisenstein", "functional-equation", "hs-norm",
                 "phi-vs-integral")

GAUSS_BRANCHES = ("series", "connection", "degenerate", "poly")

# Branch classification thresholds of the benchmark, fixed here so that
# the counts keep their meaning when the library's own constants change:
# the power series inside |z| <= 0.9, the connection formula near z = 1,
# and the degenerate class where c - a - b is within 1e-8 of an integer.
_SERIES_RADIUS = 0.9
_DEGENERATE_WINDOW = 1e-8

_LAYERS = [
    ("kernels", ("clgamma", "cgamma", "hyp2f1_series", "hc_gamma_coeffs",
                 "poisson_circle_sum")),
    ("complexmath", ("log_gamma",)),
    ("cfun", ("c_alpha", "c_sigma", "c_full")),
    ("rootdata", ("negative_set_indices", "weyl_apply", "restrict",
                  "is_reduced", "enumerate_weyl")),
    ("rankone", ("phi_tau", "hc_series_eval", "c_lambda_delta",
                 "validate_ktype")),
    ("quadrature", ("gauss_legendre_adaptive", "trapezoid_doubling",
                    "exp_sinh_halfline")),
    ("models", ("quad_c_Nbar", "quad_phi_K", "quad_Csigma_sl2",
                "quad_eisenstein_sl2", "entry_function_sl2",
                "functional_equation_check")),
    ("higherrank", ("det_A", "det_A_by_factors", "lambda_chain")),
]

# Metrics counted by the hooks rather than derived from spans.
COUNTED = (["kernels.hyp2f1_series.terms", "kernels.poisson_circle_sum.nodes"]
           + [f"complexmath.gauss_2f1.{br}.calls" for br in GAUSS_BRANCHES]
           + [f"quadrature.{fn}.nodes" for fn in _LAYERS[5][1]])


def layer_metric_specs() -> list[dict]:
    """Every per-layer metric the traced run prints, in order, with its
    unit and direction (the ``per_layer`` list of BENCHMARK.json)."""
    specs = []

    def add(name, unit, better="lower"):
        specs.append({"name": name, "unit": unit, "better": better})

    for layer, fns in _LAYERS:
        for fn in fns:
            add(f"{layer}.{fn}.calls", "calls/op")
            add(f"{layer}.{fn}.self_ms", "ms/op")
            if layer == "quadrature":
                add(f"{layer}.{fn}.nodes", "nodes/op")
        if layer == "kernels":
            add("kernels.hyp2f1_series.terms", "terms/op")
            add("kernels.poisson_circle_sum.nodes", "nodes/op")
        elif layer == "complexmath":
            add("complexmath.gauss_2f1.self_ms", "ms/op")
            for br in GAUSS_BRANCHES:
                add(f"complexmath.gauss_2f1.{br}.calls", "calls/op")
        elif layer == "models":
            add("models.nbar_normalization.hit_ratio", "ratio", "higher")
    for suite in VERIFY_SUITES:
        add(f"verify.{suite}.wall_ms", "ms")
    add("cli.import_ms", "ms")
    add("cli.main.self_ms", "ms/op")
    add("cli.emit.self_ms", "ms/op")
    add("trace.untraced_throughput", "ops/s", "higher")
    add("trace.traced_throughput", "ops/s", "higher")
    add("trace.overhead_frac", "ratio")
    add("checks.known_defect_ops_frac", "ratio")
    return specs


def _dist_nonpos_int(z: complex) -> float:
    k = min(0.0, round(z.real))
    return abs(complex(z.real - k, z.imag))


def classify_2f1(a, b, c, z, zc) -> str:
    """The 2F1 branch an argument tuple falls in (see thresholds above)."""
    a, b, c = complex(a), complex(b), complex(c)
    for p in (a, b):
        if p.imag == 0.0 and p.real <= 0.0 and p.real == round(p.real):
            return "poly"
    if abs(z) <= _SERIES_RADIUS:
        return "series"
    d = c - a - b
    if abs(zc) <= 0.5 and min(_dist_nonpos_int(d),
                              _dist_nonpos_int(-d)) <= _DEGENERATE_WINDOW:
        return "degenerate"
    return "connection"


def _resolve(modname: str):
    """Module object for a TRACED entry, or None if it does not exist."""
    try:
        if modname == _KERNELS:
            return importlib.import_module("sphfun._backend").kernels
        return importlib.import_module(modname)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span recorder.  One instance per process; ``op`` is the id of the
    op being executed and is stamped on every span opened during it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.op_ix = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def span(self, name: str, fn, hook=None):
        """Wrap fn so that each call records one span under name."""
        nid = self._nid(name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.t0)
            tracer.name_ix.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_ix.append(tracer.op)
            tracer.t1.append(0.0)
            stack.append(idx)
            result = None
            tracer.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.t1[idx] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer, args, result)

        return traced

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every TRACED function in every sphfun namespace that
        binds it, and every registered verify suite."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sphfun" or n.startswith("sphfun.")]
        for name, modname, attr, hook in TRACED:
            home = _resolve(modname)
            orig = getattr(home, attr, None) if home is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.span(name, orig, hook)
            targets = [home] + [m for m in modules if m is not home]
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        verify = _resolve("sphfun.verify")
        suites = getattr(verify, "SUITES", None) if verify else None
        if not isinstance(suites, dict):
            self.missing.append("sphfun.verify.SUITES")
            return
        for suite, fn in list(suites.items()):
            suites[suite] = self.span(f"verify.{suite}", fn)
            self._restore.append((suites, suite, fn))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    # -- export --------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_ix": np.frombuffer(self.name_ix, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_ix, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }


def save_spans(path, parts: list[dict]) -> int:
    """Write the spans of one or more tracers (``Tracer.arrays`` dicts)
    to one compressed file; returns the number of spans written."""
    names = sorted({str(n) for part in parts for n in part["names"]})
    index = {n: i for i, n in enumerate(names)}
    cols = {k: [] for k in ("name_ix", "parent", "op", "t0", "t1")}
    offset = 0
    for part in parts:
        lut = np.array([index[str(n)] for n in part["names"]], dtype=np.int32)
        cols["name_ix"].append(lut[part["name_ix"]])
        cols["parent"].append(np.where(part["parent"] >= 0,
                                       part["parent"] + offset, -1))
        for key in ("op", "t0", "t1"):
            cols[key].append(part[key])
        offset += len(part["t0"])
    np.savez_compressed(path, names=np.array(names, dtype=str),
                        **{k: np.concatenate(v) for k, v in cols.items()})
    return offset


def self_times(part: dict) -> dict[str, tuple[int, float, float]]:
    """{span name: (calls, total self ms, total wall ms)} from one
    tracer's spans; self time is duration minus the children's durations
    (spans of one process nest, so children never overlap)."""
    dur = part["t1"] - part["t0"]
    child = np.zeros_like(dur)
    has_parent = part["parent"] >= 0
    np.add.at(child, part["parent"][has_parent], dur[has_parent])
    selft = dur - child
    out = {}
    n_names = len(part["names"])
    calls = np.bincount(part["name_ix"], minlength=n_names)
    self_sum = np.bincount(part["name_ix"], weights=selft, minlength=n_names)
    wall_sum = np.bincount(part["name_ix"], weights=dur, minlength=n_names)
    for i, nm in enumerate(part["names"]):
        out[str(nm)] = (int(calls[i]), 1e3 * float(self_sum[i]),
                        1e3 * float(wall_sum[i]))
    return out


def layer_metrics(parts: list[dict], counts: dict[str, float], n_ops: int,
                  nbar_cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer metric values (without cli.import_ms and the trace.*
    overhead figures, which the caller measures)."""
    agg: dict[str, list[float]] = {}
    for part in parts:
        for nm, (calls, self_ms, wall_ms) in self_times(part).items():
            acc = agg.setdefault(nm, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_ms
            acc[2] += wall_ms
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for spec in layer_metric_specs():
        name = spec["name"]
        stem, _, kind = name.rpartition(".")
        calls, self_ms, wall_ms = agg.get(stem, (0, 0.0, 0.0))
        if name in COUNTED:
            out[name] = counts.get(name, 0.0) * per_op
        elif kind == "calls":
            out[name] = calls * per_op
        elif kind == "self_ms":
            out[name] = self_ms * per_op
        elif kind == "wall_ms":
            out[name] = wall_ms / calls if calls else 0.0
        elif kind == "hit_ratio":
            hits, misses = nbar_cache
            out[name] = hits / (hits + misses) if hits + misses else 0.0
    return out


def nbar_cache_info() -> tuple[int, int]:
    """(hits, misses) of the models.nbar_normalization cache, or (0, 0)
    when the function is not cached."""
    models = _resolve("sphfun.models")
    info = getattr(getattr(models, "nbar_normalization", None),
                   "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses
