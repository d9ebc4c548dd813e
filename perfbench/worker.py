"""Benchmark worker: one fresh interpreter that sets up a workload, runs
its timed phase and reports to ``run.py``.

Set-up is the imports, the seeded inputs and a warm-up that runs one op
of each kind (filling the library's lazy caches); the worker then prints
``ready``.  ``--mode setup`` stops there.  ``--mode measure`` runs the
timed phase untraced; ``--mode trace`` runs half the time untraced and
half traced, and reports both phases.  A phase runs whole cycles over
the input list until its time is used.  The report is one JSON line on
stdout.
"""

import argparse
import json
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
# A traced phase also ends, at a cycle boundary, once it holds this many
# spans: enough for per-op figures, and it bounds the tracer's memory.
SPAN_BUDGET = 400_000


def run_phase(wl, inputs, seconds, first_op, tracer=None):
    """Closed loop over whole input cycles.  Returns the per-op latencies,
    the phase wall time and, per input, its distinct outputs with the
    number of ops that produced each."""
    latencies = array("d")
    distinct = [[] for _ in inputs]
    op = wl.op if tracer is None else tracer.span("op", wl.op)
    op_id = first_op
    start = perf_counter()
    deadline = start + seconds
    while True:
        for idx, inp in enumerate(inputs):
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = perf_counter()
            out = op(inp)
            latencies.append((perf_counter() - t0) * 1e3)
            op_id += 1
            for entry in distinct[idx]:
                if entry[0] == out:
                    entry[1] += 1
                    break
            else:
                distinct[idx].append([out, 1])
        if perf_counter() >= deadline or (
                tracer is not None and len(tracer.t0) >= SPAN_BUDGET):
            break
    return {"phase_s": perf_counter() - start, "ops": len(latencies),
            "latencies_ms": latencies, "outputs": distinct}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def traced_phase(wl, inputs, seconds, first_op, workload):
    """The traced half of a trace run, and the per-layer metrics of it."""
    import tracer as tr
    tracer = tr.Tracer()
    tracer.install()
    try:
        res = run_phase(wl, inputs, seconds, first_op, tracer)
    finally:
        tracer.uninstall()
    parts, counts = [tracer.arrays()], tracer.counts
    hits, misses = tr.nbar_cache_info()
    missing = tracer.missing
    res["layers"] = tr.layer_metrics(parts, counts, res["ops"],
                                     (hits, misses))
    res["missing"] = missing
    spans_path = RUN_DIR / f"spans-{workload}.npz"
    res["spans"] = tr.save_spans(spans_path, parts)
    res["spans_file"] = str(spans_path.relative_to(ROOT))
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"],
                    required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    import sphfun.cli  # noqa: F401  the whole package, as a user loads it
    RUN_DIR.mkdir(exist_ok=True)
    wl = cls(ROOT)
    inputs = cls.inputs(args.seed)
    seen = set()
    for inp in inputs:
        if cls.kind(inp) not in seen:
            seen.add(cls.kind(inp))
            wl.op(inp)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "measure":
        res = {"phases": [run_phase(wl, inputs, args.seconds, 0)],
               "peak_rss_mb": peak_rss_mb()}
    else:
        half = args.seconds / 2.0
        untraced = run_phase(wl, inputs, half, 0)
        traced = traced_phase(wl, inputs, half, untraced["ops"],
                              args.workload)
        res = {"phases": [untraced, traced]}
        for key in ("layers", "missing", "spans", "spans_file"):
            res[key] = traced.pop(key)
    for phase in res["phases"]:
        phase["latencies_ms"] = phase["latencies_ms"].tolist()
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
