"""sphfun benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rank1-grid --seed 1 --seconds 50 \\
        --trace 0

Run from a checkout of the repository; the library is loaded from the
checkout's ``src``.  Workloads: rank1-grid and cli (see
perfbench/README.md).

``--trace 0`` measures the end-to-end metrics.  Set-up time is the median
over fresh worker interpreters timed from start to ``ready``, started
before and after the one that runs the timed phase.  ``--trace 1`` runs
half the time untraced and half traced and prints the per-layer metrics.
Each op's output is checked against a reference computed here, after the
worker has exited.  The report goes to stdout, the full result with
provenance to .bench_run/, and the last stdout line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import fnmatch
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"

SETUP_STARTS = 5         # timed fresh starts before and after the phase
IMPORT_SAMPLES = 5       # fresh interpreters timed importing sphfun.cli
WORKER_TIMEOUT = 150.0   # seconds, per worker process
MIN_BEYOND = 10          # samples a tail percentile must have beyond it
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (("throughput_ops_per_s", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


def spawn_worker(workload: str, seed: int, seconds: float, mode: str,
                 env: dict) -> tuple[float, str]:
    """Start a worker; returns (seconds from start to ``ready``, report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT)
        line = proc.stdout.readline() if readable else ""
        ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode})")
    return ready, out


def child_env() -> dict:
    """Environment for the child interpreters: the checkout's src first
    on the import path, so no installed sphfun is picked up, and bytecode
    caching on, as for an installed package, whatever the caller's
    environment says (the cache lands in the checkout's __pycache__)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra
                                             else "")
    return env


def run_python(code: str, env: dict) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"python -c failed: {proc.stderr.strip()}")
    return proc.stdout.strip()


def import_ms(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import sphfun.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(1e3 * float(run_python(code, env))
                             for _ in range(IMPORT_SAMPLES))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8") \
                .splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, child_sphfun: str) -> dict:
    import numpy
    import sphfun
    backend = getattr(sphfun, "backend_name", None)
    return {"workload": workload, "seed": seed,
            "backend": backend() if backend else "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "commit": git_commit(),
            "sphfun": child_sphfun}


def fast_side(latencies: list[float], cycle: int, wanted: float) -> dict:
    """Latency statistics of the least-disturbed repeats of each input.

    Every input ran once per cycle.  For each input the k fastest of its
    repeats are kept, where k is the fewest that give the tail percentile
    MIN_BEYOND samples beyond it (a run with too few cycles for that
    falls back to the highest lower percentile that fits).  On a shared
    host other tenants slow identical work down for seconds to minutes
    at a time; keeping only a few repeats of each input, out of many
    cycles, takes them from the undisturbed stretches of the run, and the
    kept ops keep the input mix of a whole cycle.  ``rate`` is kept ops
    per second of their own latency."""
    import numpy as np
    lat = np.asarray(latencies, dtype=float).reshape(-1, cycle)
    cycles = lat.shape[0]
    for p in (wanted,) + tuple(q for q in PERCENTILES if q < wanted):
        need = math.ceil(MIN_BEYOND / (1.0 - p / 100.0) / cycle)
        if need <= cycles or p == 50.0:
            break
    k = min(cycles, need)
    kept = np.sort(lat, axis=0)[:k].ravel()
    return {"percentile": p, "kept_cycles": k, "cycles": cycles,
            "p50": float(np.median(kept)),
            "tail": float(np.percentile(kept, p)),
            "rate": 1e3 * kept.size / float(kept.sum())}


def throughput(check: dict, stats: dict) -> float:
    """Passing ops per second: the kept ops' rate times the share of the
    phase's ops that passed their check."""
    passed = check["attempted"] - check["failed"] - check["known_defect"]
    return stats["rate"] * passed / check["attempted"]


def check_phase(cls, inputs, refs, phase) -> dict:
    """Check every op of a phase: each distinct output of an input is
    checked once and counts for every op that produced it.  A miss on an
    input of the workload's known-defect class counts in ``known_defect``;
    any other miss counts in ``failed``."""
    failed = known_defect = checked = 0
    failures = []
    for inp, ref, distinct in zip(inputs, refs, phase["outputs"]):
        for out, count in distinct:
            checked += count
            ok, detail = cls.check(inp, out, ref)
            if ok:
                continue
            known = cls.known_defect(inp)
            if known:
                known_defect += count
            else:
                failed += count
            failures.append({"input": inp, "ops": count,
                             "known_defect": known, "detail": detail})
    if checked != phase["ops"]:
        raise BenchError(f"checked {checked} of {phase['ops']} ops")
    return {"attempted": phase["ops"], "failed": failed,
            "known_defect": known_defect, "failures": failures}


def predictions(workload: str, layers: dict) -> list[dict]:
    """Verdicts on layer_map.json's predicted zero and nonzero metrics."""
    doc = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    out = []
    for kind in ("predicted_zero", "predicted_nonzero"):
        for pattern in doc[kind].get(workload, []):
            names = fnmatch.filter(layers, pattern)
            values = [layers[n] for n in names]
            if kind == "predicted_zero":
                holds = bool(names) and all(v == 0 for v in values)
            else:
                holds = bool(names) and all(v > 0 for v in values)
            out.append({"prediction": kind, "pattern": pattern,
                        "metrics": len(names), "holds": holds})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sphfun benchmark (one run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sphfun" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sphfun sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    try:
        return run(WORKLOADS[args.workload], args)
    except (BenchError, subprocess.SubprocessError, OSError,
            ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run(cls, args) -> int:
    env = child_env()
    src = (ROOT / "src").resolve()
    child_sphfun = run_python("import sphfun; print(sphfun.__file__)", env)
    if src not in Path(child_sphfun).resolve().parents:
        raise BenchError(f"child processes import sphfun from {child_sphfun}")
    RUN_DIR.mkdir(exist_ok=True)
    prov = provenance(cls.name, args.seed,
                      str(Path(child_sphfun).relative_to(ROOT)))
    result = {"provenance": prov, "seconds": args.seconds,
              "trace": args.trace}

    if args.trace == 0:
        def setup_start():
            return spawn_worker(cls.name, args.seed, 0.0, "setup", env)[0]

        setup_start()  # unmeasured: primes the bytecode and file caches
        setup = [setup_start() for _ in range(SETUP_STARTS)]
        ready, report = spawn_worker(cls.name, args.seed, args.seconds,
                                     "measure", env)
        setup += [ready] + [setup_start() for _ in range(SETUP_STARTS)]
    else:
        imp_ms = import_ms(env)
        _, report = spawn_worker(cls.name, args.seed, args.seconds, "trace",
                                 env)
    report = json.loads(report)

    inputs = cls.inputs(args.seed)
    refs = cls.references(inputs)
    checks = [check_phase(cls, inputs, refs, ph) for ph in report["phases"]]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    known_defect = sum(c["known_defect"] for c in checks)
    known_frac = known_defect / attempted
    correct = failed == 0

    lines = [f"sphfun benchmark  workload={cls.name}  seed={args.seed}  "
             f"seconds={args.seconds:g}  trace={args.trace}",
             "provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items()
                                        if k not in ("workload", "seed"))]
    lines.append(f"ops: attempted={attempted}  failed={failed}  "
                 f"missed in the known Lambda~0 defect class: {known_defect} "
                 f"(known_defect_ops_frac = {known_frac:.6g})  "
                 f"inputs per cycle={len(inputs)}")
    for fail in checks[-1]["failures"][:5]:
        what = "known defect" if fail["known_defect"] else "FAILED"
        lines.append(f"  {what} x{fail['ops']}: {fail['input']}: "
                     f"{fail['detail']}")

    if args.trace == 0:
        phase = report["phases"][0]
        stats = fast_side(phase["latencies_ms"], len(inputs),
                          cls.tail_percentile)
        values = {
            "throughput_ops_per_s": throughput(checks[0], stats),
            "latency_p50_ms": stats["p50"],
            "latency_tail_ms": stats["tail"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        result.update(fast_side=stats, samples=phase["ops"],
                      setup_samples_s=setup, phase_s=phase["phase_s"])
        lines.append(f"timed: {phase['ops']} ops in {stats['cycles']} cycles "
                     f"of {len(inputs)}; metrics over the fastest "
                     f"{stats['kept_cycles']} repeats of each input")
        for name, unit in END_TO_END:
            note = ""
            if name == "latency_tail_ms":
                note = f"  (p{stats['percentile']:g})"
            elif name == "setup_s":
                note = f"  (median of {len(setup)} fresh starts)"
            lines.append(f"{name} = {values[name]:.6g} {unit}{note}")
        lines.append(f"failed_ops_frac = {failed / attempted:.6g} ratio")
    else:
        import tracer as tr
        layers = dict(report["layers"])
        untraced, traced = report["phases"]
        thr = [throughput(c, fast_side(ph["latencies_ms"], len(inputs),
                                       cls.tail_percentile))
               for c, ph in zip(checks, report["phases"])]
        layers["cli.import_ms"] = imp_ms
        layers["trace.untraced_throughput"] = thr[0]
        layers["trace.traced_throughput"] = thr[1]
        layers["trace.overhead_frac"] = 1.0 - thr[1] / thr[0]
        layers["checks.known_defect_ops_frac"] = known_frac
        specs = tr.layer_metric_specs()
        metrics = {s["name"]: {"value": layers[s["name"]], "unit": s["unit"]}
                   for s in specs}
        verdicts = predictions(cls.name, layers)
        result.update(spans=report["spans"], spans_file=report["spans_file"],
                      missing=report["missing"], predictions=verdicts,
                      traced_ops=traced["ops"], untraced_ops=untraced["ops"])
        lines.append(f"tracing: {report['spans']} spans from {traced['ops']} "
                     f"traced ops in {report['spans_file']}; untraced "
                     f"{thr[0]:.6g} ops/s, traced {thr[1]:.6g} ops/s")
        if report["missing"]:
            lines.append("not in this library version (reported as 0): "
                         + ", ".join(report["missing"]))
        for s in specs:
            lines.append(f"{s['name']} = {layers[s['name']]:.6g} {s['unit']}")
        for v in verdicts:
            lines.append(f"{v['prediction']} {v['pattern']}: "
                         f"{'holds' if v['holds'] else 'VIOLATED'}")

    result.update(attempted=attempted, failed=failed,
                  known_defect=known_defect, known_defect_ops_frac=known_frac,
                  correct=correct, metrics=metrics,
                  failures=[f for c in checks for f in c["failures"]])
    out = RUN_DIR / f"result-{cls.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    lines.append(f"full result: {out.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
