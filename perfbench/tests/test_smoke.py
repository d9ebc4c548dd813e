"""Tiny-scale smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Rank1Grid  # noqa: E402

pytest.importorskip("mpmath")


def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert doc["per_layer"] == tr.layer_metric_specs()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(name):
    cls = WORKLOADS[name]
    assert cls.inputs(7) == cls.inputs(7)
    assert cls.inputs(7) != cls.inputs(8)


def _check_some(cls, picks):
    wl = cls(ROOT)
    inputs = [cls.inputs(5)[i] for i in picks]
    refs = cls.references(inputs)
    return [cls.check(inp, wl.op(inp), ref)[0]
            for inp, ref in zip(inputs, refs)]


def test_rank1_checks_and_counts_the_lambda_zero_defect():
    inputs = Rank1Grid.inputs(5)
    zero = next(i for i, inp in enumerate(inputs) if inp["lam"] == [0.0, 0.0])
    ok = _check_some(Rank1Grid, [0, 3, zero])
    assert ok == [True, True, False]
    assert Rank1Grid.known_defect(inputs[zero])


def test_cli_ops_pass_their_checks():
    assert all(_check_some(WORKLOADS["cli"], [0, 1, 2, 3, 4, 7]))


def test_tracer_separates_layers_and_restores_the_library():
    import sphfun.cfun as cfun
    import sphfun.rankone as r1
    original = r1.c_alpha
    wl = Rank1Grid(ROOT)
    zero = next(inp for inp in Rank1Grid.inputs(5)
                if inp["lam"] == [0.0, 0.0])
    tracer = tr.Tracer()
    tracer.install()
    assert r1.c_alpha is cfun.c_alpha is not original
    try:
        tracer.begin_op(0)
        wl.op(zero)
    finally:
        tracer.uninstall()
    assert r1.c_alpha is original
    layers = tr.layer_metrics([tracer.arrays()], tracer.counts, 1, (0, 0))
    assert layers["complexmath.gauss_2f1.degenerate.calls"] > 0
    assert layers["rankone.phi_tau.calls"] == 12
    assert layers["rootdata.negative_set_indices.calls"] == 0
    assert layers["quadrature.exp_sinh_halfline.calls"] == 0
    assert layers["rankone.phi_tau.self_ms"] > 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_tiny_run_prints_the_summary(trace):
    proc = _run(ROOT, "--workload", "cli", "--seed", "3", "--seconds",
                "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    specs = run.END_TO_END if trace == "0" else [
        (s["name"], s["unit"]) for s in tr.layer_metric_specs()]
    assert [(k, v["unit"]) for k, v in summary["metrics"].items()] == \
        list(specs)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "rank1-grid", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
