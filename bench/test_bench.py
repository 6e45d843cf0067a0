"""Tests of the benchmark's op runner, tracer and contract.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layer_trace
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cusplab.cli as cli  # noqa: E402
from cusplab import charts, expansion, solver, tensorcalc  # noqa: E402


def test_failing_ops_are_counted_not_raised(tmp_path):
    def raising_main(argv):
        raise RuntimeError("ARPACK error -1: No convergence")

    result = harness.run_pass(cli.main, [
        ["solve", "--expect-indefinite"],
        ["weights", "--n", "4", "--ranks", "2"],
        ["weights", "--n", "5", "--ranks", "1,2"],
    ], tmp_path)
    errors = [op.error for op in result.ops]
    assert errors == ["exit code 3", "exit code 2", None]

    raised = harness.run_op(raising_main, ["expand"], tmp_path)
    assert not raised.ok and raised.error.startswith("raised RuntimeError")


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason="known cusplab defect: the stage-3 "
                   "metric g_3 loses positivity at rho = 1/8 and StencilError "
                   "escapes cli.main; expand_ladder uses seed 3 until it is fixed")
def test_expand_on_seed_106(tmp_path):
    op = harness.run_op(cli.main, ["expand", "--n", "4", "--stages", "3",
                                   "--seed", "106"], tmp_path)
    assert op.ok, op.error


def test_summary_rules():
    passing = {"status": "pass", "checks": [{"name": "a", "passed": True}]}
    assert harness._summary_error(0, passing) is None
    assert harness._summary_error(0, None) == "summary missing"
    failed = {"status": "pass", "checks": [{"name": "a", "passed": False}]}
    assert harness._summary_error(0, failed) == "failed checks ['a']"
    assert harness._summary_error(0, {"status": "fail", "checks": []})


def test_ops_write_only_their_own_out_dir(tmp_path):
    op = harness.run_op(cli.main, ["weights", "--n", "5", "--ranks", "1,2"], tmp_path)
    assert op.ok and op.summary["subcommand"] == "weights"
    (out_dir,) = tmp_path.iterdir()
    assert (out_dir / "weights_summary.json").is_file()


def test_tracer_restores_every_binding(tmp_path):
    originals = (tensorcalc.Q_at, expansion.Q_at, expansion.chart_metric,
                 charts.Chart.metric_at, tensorcalc.MetricField.__call__,
                 solver.SparseOperator.smallest_eigenvalue, solver.spla, cli.main)
    tracer = layer_trace.Tracer()
    with tracer.installed():
        assert expansion.Q_at is tensorcalc.Q_at is not originals[0]
        op = harness.run_op(lambda argv: cli.main(argv),
                            ["weights", "--n", "5", "--ranks", "1,2"], tmp_path)
    assert op.ok
    assert tracer.stats["weights.admissible_weights"].calls == 1
    assert tracer.stats["cli.main"].calls == 1
    assert originals == (tensorcalc.Q_at, expansion.Q_at, expansion.chart_metric,
                         charts.Chart.metric_at, tensorcalc.MetricField.__call__,
                         solver.SparseOperator.smallest_eigenvalue, solver.spla,
                         cli.main)


def test_traced_counts_repeat_and_cover_the_solver(tmp_path):
    ops = [["curvature", "--n", "4"], ["solve", "--nodes", "24"]]
    counts = []
    for _ in range(2):
        tracer = layer_trace.Tracer()
        with tracer.installed():
            result = harness.run_pass(lambda argv: cli.main(argv), ops, tmp_path)
        assert all(op.ok for op in result.ops)
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    values = layer_trace.per_layer_metrics(tracer, [], 2.0, 1.0)
    assert set(values) == set(layer_trace.PER_LAYER)
    assert values["charts.metric_at.calls"] > 0
    assert values["tensorcalc.ricci_at.calls"] == 2 * 4 * 51
    assert values["solver.solve_dirichlet.calls"] == 1
    assert values["solver.unknowns"] == 22 * 22
    assert values["solver.probe.calls"] == 1
    assert values["solver.direct.s"] > 0 and values["solver.cg.s"] == 0
    assert values["trace.overhead_ratio"] == 1.0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layer_trace.PER_LAYER


def _git_status():
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_run_leaves_checkout_clean():
    before = _git_status()
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curvature_charts",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert _git_status() == before


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expand_ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
