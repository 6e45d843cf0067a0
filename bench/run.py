"""Benchmark of the cusplab command line, run from the root of a checkout.

    python3 bench/run.py --workload expand_ladder --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it times whole passes of the workload's ops, in process
through ``cusplab.cli.main``, until ``--seconds`` have elapsed (at least one
pass), and reports the end-to-end metrics. With ``--trace 1`` it runs one
untraced pass and then two traced passes, checks that the two traced passes
count exactly the same work, and reports the per-layer metrics. Every op's
exit code and summary checks are verified. Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import harness
import layer_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5

# name -> unit; BENCHMARK.json lists the same metrics.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def end_to_end(main, ops, seconds, workdir, setup):
    passes = harness.run_for(main, ops, seconds, workdir)
    results = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in results)
    walls = [p.wall_s for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": harness.peak_rss_mb(),
        "success_ratio": 1.0 - failed / len(results),
    }
    tail = harness.tail_percentile(walls)
    tail_text = (f"p{tail[0]} = {tail[1]:.4f} s" if tail else
                 "no tail percentile: fewer than 11 passes")
    print(f"wall_s = {values['wall_s']:.4f} s (median of {len(walls)} passes; "
          f"{tail_text})")
    print(f"cpu_s = {values['cpu_s']:.4f} s (median user + system CPU per pass)")
    print(f"setup_s = {values['setup_s']:.4f} s (median of {len(setup)} fresh "
          f"interpreters importing cusplab.cli)")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio = {failed / len(results):.4f} ({failed} of {len(results)} "
          f"ops); success_ratio = {values['success_ratio']:.4f} ratio")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return results, metrics, failed == 0


def per_layer(main, ops, workdir):
    base = harness.run_pass(main, ops, workdir)
    traced = []
    for _ in range(2):
        tracer = layer_trace.Tracer()
        with tracer.installed():
            traced.append((tracer, harness.run_pass(main, ops, workdir)))
    (t1, p1), (t2, p2) = traced
    results = base.ops + p1.ops + p2.ops
    repeat = t1.counts() == t2.counts()
    if not repeat:
        c1, c2 = t1.counts(), t2.counts()
        for name in sorted(set(c1) | set(c2)):
            if c1.get(name) != c2.get(name):
                print(f"benchmark error: {name} counted {c1.get(name)} then "
                      f"{c2.get(name)}", file=sys.stderr)
    untraced = base.wall_s
    values = []
    for tracer, result in traced:
        summaries = [op.summary for op in result.ops if op.summary]
        values.append(layer_trace.per_layer_metrics(
            tracer, summaries, result.wall_s, untraced))
    metrics = {}
    for name, (unit, _) in layer_trace.PER_LAYER.items():
        a, b = values[0][name], values[1][name]
        value = a if a == b else (a + b) / 2
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(f"counts repeat across two traced passes: {repeat}")
    ok = all(op.ok for op in results)
    return results, metrics, ok and repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cusplab" / "cli.py").is_file():
        print(f"error: no cusplab sources under {SRC}", file=sys.stderr)
        return 2
    threads = harness.pin_threads()
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir)
    try:
        setup = [] if args.trace else harness.measure_setup(SRC, SETUP_REPS)
        sys.path.insert(0, str(SRC))
        import cusplab.cli

        if Path(cusplab.cli.__file__).resolve().parent != (SRC / "cusplab").resolve():
            print(f"error: imported cusplab from {cusplab.cli.__file__}",
                  file=sys.stderr)
            return 2
        record = harness.environment_record(ROOT, threads)
        record.update(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace)
        print("env " + json.dumps(record))

        def cli_main(op_argv):
            return cusplab.cli.main(op_argv)  # looked up per call, so tracing sees it

        ops = harness.WORKLOADS[args.workload](args.seed)
        if args.trace:
            results, metrics, correct = per_layer(cli_main, ops, run_dir)
        else:
            results, metrics, correct = end_to_end(cli_main, ops, args.seconds,
                                                   run_dir, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(not op.ok for op in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
