"""Workloads, the op runner and the environment record of the benchmark.

An op is one in-process ``cusplab.cli.main(argv)`` call. Each op gets a
fresh output directory inside the run's work directory, so no run writes
into the default ``./cusplab_out`` that the repository tracks. An op fails
when it raises, exits non-zero, or leaves a summary that is missing, not
``pass``, or holds a failed check; failures are counted, never raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Boundary data of acceptance criterion 8's test. expand_ladder does not take
# its boundary data from --seed: on some seeds (106 among them) `expand`
# raises StencilError, a known cusplab defect that test_bench.py reproduces.
EXPAND_SEED = 3

# Every workload is a closed loop: one caller, and the next op starts only
# after the previous one has returned. A pass is the workload's op list once.
WORKLOADS: dict[str, Callable[[int], list[list[str]]]] = {
    "expand_ladder": lambda seed: [
        ["expand", "--n", "4", "--stages", "3", "--seed", str(EXPAND_SEED)],
    ],
    "cusp_sweep": lambda seed: [
        ["sweep", "--eps", "0.2,0.1,0.05,0.025", "--nodes", "96"],
    ],
    "trace_ladder": lambda seed: [
        ["sweep", "--K", "6", "--nodes", str(nodes)] for nodes in (128, 192, 256)
    ],
    "curvature_charts": lambda seed: [
        ["curvature", "--n", str(n), "--seed", str(seed)] for n in (4, 5)
    ],
}

# OpenBLAS, OpenMP and MKL size their pools when numpy loads; the cap must
# be in the environment before that import.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PROBE = ("import time; t = time.perf_counter(); import cusplab.cli; "
               "print(time.perf_counter() - t)")


def pin_threads() -> dict[str, str]:
    """Cap every BLAS/OpenMP pool at the CPUs this process may use."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    return {var: os.environ[var] for var in THREAD_VARS}


@dataclass
class OpResult:
    argv: list[str]
    wall_s: float
    cpu_s: float
    error: Optional[str] = None
    summary: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _summary_error(code, summary: Optional[dict]) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    if summary is None:
        return "summary missing"
    if summary.get("status") != "pass":
        return f"summary status {summary.get('status')!r}"
    failed = [c["name"] for c in summary.get("checks", []) if not c.get("passed")]
    if failed:
        return f"failed checks {failed}"
    return None


def run_op(main: Callable[[list[str]], int], argv: list[str],
           workdir: Path) -> OpResult:
    """One ``main(argv)`` call with a fresh ``--out-dir``; never raises."""
    out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
    full = ["--out-dir", str(out_dir), *argv]
    sink = io.StringIO()
    code, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(full)
    except Exception as exc:  # the op boundary: record, count, carry on
        error = f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    summary = None
    path = out_dir / f"{argv[0]}_summary.json"
    if path.is_file():
        summary = json.loads(path.read_text())
    error = error or _summary_error(code, summary)
    if error:
        print(f"op failed: {' '.join(argv)}: {error}", file=sys.stderr)
    return OpResult(argv, wall, cpu, error, summary)


@dataclass
class PassResult:
    ops: list[OpResult]

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)


def run_pass(main, ops: list[list[str]], workdir: Path) -> PassResult:
    return PassResult([run_op(main, argv, workdir) for argv in ops])


def run_for(main, ops: list[list[str]], seconds: float,
            workdir: Path) -> list[PassResult]:
    """Whole passes while the next one, predicted by the median pass so far,
    ends within ``seconds``; always at least one pass."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + statistics.median(
            p.wall_s for p in passes) <= seconds):
        passes.append(run_pass(main, ops, workdir))
    return passes


def measure_setup(src: Path, reps: int) -> list[float]:
    """``import cusplab.cli`` times of ``reps`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples: list[float]) -> Optional[tuple[int, float]]:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of a git checkout, read from ``.git`` without running git (git
    would search the parent directories of a plain checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "cusplab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record(root: Path, threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }
