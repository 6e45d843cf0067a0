"""The golden record: the summaries and CSVs of a fixed list of cusplab
commands, kept under tests/golden/, and the one comparator that says which
differences count.

Every value of a summary and every cell of a CSV falls in one tolerance
class (`differences` applies them):

  * exact: exit codes, statuses, check names and verdicts, every other
    string, shapes (list lengths, CSV rows and columns, key sets), and
    every integer (counts, `probe_steps`);
  * float: every other number, equal within rtol 1e-12 and atol 1e-13;
  * skipped: `elapsed_seconds` and paths (the output directory and the
    table paths of a summary).

Regenerate the record after a change that moves a number, and list the keys
it prints in CHANGES.md:

    python tests/golden_record.py

It runs every command into tests/golden/<case>/, with the exit code in
record.json, and prints each key whose value moved at all, old and new,
marking those beyond the float class.  tests/test_golden.py runs the same
commands and compares them with the record.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> the cusplab command line (--out-dir is added)
COMMANDS = {
    "expand_n4_seed3": ["expand", "--n", "4", "--stages", "3", "--seed", "3"],
    "expand_n5_seed2": ["expand", "--n", "5", "--stages", "4", "--seed", "2"],
    "expand_n6": ["expand", "--n", "6", "--stages", "5"],
    "curvature_n4": ["curvature", "--n", "4"],
    "curvature_n5": ["curvature", "--n", "5"],
    "curvature_n6": ["curvature", "--n", "6"],
    "curvature_n4_perturb": ["curvature", "--n", "4", "--perturb", "0.1"],
    "koiso": ["koiso"],
    "sweep_96": ["sweep", "--nodes", "96"],
    "solve": ["solve"],
    "solve_indefinite": ["solve", "--expect-indefinite"],
    "schauder": ["schauder"],
    "weights_n5_ranks12": ["weights", "--n", "5", "--ranks", "1,2"],
    "weights_n4_rank2": ["weights", "--n", "4", "--ranks", "2"],
}

RTOL, ATOL = 1e-12, 1e-13
SKIPPED_KEYS = frozenset({"elapsed_seconds", "out_dir", "tables"})


def run_case(case: str, out_dir: Path) -> int:
    """Run one command of the record into out_dir, its tables and messages
    kept off the terminal; returns the exit code."""
    from cusplab.cli import main

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["--out-dir", str(out_dir), *COMMANDS[case]])


def _cell(text: str):
    """A CSV cell as the value it spells: an int, a float, or the text."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_case(directory: Path) -> dict:
    """{file name: parsed content} of one case directory: the summary's
    JSON, each CSV as its list of rows, record.json as written."""
    out = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            out[path.name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                out[path.name] = [[_cell(c) for c in row] for row in csv.reader(fh)]
    return out


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def differences(got, want, key: str = ""):
    """Yield (key, got, want, within) for each value that moved, walking both
    trees together; within says whether the float class forgives it.  A
    shape, type or exact-class change is never within."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            yield key, sorted(got), sorted(want), False
            return
        for k in want:
            if k not in SKIPPED_KEYS:
                yield from differences(got[k], want[k], f"{key}/{k}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield key, len(got), len(want), False
            return
        for i, (a, b) in enumerate(zip(got, want)):
            yield from differences(a, b, f"{key}[{i}]")
    elif type(got) is float and type(want) is float:
        if got != want and not (math.isnan(got) and math.isnan(want)):
            yield key, got, want, _close(got, want)
    elif type(got) is not type(want) or got != want:
        yield key, got, want, False


def regenerate() -> None:
    """Rewrite tests/golden/ from the commands, printing what moved against
    the record it replaces."""
    for case in COMMANDS:
        target = GOLDEN / case
        old = read_case(target) if target.is_dir() else None
        with tempfile.TemporaryDirectory() as tmp:
            code = run_case(case, Path(tmp))
            for summary in Path(tmp).glob("*.json"):  # no host path or timing kept
                payload = json.loads(summary.read_text().replace(tmp, "<out-dir>"))
                payload["elapsed_seconds"] = None
                summary.write_text(json.dumps(payload, indent=2))
            (Path(tmp) / "record.json").write_text(json.dumps(
                {"command": COMMANDS[case], "exit_code": code}, indent=2) + "\n")
            if target.exists():
                shutil.rmtree(target)
            shutil.copytree(tmp, target)
        if old is None:
            print(f"{case}: recorded")
            continue
        for key, new, was, within in differences(read_case(target), old):
            mark = "" if within else "  BEYOND TOLERANCE"
            print(f"{case}{key}: {was!r} -> {new!r}{mark}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    regenerate()
