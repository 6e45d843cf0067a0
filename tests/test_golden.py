"""The golden record's commands reproduce it within its tolerance classes
(tests/golden_record.py declares them and regenerates the record)."""

import json
import shutil

import pytest

import golden_record
from golden_record import COMMANDS, GOLDEN, differences, read_case, run_case


@pytest.mark.parametrize("case", list(COMMANDS))
def test_command_reproduces_its_record(case, tmp_path):
    want = read_case(GOLDEN / case)
    code = run_case(case, tmp_path)
    assert code == want.pop("record.json")["exit_code"]
    got = read_case(tmp_path)
    beyond = [d for d in differences(got, want) if not d[3]]
    assert beyond == []


def test_the_float_class_forgives_rounding_only():
    want = {"checks": [{"name": "c", "value": 1.0, "passed": True}],
            "elapsed_seconds": 1.0, "probe_steps": [7]}
    moved = {"checks": [{"name": "c", "value": 1.0 + 1e-15, "passed": True}],
             "elapsed_seconds": 2.0, "probe_steps": [7]}
    assert [d[3] for d in differences(moved, want)] == [True]
    for key, value in (("value", 1.0 + 1e-9), ("passed", False), ("name", "d")):
        bad = {**want, "checks": [{**want["checks"][0], key: value}]}
        assert [d[3] for d in differences(bad, want)] == [False]
    assert [d[3] for d in differences({**want, "probe_steps": [8]}, want)] == [False]
    assert [d[3] for d in differences({**want, "probe_steps": [7, 7]}, want)] == [False]


def test_check_prints_every_moved_key_and_writes_nothing(tmp_path, monkeypatch, capsys):
    shutil.copytree(GOLDEN / "solve", tmp_path / "solve")
    summary = tmp_path / "solve" / "solve_summary.json"
    payload = json.loads(summary.read_text())
    value = payload["checks"][0]["value"]
    payload["checks"][0]["value"] = value * (1.0 + 4e-16)  # a rounding-level move
    summary.write_text(json.dumps(payload, indent=2))
    before = {p.name: p.read_bytes() for p in (tmp_path / "solve").iterdir()}
    monkeypatch.setattr(golden_record, "GOLDEN", tmp_path)
    monkeypatch.setattr(golden_record, "COMMANDS", {"solve": COMMANDS["solve"]})
    assert golden_record.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"solve/solve_summary.json/checks[0]/value: "
                   f"{payload['checks'][0]['value']!r} -> {value!r}  within the float class",
                   "1 key(s) moved"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "solve").iterdir()} == before
    shutil.rmtree(tmp_path / "solve")
    shutil.copytree(GOLDEN / "solve", tmp_path / "solve")
    assert golden_record.main(["--check"]) == 0
    assert capsys.readouterr().out == "no key moved\n"


def test_every_subcommand_has_a_golden_record():
    # a new subcommand lands with a record of its own
    from cusplab.cli import COMMANDS as SUBCOMMANDS

    assert sorted({argv[0] for argv in COMMANDS.values()}) == sorted(SUBCOMMANDS)
