"""The golden record's commands reproduce it within its tolerance classes
(tests/golden_record.py declares them and regenerates the record)."""

import pytest

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
