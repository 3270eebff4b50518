"""scripts/report_diff.py: every listed invocation has its exit code and keeps the run rule."""

import importlib.util
from pathlib import Path

import pytest
from oracles import assert_well_formed_run

from rotosense.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    report_diff.write_inputs(directory)
    return directory


@pytest.mark.parametrize(
    "line,expected",
    report_diff.INVOCATIONS,
    ids=[line or "(no command)" for line, _ in report_diff.INVOCATIONS],
)
def test_invocation_exit_code(line, expected, inputs, capsys):
    try:
        code = main(report_diff.argv(line, inputs))
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code == expected, err
    assert_well_formed_run(code, out, err, line)


def test_invocations_are_distinct():
    lines = [line for line, _ in report_diff.INVOCATIONS]
    assert len(set(lines)) == len(lines)


def test_float_deltas():
    old = {"a": [1.0, 2.0, 4.0], "b": {"c": "x", "d": 1}, "e": None, "f": [1, 2], "z": 0.0}
    new = {"a": [1.0, 2.5, 3.0], "b": {"c": "y", "d": 1}, "e": 0.5, "g": True, "z": -0.0}
    assert report_diff.float_deltas(old, new) == {
        "$.a[*]": [1.0, 0.25],
        "$.z": [0.0, 0.0],
        "$.b.c": None,
        "$.e": None,
        "$.f": None,
        "$.g": None,
    }
    assert report_diff.float_deltas(old, old) == {}


def test_max_abs_delta():
    # the largest absolute delta over all reports; a non-numeric difference or a
    # stdout that is not JSON has no such bound
    rounding = report_diff.float_deltas({"a": [1.0, 2.0]}, {"a": [1.0 + 2**-52, 2.0 - 2**-51]})
    signed_zero = report_diff.float_deltas({"z": 0.0}, {"z": -0.0})
    assert report_diff.max_abs_delta([rounding, signed_zero]) == 2**-51
    assert report_diff.max_abs_delta([]) == 0.0
    changed = report_diff.float_deltas({"s": "x"}, {"s": "y"})
    assert report_diff.max_abs_delta([rounding, changed]) is None
    assert report_diff.max_abs_delta([None, rounding]) is None
    assert report_diff._json_deltas(b'{"a": 1.5}', b'{"a": 1.0}') == {"$.a": [0.5, 0.5 / 1.5]}
    assert report_diff._json_deltas(b"theta1,P0\n", b"theta1,P1\n") is None
