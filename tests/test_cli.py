import contextlib
import csv
import functools
import io
import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    N6_PREP_JSON,
    TETRA_PREP_JSON,
    fresh_python,
    rotation_unitary,
    seven_photon_state,
    strict_json,
    three_peak_state,
)

from rotosense import circuit_sim, estimation, metrology, spin_core
from rotosense.cli import _OPTIONS, _emit, _json_text, _resolve, build_parser, main
from rotosense.estimation import qcrb_experiment
from rotosense.spin_core import RotationParams, SpinState
from rotosense.states import balance, tetra2


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_single_error(code, err):
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def state_file(tmp_path, state: SpinState) -> str:
    """The --state selector of a file holding the state."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"J": state.J, "amps": [[z.real, z.imag] for z in state.amps]}))
    return f"file:{path}"


@pytest.fixture
def spin20_state(tmp_path):
    """A valid J = 20 state: its qubit picture would need 2^40 amplitudes."""
    path = tmp_path / "spin20.json"
    path.write_text(json.dumps({"J": 20, "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 40}))
    return f"file:{path}"


@pytest.fixture
def spin600_state(tmp_path):
    """A valid-looking J = 600 state: past spin_core.MAX_SPIN = 512."""
    path = tmp_path / "spin600.json"
    path.write_text(json.dumps({"J": 600, "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 1200}))
    return f"file:{path}"


@pytest.mark.parametrize(
    "command", [["fisher"], ["probabilities"], ["estimate", "--pipeline", "optimal"]]
)
def test_rejects_spin_above_ceiling(command, spin600_state, capsys):
    code, out, err = run_cli(command + ["--state", spin600_state], capsys)
    assert_single_error(code, err)
    assert "at most 512" in err
    assert out == ""


@pytest.mark.parametrize("command", ["probabilities", "estimate"])
def test_refuses_spin_below_three_halves(command, tmp_path, capsys):
    # a J = 0 probe passes the anti-coherence check (every deviation is 0), but
    # the four optimal-basis states need 2J+1 >= 4 dimensions
    path = tmp_path / "j0.json"
    path.write_text(json.dumps({"J": 0, "amps": [[1, 0]]}))
    code, out, err = run_cli([command, "--state", f"file:{path}"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: optimal_basis needs J >= 3/2: its four states need 2J+1 >= 4 dimensions, got J=0\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["fisher", "--trials", "abc"],
        ["fisher", "--no-such-flag"],
        ["estimate", "--pipeline", "xx"],
        [],
    ],
)
def test_usage_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert_single_error(exit_info.value.code, captured.err)
    assert captured.out == ""


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fisher", "-h"])
    assert exit_info.value.code == 0
    assert "--theta1" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--theta1", "--theta2", "--theta3"])
def test_negative_exponent_value_parses(flag, capsys):
    code, spaced, _ = run_cli(["fisher", flag, "-1e-3"], capsys)
    assert code == 0
    code, joined, _ = run_cli(["fisher", f"{flag}=-1e-3"], capsys)
    assert code == 0
    assert spaced == joined


@pytest.mark.parametrize(
    "argv, module, name, message",
    [
        (
            ["estimate", "--theta1", "0.1", "--trials", "20"], estimation, "sample_outcomes",
            "CSV output needs a single pipeline (--pipeline optimal|bell)",
        ),
        (["fisher"], metrology, "j_expectations", "this command only supports --format json"),
        (["circuit-verify"], circuit_sim, "run_circuit", "this command only supports --format json"),
    ],
    ids=["estimate", "fisher", "circuit-verify"],
)
def test_refuses_csv_before_any_work(argv, module, name, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError(f"{name} ran before the format was refused")

    monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli([*argv, "--format", "csv"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_only_circuit_verify_imports_circuit_sim():
    # a cold process pays 8-9 ms to import circuit_sim; only circuit-verify needs it
    script = (
        "import contextlib, io, sys\n"
        "import rotosense.cli\n"
        "seen = ['rotosense.circuit_sim' in sys.modules]\n"
        "for argv in (['fisher'], ['circuit-verify']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rotosense.cli.main(argv) == 0\n"
        "    seen.append('rotosense.circuit_sim' in sys.modules)\n"
        "print(seen)\n"
    )
    result = fresh_python("-c", script)
    assert (result.returncode, result.stdout) == (0, b"[False, False, True]\n"), result.stderr


class TestSharedParser:
    ARGV = ["probabilities", "--state", "balance", "--theta1", "0.03", "--grid-points", "5"]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_failed_parse_leaves_no_trace(self, capsys):
        code, first, _ = run_cli(self.ARGV, capsys)
        assert code == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["probabilities", "--grid-points", "many", "--format", "csv"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert run_cli(self.ARGV, capsys) == (0, first, "")

    def test_defaults_do_not_leak(self, capsys):
        assert run_cli(["probabilities", "--grid-points", "101"], capsys)[0] == 0
        code, out, _ = run_cli(["probabilities"], capsys)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 21


FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1.7e308, math.nan, math.inf, -math.inf])
TABLES = st.lists(st.lists(FLOATS, min_size=1, max_size=5), min_size=1, max_size=4)
KEYS = st.text(max_size=6) | st.just("rows")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=12,
)
PAYLOADS = st.builds(
    lambda rest, rows: rest if rows is None else {**rest, "rows": rows},
    st.dictionaries(KEYS, JSON_VALUES, max_size=4),
    st.none() | TABLES | JSON_VALUES,
)


CELLS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308]
)


@st.composite
def float_tables(draw):
    """Finite float arrays whose columns may be constant or mix 0.0 and -0.0."""
    n_rows, n_columns = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = st.lists(CELLS, min_size=n_rows, max_size=n_rows)
    zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=n_rows, max_size=n_rows)
    constant = CELLS.map(lambda x: [x] * n_rows)
    columns = draw(st.lists(cells | zeros | constant, min_size=n_columns, max_size=n_columns))
    table = np.array(columns).T  # column-major, as a transposed report table would be
    return np.ascontiguousarray(table) if draw(st.booleans()) else table


@given(float_tables(), st.dictionaries(KEYS, JSON_VALUES, max_size=3))
@example(np.array([[0.0, 1.5, -0.0], [-0.0, 1.5, -0.0]]), {"state": "tetra2"})
@example(np.array([[5e-324, 1e308, -1e308]]), {})
def test_float_table_is_jsons_and_csvs_text(table, rest):
    payload = {**rest, "rows": table}
    expected = json.dumps({**payload, "rows": table.tolist()}, indent=2, sort_keys=True)
    assert _json_text(payload) == expected
    header = [f"c{k}" for k in range(table.shape[1])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(table.tolist())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(SimpleNamespace(format="csv", out=None), None, table, header)
    assert out.getvalue() == buf.getvalue()


def test_float_table_refuses_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        _json_text({"rows": np.array([[1.0, math.nan]])})


@given(PAYLOADS)
@example({"rows": [[-0.0, 5e-324, 1.7e308]], "state": "tetra2"})
@example({"rows": [[1.0, math.nan], [math.inf, -math.inf]]})
@example({"rows": [[0.25]]})
@example({"axis": [0.0, 1.0], "saturation": {"bell": {"rows": [], "fisher": [8.0]}}})
@example({"a": {"rows": []}, "rows": [[1.5, 2.0], [3.0, 1e-300]], "z": {"x": [1.0]}})
@example({"rows": [[1.0], [2]]})
def test_json_text_is_jsons_text(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


class TestFisher:
    def test_tetra2_reports_bound(self, capsys):
        code, out, _ = run_cli(["fisher", "--state", "tetra2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["qfi"][0][0] == pytest.approx(8.0, abs=1e-9)
        assert data["fisher_single"] == pytest.approx(8.0, abs=1e-9)
        assert data["anticoherence"]["pass"]

    def test_balance_reports_bound(self, capsys):
        code, out, _ = run_cli(["fisher", "--state", "balance"], capsys)
        assert code == 0
        assert json.loads(out)["qfi"][0][0] == pytest.approx(16.0, abs=1e-9)

    def test_file_state_flags_coherent(self, tmp_path, capsys):
        state_file = tmp_path / "coherent.json"
        state_file.write_text(
            json.dumps({"J": 2, "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 4})
        )
        code, out, _ = run_cli(["fisher", "--state", f"file:{state_file}"], capsys)
        assert code == 0
        assert not json.loads(out)["anticoherence"]["pass"]

    def test_spin_below_three_halves_is_not_certified(self, tmp_path, capsys):
        # J = 0 meets both anti-coherence conditions, beside an all-zero QFI
        code, out, _ = run_cli(["fisher", "--state", state_file(tmp_path, SpinState(0, [1]))], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["qfi"] == [[0.0] * 3] * 3
        assert set(data["anticoherence"]["deviations"].values()) == {0.0}
        assert data["anticoherence"]["pass"] is False

    def test_unknown_state_file_errors(self, capsys):
        code, out, err = run_cli(["fisher", "--state", "file:/nope/missing.json"], capsys)
        assert_single_error(code, err)

    def test_unknown_selector_errors(self, capsys):
        code, _, err = run_cli(["fisher", "--state", "ghz"], capsys)
        assert code != 0
        assert "unknown state" in err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"J": True, "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, "J must be a number"),
            ({"J": 1, "amps": ["x", [0.0, 0.0], [0.0, 0.0]]}, "[re, im] number pairs"),
            ({"J": 10**400, "amps": [[1.0, 0.0]]}, "too large"),
            ({"J": 0.5, "amps": [[10**400, 0.0], [0.0, 0.0]]}, "[re, im] number pairs"),
        ],
        ids=["bool-J", "string-amplitude", "huge-J", "huge-amplitude"],
    )
    def test_mistyped_state_file_names_the_file(self, data, message, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["fisher", "--state", f"file:{path}"], capsys)
        assert_single_error(code, err)
        assert f"malformed state file {path}" in err
        assert message in err
        assert out == ""

    def test_config_file_fills_defaults_flags_win(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"state": "balance", "seed": 7}))
        code, out, _ = run_cli(["fisher", "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["state"] == "balance"
        code, out, _ = run_cli(
            ["fisher", "--config", str(config), "--state", "tetra2"], capsys
        )
        assert json.loads(out)["state"] == "tetra2"

    def test_config_rejects_unknown_keys(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"shots": 5}))
        code, _, err = run_cli(["fisher", "--config", str(config)], capsys)
        assert code != 0
        assert "unknown config keys" in err

    @pytest.mark.parametrize(
        "command, config",
        [
            (["estimate", "--pipeline", "optimal", "--n", "10"], {"trials": "5"}),
            (["estimate", "--pipeline", "optimal", "--n", "10"], {"theta1": True}),
            (["fisher"], {"theta1": 10**400}),
            (["fisher"], {"state": 5}),
            (["fisher"], []),
            (["probabilities", "--grid-points", "2"], {"format": "xml"}),
        ],
    )
    def test_config_rejects_bad_values(self, command, config, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(command + ["--config", str(path)], capsys)
        assert_single_error(code, err)
        assert out == ""


# option -> (flag text, the value it parses to, config-file value, default)
RESOLUTION = {
    "state": ("balance", "balance", "tetra1", "tetra2"),
    "theta1": ("0.03", 0.03, 0.04, 0.02),
    "theta2": ("0.3", 0.3, 2, 1.0),
    "theta3": ("-1e-3", -1e-3, -0.25, 0.5),
    "n": ("10", 10, 20, 10**6),
    "trials": ("3", 3, 4, 200),
    "seed": ("5", 5, 6, 55555),
    "out": ("a.txt", "a.txt", "b.txt", None),
    "format": ("json", "json", "csv", "json"),
}


def resolved(argv):
    """The namespace main hands to a command for argv."""
    args = build_parser().parse_args(argv)
    _resolve(args)
    return args


class TestOptionResolution:
    """Each common option comes from its flag, else the config file, else
    its default."""

    @pytest.mark.parametrize("name", sorted(_OPTIONS))
    def test_flag_beats_config_beats_default(self, name, tmp_path):
        flag, parsed, from_config, default = RESOLUTION[name]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({name: from_config}))
        with_config = ["fisher", "--config", str(config)]
        assert getattr(resolved(with_config + [f"--{name}", flag]), name) == parsed
        assert getattr(resolved(with_config), name) == from_config
        assert getattr(resolved(["fisher"]), name) == default

    def test_only_out_may_be_null(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": None}))
        assert resolved(["fisher", "--config", str(config)]).out is None
        config.write_text(json.dumps({"seed": None}))
        code, out, err = run_cli(["fisher", "--config", str(config)], capsys)
        assert err == (
            f"error: malformed config file {config}: config key 'seed' has the wrong type: None\n"
        )
        assert (code, out) == (2, "")


class TestFileErrors:
    """A missing or malformed config, state or circuit file ends in one
    error: line that names the file."""

    ARGV = {
        "config": lambda path: ["fisher", "--config", path],
        "state": lambda path: ["fisher", "--state", f"file:{path}"],
        "circuit": lambda path: ["circuit-verify", "--circuit", path],
    }

    @pytest.mark.parametrize("what", sorted(ARGV))
    def test_missing(self, what, tmp_path, capsys):
        path = tmp_path / "missing.json"
        code, out, err = run_cli(self.ARGV[what](str(path)), capsys)
        assert (code, out, err) == (2, "", f"error: {what} file not found: {path}\n")

    @pytest.mark.parametrize(
        "content", [b"nope", b"[" * 100_000, b"\xff\xfe{}", b"[1, 2]"],
        ids=["not-json", "nested-past-recursion-limit", "not-utf8", "not-an-object"],
    )
    @pytest.mark.parametrize("what", sorted(ARGV))
    def test_malformed(self, what, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(self.ARGV[what](str(path)), capsys)
        assert_single_error(code, err)
        assert err.startswith(f"error: malformed {what} file {path}: ")
        assert out == ""

    RAGGED_GATE = {"kind": "custom", "targets": [0], "matrix": [[[1, 0]], [[0, 0], [1, 0]]]}

    @pytest.mark.parametrize(
        "what, data, message",
        [
            ("circuit", {"n_qubits": 20, "gates": []}, "n_qubits must be in 1..12"),
            ("state", {"J": 600, "amps": [[1, 0]] * 1201}, "J must be at most 512, got 600"),
            ("circuit", {"n_qubits": 1, "gates": [RAGGED_GATE]}, "custom gate matrix must be 2x2"),
        ],
        ids=["circuit-20-qubits", "state-spin-600", "circuit-ragged-custom-gate"],
    )
    def test_bad_value(self, what, data, message, tmp_path, capsys):
        # JSON of the right shape, with a value the reader refuses
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(self.ARGV[what](str(path)), capsys)
        assert (code, out, err) == (2, "", f"error: malformed {what} file {path}: {message}\n")


    GATES_MESSAGE = "gates must be a list of gate objects"

    @pytest.mark.parametrize(
        "what, content, message",
        [
            ("state", "[1, 2]", "expected a JSON object"),
            ("state", '"tetra2"', "expected a JSON object"),
            ("circuit", "[1, 2]", "expected a JSON object"),
            ("circuit", '{"n_qubits": 1, "gates": "ab"}', GATES_MESSAGE),
            ("circuit", '{"n_qubits": 1, "gates": [1]}', GATES_MESSAGE),
            ("circuit", '{"n_qubits": 1, "gates": {"a": 1}}', GATES_MESSAGE),
        ],
        ids=["state-list", "state-string", "circuit-list", "gates-string", "gates-of-numbers",
             "gates-object"],
    )
    def test_not_an_object(self, what, content, message, tmp_path, capsys):
        # a file or a gate list of the wrong JSON shape is refused by name,
        # not with a message about list indices or a missing .get
        path = tmp_path / "bad.json"
        path.write_text(content)
        code, out, err = run_cli(self.ARGV[what](str(path)), capsys)
        assert (code, out, err) == (2, "", f"error: malformed {what} file {path}: {message}\n")


class TestNegativeSeed:
    """A negative seed is refused by name, from a flag or from a config file."""

    def test_flag(self, capsys):
        code, out, err = run_cli(["estimate", "--seed", "-1", "--trials", "5"], capsys)
        assert_single_error(code, err)
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert out == ""

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": -5}))
        code, out, err = run_cli(["estimate", "--config", str(path), "--trials", "5"], capsys)
        assert_single_error(code, err)
        assert err == "error: seed must be a non-negative integer, got -5\n"
        assert out == ""

    def test_circuit_file_run(self, tmp_path, capsys):
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(TETRA_PREP_JSON))
        code, out, err = run_cli(
            ["circuit-verify", "--circuit", str(path), "--seed", "-1"], capsys
        )
        assert_single_error(code, err)
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert out == ""


@pytest.fixture
def rotations(monkeypatch):
    """The argument lists of every spin_core.rotated_amplitudes call, wherever it is bound."""
    calls = []
    original = spin_core.rotated_amplitudes

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("rotosense") and getattr(module, "rotated_amplitudes", None) is original:
            monkeypatch.setattr(module, "rotated_amplitudes", counted)
    return calls


class TestOneRotation:
    """A report rotates the probe once per angle set: the theta1 grid, then
    the saturation point; every measurement reads that rotation."""

    @pytest.mark.parametrize("fmt, count", [("json", 2), ("csv", 1)])
    def test_probabilities(self, fmt, count, rotations, capsys):
        assert run_cli(["probabilities", "--state", "balance", "--format", fmt], capsys)[0] == 0
        assert len(rotations) == count

    def test_bell_experiment(self, rotations):
        qcrb_experiment(balance(), RotationParams(0.02, 1.0, 0.5), 1000, 2, 7, "bell")
        assert len(rotations) == 1


class TestProbabilities:
    def test_csv_sweep(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "probabilities", "--state", "tetra2", "--theta1", "0.05",
                "--grid-points", "6", "--format", "csv", "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:9] == ["theta1", "u1", "u2", "u3", "P0", "P1", "P2", "P3", "Prest"]
        assert len(lines) == 7
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[4] == pytest.approx(1.0, abs=1e-9)  # P0 at zero rotation
        assert first[5:8] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_gap_column_small(self, capsys):
        code, out, _ = run_cli(
            ["probabilities", "--state", "balance", "--theta1", "0.05"], capsys
        )
        assert code == 0
        data = json.loads(out)
        gap_small = data["columns"].index("gap_small")
        gap_bell = data["columns"].index("gap_bell")
        for row in data["rows"]:
            theta = row[0]
            assert row[gap_small] <= 1.0 * theta**3 + 1e-12
            assert row[gap_bell] <= 1.0 * theta**3 + 1e-12

    @pytest.mark.parametrize("theta1", ["0.05", "-0.03", "0.1"])
    def test_one_point_grid_is_the_requested_angle(self, theta1, capsys):
        # a one-point grid holds --theta1, and so warns past the threshold
        # as a longer grid ending there does
        code, out, err = run_cli(
            ["probabilities", "--grid-points", "1", "--theta1", theta1], capsys
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[0] for row in rows] == [float(theta1)]
        longer = run_cli(["probabilities", "--grid-points", "3", "--theta1", theta1], capsys)
        # the same point, bit for bit: a row is a function of its angle alone
        assert json.loads(longer[1])["rows"][-1] == rows[0]
        assert err == longer[2]
        assert ("warning:" in err) == (abs(float(theta1)) > 0.05)

    def test_last_row_does_not_depend_on_the_grid(self, capsys):
        # the last row is the one-point grid's, to the last digit, whatever the grid's length
        last = [
            run_cli(["probabilities", "--theta1", "0.05", "--grid-points", points,
                     "--format", "csv"], capsys)[1].splitlines()[-1]
            for points in ("1", "3", "101")
        ]
        assert last[0].split(",")[4] == "0.9950094854698999"
        assert last[1] == last[0] and last[2] == last[0]

    def test_rejects_empty_grid(self, capsys):
        code, out, err = run_cli(
            ["probabilities", "--state", "tetra2", "--grid-points", "0"], capsys
        )
        assert_single_error(code, err)
        assert out == ""

    def test_rejects_oversized_grid(self, capsys):
        code, out, err = run_cli(
            ["probabilities", "--state", "tetra2", "--grid-points", "1000000000"], capsys
        )
        assert_single_error(code, err)
        assert out == ""

    def test_saturation_included(self, capsys):
        code, out, _ = run_cli(["probabilities", "--state", "tetra2"], capsys)
        saturation = json.loads(out)["saturation"]
        assert set(saturation) == {"optimal", "bell"}
        for block in saturation.values():
            assert set(block) == {"fisher", "qfi_diag", "relative_dev"}
            for f, q in zip(block["fisher"], block["qfi_diag"]):
                assert f / q == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("state", ["tetra2", "balance"])
    def test_saturation_angle_keeps_its_sign(self, state, capsys):
        # the saturation check runs at |theta1| <= 0.02, on the sweep's side of 0
        saturations = []
        for theta1 in ("-0.3", "-0.02"):
            code, out, _ = run_cli(["probabilities", "--state", state, "--theta1", theta1], capsys)
            assert code == 0
            saturations.append(json.loads(out)["saturation"])
        assert saturations[0] == saturations[1]

    @pytest.mark.parametrize("state", ["tetra2", "balance"])
    @pytest.mark.parametrize("zero, clipped", [("0", "0.02"), ("-0", "-0.02")])
    def test_saturation_at_zero_reads_the_clip_angle(self, state, zero, clipped, capsys):
        # the unrotated probe is singular (F_11 = 0), so theta1 = +-0 is read at +-0.02
        saturations = []
        for theta1 in (zero, clipped):
            code, out, _ = run_cli(["probabilities", "--state", state, "--theta1", theta1], capsys)
            assert code == 0
            saturations.append(json.loads(out)["saturation"])
        assert saturations[0] == saturations[1]

    def test_warns_when_bell_analyzer_misfits_probe(self, capsys):
        # the Bell supports of tetra1's optimal basis overlap: the report
        # leaves the Bell analyzer out and says so once
        code, out, err = run_cli(["probabilities", "--state", "tetra1"], capsys)
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "warning: the Bell analyzer does not fit this probe: outcomes 0 and 1 share"
        )
        data = json.loads(out)
        assert data["state"] == "tetra1"
        assert not [c for c in data["columns"] if "bell" in c]
        assert len(data["rows"][0]) == len(data["columns"]) == 14
        assert set(data["saturation"]) == {"optimal"}

    @pytest.mark.parametrize(
        "fmt, left_out",
        [
            ("json", "the bell_P* and gap_bell columns and saturation.bell"),
            ("csv", "the bell_P* and gap_bell columns"),  # a CSV has no saturation block
        ],
    )
    def test_misfit_warning_names_what_the_format_leaves_out(self, fmt, left_out, capsys):
        code, _, err = run_cli(["probabilities", "--state", "tetra1", "--format", fmt], capsys)
        assert code == 0
        assert err == (
            "warning: the Bell analyzer does not fit this probe: outcomes 0 and 1 share the "
            f"Bell product (0, 0); the report leaves out {left_out}\n"
        )

    @pytest.mark.parametrize("state", ["tetra2", "balance"])
    @pytest.mark.parametrize("theta1", ["0.02", "0.05"])
    def test_reference_probes_do_not_warn(self, state, theta1, capsys):
        code, _, err = run_cli(["probabilities", "--state", state, "--theta1", theta1], capsys)
        assert code == 0
        assert err == ""


class TestCircuitVerify:
    def test_default_reports(self, capsys):
        code, out, _ = run_cli(["circuit-verify"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["prep"]["tetra"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert data["prep"]["n6"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert data["bell_analyzer"]["all_disjoint"]

    def test_custom_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(TETRA_PREP_JSON))
        code, out, _ = run_cli(
            ["circuit-verify", "--circuit", str(path), "--state", "tetra2"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["max_norm_drift"] <= 1e-12
        assert data["fidelity_vs_state"] >= 1 - 1e-10

    @pytest.mark.parametrize(
        "circuit,state,n_qubits,n_photons",
        [
            (N6_PREP_JSON, "tetra2", 6, 4),
            ({"n_qubits": 2, "gates": []}, SpinState(0.5, [1, 0]), 2, 1),
        ],
        ids=["n6-tetra2", "two-qubits-spin-half"],
    )
    def test_names_both_sizes(self, circuit, state, n_qubits, n_photons, tmp_path, capsys):
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(circuit))
        if isinstance(state, SpinState):
            state = state_file(tmp_path, state)
        code, out, err = run_cli(["circuit-verify", "--circuit", str(path), "--state", state], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: circuit {path} has {n_qubits} qubits, "
            f"but state {state} has {n_photons} photons (2J)\n"
        )

    @pytest.mark.parametrize(
        "circuit",
        [
            [{"kind": "H", "targets": [0]}],
            {"n_qubits": 2},
            {"n_qubits": 2, "gates": [{"targets": [0]}]},
            {"n_qubits": 2, "gates": ["H"]},
        ],
    )
    def test_malformed_circuit_file(self, circuit, tmp_path, capsys):
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(circuit))
        code, _, err = run_cli(["circuit-verify", "--circuit", str(path)], capsys)
        assert_single_error(code, err)
        assert "malformed circuit file" in err

    @pytest.mark.parametrize(
        "field",
        [
            {"controls": "12"},  # a string: its characters would read as qubits 1 and 2
            {"targets": [True]},
            {"open_controls": [1.0]},
            {"n_qubits": 2.7},  # would be truncated to 2
        ],
    )
    def test_rejects_mistyped_circuit_fields(self, field, tmp_path, capsys):
        gate = {"kind": "X", "targets": [0]}
        circuit = {"n_qubits": 3, "gates": [gate]}
        (circuit if "n_qubits" in field else gate).update(field)
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(circuit))
        code, out, err = run_cli(["circuit-verify", "--circuit", str(path)], capsys)
        assert_single_error(code, err)
        assert "malformed circuit file" in err
        assert out == ""


    def test_config_state_asks_for_no_fidelity(self, tmp_path, capsys):
        # only a --state flag compares the circuit's output with a state
        circuit, config = tmp_path / "circ.json", tmp_path / "run.json"
        circuit.write_text(json.dumps(TETRA_PREP_JSON))
        config.write_text(json.dumps({"state": "tetra2"}))
        argv = ["circuit-verify", "--circuit", str(circuit), "--config", str(config)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "fidelity_vs_state" not in json.loads(out)
        code, out, _ = run_cli(argv + ["--state", "tetra2"], capsys)
        assert json.loads(out)["fidelity_vs_state"] >= 1 - 1e-10

    @pytest.mark.parametrize(
        "matrix", ["junk", [[[5, 0], [0, 0]], [[0, 0], [0, 0]]]], ids=["junk", "not-unitary"]
    )
    def test_named_gate_ignores_a_matrix_key(self, matrix, tmp_path, capsys):
        # "matrix" is read for custom gates only: an H gate that carries one
        # gives the report of the bare H gate, whatever the key holds
        bare = {"kind": "H", "targets": [0]}
        path = tmp_path / "circ.json"
        runs = []
        for gate in (bare, {**bare, "matrix": matrix}):
            path.write_text(json.dumps({"n_qubits": 1, "gates": [gate]}))
            runs.append(run_cli(["circuit-verify", "--circuit", str(path)], capsys))
        assert runs[0][0] == 0 and json.loads(runs[0][1])["gate_count"] == 1
        assert runs[1] == runs[0]

    def test_rejects_a_custom_matrix_that_is_no_list(self, tmp_path, capsys):
        gate = {"kind": "custom", "targets": [0], "matrix": 5}
        path = tmp_path / "circ.json"
        path.write_text(json.dumps({"n_qubits": 1, "gates": [gate]}))
        code, out, err = run_cli(["circuit-verify", "--circuit", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: malformed circuit file {path}: "
            "matrix must be a list of rows of [re, im] number pairs\n"
        )

    @pytest.mark.parametrize("entry", [[10**400, 0], [True, 0]], ids=["past-float-range", "bool"])
    def test_rejects_mistyped_custom_gate_entry(self, entry, tmp_path, capsys):
        # 10**400 has no float value, and true would read as 1
        gate = {"kind": "custom", "targets": [0], "matrix": [[entry, [0, 0]], [[0, 0], [1, 0]]]}
        path = tmp_path / "circ.json"
        path.write_text(json.dumps({"n_qubits": 2, "gates": [gate]}))
        code, out, err = run_cli(["circuit-verify", "--circuit", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: malformed circuit file {path}: "
            "a matrix row must be a list of [re, im] number pairs\n"
        )

    @pytest.mark.parametrize("entry", ["NaN", "1e308"])
    def test_rejects_non_finite_custom_gate(self, entry, tmp_path, capsys):
        # a NaN entry slips past `norm(m m^dagger - I) > tol`, and 1e308
        # overflows m m^dagger; neither is a unitary's entry
        path = tmp_path / "circ.json"
        path.write_text(
            '{"n_qubits": 2, "gates": [{"kind": "custom", "targets": [0], "matrix": '
            f'[[[{entry}, 0], [0, 0]], [[0, 0], [1, 0]]]}}]}}'
        )
        code, out, err = run_cli(["circuit-verify", "--circuit", str(path)], capsys)
        assert_single_error(code, err)
        assert "custom gate matrix is not unitary" in err
        assert out == ""


class TestEstimate:
    def test_seed_repeatable(self, tmp_path, capsys):
        args = [
            "estimate", "--state", "tetra2", "--theta1", "0.05",
            "--n", "100000", "--trials", "50", "--seed", "99",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(args + ["--out", str(out_a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("state", ["tetra2", "balance"])
    def test_both_is_the_two_single_pipeline_reports(self, state, capsys):
        # each pipeline's block of `--pipeline both` is its own report, number for number
        common = [
            "estimate", "--state", state, "--theta1", "0.05",
            "--n", "100000", "--trials", "30", "--seed", "7",
        ]
        reports = {}
        for pipeline in ("both", "optimal", "bell"):
            code, out, err = run_cli(common + ["--pipeline", pipeline], capsys)
            assert code == 0, err
            reports[pipeline] = json.loads(out)
        assert set(reports["both"]) == {"optimal", "bell"}
        assert reports["both"]["optimal"] == reports["optimal"]["optimal"]
        assert reports["both"]["bell"] == reports["bell"]["bell"]

    def test_pipelines_close(self, capsys):
        code, out, _ = run_cli(
            [
                "estimate", "--state", "tetra2", "--theta1", "0.05",
                "--n", "1000000", "--trials", "2500", "--seed", "99",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        # criterion 09's bounds and trial count: sigma/sigma_CR has SE
        # 1/sqrt(2(T-1)) = 0.0141, so its band sits z = 7.1 from a ratio of 1
        # and the measured 1.0035 lies z = 6.8 inside it; the paired pipelines
        # read a ratio of 1.0000 (correlation 1.0000)
        ratio = data["bell"]["sigma_empirical"] / data["optimal"]["sigma_empirical"]
        assert ratio == pytest.approx(1.0, abs=0.05)
        assert data["optimal"]["sigma_ratio"] == pytest.approx(1.0, abs=0.1)

    def test_csv_per_trial_rows(self, tmp_path, capsys):
        out_file = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            [
                "estimate", "--state", "balance", "--theta1", "0.05",
                "--n", "10000", "--trials", "10", "--seed", "3",
                "--pipeline", "bell", "--format", "csv", "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "trial,theta1_hat,u1_hat,u2_hat,u3_hat"
        assert len(lines) == 11

    def test_csv_requires_single_pipeline(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--state", "tetra2", "--format", "csv"], capsys
        )
        assert code != 0
        assert "single pipeline" in err

    @pytest.mark.parametrize("probe", ["tetra1", "rotated-tetra2"])
    def test_bell_rejects_other_probes(self, probe, tmp_path, capsys):
        # the Bell supports of the optimal basis are disjoint for tetra2 and
        # balance, but overlap for tetra1 and for tetra2 turned by theta1 = 0.7
        if probe == "rotated-tetra2":
            amps = rotation_unitary(2, RotationParams(0.7, 1.0, 0.5)) @ tetra2().amps
            probe = state_file(tmp_path, SpinState(2, amps))
        code, out, err = run_cli(["estimate", "--state", probe, "--trials", "5"], capsys)
        assert_single_error(code, err)
        assert "outcomes 0 and 1 share the Bell product" in err
        assert "--pipeline optimal" in err
        assert out == ""
        code, _, _ = run_cli(
            ["estimate", "--state", probe, "--trials", "5", "--pipeline", "optimal"], capsys
        )
        assert code == 0

    def test_bell_fits_the_cube_state(self, tmp_path, capsys):
        # the cube state: J = 4, anti-coherent, eight photons, with disjoint
        # Bell supports of 21, 8, 8 and 8 label tuples
        cube = state_file(tmp_path, three_peak_state(4))
        code, out, err = run_cli(
            ["probabilities", "--state", cube, "--theta1", "0.05"], capsys
        )
        assert code == 0 and err == ""
        data = json.loads(out)
        gap_bell = data["columns"].index("gap_bell")
        for row in data["rows"]:
            assert row[gap_bell] <= 1.0 * row[0] ** 3 + 1e-12
        assert set(data["saturation"]) == {"optimal", "bell"}
        code, out, err = run_cli(
            [
                "estimate", "--state", cube, "--theta1", "0.05",
                "--n", "1000000", "--trials", "2500", "--seed", "99",
            ],
            capsys,
        )
        assert code == 0 and err == ""
        for pipeline, report in json.loads(out).items():
            # criterion 09's bound and trial count: the band sits z = 7.1 from
            # a ratio of 1 (SE 0.0141), and the measured 0.9986 (bell) and
            # 0.9980 (optimal) lie z >= 6.9 inside it
            assert 0.9 <= report["sigma_ratio"] <= 1.1, pipeline
            assert report["max_pipeline_vs_exact_gap"] <= 0.05**3

    @pytest.mark.parametrize(
        "probe,message",
        [
            (seven_photon_state, "Bell products need an even photon number 2J from 2 to 12, got 7"),
            (lambda: three_peak_state(20), "Bell products need an even photon number 2J from 2 to 12, got 40"),
        ],
        ids=["odd", "oversized"],
    )
    def test_bell_refuses_anticoherent_probe_without_pairs(
        self, probe, message, tmp_path, capsys
    ):
        # both probes have an optimal basis, but no Bell analyzer: seven photons
        # make no pairs, and 40 photons are past the 12-photon Bell products,
        # refused before any Bell-product image is allocated
        selector = state_file(tmp_path, probe())
        code, out, err = run_cli(["estimate", "--state", selector, "--trials", "5"], capsys)
        assert_single_error(code, err)
        assert f"{message}; use --pipeline optimal" in err
        assert out == ""
        code, out, err = run_cli(["probabilities", "--state", selector], capsys)
        assert code == 0
        assert err.startswith(f"warning: {message};") and len(err.splitlines()) == 1
        assert "bell_P0" not in json.loads(out)["columns"]

    def test_undefined_axis_statistics_are_null(self, capsys):
        # one shot per trial: every trial is degenerate, so the axis has no mean
        code, out, _ = run_cli(
            ["estimate", "--n", "1", "--trials", "3", "--pipeline", "optimal"], capsys
        )
        assert code == 0
        report = strict_json(out)["optimal"]
        assert report["mean_u_abs"] == [None] * 3
        assert report["sigma_u_abs"] == [None] * 3

    def test_bell_rejects_oversized_state(self, spin20_state, capsys):
        code, _, err = run_cli(
            ["estimate", "--state", spin20_state, "--pipeline", "bell", "--trials", "5"],
            capsys,
        )
        assert_single_error(code, err)

    @pytest.mark.parametrize(
        "size",
        [
            ["--trials", "2", "--n", "100000000000000000000"],  # past int64 counts
            ["--trials", "1000000000"],  # a 40 GB count matrix
        ],
    )
    def test_rejects_oversized_run(self, size, capsys):
        code, out, err = run_cli(["estimate", "--state", "tetra2", *size], capsys)
        assert_single_error(code, err)
        assert out == ""

    @pytest.mark.parametrize(
        "command", [["estimate", "--trials", "5", "--n", "1000"], ["probabilities"]]
    )
    def test_rejects_theta1_past_small_angle_range(self, command, capsys):
        # tetra2: theta1^2 J(J+1)/3 = 1.28 > 1 at theta1 = 0.8
        code, _, err = run_cli(command + ["--state", "tetra2", "--theta1", "0.8"], capsys)
        assert_single_error(code, err)
        assert "small-angle validity range" in err

    @pytest.mark.parametrize("theta1", ["1e200", "inf", "nan"])
    @pytest.mark.parametrize(
        "command", [["estimate", "--trials", "5", "--n", "1000"], ["probabilities"]]
    )
    def test_rejects_huge_or_non_finite_theta1(self, command, theta1, capsys):
        code, out, err = run_cli(command + ["--theta1", theta1], capsys)
        assert_single_error(code, err)
        assert out == ""

    @pytest.mark.parametrize(
        "command",
        [["fisher"], ["probabilities"], ["estimate", "--trials", "5"], ["decompose"]],
    )
    def test_rejects_theta1_with_overflowing_phases(self, command, capsys):
        # theta1 * m overflows: refused before numpy warns about the exp, and
        # with no small-angle warning, which follows only a finished rotation
        code, out, err = run_cli(command + ["--state", "tetra2", "--theta1", "1e308"], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: theta1 out of range: the rotation phases theta1 * m are not finite\n"
        )

    def test_large_angle_warns(self, capsys):
        code, _, err = run_cli(
            [
                "estimate", "--state", "tetra2", "--theta1", "0.3",
                "--n", "1000", "--trials", "5", "--seed", "1",
                "--pipeline", "optimal",
            ],
            capsys,
        )
        assert code == 0
        assert "warning" in err


class TestDecompose:
    def test_structure_and_singlet_weight(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--state", "tetra2", "--theta1", "0.05"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["decomposition"]["pairing"] == [[0, 1], [2, 3]]
        assert data["singlet_weight"] <= 1e-10
        amp00 = data["decomposition"]["amps"]["0,0"]
        assert math.hypot(*amp00) > 0.4

    def test_rejects_oversized_state(self, spin20_state, capsys):
        code, _, err = run_cli(["decompose", "--state", spin20_state], capsys)
        assert_single_error(code, err)

    def test_verify_tables_flag(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--state", "balance", "--verify-tables"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert 0.0 <= data["singlet_weight"] <= 1e-15
        checks = {c["label"]: c for c in data["table_verification"]["checks"]}
        assert {label for label, c in checks.items() if not c["ok"]} == {
            "n6_psi2", "n6_psi4", "n6_psi6"
        }
        assert checks["n4_psi0"]["ok"]
        assert not checks["n6_psi2"]["ok"]
        assert checks["n6_psi2"]["mismatches"]

    def test_csv_rejects_verify_tables(self, capsys):
        code, out, err = run_cli(
            ["decompose", "--format", "csv", "--verify-tables"], capsys
        )
        assert_single_error(code, err)
        assert out == ""

    def test_large_angle_warns(self, capsys):
        code, out, err = run_cli(["decompose", "--theta1", "0.1"], capsys)
        assert code == 0 and json.loads(out)["theta1"] == 0.1
        assert err.startswith("warning: theta1=0.1 exceeds") and len(err.splitlines()) == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--state", "tetra2", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "labels,re,im,prob"
        assert len(lines) == 17  # 16 label tuples


def key_tree(value):
    """The key layout of a JSON value: a dict maps each key to its value's
    tree, a list holds the merged tree of its elements, and any other
    value is None.  Merging the elements reaches the mismatch entries,
    which the first tabulated check lacks."""
    if isinstance(value, dict):
        return {k: key_tree(v) for k, v in value.items()}
    if isinstance(value, list):
        return [functools.reduce(_merge_trees, map(key_tree, value), None)]
    return None


def _merge_trees(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return {k: _merge_trees(a.get(k), b.get(k)) for k in a.keys() | b.keys()}
    if isinstance(a, list) and isinstance(b, list):
        return [_merge_trees(a[0], b[0])]
    return b if a is None else a


_SATURATION = {"fisher": [None], "qfi_diag": [None], "relative_dev": [None]}
_PREP = dict.fromkeys(["name", "n_qubits", "gate_count", "fidelity", "norm_drift", "note"])
_QCRB = {
    **dict.fromkeys(
        [
            "pipeline", "theta1", "theta2", "theta3", "n", "trials", "seed", "J",
            "mean_theta1_hat", "sigma_empirical", "sigma_predicted", "sigma_ratio",
            "degenerate_trials", "max_exact_vs_smallangle_gap", "max_pipeline_vs_exact_gap",
        ]
    ),
    "u_true_abs": [None],
    "mean_u_abs": [None],
    "sigma_u_abs": [None],
}
JSON_LAYOUTS = {
    "fisher": {
        "state": None,
        "J": None,
        "mean": [None],
        "cov": [[None]],
        "anticoherence": {
            "pass": None,
            "deviations": dict.fromkeys(
                ["max_mean_abs", "max_diagonal_dev", "max_offdiagonal_abs"]
            ),
            "tol": None,
        },
        "fisher_single": None,
        "axis": [None],
        "qfi": [[None]],
        "theta1": None,
    },
    "probabilities": {
        "state": None,
        "axis": [None],
        "columns": [None],
        "rows": [[None]],
        "saturation": {"optimal": _SATURATION, "bell": _SATURATION},
    },
    "circuit-verify": {
        "prep": {"tetra": _PREP, "n6": _PREP},
        "bell_analyzer": {
            "supports": {
                "phi0": dict.fromkeys(["0100", "0111"]),
                "phi1": dict.fromkeys(["0000", "0011", "1100", "1111"]),
                "phi2": dict.fromkeys(["0001", "0010", "1101", "1110"]),
                "phi3": dict.fromkeys(["1001", "1010"]),
            },
            "pairwise_tv": dict.fromkeys(
                ["phi0|phi1", "phi0|phi2", "phi0|phi3", "phi1|phi2", "phi1|phi3", "phi2|phi3"]
            ),
            "all_disjoint": None,
        },
    },
    "decompose": {
        "state": None,
        "theta1": None,
        "theta2": None,
        "theta3": None,
        "decomposition": {
            "pairing": [[None]],
            "amps": {f"{a},{b}": [None] for a in range(4) for b in range(4)},
        },
        "singlet_weight": None,
        "table_verification": {
            "all_ok": None,
            "checks": [
                {
                    "label": None,
                    "fidelity": None,
                    "ok": None,
                    "mismatches": [{"labels": [None], "tabulated": [None], "recomputed": [None]}],
                }
            ],
        },
    },
    "estimate": {"optimal": _QCRB, "bell": _QCRB},
}
# no Bell analyzer fits tetra1, so its report has no saturation.bell
JSON_LAYOUTS["probabilities-tetra1"] = {
    **JSON_LAYOUTS["probabilities"],
    "saturation": {"optimal": _SATURATION},
}
JSON_RUNS = {
    "fisher": ["fisher"],
    "probabilities": ["probabilities", "--grid-points", "3"],
    "probabilities-tetra1": ["probabilities", "--grid-points", "3", "--state", "tetra1"],
    "circuit-verify": ["circuit-verify"],
    "decompose": ["decompose", "--verify-tables"],
    "estimate": ["estimate", "--trials", "5", "--n", "1000"],
}


@pytest.mark.parametrize("name", JSON_RUNS)
def test_json_key_layout(name, capsys):
    code, out, _ = run_cli(JSON_RUNS[name], capsys)
    assert code == 0
    assert key_tree(json.loads(out)) == JSON_LAYOUTS[name]
