import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rotosense.cli import _json_text, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_single_error(code, err):
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


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

    def test_unknown_state_file_errors(self, capsys):
        code, out, err = run_cli(["fisher", "--state", "file:/nope/missing.json"], capsys)
        assert code != 0
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_selector_errors(self, capsys):
        code, _, err = run_cli(["fisher", "--state", "ghz"], capsys)
        assert code != 0
        assert "unknown state" in err

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


class TestCircuitVerify:
    def test_default_reports(self, capsys):
        code, out, _ = run_cli(["circuit-verify"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["prep"]["tetra"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert data["prep"]["n6"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert data["bell_analyzer"]["all_disjoint"]

    def test_custom_circuit_file(self, tmp_path, capsys):
        from rotosense.circuit_sim import tetra_prep_circuit

        path = tmp_path / "circ.json"
        path.write_text(json.dumps(tetra_prep_circuit().to_json_dict()))
        code, out, _ = run_cli(
            ["circuit-verify", "--circuit", str(path), "--state", "tetra2"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["max_norm_drift"] <= 1e-12
        assert data["fidelity_vs_state"] == pytest.approx(1.0, abs=1e-9)

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

    def test_pipelines_close(self, capsys):
        code, out, _ = run_cli(
            [
                "estimate", "--state", "tetra2", "--theta1", "0.05",
                "--n", "1000000", "--trials", "200", "--seed", "99",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
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
        checks = {c["label"]: c for c in data["table_verification"]["checks"]}
        assert checks["n4_psi0"]["ok"]
        assert not checks["n6_psi2"]["ok"]
        assert checks["n6_psi2"]["mismatches"]

    def test_csv_rejects_verify_tables(self, capsys):
        code, out, err = run_cli(
            ["decompose", "--format", "csv", "--verify-tables"], capsys
        )
        assert_single_error(code, err)
        assert out == ""

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--state", "tetra2", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "labels,re,im,prob"
        assert len(lines) == 17  # 16 label tuples
