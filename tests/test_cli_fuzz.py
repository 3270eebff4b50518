"""Fuzz the CLI boundary: every run ends in a report or in one `error:` line.

Argv, config files, state files and circuit files come from one grammar
that mixes valid values with NaN, the infinities, huge, negative and
wrong-typed ones.  Valid sizes stay small (trials <= 50, n <= 10^6, grid
<= 101), so every run is quick; sizes past the ceilings are rejected
before anything is allocated.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import assert_well_formed_run

from rotosense.cli import main

NASTY_NUMBERS = ["nan", "inf", "-inf", "1e200", "1e308", "-1e-3", "-7", "0", "abc", ""]
THETA = st.floats(-0.06, 0.06).map(repr) | st.sampled_from(NASTY_NUMBERS)
STATES = st.sampled_from(
    ["tetra1", "tetra2", "balance", "nosuch", "file:{state}", "file:{missing}"]
)

# flag -> values, and the subcommands that take it
COMMON = {
    "--state": STATES,
    "--theta1": THETA,
    "--theta2": THETA,
    "--theta3": THETA,
    "--n": st.integers(1, 10**6).map(str) | st.sampled_from(["0", "-5", str(2**63), "1e6", "x"]),
    "--trials": st.integers(1, 50).map(str)
    | st.sampled_from(["0", "-3", str(10**9), "2.5", "x"]),
    "--seed": st.integers(0, 2**70).map(str) | st.sampled_from(["-1", "1.5", "x"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--out": st.just("{out}"),
    "--config": st.just("{config}"),
}
EXTRA = {
    "fisher": {},
    "probabilities": {
        "--grid-points": st.integers(1, 101).map(str)
        | st.sampled_from(["0", "-1", str(10**6), "x"]),
    },
    "circuit-verify": {"--circuit": st.just("{circuit}")},
    "estimate": {"--pipeline": st.sampled_from(["optimal", "bell", "both", "xx"])},
    "decompose": {"--verify-tables": st.none()},
}

CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 50),
    st.sampled_from([10**400, 2**63, 10**9]),
    st.floats(-0.06, 0.06),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200]),
    st.sampled_from(["tetra2", "balance", "file:{state}", "json", "csv", "x"]),
    st.lists(st.integers(), max_size=2),
)
CONFIG_KEYS = st.sampled_from(
    ["state", "theta1", "theta2", "theta3", "n", "trials", "seed", "out", "format", "bogus"]
)
CONFIGS = st.one_of(
    st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, max_size=4).map(json.dumps),
    st.sampled_from(["[1, 2]", "{not json", ""]),
)

AMP = st.floats(-1, 1)
PAIRS = st.tuples(AMP, AMP).map(list) | st.sampled_from(
    [["x", 0], [math.nan, 0], [math.inf, 0], [1e308, 1e308], [1], [True, 0], "x", None]
)
STATE_FILES = st.one_of(
    st.fixed_dictionaries(
        {
            "J": st.sampled_from(
                [0.5, 1, 2, 3, 4, 2.5, 1.3, -1, 600, 10**400, True, "2", None, math.nan, math.inf]
            ),
            "amps": st.lists(PAIRS, max_size=9),
        }
    ).map(json.dumps),
    st.sampled_from(['{"J": 2}', "[1, 2]", "not json"]),
)


def _matrix(entry):
    """A 2x2 custom-gate matrix of [re, im] pairs with entry in the corner."""
    return [[entry, [0, 0]], [[0, 0], [1, 0]]]


def _custom_gate_file(entry):
    """A two-qubit circuit file holding one custom gate, _matrix(entry)."""
    gate = {"kind": "custom", "targets": [0], "matrix": _matrix(entry)}
    return json.dumps({"n_qubits": 2, "gates": [gate]})


QUBITS = st.lists(st.integers(0, 3) | st.sampled_from([7, -1, True, 1.0]), max_size=2)
MATRICES = st.sampled_from(
    [
        [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        [[[0.6, 0], [-0.8, 0]], [[0.8, 0], [0.6, 0]]],
        _matrix([math.nan, 0]),
        _matrix([math.inf, 0]),
        _matrix([1e308, 0]),
        _matrix([10**400, 0]),
        _matrix([True, 0]),
        _matrix([0.5, 0]),
    ]
)
GATES = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["H", "X"]), "targets": QUBITS}, optional={"controls": QUBITS}
    ),
    st.fixed_dictionaries({"kind": st.just("custom"), "targets": QUBITS, "matrix": MATRICES}),
)
CIRCUIT_FILES = st.one_of(
    st.fixed_dictionaries(
        {
            "n_qubits": st.sampled_from([1, 2, 4, 0, 13, True]),
            "gates": st.lists(GATES, max_size=4) | st.sampled_from(["H", {"kind": "H"}, None]),
        }
    ).map(json.dumps),
    st.sampled_from(["not json", "[1, 2]"]),
)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(EXTRA)))
    flags = {**COMMON, **EXTRA[command]}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=6)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    config = draw(CONFIGS)
    if '"out"' in config:  # only ever write inside the run's directory
        data = json.loads(config)
        data["out"] = "{out}" if isinstance(data["out"], str) else data["out"]
        config = json.dumps(data)
    return argv, config, draw(STATE_FILES), draw(CIRCUIT_FILES)


@given(invocations())
@settings(max_examples=300, deadline=None)
@example((["decompose", "--state", "file:{state}"], "{}", '{"J": 0.5, "amps": [[NaN, 0]]}', ""))
@example((["fisher", "--state", "file:{state}"], "{}", '{"J": 0.5, "amps": [[1e308, 1e308]]}', ""))
@example((["fisher", "--theta1", "1e308"], "{}", "", ""))
@example((["probabilities", "--state", "file:{state}"], "{}", '{"J": 0, "amps": [[1, 0]]}', ""))
@example((["circuit-verify", "--circuit", "{circuit}"], "{}", "", _custom_gate_file([math.nan, 0])))
@example((["circuit-verify", "--circuit", "{circuit}"], "{}", "", _custom_gate_file([1e308, 0])))
@example((["circuit-verify", "--circuit", "{circuit}"], "{}", "", _custom_gate_file([10**400, 0])))
@example((["circuit-verify", "--circuit", "{circuit}"], "{}", "", _custom_gate_file([True, 0])))
def test_cli_ends_in_report_or_one_error_line(invocation):
    argv, config, state, circuit = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "state": f"{tmp}/state.json",
            "missing": f"{tmp}/missing.json",
            "config": f"{tmp}/config.json",
            "out": f"{tmp}/out.txt",
            "circuit": f"{tmp}/circuit.json",
        }
        Path(paths["state"]).write_text(state)
        Path(paths["circuit"]).write_text(circuit)
        Path(paths["config"]).write_text(
            config.replace("{state}", paths["state"]).replace("{out}", paths["out"])
        )
        argv = [arg.format(**paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        report = Path(paths["out"]).read_text() if Path(paths["out"]).exists() else ""
    assert_well_formed_run(code, report or out.getvalue(), err.getvalue(), (argv, config, state))
