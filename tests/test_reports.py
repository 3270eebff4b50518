"""Each report function, called directly, gives what the CLI prints for it."""

import csv
import io
import json

import numpy as np
import pytest
from oracles import N6_PREP_JSON, TETRA_PREP_JSON

from rotosense.bell_analysis import decompose_report, probabilities_report
from rotosense.circuit_sim import Circuit, reference_circuits_report, user_circuit_report
from rotosense.cli import main
from rotosense.estimation import estimate_report
from rotosense.metrology import fisher_report
from rotosense.spin_core import RotationParams
from rotosense.states import get_state

PARAMS = RotationParams(0.02, 1.0, 0.5)  # the CLI's default angles
SEED = 55555  # the CLI's default seed
PREP = {"tetra2": TETRA_PREP_JSON, "balance": N6_PREP_JSON}


def printed(argv, capsys) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def as_json(payload):
    """The payload as the JSON text it stands for, read back: arrays become lists."""
    return json.loads(json.dumps(payload, default=np.ndarray.tolist))


def without(data: dict, label: str) -> dict:
    """The CLI's report without the label key the CLI adds to it."""
    assert label in data
    return {key: value for key, value in data.items() if key != label}


@pytest.mark.parametrize("name", ["tetra2", "balance"])
class TestLibraryReportIsTheCliReport:
    def test_fisher(self, name, capsys):
        data = json.loads(printed(["fisher", "--state", name], capsys))
        assert without(data, "state") == as_json(fisher_report(get_state(name), PARAMS))

    def test_probabilities(self, name, capsys):
        grid = np.linspace(0.0, PARAMS.theta1, 21)
        payload, header, rows, warnings = probabilities_report(
            get_state(name), grid, PARAMS, saturation=True
        )
        assert warnings == []
        data = json.loads(printed(["probabilities", "--state", name], capsys))
        assert without(data, "state") == as_json(payload)
        text = printed(["probabilities", "--state", name, "--format", "csv"], capsys)
        cells = list(csv.reader(io.StringIO(text)))
        assert cells[0] == header
        assert cells[1:] == [[float.__repr__(x) for x in row] for row in rows.tolist()]

    def test_circuit_file(self, name, tmp_path, capsys):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(PREP[name]))
        argv = ["circuit-verify", "--circuit", str(path), "--state", name]
        data = json.loads(printed(argv, capsys))
        report = user_circuit_report(Circuit.from_json_dict(PREP[name]), SEED, get_state(name))
        assert without(data, "circuit") == as_json(report)

    def test_estimate(self, name, capsys):
        data = json.loads(printed(["estimate", "--state", name, "--trials", "20"], capsys))
        payload, *_, warnings = estimate_report(get_state(name), PARAMS, 10**6, 20, SEED)
        assert warnings == []
        assert data == as_json(payload)
        argv = ["estimate", "--state", name, "--trials", "20", "--pipeline", "bell"]
        _, header, rows, _ = estimate_report(get_state(name), PARAMS, 10**6, 20, SEED, ["bell"])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        assert printed([*argv, "--format", "csv"], capsys) == buf.getvalue()

    def test_decompose(self, name, capsys):
        payload, header, rows, warnings = decompose_report(get_state(name), PARAMS, True)
        assert warnings == []
        data = json.loads(printed(["decompose", "--state", name, "--verify-tables"], capsys))
        assert without(data, "state") == as_json(payload)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        assert printed(["decompose", "--state", name, "--format", "csv"], capsys) == buf.getvalue()


def test_reference_circuits(capsys):
    assert json.loads(printed(["circuit-verify"], capsys)) == as_json(reference_circuits_report())


def test_probabilities_warn_past_the_small_angle_threshold():
    # the warning reads the grid's largest |theta1|, with its sign
    grid = np.linspace(0.0, -0.3, 5)
    *_, warnings = probabilities_report(get_state("tetra2"), grid, PARAMS)
    assert warnings == [
        "theta1=-0.3 exceeds the small-angle validity threshold 0.05; estimates may be biased"
    ]
