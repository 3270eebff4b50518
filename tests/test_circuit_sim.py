import math
import re

import numpy as np
import pytest
from oracles import N6_PREP_JSON, TETRA_PREP_JSON

from rotosense import circuit_sim
from rotosense.bell_analysis import BELL_STATES
from rotosense.circuit_sim import (
    Circuit,
    Gate,
    analyzer_distinguishability_report,
    balanced_n6_prep_circuit,
    bell_analyzer_circuit,
    fidelity,
    prep_circuit_report,
    run_circuit,
    tetra_prep_circuit,
)
from rotosense.cli import main
from rotosense.spin_core import dicke_to_qubit
from rotosense.states import balance, tetra2

# fixed by simulation: outcome supports of the analyzer for each
# bit-flipped Bell input (no printed table exists for these)
GOLDEN_SUPPORTS = {
    "phi0": {"0100", "0111"},
    "phi1": {"0000", "0011", "1100", "1111"},
    "phi2": {"0001", "0010", "1101", "1110"},
    "phi3": {"1001", "1010"},
}
GOLDEN_RAW_PHI0 = {"0000", "0011", "1100", "1111"}


def basis(n_qubits, index=0):
    """The computational basis state |index> of an n-qubit register."""
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def named(kind):
    """The 2x2 matrix a named gate resolves when it is built."""
    return Gate(kind, (0,)).matrix


def phi0_ud():
    """phi0 on the polarization qubits 0-1 tensored with |ud> on the path qubits."""
    return np.kron(BELL_STATES[0], basis(2, 0b01))


class TestRunCircuit:
    def test_hadamard(self):
        circuit = Circuit(1, (Gate("H", (0,)),))
        out = run_circuit(circuit)
        np.testing.assert_allclose(out, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_bell_preparation(self):
        circuit = Circuit(2, (Gate("H", (0,)), Gate("X", (1,), (0,))))
        out = run_circuit(circuit, basis(2))
        np.testing.assert_allclose(out, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15)
        np.testing.assert_array_equal(run_circuit(circuit), out)  # |00> is the default input

    def test_double_x_is_identity(self):
        rng = np.random.default_rng(1)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        circuit = Circuit(3, (Gate("X", (1,)), Gate("X", (1,))))
        out = run_circuit(circuit, state)
        assert np.linalg.norm(out - state) <= 1e-12

    def test_open_control(self):
        # fires only when the control is |0>
        circuit = Circuit(2, (Gate("X", (1,), (), (0,)),))
        out = run_circuit(circuit, basis(2, 0b00))
        assert abs(out[0b01]) == pytest.approx(1.0)
        out = run_circuit(circuit, basis(2, 0b10))
        assert abs(out[0b10]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        for shape in ((8,), (2,), (2, 2)):
            with pytest.raises(ValueError, match="circuit expects"):
                run_circuit(Circuit(2, ()), np.ones(shape, dtype=complex) / 2)

    def test_output_is_not_renormalised(self):
        # an input of norm 2 gives an output of norm 2, for every circuit
        rng = np.random.default_rng(2)
        for circuit in (tetra_prep_circuit(), balanced_n6_prep_circuit(), bell_analyzer_circuit()):
            amps = rng.normal(size=2**circuit.n_qubits) + 1j * rng.normal(size=2**circuit.n_qubits)
            amps *= 2.0 / np.linalg.norm(amps)
            assert np.linalg.norm(run_circuit(circuit, amps)) == pytest.approx(2.0, abs=1e-12)

    def test_fidelity_normalises_both(self):
        amps = dicke_to_qubit(tetra2())
        assert fidelity(2.0 * amps, 3j * amps) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="equal dimension"):
            fidelity(amps, amps[:8])

    def test_default_circuit_verify_applies_88_gates(self, monkeypatch, capsys):
        # the kernel behind run_circuit sees every gate of the two preparation
        # circuits (11 + 25) and of the flipped analyzer on four inputs (4 x 13)
        seen = []
        kernel = circuit_sim._apply_gates

        def counted(amps, gates, n):
            seen.append(len(gates))
            return kernel(amps, gates, n)

        monkeypatch.setattr(circuit_sim, "_apply_gates", counted)
        assert main(["circuit-verify"]) == 0
        capsys.readouterr()
        assert seen == [11, 25, 13, 13, 13, 13]
        assert sum(seen) == 88


class TestGateValidation:
    def test_rejects_non_unitary_custom(self):
        with pytest.raises(ValueError):
            Gate("custom", (0,), matrix=np.array([[1, 1], [0, 1]], dtype=complex))

    def test_rejects_custom_without_matrix(self):
        with pytest.raises(ValueError, match="custom gates need a 2x2 matrix"):
            Gate("custom", (0,))

    @pytest.mark.parametrize("targets", [(), (0, 1)])
    def test_rejects_other_than_one_target(self, targets):
        with pytest.raises(ValueError, match="^gates act on exactly one target qubit$"):
            Gate("X", targets)

    def test_rejects_overlapping_qubits(self):
        with pytest.raises(ValueError):
            Gate("X", (0,), (0,))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("W", (0,))

    @pytest.mark.parametrize("kind", [["H"], 5, None])
    def test_rejects_a_kind_that_is_no_name(self, kind):
        # a list is unhashable: it is refused by name, not by a dict lookup's TypeError
        with pytest.raises(ValueError, match=re.escape(f"unknown gate {kind!r}; known: ")):
            Gate(kind, (0,))

    def test_rejects_a_matrix_on_a_named_gate(self):
        # only a custom gate is given its matrix; a named kind resolves its own
        with pytest.raises(ValueError, match="only custom gates take a matrix, not H"):
            Gate("H", (0,), matrix=named("X"))

    @pytest.mark.parametrize("kind", ["H", "X", "Z", "S", "U1", "U2", "U", "custom"])
    def test_matrix_resolved_when_built(self, kind):
        # a named gate shares its kind's read-only matrix; a custom gate holds
        # a read-only copy of the one it is given
        given = np.array(named("U2")) if kind == "custom" else None
        gate = Gate(kind, (0,), matrix=given)
        assert gate.matrix.shape == (2, 2) and not gate.matrix.flags.writeable
        if kind == "custom":
            assert gate.matrix is not given
            np.testing.assert_array_equal(gate.matrix, named("U2"))
        else:
            assert gate.matrix is named(kind)

    def test_gates_compare_by_identity(self):
        # as Measurement: equal fields do not make equal gates, and no matrix is compared
        rotation = [[0.6, -0.8], [0.8, 0.6]]
        a, b = (Gate("custom", (0,), matrix=rotation) for _ in range(2))
        assert a == a and a != b and Gate("H", (0,)) != Gate("H", (0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate("X", (5,)),))

    def test_rejects_oversize_register(self):
        with pytest.raises(ValueError):
            Circuit(13, ())


class TestGateIdentities:
    @pytest.mark.parametrize("name", ["H", "X", "Z"])
    def test_involutions(self, name):
        m = named(name)
        assert np.linalg.norm(m @ m - np.eye(2)) <= 1e-12

    def test_s_squared_is_z(self):
        s = named("S")
        assert np.linalg.norm(s @ s - named("Z")) <= 1e-12

    def test_cnot_squared(self):
        rng = np.random.default_rng(4)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        circuit = Circuit(2, (Gate("X", (1,), (0,)), Gate("X", (1,), (0,))))
        assert np.linalg.norm(run_circuit(circuit, state) - state) <= 1e-12

    @pytest.mark.parametrize("name", ["H", "X", "Z", "S", "U1", "U2", "U"])
    def test_all_named_gates_unitary(self, name):
        m = named(name)
        assert np.linalg.norm(m @ m.conj().T - np.eye(2)) <= 1e-12

    def test_s_phases_excited_state(self):
        np.testing.assert_allclose(named("S") @ [0, 1], [0, 1j], atol=1e-15)

    def test_u_first_column(self):
        col = named("U") @ [1, 0]
        np.testing.assert_allclose(
            col, [1 / math.sqrt(3), math.sqrt(2) / math.sqrt(3)], atol=1e-15
        )


class TestPreparationCircuits:
    def test_tetra_prep_exact(self):
        report = prep_circuit_report("tetra")
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["gate_count"] == len(tetra_prep_circuit().gates)

    def test_n6_prep_exact(self):
        report = prep_circuit_report("n6")
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["gate_count"] == len(balanced_n6_prep_circuit().gates)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            prep_circuit_report("ghz")

    @pytest.mark.parametrize(
        "circuit_factory",
        [tetra_prep_circuit, balanced_n6_prep_circuit, bell_analyzer_circuit],
    )
    def test_norm_preserved_on_random_inputs(self, circuit_factory):
        circuit = circuit_factory()
        rng = np.random.default_rng(8)
        for _ in range(50):
            amps = rng.normal(size=2**circuit.n_qubits) + 1j * rng.normal(
                size=2**circuit.n_qubits
            )
            amps /= np.linalg.norm(amps)
            out = run_circuit(circuit, amps)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_targets_match_probe_states(self):
        out4 = run_circuit(tetra_prep_circuit())
        assert fidelity(out4, dicke_to_qubit(tetra2())) == pytest.approx(1.0, abs=1e-12)
        out6 = run_circuit(balanced_n6_prep_circuit())
        assert fidelity(out6, dicke_to_qubit(balance())) == pytest.approx(1.0, abs=1e-12)


class TestBellAnalyzer:
    def test_golden_supports(self):
        report = analyzer_distinguishability_report()
        assert {k: set(v) for k, v in report["supports"].items()} == GOLDEN_SUPPORTS

    def test_all_disjoint(self):
        report = analyzer_distinguishability_report()
        assert report["all_disjoint"]
        for dist in report["pairwise_tv"].values():
            assert dist == pytest.approx(1.0, abs=1e-10)

    def test_singlet_type_input_disjoint_from_symmetric(self):
        report = analyzer_distinguishability_report()
        phi2 = set(report["supports"]["phi2"])
        for label in ("phi0", "phi1", "phi3"):
            assert not (phi2 & set(report["supports"][label]))

    def test_raw_phi0_support(self):
        # phi0 x |ud> straight into the analyzer, without the bit flip
        probs = np.abs(run_circuit(bell_analyzer_circuit(), phi0_ud())) ** 2
        support = {format(i, "04b") for i in range(16) if probs[i] > 1e-10}
        assert support == GOLDEN_RAW_PHI0

    def test_probabilities_sum_to_one(self):
        probs = np.abs(run_circuit(bell_analyzer_circuit(), phi0_ud())) ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestCircuitSerialization:
    def test_json_round_trip(self):
        circuit = tetra_prep_circuit()
        back = Circuit.from_json_dict(TETRA_PREP_JSON)
        assert back.n_qubits == circuit.n_qubits
        assert len(back.gates) == len(circuit.gates)
        out_a = run_circuit(circuit)
        out_b = run_circuit(back)
        assert np.linalg.norm(out_a - out_b) <= 1e-12

    def test_open_controls_round_trip(self):
        circuit = balanced_n6_prep_circuit()
        back = Circuit.from_json_dict(N6_PREP_JSON)
        out_a = run_circuit(circuit)
        out_b = run_circuit(back)
        assert np.linalg.norm(out_a - out_b) <= 1e-12


class TestCustomGates:
    """A custom gate runs exactly as the named gate whose matrix it holds.

    H and X are symmetric, so U (which is not) shows a transposed matrix too.
    """

    NAMED = Circuit(
        3,
        (Gate("H", (0,)), Gate("X", (2,), (0,), (1,)), Gate("H", (1,), (2,)), Gate("U", (0,))),
    )

    def custom_twin(self):
        return Circuit(
            3,
            tuple(
                Gate("custom", g.targets, g.controls, g.open_controls, g.matrix)
                for g in self.NAMED.gates
            ),
        )

    def test_same_amplitudes_as_named_twins(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            np.testing.assert_array_equal(
                run_circuit(self.custom_twin(), amps), run_circuit(self.NAMED, amps)
            )
        np.testing.assert_array_equal(run_circuit(self.custom_twin()), run_circuit(self.NAMED))

    def test_from_json_matrix_pairs(self):
        # the [re, im] pairs a circuit file holds give the named matrices bit for bit
        def pairs(name):
            return [[[z.real, z.imag] for z in row] for row in named(name).tolist()]

        data = {
            "n_qubits": 3,
            "gates": [
                {"kind": "custom", "targets": [0], "matrix": pairs("H")},
                {"kind": "custom", "targets": [2], "controls": [0], "open_controls": [1],
                 "matrix": pairs("X")},
                {"kind": "custom", "targets": [1], "controls": [2], "matrix": pairs("H")},
                {"kind": "custom", "targets": [0], "matrix": pairs("U")},
            ],
        }
        circuit = Circuit.from_json_dict(data)
        assert [g.kind for g in circuit.gates] == ["custom"] * 4
        amps = np.exp(1j * np.arange(8.0)) / math.sqrt(8)
        np.testing.assert_array_equal(run_circuit(circuit, amps), run_circuit(self.NAMED, amps))
