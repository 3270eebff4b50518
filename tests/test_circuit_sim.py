import math

import numpy as np
import pytest

from rotosense.bell_analysis import bell_states
from rotosense.circuit_sim import (
    Circuit,
    Gate,
    _apply_gates,
    analyzer_distinguishability_report,
    balanced_n6_prep_circuit,
    bell_analyzer_circuit,
    fidelity,
    gate_matrix,
    prep_circuit_report,
    run_circuit,
    tetra_prep_circuit,
)
from rotosense.spin_core import QubitState, dicke_to_qubit
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


class TestRunCircuit:
    def test_hadamard(self):
        circuit = Circuit(1, (Gate("H", (0,)),))
        out = run_circuit(circuit, QubitState.basis(1))
        np.testing.assert_allclose(out.amps, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_bell_preparation(self):
        circuit = Circuit(2, (Gate("H", (0,)), Gate("X", (1,), (0,))))
        out = run_circuit(circuit, QubitState.basis(2))
        np.testing.assert_allclose(
            out.amps, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15
        )

    def test_double_x_is_identity(self):
        rng = np.random.default_rng(1)
        state = QubitState.normalized(3, rng.normal(size=8) + 1j * rng.normal(size=8))
        circuit = Circuit(3, (Gate("X", (1,)), Gate("X", (1,))))
        out = run_circuit(circuit, state)
        assert np.linalg.norm(out.amps - state.amps) <= 1e-12

    def test_open_control(self):
        # fires only when the control is |0>
        circuit = Circuit(2, (Gate("X", (1,), (), (0,)),))
        out = run_circuit(circuit, QubitState.basis(2, 0b00))
        assert abs(out.amps[0b01]) == pytest.approx(1.0)
        out = run_circuit(circuit, QubitState.basis(2, 0b10))
        assert abs(out.amps[0b10]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(2, ()), QubitState.basis(3))


class TestGateValidation:
    def test_rejects_non_unitary_custom(self):
        with pytest.raises(ValueError):
            Gate("custom", (0,), matrix=np.array([[1, 1], [0, 1]], dtype=complex))

    def test_rejects_overlapping_qubits(self):
        with pytest.raises(ValueError):
            Gate("X", (0,), (0,))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("W", (0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate("X", (5,)),))

    def test_rejects_oversize_register(self):
        with pytest.raises(ValueError):
            Circuit(13, ())


class TestGateIdentities:
    @pytest.mark.parametrize("name", ["H", "X", "Z"])
    def test_involutions(self, name):
        m = gate_matrix(name)
        assert np.linalg.norm(m @ m - np.eye(2)) <= 1e-12

    def test_s_squared_is_z(self):
        s = gate_matrix("S")
        assert np.linalg.norm(s @ s - gate_matrix("Z")) <= 1e-12

    def test_cnot_squared(self):
        rng = np.random.default_rng(4)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        gates = (Gate("X", (1,), (0,)), Gate("X", (1,), (0,)))
        assert np.linalg.norm(_apply_gates(state, gates, 2) - state) <= 1e-12

    @pytest.mark.parametrize("name", ["H", "X", "Z", "S", "U1", "U2", "U"])
    def test_all_named_gates_unitary(self, name):
        m = gate_matrix(name)
        assert np.linalg.norm(m @ m.conj().T - np.eye(2)) <= 1e-12

    def test_s_phases_excited_state(self):
        np.testing.assert_allclose(gate_matrix("S") @ [0, 1], [0, 1j], atol=1e-15)

    def test_u_first_column(self):
        col = gate_matrix("U") @ [1, 0]
        np.testing.assert_allclose(
            col, [1 / math.sqrt(3), math.sqrt(2) / math.sqrt(3)], atol=1e-15
        )


class TestPreparationCircuits:
    def test_tetra_prep_exact(self):
        report = prep_circuit_report("tetra")
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.gate_count == len(tetra_prep_circuit().gates)

    def test_n6_prep_exact(self):
        report = prep_circuit_report("n6")
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.gate_count == len(balanced_n6_prep_circuit().gates)

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
            out = _apply_gates(amps, circuit.gates, circuit.n_qubits)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_targets_match_probe_states(self):
        out4 = run_circuit(tetra_prep_circuit(), QubitState.basis(4))
        assert fidelity(out4, dicke_to_qubit(tetra2())) == pytest.approx(1.0, abs=1e-12)
        out6 = run_circuit(balanced_n6_prep_circuit(), QubitState.basis(6))
        assert fidelity(out6, dicke_to_qubit(balance())) == pytest.approx(1.0, abs=1e-12)


class TestBellAnalyzer:
    def test_golden_supports(self):
        report = analyzer_distinguishability_report()
        assert {k: set(v) for k, v in report.supports.items()} == GOLDEN_SUPPORTS

    def test_all_disjoint(self):
        report = analyzer_distinguishability_report()
        assert report.all_disjoint
        for dist in report.pairwise_tv.values():
            assert dist == pytest.approx(1.0, abs=1e-10)

    def test_singlet_type_input_disjoint_from_symmetric(self):
        report = analyzer_distinguishability_report()
        phi2 = set(report.supports["phi2"])
        for label in ("phi0", "phi1", "phi3"):
            assert not (phi2 & set(report.supports[label]))

    def test_raw_phi0_support(self):
        report = analyzer_distinguishability_report(apply_bit_flip=False)
        assert set(report.supports["phi0"]) == GOLDEN_RAW_PHI0

    def test_probabilities_sum_to_one(self):
        circuit = bell_analyzer_circuit()
        phi0 = bell_states()[0]
        path = np.zeros(4, dtype=complex)
        path[1] = 1.0
        state = QubitState(4, np.kron(phi0.amps, path))
        probs = np.abs(run_circuit(circuit, state).amps) ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestCircuitSerialization:
    def test_json_round_trip(self):
        circuit = tetra_prep_circuit()
        back = Circuit.from_json_dict(circuit.to_json_dict())
        assert back.n_qubits == circuit.n_qubits
        assert len(back.gates) == len(circuit.gates)
        out_a = run_circuit(circuit, QubitState.basis(4))
        out_b = run_circuit(back, QubitState.basis(4))
        assert np.linalg.norm(out_a.amps - out_b.amps) <= 1e-12

    def test_open_controls_round_trip(self):
        circuit = balanced_n6_prep_circuit()
        back = Circuit.from_json_dict(circuit.to_json_dict())
        out_a = run_circuit(circuit, QubitState.basis(6))
        out_b = run_circuit(back, QubitState.basis(6))
        assert np.linalg.norm(out_a.amps - out_b.amps) <= 1e-12
