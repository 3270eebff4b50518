import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotosense.bell_analysis import (
    AGGREGATION_N4,
    AGGREGATION_N6,
    aggregate_probabilities,
    bell_decompose,
    bell_measurement,
    bell_states,
    singlet_weight,
    verify_tabulated_decompositions,
)
from rotosense.measurement import exact_probabilities, optimal_basis
from rotosense.spin_core import (
    QubitState,
    RotationParams,
    SpinState,
    dicke_to_qubit,
    rotation_unitary,
)
from rotosense.states import balance, tetra2

SQ3 = math.sqrt(3.0)


def rotated_qubit_state(state, params):
    spun = SpinState.normalized(state.J, rotation_unitary(state.J, params) @ state.amps)
    return dicke_to_qubit(spun)


class TestBellStates:
    def test_orthonormal(self):
        states = bell_states()
        gram = np.array([[np.vdot(a.amps, b.amps) for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_phi1_amplitude(self):
        phi1 = bell_states()[1]
        assert phi1.amps[1] == pytest.approx(1j / math.sqrt(2))

    def test_completeness(self):
        total = sum(np.outer(s.amps, s.amps.conj()) for s in bell_states())
        np.testing.assert_allclose(total, np.eye(4), atol=1e-15)


class TestBellDecompose:
    def test_tetra2_coefficients(self):
        bp = bell_decompose(dicke_to_qubit(tetra2()))
        assert bp[0, 0] == pytest.approx((1 + 1j / SQ3) / 2, abs=1e-12)
        assert bp[3, 3] == pytest.approx(-(1 - 1j / SQ3) / 2, abs=1e-12)
        assert bp[1, 1] == pytest.approx(-2j / SQ3 / 2, abs=1e-12)
        others = sum(
            abs(bp[t]) for t in np.ndindex(4, 4) if t not in ((0, 0), (3, 3), (1, 1))
        )
        assert others <= 1e-12

    def test_product_basis_vector(self):
        phi0, phi1 = bell_states()[0], bell_states()[1]
        product = QubitState(4, np.kron(phi0.amps, phi1.amps))
        bp = bell_decompose(product)
        assert bp[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert abs((np.abs(bp) ** 2).sum() - 1.0) <= 1e-12

    def test_psi1_up_to_global_phase(self):
        basis = optimal_basis(tetra2())
        bp = bell_decompose(dicke_to_qubit(basis.states[1]))
        target = -1j / math.sqrt(2)
        ratio = bp[0, 1] / target
        assert abs(abs(ratio) - 1.0) <= 1e-12
        assert bp[1, 0] == pytest.approx(ratio * target, abs=1e-12)
        weight = abs(bp[0, 1]) ** 2 + abs(bp[1, 0]) ** 2
        assert weight == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_norm_preserved(self, seed):
        # a linear map that keeps every norm is unitary, hence invertible
        rng = np.random.default_rng(seed)
        for n in (2, 4, 6):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            bp = bell_decompose(QubitState.normalized(n, amps))
            assert abs((np.abs(bp) ** 2).sum() - 1.0) <= 1e-12

    def test_pair_order_permutation(self):
        # swapping the two pairs of the input swaps the label axes
        qubits = dicke_to_qubit(tetra2())
        swapped = QubitState(4, qubits.amps.reshape([2] * 4).transpose(2, 3, 0, 1))
        np.testing.assert_allclose(
            bell_decompose(swapped), bell_decompose(qubits).T, atol=1e-12
        )

    def test_matching_independence_for_symmetric_states(self):
        # any perfect matching of a permutation-symmetric state gives the same tensor
        qubits = dicke_to_qubit(tetra2())
        rematched = QubitState(4, qubits.amps.reshape([2] * 4).transpose(0, 2, 1, 3))
        np.testing.assert_allclose(
            bell_decompose(rematched), bell_decompose(qubits), atol=1e-12
        )

    def test_rejects_odd_register(self):
        with pytest.raises(ValueError):
            bell_decompose(QubitState.basis(3))


class TestSingletExclusion:
    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_rotations_stay_symmetric(self, factory):
        state = factory()
        rng = np.random.default_rng(13)
        for _ in range(30):
            params = RotationParams(*rng.uniform(-math.pi, math.pi, size=3))
            bp = bell_decompose(rotated_qubit_state(state, params))
            assert singlet_weight(bp) <= 1e-10

    def test_singlet_product_has_full_weight(self):
        phi2 = bell_states()[2]
        product = QubitState(4, np.kron(phi2.amps, phi2.amps))
        assert singlet_weight(bell_decompose(product)) == pytest.approx(1.0, abs=1e-12)


class TestAggregation:
    def test_unrotated(self):
        bp = bell_decompose(dicke_to_qubit(tetra2()))
        np.testing.assert_allclose(aggregate_probabilities(bp, 4), [1, 0, 0, 0], atol=1e-12)

    def test_tetra2_z_rotation(self):
        theta = 0.05
        params = RotationParams.from_axis(theta, [0, 0, 1])
        bp = bell_decompose(rotated_qubit_state(tetra2(), params))
        agg = aggregate_probabilities(bp, 4)
        assert abs(agg[3] - 2 * theta**2) <= 1.0 * theta**3

    def test_balance_y_rotation(self):
        theta = 0.05
        params = RotationParams.from_axis(theta, [0, 1, 0])
        bp = bell_decompose(rotated_qubit_state(balance(), params))
        agg = aggregate_probabilities(bp, 6)
        assert abs(agg[2] - 4 * theta**2) <= 1.0 * theta**3

    def test_rejects_wrong_pair_count(self):
        bp = bell_decompose(dicke_to_qubit(tetra2()))
        with pytest.raises(ValueError):
            aggregate_probabilities(bp, 6)

    def test_groups_are_disjoint_and_distinct(self):
        for groups in (AGGREGATION_N4, AGGREGATION_N6):
            seen = set()
            for tuples in groups.values():
                assert len(set(tuples)) == len(tuples)
                assert not (seen & set(tuples))
                seen |= set(tuples)

    @pytest.mark.parametrize(
        "factory,n_photons", [(tetra2, 4), (balance, 6)]
    )
    def test_matches_exact_probabilities(self, factory, n_photons):
        state = factory()
        basis = optimal_basis(state)
        rng = np.random.default_rng(5)
        axes = rng.normal(size=(5, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for theta in np.geomspace(1e-3, 0.05, 6):
            for u in axes:
                params = RotationParams.from_axis(theta, u)
                exact = exact_probabilities(state, basis, params)[:4]
                agg = aggregate_probabilities(
                    bell_decompose(rotated_qubit_state(state, params)), n_photons
                )
                assert np.max(np.abs(agg - exact)) <= 1.0 * theta**3


ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)


class TestBellMeasurement:
    """Row blocks over |J,m> against the qubit-picture reference."""

    @pytest.mark.parametrize("factory,n_photons", [(tetra2, 4), (balance, 6)])
    @given(theta1=ANGLE, theta2=ANGLE, theta3=ANGLE)
    @settings(max_examples=60, deadline=None)
    def test_matches_qubit_pipeline(self, factory, n_photons, theta1, theta2, theta3):
        state = factory()
        params = RotationParams(theta1, theta2, theta3)
        blocks = exact_probabilities(state, bell_measurement(n_photons), params)[:4]
        reference = aggregate_probabilities(
            bell_decompose(rotated_qubit_state(state, params)), n_photons
        )
        assert np.max(np.abs(blocks - reference)) <= 1e-13

    @pytest.mark.parametrize("n_photons", [2, 5, 8, 40])
    def test_rejects_other_photon_numbers(self, n_photons):
        with pytest.raises(ValueError, match="4 or 6 photons"):
            bell_measurement(n_photons)


class TestTabulatedDecompositions:
    def test_four_photon_tables_exact(self):
        report = verify_tabulated_decompositions()
        for check in report.checks:
            if check.label.startswith("n4"):
                assert check.ok, check.label
                assert check.fidelity >= 1 - 1e-9

    def test_six_photon_reconciliation(self):
        # the psi2/psi4/psi6 rows are internally inconsistent with the
        # basis-change computation; the report must itemize them, not hide them
        report = verify_tabulated_decompositions()
        by_label = {c.label: c for c in report.checks}
        for label in ("n6_psi0", "n6_psi1", "n6_psi3", "n6_psi5"):
            assert by_label[label].ok
            assert by_label[label].fidelity >= 1 - 1e-9
        for label in ("n6_psi2", "n6_psi4", "n6_psi6"):
            check = by_label[label]
            assert not check.ok
            assert len(check.mismatches) > 0
        assert not report.all_ok

    def test_report_serializes(self):
        data = verify_tabulated_decompositions().to_dict()
        assert len(data["checks"]) == 12
        for entry in data["checks"]:
            assert {"label", "fidelity", "ok", "mismatches"} <= set(entry)
