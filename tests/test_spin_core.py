import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import params_from_axis, rotation_unitary

from rotosense.spin_core import (
    MAX_QUBITS,
    MAX_SPIN,
    RotationParams,
    SpinState,
    dicke_to_qubit,
    rotated_amplitudes,
    spin_operators,
)

ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


class TestSpinOperators:
    def test_spin_half_is_half_pauli(self):
        jx, jy, jz = spin_operators(0.5)
        np.testing.assert_allclose(jz, np.diag([0.5, -0.5]), atol=1e-15)
        np.testing.assert_allclose(jx, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)
        np.testing.assert_allclose(jy, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-15)

    def test_spin_two_jz_diagonal(self):
        _, _, jz = spin_operators(2)
        np.testing.assert_allclose(jz, np.diag([2, 1, 0, -1, -2]), atol=1e-15)

    def test_casimir_spin_one(self):
        jx, jy, jz = spin_operators(1)
        np.testing.assert_allclose(jx @ jx + jy @ jy + jz @ jz, 2 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("two_j", range(0, 13))
    def test_commutation_and_casimir(self, two_j):
        j = two_j / 2.0
        ops = spin_operators(j)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = ops[a] @ ops[b] - ops[b] @ ops[a]
            assert np.linalg.norm(comm - 1j * ops[c]) <= 1e-12
        casimir = sum(op @ op for op in ops)
        assert np.linalg.norm(casimir - j * (j + 1) * np.eye(two_j + 1)) <= 1e-12

    def test_hermitian(self):
        for op in spin_operators(2.5):
            assert np.linalg.norm(op - op.conj().T) == 0.0

    @pytest.mark.parametrize("bad", [-1, -0.5, 0.3, 1.2])
    def test_rejects_invalid_j(self, bad):
        with pytest.raises(ValueError):
            spin_operators(bad)


class TestAxis:
    @pytest.mark.parametrize(
        "t2,t3,expected",
        [
            (0.0, 0.7, (0, 0, 1)),
            (math.pi / 2, 0.0, (1, 0, 0)),
            (math.pi / 2, math.pi / 2, (0, 1, 0)),
        ],
    )
    def test_examples(self, t2, t3, expected):
        np.testing.assert_allclose(RotationParams(0.0, t2, t3).axis, expected, atol=1e-12)

    @given(t2=ANGLES, t3=ANGLES)
    def test_unit_norm(self, t2, t3):
        assert abs(np.linalg.norm(RotationParams(0.0, t2, t3).axis) - 1.0) <= 1e-12


class TestRotationUnitary:
    def test_identity_at_zero(self):
        u = rotation_unitary(2, RotationParams(0.0, 1.0, 2.0))
        np.testing.assert_allclose(u, np.eye(5), atol=1e-12)

    def test_two_pi_integer_spin(self):
        u = rotation_unitary(2, RotationParams(2 * math.pi, 0.3, 1.1))
        np.testing.assert_allclose(u, np.eye(5), atol=1e-12)

    @given(theta1=ANGLES, theta2=ANGLES, theta3=ANGLES)
    @settings(max_examples=50)
    def test_spin_half_closed_form(self, theta1, theta2, theta3):
        params = RotationParams(theta1, theta2, theta3)
        u = params.axis
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        expected = math.cos(theta1 / 2) * np.eye(2) - 1j * math.sin(theta1 / 2) * (
            u[0] * sx + u[1] * sy + u[2] * sz
        )
        np.testing.assert_allclose(rotation_unitary(0.5, params), expected, atol=1e-12)

    @given(a=ANGLES, b=ANGLES, t2=ANGLES, t3=ANGLES)
    @settings(max_examples=50)
    def test_group_law_same_axis(self, a, b, t2, t3):
        u1 = rotation_unitary(1.5, RotationParams(a, t2, t3))
        u2 = rotation_unitary(1.5, RotationParams(b, t2, t3))
        u12 = rotation_unitary(1.5, RotationParams(a + b, t2, t3))
        assert np.linalg.norm(u1 @ u2 - u12) <= 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = RotationParams(*rng.uniform(-3, 3, size=3))
            u = rotation_unitary(3, params)
            assert np.linalg.norm(u @ u.conj().T - np.eye(7)) <= 1e-12

    def test_rotated_amplitudes_match_unitary(self):
        rng = np.random.default_rng(4)
        state = SpinState.normalized(3, rng.normal(size=7) + 1j * rng.normal(size=7))
        thetas = rng.uniform(-math.pi, math.pi, size=6)
        u = RotationParams(0.0, 0.7, -1.9).axis
        rows = rotated_amplitudes(state, thetas, u)
        for k, theta in enumerate(thetas):
            expected = rotation_unitary(3, RotationParams(theta, 0.7, -1.9)) @ state.amps
            assert np.linalg.norm(rows[k] - expected) <= 1e-13


class TestStateTypes:
    def test_spin_state_normalizes(self):
        st_ = SpinState.normalized(1, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(st_.amps, [1.0, 0.0, 0.0])

    def test_rejects_far_from_normalized(self):
        with pytest.raises(ValueError):
            SpinState(1, np.array([2.0, 0.0, 0.0]))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            SpinState.normalized(1, np.zeros(3))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SpinState(1, np.array([1.0, 0.0]))

    def test_from_m_amplitudes_rejects_bad_m(self):
        with pytest.raises(ValueError):
            SpinState.from_m_amplitudes(1, {1.5: 1.0})

    def test_json_round_trip(self):
        st_ = SpinState.from_m_amplitudes(2, {2: 0.5, -2: 0.5, 0: 0.5j * math.sqrt(2)})
        data = {"J": 2, "amps": [[0.5, 0], [0, 0], [0, 0.5 * math.sqrt(2)], [0, 0], [0.5, 0]]}
        back = SpinState.from_json_dict(data)
        np.testing.assert_allclose(back.amps, st_.amps, atol=1e-15)

    def test_spin_ceiling(self):
        # J = MAX_SPIN holds 2J+1 amplitudes; one more half step is refused
        # before any (2J+1)^2 operator is built
        assert SpinState.from_m_amplitudes(MAX_SPIN, {0: 1.0}).amps.size == 2 * MAX_SPIN + 1
        too_big = MAX_SPIN + 0.5
        for build in (
            lambda: SpinState(too_big, np.ones(2 * MAX_SPIN + 2) / math.sqrt(2 * MAX_SPIN + 2)),
            lambda: SpinState.from_m_amplitudes(too_big, {0.5: 1.0}),
            lambda: spin_operators(too_big),
        ):
            with pytest.raises(ValueError, match=f"at most {MAX_SPIN}"):
                build()

    def test_params_axis_round_trip(self):
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        params = params_from_axis(0.1, u)
        np.testing.assert_allclose(params.axis, u, atol=1e-12)

    def test_params_reject_nonfinite(self):
        with pytest.raises(ValueError):
            RotationParams(math.nan, 0.0, 0.0)


class TestPictureConversions:
    def test_top_state(self):
        qs = dicke_to_qubit(SpinState.from_m_amplitudes(2, {2: 1.0}))
        assert qs[0] == 1.0
        assert np.count_nonzero(qs) == 1

    def test_single_excitation(self):
        qs = dicke_to_qubit(SpinState.from_m_amplitudes(2, {1: 1.0}))
        hot = [i for i in range(16) if abs(qs[i]) > 1e-12]
        assert hot == [1, 2, 4, 8]
        np.testing.assert_allclose(qs[hot], 0.5)

    def test_double_excitation(self):
        qs = dicke_to_qubit(SpinState.from_m_amplitudes(2, {0: 1.0}))
        hot = [i for i in range(16) if abs(qs[i]) > 1e-12]
        assert hot == [3, 5, 6, 9, 10, 12]
        np.testing.assert_allclose(qs[hot], 1 / math.sqrt(6))

    def test_read_only_unit_amplitudes(self):
        qs = dicke_to_qubit(SpinState.from_m_amplitudes(2, {2: 1.0, 0: 1j, -1: 1.0}))
        assert qs.shape == (16,) and not qs.flags.writeable
        assert np.linalg.norm(qs) == pytest.approx(1.0, abs=1e-15)

    def test_one_photon_is_the_floor(self):
        # J = 1/2 is one qubit, its amplitudes as they are; J = 0 has no qubit
        assert dicke_to_qubit(SpinState(0.5, [0.6, 0.8])).tolist() == [0.6, 0.8]
        with pytest.raises(ValueError, match=r"the qubit picture needs 1\.\.12 photons"):
            dicke_to_qubit(SpinState(0, [1.0]))

    def test_rejects_register_above_ceiling(self):
        # two photons past the ceiling: refused before 2^N amplitudes are allocated
        with pytest.raises(ValueError, match="qubit picture"):
            dicke_to_qubit(SpinState.from_m_amplitudes((MAX_QUBITS + 2) / 2, {0: 1.0}))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_collective_vs_local_rotation(self, n):
        # rotating in the spin picture must match per-qubit rotation
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = SpinState.normalized(n / 2.0, amps)
        params = RotationParams(*rng.uniform(-2, 2, size=3))
        collective = dicke_to_qubit(
            SpinState.normalized(n / 2.0, rotation_unitary(n / 2.0, params) @ state.amps)
        )
        single = rotation_unitary(0.5, params)
        local = np.eye(1)
        for _ in range(n):
            local = np.kron(local, single)
        expected = local @ dicke_to_qubit(state)
        assert np.linalg.norm(collective - expected) <= 1e-10
