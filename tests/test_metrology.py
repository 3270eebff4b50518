import math
from dataclasses import replace

import numpy as np
import pytest

from rotosense.metrology import (
    anticoherence_report,
    fisher_single,
    generator_coeffs,
    generator_matrix,
    j_expectations,
    qfi_matrix,
    rotation_matrix,
)
from rotosense.spin_core import (
    RotationParams,
    SpinState,
    rotation_unitary,
    spin_operators,
)
from rotosense.states import balance, tetra1, tetra2


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_state(rng, j):
    dim = int(round(2 * j)) + 1
    return SpinState.normalized(j, rng.normal(size=dim) + 1j * rng.normal(size=dim))


class TestJExpectations:
    def test_coherent_top_state(self):
        mean, cov = j_expectations(SpinState.from_m_amplitudes(2, {2: 1.0}))
        np.testing.assert_allclose(mean, [0, 0, 2], atol=1e-12)
        np.testing.assert_allclose(cov, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_tetra2(self):
        mean, cov = j_expectations(tetra2())
        np.testing.assert_allclose(mean, 0, atol=1e-12)
        np.testing.assert_allclose(cov, 2 * np.eye(3), atol=1e-12)

    def test_balance(self):
        mean, cov = j_expectations(balance())
        np.testing.assert_allclose(mean, 0, atol=1e-12)
        np.testing.assert_allclose(cov, 4 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1, 2, 3.5])
    def test_trace_identity(self, j):
        rng = np.random.default_rng(int(2 * j))
        for _ in range(10):
            state = random_state(rng, j)
            mean, cov = j_expectations(state)
            expected = j * (j + 1) - float(mean @ mean)
            assert abs(np.trace(cov) - expected) <= 1e-10

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            _, cov = j_expectations(random_state(rng, 2.5))
            assert np.linalg.norm(cov - cov.T) <= 1e-12
            assert np.linalg.eigvalsh(cov).min() >= -1e-10


class TestFisherSingle:
    def test_tetra2_z(self):
        assert abs(fisher_single(tetra2(), [0, 0, 1]) - 8.0) <= 1e-12

    def test_balance_any_axis(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert abs(fisher_single(balance(), random_axis(rng)) - 16.0) <= 1e-9

    def test_eigenstate_zero_variance(self):
        assert abs(fisher_single(SpinState.from_m_amplitudes(2, {2: 1.0}), [0, 0, 1])) <= 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            fisher_single(tetra2(), [1.0, 1.0, 0.0])

    def test_matches_direct_variance(self):
        # 4 Var(u.J) computed straight from the amplitudes
        rng = np.random.default_rng(17)
        for j in (1.0, 2.0, 3.0):
            ops = spin_operators(j)
            for _ in range(10):
                state, u = random_state(rng, j), random_axis(rng)
                gen = u[0] * ops[0] + u[1] * ops[1] + u[2] * ops[2]
                gpsi = gen @ state.amps
                direct = 4.0 * (np.vdot(gpsi, gpsi).real - np.vdot(state.amps, gpsi).real ** 2)
                assert abs(fisher_single(state, u) - direct) <= 1e-10


class TestAnticoherence:
    @pytest.mark.parametrize("factory", [tetra1, tetra2, balance])
    def test_known_states_pass(self, factory):
        assert anticoherence_report(factory(), 1e-12).passed

    def test_polarized_state_fails(self):
        report = anticoherence_report(SpinState.from_m_amplitudes(3, {3: 1.0}), 1e-12)
        assert not report.passed
        assert abs(report.max_mean_abs - 3.0) <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(23)
        state = tetra2()
        for _ in range(100):
            params = RotationParams(*rng.uniform(-math.pi, math.pi, size=3))
            rotated = SpinState.normalized(
                state.J, rotation_unitary(state.J, params) @ state.amps
            )
            assert anticoherence_report(rotated, 1e-9).passed


class TestGenerators:
    def test_g1_is_axis(self):
        params = RotationParams(0.7, 1.2, -0.3)
        np.testing.assert_allclose(generator_coeffs(params)[:, 0], params.axis, atol=1e-15)

    def test_zero_angle(self):
        coeffs = generator_coeffs(RotationParams(0.0, 1.2, -0.3))
        np.testing.assert_allclose(coeffs[:, 1], 0, atol=1e-15)
        np.testing.assert_allclose(coeffs[:, 2], 0, atol=1e-15)

    def test_axis_orthogonality(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            params = RotationParams(*rng.uniform(-3, 3, size=3))
            coeffs = generator_coeffs(params)
            assert abs(coeffs[:, 1] @ params.axis) <= 1e-12
            assert abs(coeffs[:, 2] @ params.axis) <= 1e-12

    @pytest.mark.parametrize("j", [0.5, 2, 3])
    def test_finite_difference_oracle(self, j):
        # G_k = i (dU/dtheta_k) U^dagger by central differences, step 1e-6
        rng = np.random.default_rng(int(2 * j) + 100)
        step = 1e-6
        for _ in range(20):
            params = RotationParams(*rng.uniform([-3, 0.1, -3], [3, 3.0, 3]))
            unitary = rotation_unitary(j, params)
            for k in (1, 2, 3):
                name = f"theta{k}"
                up = rotation_unitary(
                    j, replace(params, **{name: getattr(params, name) + step})
                )
                um = rotation_unitary(
                    j, replace(params, **{name: getattr(params, name) - step})
                )
                fd = 1j * ((up - um) / (2 * step)) @ unitary.conj().T
                assert np.linalg.norm(fd - generator_matrix(j, params, k)) <= 1e-5

    def test_generator_matrix_hermitian(self):
        params = RotationParams(0.9, 0.8, 0.7)
        for k in (1, 2, 3):
            g = generator_matrix(2, params, k)
            assert np.linalg.norm(g - g.conj().T) <= 1e-10

    def test_generator_k1_axis_z(self):
        g = generator_matrix(2, RotationParams(0.4, 0.0, 0.0), 1)
        np.testing.assert_allclose(g, spin_operators(2)[2], atol=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            generator_matrix(2, RotationParams(0.1, 0.2, 0.3), 4)


class TestRotationMatrix:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(
            rotation_matrix(RotationParams(0.0, 0.4, 1.0)), np.eye(3), atol=1e-12
        )

    def test_orthogonal_unit_determinant(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            r = rotation_matrix(RotationParams(*rng.uniform(-3, 3, size=3)))
            assert np.linalg.norm(r @ r.T - np.eye(3)) <= 1e-10
            assert abs(np.linalg.det(r) - 1.0) <= 1e-10

    @pytest.mark.parametrize("j", [0.5, 1.0])
    def test_conjugation_residual(self, j):
        # U^dagger J_i U = sum_j R_ij J_j must hold in higher irreps too
        params = RotationParams(math.pi / 2, 0.0, 0.0)
        r = rotation_matrix(params)
        ops = spin_operators(j)
        unitary = rotation_unitary(j, params)
        for i in range(3):
            lhs = unitary.conj().T @ ops[i] @ unitary
            rhs = sum(r[i, k] * ops[k] for k in range(3))
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_axis_is_fixed(self):
        params = RotationParams(1.3, 1.1, 0.2)
        np.testing.assert_allclose(rotation_matrix(params) @ params.axis, params.axis, atol=1e-12)


class TestQfiMatrix:
    def test_q11_tetra2(self):
        q = qfi_matrix(tetra2(), RotationParams(0.2, 0.9, 0.4))
        assert abs(q[0, 0] - 8.0) <= 1e-9

    def test_anticoherent_shortcut(self):
        rng = np.random.default_rng(37)
        state = balance()
        jj = state.J * (state.J + 1) / 3.0
        for _ in range(10):
            params = RotationParams(*rng.uniform(-2, 2, size=3))
            g = generator_coeffs(params)
            shortcut = 4.0 * jj * g.T @ g
            assert np.linalg.norm(qfi_matrix(state, params) - shortcut) <= 1e-10

    def test_zero_angle_rank_one(self):
        q = qfi_matrix(tetra2(), RotationParams(0.0, 1.0, 0.5))
        np.testing.assert_allclose(q, np.diag([8.0, 0.0, 0.0]), atol=1e-12)

    def test_q11_equals_fisher_single(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            state = random_state(rng, 2)
            params = RotationParams(*rng.uniform(-2, 2, size=3))
            q = qfi_matrix(state, params)
            assert abs(q[0, 0] - fisher_single(state, params.axis)) <= 1e-10

    def test_degenerate_polar_axis(self):
        # theta2 = 0 makes the azimuth generator vanish: rank-deficient, not an error
        q = qfi_matrix(tetra2(), RotationParams(0.3, 0.0, 0.7))
        assert abs(q[2, 2]) <= 1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            state = random_state(rng, 1.5)
            q = qfi_matrix(state, RotationParams(*rng.uniform(-2, 2, size=3)))
            assert np.linalg.eigvalsh(q).min() >= -1e-10
