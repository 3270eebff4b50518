import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    cross_product_generator_coeffs,
    fisher_single,
    rotation_unitary,
    vdot_j_expectations,
)

from rotosense.metrology import (
    anticoherence_report,
    generator_coeffs,
    j_expectations,
    qfi_matrix,
)
from rotosense.spin_core import (
    RotationParams,
    SpinState,
    spin_operators,
)
from rotosense.states import balance, tetra1, tetra2


def random_state(rng, j):
    dim = int(round(2 * j)) + 1
    return SpinState.normalized(j, rng.normal(size=dim) + 1j * rng.normal(size=dim))


def generator_matrix(j, params, k):
    """Oracle: the dense Hermitian generator G_k = g_k . J of theta_k."""
    g = generator_coeffs(params)[:, k - 1]
    jx, jy, jz = spin_operators(j)
    return g[0] * jx + g[1] * jy + g[2] * jz


def rotation_matrix(params):
    """Oracle: the 3x3 rotation R with U^dagger J_i U = sum_j R_ij J_j.

    Extracted by conjugating the spin-1/2 operators; R is orthogonal with
    determinant +1 and leaves the rotation axis fixed.
    """
    ops = spin_operators(0.5)
    unitary = rotation_unitary(0.5, params)
    r = np.empty((3, 3))
    for i in range(3):
        conj = unitary.conj().T @ ops[i] @ unitary
        for jdx in range(3):
            # Tr(J_a J_b) = delta_ab / 2 at spin 1/2
            r[i, jdx] = 2.0 * np.trace(conj @ ops[jdx]).real
    return r


def r_form_qfi_matrix(state, params):
    """Oracle: Q = 4 (R^T g)^T Cov(J) (R^T g) from the covariance of the unrotated probe.

    U^dagger (g . J) U = (R^T g) . J.  The untransposed R g agrees only where
    Cov(J) is a multiple of the identity (anti-coherent probes).
    """
    _, cov = j_expectations(state)
    rg = rotation_matrix(params).T @ generator_coeffs(params)
    return 4.0 * rg.T @ cov @ rg


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

    def test_matches_vdot_oracle(self):
        # one Gram matrix of the spin frame against np.vdot pair by pair; the
        # moments are of size J(J+1), so the bound scales with it (one ulp of
        # a J = 5 second moment is 3.6e-15)
        rng = np.random.default_rng(59)
        for two_j in range(1, 11):
            j = two_j / 2
            for _ in range(20):
                state = random_state(rng, j)
                for new, old in zip(j_expectations(state), vdot_j_expectations(state)):
                    assert np.abs(new - old).max() <= 1e-15 * j * (j + 1)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            _, cov = j_expectations(random_state(rng, 2.5))
            assert np.linalg.norm(cov - cov.T) <= 1e-12
            assert np.linalg.eigvalsh(cov).min() >= -1e-10


def q11(state, theta2, theta3):
    """The single-axis quantum Fisher information: Q_11 about the axis (theta2, theta3)."""
    return qfi_matrix(state, RotationParams(0.0, theta2, theta3))[0, 0]


class TestFisherSingle:
    """Q_11, which the CLI reports as ``fisher_single``: 4 Var(u.J) for any theta1."""

    def test_tetra2_z(self):
        assert abs(q11(tetra2(), 0.0, 0.0) - 8.0) <= 1e-12

    def test_balance_any_axis(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert abs(q11(balance(), *rng.uniform(-3, 3, size=2)) - 16.0) <= 1e-9

    def test_eigenstate_zero_variance(self):
        assert abs(q11(SpinState.from_m_amplitudes(2, {2: 1.0}), 0.0, 0.0)) <= 1e-12

    def test_matches_direct_variance(self):
        # 4 Var(u.J) computed straight from the amplitudes
        rng = np.random.default_rng(17)
        for j in (1.0, 2.0, 3.0):
            ops = spin_operators(j)
            for _ in range(10):
                state = random_state(rng, j)
                params = RotationParams(*rng.uniform(-3, 3, size=3))
                u = params.axis
                gen = u[0] * ops[0] + u[1] * ops[1] + u[2] * ops[2]
                gpsi = gen @ state.amps
                direct = 4.0 * (np.vdot(gpsi, gpsi).real - np.vdot(state.amps, gpsi).real ** 2)
                assert abs(qfi_matrix(state, params)[0, 0] - direct) <= 1e-10


class TestAnticoherence:
    @pytest.mark.parametrize("factory", [tetra1, tetra2, balance])
    def test_known_states_pass(self, factory):
        state = factory()
        report = anticoherence_report(state.J, *j_expectations(state))
        assert report["pass"] and report["tol"] == 1e-10
        assert max(report["deviations"].values()) <= 1e-12

    def test_polarized_state_fails(self):
        state = SpinState.from_m_amplitudes(3, {3: 1.0})
        report = anticoherence_report(state.J, *j_expectations(state))
        assert not report["pass"]
        assert abs(report["deviations"]["max_mean_abs"] - 3.0) <= 1e-12

    def test_spin_below_three_halves_fails(self):
        # J = 0 has no deviation at all, yet no rotation signal to certify
        state = SpinState(0, [1.0])
        report = anticoherence_report(state.J, *j_expectations(state))
        assert report["pass"] is False
        assert set(report["deviations"].values()) == {0.0}

    def test_rotation_invariance(self):
        rng = np.random.default_rng(23)
        state = tetra2()
        for _ in range(100):
            params = RotationParams(*rng.uniform(-math.pi, math.pi, size=3))
            rotated = SpinState.normalized(
                state.J, rotation_unitary(state.J, params) @ state.amps
            )
            report = anticoherence_report(rotated.J, *j_expectations(rotated))
            assert report["pass"] and max(report["deviations"].values()) <= 1e-9


class TestGenerators:
    def test_g1_is_axis(self):
        params = RotationParams(0.7, 1.2, -0.3)
        np.testing.assert_allclose(generator_coeffs(params)[:, 0], params.axis, atol=1e-15)

    def test_zero_angle(self):
        coeffs = generator_coeffs(RotationParams(0.0, 1.2, -0.3))
        np.testing.assert_allclose(coeffs[:, 1], 0, atol=1e-15)
        np.testing.assert_allclose(coeffs[:, 2], 0, atol=1e-15)

    def test_matches_cross_product_oracle(self):
        # the triad closed form against the two cross products, on random
        # angles and on the poles and the equator of the axis sphere
        rng = np.random.default_rng(61)
        angles = [rng.uniform([-math.pi, 0.0, -math.pi], [math.pi, math.pi, math.pi])
                  for _ in range(200)]
        angles += [(t1, t2, t3) for t2 in (0.0, math.pi / 2, math.pi)
                   for t1, t3 in rng.uniform(-math.pi, math.pi, size=(20, 2))]
        for angle in angles:
            params = RotationParams(*angle)
            coeffs = generator_coeffs(params)
            assert np.abs(coeffs - cross_product_generator_coeffs(params)).max() <= 1e-15
            assert (generator_coeffs(replace(params, theta1=0.0))[:, 1:] == 0.0).all()

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

    @pytest.mark.parametrize("j", [0.5, 1.5, 2, 3])
    def test_matches_r_form(self, j):
        # rotated-frame covariance against the conjugation form, generic probes
        rng = np.random.default_rng(int(2 * j) + 200)
        for _ in range(20):
            state = random_state(rng, j)
            params = RotationParams(*rng.uniform(-3, 3, size=3))
            oracle = r_form_qfi_matrix(state, params)
            assert np.abs(qfi_matrix(state, params) - oracle).max() <= 1e-10

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            state = random_state(rng, 1.5)
            q = qfi_matrix(state, RotationParams(*rng.uniform(-2, 2, size=3)))
            assert np.linalg.eigvalsh(q).min() >= -1e-10
