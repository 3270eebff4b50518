import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotosense.bell_analysis import bell_measurement
from rotosense.measurement import (
    classical_fisher,
    exact_probabilities,
    multiparam_saturation_check,
    optimal_basis,
    small_angle_probabilities,
)
from rotosense.spin_core import RotationParams, SpinState
from rotosense.states import balance, tetra1, tetra2


ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)


def random_axes(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def measurements(state):
    """The optimal basis and the Bell analyzer for a built-in probe."""
    return optimal_basis(state), bell_measurement(int(round(2 * state.J)))


def central_difference_fisher(state, measurement, params, which, step=1e-5):
    """Oracle: Fisher information from central differences of the probabilities."""
    name = f"theta{which}"
    shifted = [
        exact_probabilities(
            state, measurement, params.replace(**{name: getattr(params, name) + h})
        ).p
        for h in (step, -step)
    ]
    deriv = (shifted[0] - shifted[1]) / (2.0 * step)
    center = exact_probabilities(state, measurement, params).p
    # outcomes at rounding level (the Bell rest outcome for four photons is
    # empty) give difference quotients of pure rounding noise
    mask = center > 1e-12
    return float(np.sum(deriv[mask] ** 2 / center[mask]))


class TestOptimalBasis:
    @pytest.mark.parametrize("factory", [tetra1, tetra2, balance])
    def test_orthonormal(self, factory):
        basis = optimal_basis(factory())
        gram = np.array(
            [[np.vdot(a.amps, b.amps) for b in basis.states] for a in basis.states]
        )
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-10

    def test_tetra2_psi3(self):
        basis = optimal_basis(tetra2())
        expected = np.zeros(5, dtype=complex)
        expected[0], expected[4] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        np.testing.assert_allclose(basis.states[3].amps, expected, atol=1e-12)

    def test_balance_psi3(self):
        basis = optimal_basis(balance())
        expected = np.zeros(7, dtype=complex)
        expected[1], expected[5] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        np.testing.assert_allclose(basis.states[3].amps, expected, atol=1e-12)

    def test_tetra2_psi1_phase(self):
        # J_1-image state keeps its e^{i pi/3} phase
        basis = optimal_basis(tetra2())
        expected = np.zeros(5, dtype=complex)
        expected[1] = expected[3] = np.exp(1j * math.pi / 3) / math.sqrt(2)
        np.testing.assert_allclose(basis.states[1].amps, expected, atol=1e-12)

    def test_rejects_polarized_state(self):
        with pytest.raises(ValueError):
            optimal_basis(SpinState.from_m_amplitudes(2, {2: 1.0}))


class TestExactProbabilities:
    def test_zero_rotation(self):
        state = tetra2()
        dist = exact_probabilities(state, optimal_basis(state), RotationParams(0.0, 1.0, 0.5))
        np.testing.assert_allclose(dist.p, [1, 0, 0, 0, 0], atol=1e-12)

    def test_tetra2_z_axis(self):
        state = tetra2()
        params = RotationParams.from_axis(0.01, [0, 0, 1])
        dist = exact_probabilities(state, optimal_basis(state), params)
        assert abs(dist.p[0] - (1 - 2e-4)) <= 1e-6
        assert abs(dist.p[3] - 2e-4) <= 1e-6
        # closed form for a z rotation of this state: P0 = cos(theta)^4
        assert abs(dist.p[0] - math.cos(0.01) ** 4) <= 1e-14

    def test_balance_x_axis(self):
        state = balance()
        params = RotationParams.from_axis(0.01, [1, 0, 0])
        dist = exact_probabilities(state, optimal_basis(state), params)
        assert abs(dist.p[1] - 4e-4) <= 1e-6

    def test_distribution_valid(self):
        state = balance()
        basis = optimal_basis(state)
        rng = np.random.default_rng(7)
        for _ in range(20):
            dist = exact_probabilities(state, basis, RotationParams(*rng.uniform(-1, 1, 3)))
            assert dist.p.min() >= 0.0
            assert abs(dist.p.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("factory", [tetra2, balance])
    @given(theta1=ANGLE, theta2=ANGLE, theta3=ANGLE)
    @settings(max_examples=60, deadline=None)
    def test_both_measurements_valid(self, factory, theta1, theta2, theta3):
        state = factory()
        params = RotationParams(theta1, theta2, theta3)
        for measurement in measurements(state):
            p = exact_probabilities(state, measurement, params).p
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_rejects_other_spin_sector(self):
        with pytest.raises(ValueError, match="spin sectors"):
            exact_probabilities(balance(), optimal_basis(tetra2()), RotationParams(0.1, 1, 1))


class TestSmallAngle:
    def test_tetra_values(self):
        dist = small_angle_probabilities(2, 0.1, [0, 0, 1])
        np.testing.assert_allclose(dist.p, [0.98, 0, 0, 0.02, 0], atol=1e-15)

    def test_balance_values(self):
        dist = small_angle_probabilities(3, 0.1, [1, 0, 0])
        np.testing.assert_allclose(dist.p, [0.96, 0.04, 0, 0, 0], atol=1e-15)

    def test_zero_angle(self):
        dist = small_angle_probabilities(5, 0.0, [0, 1, 0])
        np.testing.assert_allclose(dist.p, [1, 0, 0, 0, 0], atol=1e-15)

    def test_exact_sum(self):
        dist = small_angle_probabilities(3, 0.04, np.array([1.0, 2.0, 2.0]) / 3)
        assert dist.p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_angle(self):
        with pytest.raises(ValueError):
            small_angle_probabilities(3, 0.8, [0, 0, 1])

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            small_angle_probabilities(2, 0.1, [1, 1, 0])


class TestClassicalFisher:
    def test_tetra2_saturates(self):
        state = tetra2()
        basis = optimal_basis(state)
        params = RotationParams.from_axis(1e-3, np.array([2.0, -1.0, 2.0]) / 3)
        assert classical_fisher(state, basis, params, 1) == pytest.approx(8.0, rel=0.01)

    def test_balance_saturates(self):
        state = balance()
        basis = optimal_basis(state)
        params = RotationParams.from_axis(1e-3, [0, 1, 0])
        assert classical_fisher(state, basis, params, 1) == pytest.approx(16.0, rel=0.01)

    def test_axis_independence(self):
        state = tetra2()
        basis = optimal_basis(state)
        rng = np.random.default_rng(19)
        values = [
            classical_fisher(state, basis, RotationParams.from_axis(1e-3, u), 1)
            for u in random_axes(rng, 3)
        ]
        for v in values:
            assert v == pytest.approx(values[0], rel=0.01)

    def test_converges_from_grid(self):
        # |F(theta) - 8| shrinks as theta -> 0, up to rounding
        state = tetra2()
        basis = optimal_basis(state)
        u = np.array([1.0, 2.0, 2.0]) / 3
        grid = [0.05, 0.02, 0.01, 0.005, 0.002]
        errors = [
            abs(classical_fisher(state, basis, RotationParams.from_axis(t, u), 1) - 8.0)
            for t in grid
        ]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-6

    def test_rejects_bad_index(self):
        state = tetra2()
        with pytest.raises(ValueError):
            classical_fisher(state, optimal_basis(state), RotationParams(0.01, 1, 1), 0)

    @pytest.mark.parametrize("factory", [tetra2, balance])
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_matches_central_differences(self, factory, which):
        state = factory()
        rng = np.random.default_rng(10 * which + int(state.J))
        for measurement in measurements(state):
            for _ in range(4):
                params = RotationParams(rng.uniform(0.01, 1.0), *rng.uniform(0.2, 2.9, 2))
                exact = classical_fisher(state, measurement, params, which)
                oracle = central_difference_fisher(state, measurement, params, which)
                assert exact == pytest.approx(oracle, rel=1e-5, abs=1e-8)


class TestSaturationCheck:
    def test_tetra2_reference_point(self):
        report = multiparam_saturation_check(tetra2(), RotationParams(0.02, 1.0, 0.5))
        assert report.fisher[0] / report.qfi_diag[0] == pytest.approx(1.0, abs=0.02)
        assert report.fisher[1] / report.qfi_diag[1] == pytest.approx(1.0, abs=0.05)
        assert report.fisher[2] / report.qfi_diag[2] == pytest.approx(1.0, abs=0.05)

    def test_balance_reference_point(self):
        report = multiparam_saturation_check(balance(), RotationParams(0.02, 1.0, 0.5))
        for f, q in zip(report.fisher, report.qfi_diag):
            assert f / q == pytest.approx(1.0, abs=0.05)

    def test_axis_generators_vanish_at_zero(self):
        report = multiparam_saturation_check(tetra2(), RotationParams(1e-8, 1.0, 0.5))
        assert report.qfi_diag[1] <= 1e-12
        assert report.qfi_diag[2] <= 1e-12
        assert report.relative_dev[1] is None
        assert report.relative_dev[2] is None

    def test_report_serializes(self):
        report = multiparam_saturation_check(tetra2(), RotationParams(0.02, 1.0, 0.5))
        data = report.to_dict()
        assert set(data) == {"fisher", "qfi_diag", "relative_dev"}


class TestSmallAngleConsistency:
    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_rest_weight_is_third_order(self, factory):
        state = factory()
        basis = optimal_basis(state)
        rng = np.random.default_rng(3)
        axes = random_axes(rng, 5)
        for theta in np.geomspace(1e-3, 0.05, 8):
            for u in axes:
                rest = exact_probabilities(
                    state, basis, RotationParams.from_axis(theta, u)
                ).p[4]
                assert rest <= 1.0 * theta**3
