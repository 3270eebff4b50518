import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import params_from_axis

from rotosense.bell_analysis import bell_measurement
from rotosense.measurement import (
    Measurement,
    _block_sums,
    _check_rows,
    classical_fisher_matrix,
    exact_probabilities,
    multiparam_saturation_check,
    optimal_basis,
    small_angle_probabilities,
    sweep_probabilities,
)
from rotosense.metrology import qfi_matrix
from rotosense.spin_core import RotationParams, SpinState, rotated_amplitudes
from rotosense.states import balance, tetra1, tetra2


ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)
REFERENCE = RotationParams(0.02, 1.0, 0.5)


def random_axes(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def measurements(state):
    """The optimal basis and the Bell analyzer for a built-in probe."""
    basis = optimal_basis(state)
    return basis, bell_measurement(state)


def central_difference_fisher(state, measurement, params, step=1e-5):
    """Oracle: the Fisher matrix from central differences of the probabilities."""
    center = exact_probabilities(state, measurement, params)
    derivs = []
    for name in ("theta1", "theta2", "theta3"):
        shifted = [
            exact_probabilities(
                state, measurement, replace(params, **{name: getattr(params, name) + h})
            )
            for h in (step, -step)
        ]
        derivs.append((shifted[0] - shifted[1]) / (2.0 * step))
    # outcomes at rounding level (the Bell rest outcome for four photons is
    # empty) give difference quotients of pure rounding noise
    mask = center > 1e-12
    d = np.array(derivs)[:, mask]
    return d @ (d / center[mask]).T


class TestCheckRows:
    def test_refuses_other_category_counts(self):
        with pytest.raises(ValueError, match="^expected five outcome categories$"):
            _check_rows(np.full((2, 4), 0.25))

    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, np.nan], ids=["negative", "above-1", "nan"])
    def test_refuses_out_of_range(self, bad):
        p = np.array([[1.0, 0, 0, 0, 0], [0.5, 0.5, 0, 0, 0]])
        p[1, 2] = bad
        with pytest.raises(ValueError, match="^probabilities out of range$"):
            _check_rows(p)

    def test_names_the_worst_row_sum(self):
        # the first row sums to 1 within rounding; the refusal names the second's sum
        p = np.array([[0.2, 0.2, 0.2, 0.2, 0.2], [0.2, 0.2, 0.2, 0.2, 0.2 + 1e-9]])
        worst = re.escape(str(float(p[1].sum())))
        with pytest.raises(ValueError, match=f"^probabilities sum to {worst}, not 1$"):
            _check_rows(p)


class TestOptimalBasis:
    @pytest.mark.parametrize("factory", [tetra1, tetra2, balance])
    def test_orthonormal(self, factory):
        basis = optimal_basis(factory())
        gram = basis.rows[:4] @ basis.rows[:4].conj().T
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-10

    def test_tetra2_psi3(self):
        basis = optimal_basis(tetra2())
        expected = np.zeros(5, dtype=complex)
        expected[0], expected[4] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        np.testing.assert_allclose(basis.rows[3].conj(), expected, atol=1e-12)

    def test_balance_psi3(self):
        basis = optimal_basis(balance())
        expected = np.zeros(7, dtype=complex)
        expected[1], expected[5] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        np.testing.assert_allclose(basis.rows[3].conj(), expected, atol=1e-12)

    def test_tetra2_psi1_phase(self):
        # J_1-image state keeps its e^{i pi/3} phase
        basis = optimal_basis(tetra2())
        expected = np.zeros(5, dtype=complex)
        expected[1] = expected[3] = np.exp(1j * math.pi / 3) / math.sqrt(2)
        np.testing.assert_allclose(basis.rows[1].conj(), expected, atol=1e-12)

    def test_rejects_polarized_state(self):
        with pytest.raises(ValueError):
            optimal_basis(SpinState.from_m_amplitudes(2, {2: 1.0}))


class TestExactProbabilities:
    def test_zero_rotation(self):
        state = tetra2()
        p = exact_probabilities(state, optimal_basis(state), RotationParams(0.0, 1.0, 0.5))
        np.testing.assert_allclose(p, [1, 0, 0, 0, 0], atol=1e-12)

    def test_tetra2_z_axis(self):
        state = tetra2()
        params = params_from_axis(0.01, [0, 0, 1])
        p = exact_probabilities(state, optimal_basis(state), params)
        assert abs(p[0] - (1 - 2e-4)) <= 1e-6
        assert abs(p[3] - 2e-4) <= 1e-6
        # closed form for a z rotation of this state: P0 = cos(theta)^4
        assert abs(p[0] - math.cos(0.01) ** 4) <= 1e-14

    def test_balance_x_axis(self):
        state = balance()
        params = params_from_axis(0.01, [1, 0, 0])
        p = exact_probabilities(state, optimal_basis(state), params)
        assert abs(p[1] - 4e-4) <= 1e-6

    def test_distribution_valid(self):
        state = balance()
        basis = optimal_basis(state)
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = exact_probabilities(state, basis, RotationParams(*rng.uniform(-1, 1, 3)))
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("factory", [tetra2, balance])
    @given(theta1=ANGLE, theta2=ANGLE, theta3=ANGLE)
    @settings(max_examples=60, deadline=None)
    def test_both_measurements_valid(self, factory, theta1, theta2, theta3):
        state = factory()
        params = RotationParams(theta1, theta2, theta3)
        for measurement in measurements(state):
            p = exact_probabilities(state, measurement, params)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_rejects_nan_angle(self):
        state = tetra2()
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="out of range"):
            sweep_probabilities(state, optimal_basis(state), [0.1, math.nan], [0, 0, 1])

    def test_rejects_other_spin_sector(self):
        with pytest.raises(ValueError, match="spin sectors"):
            exact_probabilities(balance(), optimal_basis(tetra2()), RotationParams(0.1, 1, 1))

    @pytest.mark.parametrize("u", [[2, 0, 0], [0.6, 0.8], [math.nan, 0, 1]])
    def test_rejects_non_unit_axis(self, u):
        # a longer axis would scale the angle: [2, 0, 0] gave the theta1 = 0.2 row
        with pytest.raises(ValueError, match="u must be a unit 3-vector"):
            sweep_probabilities(tetra2(), optimal_basis(tetra2()), [0.1], u)

    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_measurements_share_one_rotation(self, factory):
        state = factory()
        pair = measurements(state)
        grid = np.linspace(0.0, 0.05, 11)
        u = random_axes(np.random.default_rng(5), 1)[0]
        rows = sweep_probabilities(state, pair, grid, u)
        assert rows.shape == (2, 11, 5)
        for k, measurement in enumerate(pair):
            np.testing.assert_array_equal(rows[k], sweep_probabilities(state, measurement, grid, u))
        params = params_from_axis(0.03, u)
        assert exact_probabilities(state, pair, params).shape == (2, 5)

    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_sweep_rows_are_one_point_rows(self, factory):
        # a row is a function of its angle alone: row k of a 101-point sweep
        # is exact_probabilities at grid[k], bit for bit, for both measurements
        state = factory()
        pair = measurements(state)
        theta2, theta3 = 2.1, -0.7
        grid = np.linspace(-0.3, 0.3, 101)
        rows = sweep_probabilities(state, pair, grid, RotationParams(0.0, theta2, theta3).axis)
        for k, theta1 in enumerate(grid):
            exact = exact_probabilities(state, pair, RotationParams(theta1, theta2, theta3))
            assert rows[:, k].tobytes() == exact.tobytes(), k

    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_block_sums_of_the_bell_analyzer(self, factory):
        # tetra2's Bell rest block is empty, so it takes the zero-filling path;
        # balance's five blocks all hold rows, so it takes the one reduceat
        measurement = bell_measurement(factory())
        values = np.random.default_rng(2).random((len(measurement.rows), 3))
        edges = [*measurement.starts, len(values)]
        assert (edges[-2] == edges[-1]) == (factory is tetra2)
        sums = _block_sums(measurement, values)
        expected = [values[a:b].sum(axis=0) for a, b in zip(edges, edges[1:])]
        np.testing.assert_allclose(sums, expected, rtol=1e-15, atol=0)
        assert (sums[4] == 0).all() == (factory is tetra2)

    def test_empty_blocks_sum_to_zero(self):
        # K_1, K_3 and K_rest hold no rows: np.add.reduceat alone would give
        # an empty block the next row, and refuses a start past the last row
        state = tetra2()
        measurement = Measurement(J=2, rows=np.eye(5), starts=(0, 2, 2, 5, 5))
        params = RotationParams(0.3, 1.0, 0.5)
        w = np.abs(rotated_amplitudes(state, [0.3], params.axis)[:, 0]) ** 2
        p = exact_probabilities(state, measurement, params)
        np.testing.assert_allclose(p, [w[:2].sum(), 0, w[2:].sum(), 0, 0], atol=1e-15)
        assert p[[1, 3, 4]].tolist() == [0, 0, 0]
        f = classical_fisher_matrix(state, measurement, params)
        assert np.linalg.eigvalsh(qfi_matrix(state, params) - f).min() >= -1e-10


class TestSmallAngle:
    def test_tetra_values(self):
        p = small_angle_probabilities(2, 0.1, [0, 0, 1])
        np.testing.assert_allclose(p, [0.98, 0, 0, 0.02, 0], atol=1e-15)

    def test_balance_values(self):
        p = small_angle_probabilities(3, 0.1, [1, 0, 0])
        np.testing.assert_allclose(p, [0.96, 0.04, 0, 0, 0], atol=1e-15)

    def test_zero_angle(self):
        p = small_angle_probabilities(5, 0.0, [0, 1, 0])
        np.testing.assert_allclose(p, [1, 0, 0, 0, 0], atol=1e-15)

    def test_exact_sum(self):
        p = small_angle_probabilities(3, 0.04, np.array([1.0, 2.0, 2.0]) / 3)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_angle(self):
        with pytest.raises(ValueError):
            small_angle_probabilities(3, 0.8, [0, 0, 1])

    def test_grid_matches_single_angles(self):
        u = np.array([1.0, 2.0, 2.0]) / 3
        grid = np.linspace(0.0, 0.3, 21).reshape(3, 7)
        rows = small_angle_probabilities(2, grid, u)
        assert rows.shape == (3, 7, 5)
        assert not rows.flags.writeable
        for idx, theta in np.ndenumerate(grid):
            single = small_angle_probabilities(2, theta, u)
            assert not single.flags.writeable
            np.testing.assert_array_equal(rows[idx], single)

    def test_grid_names_first_angle_out_of_range(self):
        # J = 3: theta1^2 J(J+1)/3 = 4 theta1^2 passes 1 beyond theta1 = 0.5
        with pytest.raises(ValueError, match=r"theta1=0\.6 outside .* = 1\.44 > 1"):
            small_angle_probabilities(3, [0.1, 0.6, 0.2, 0.9], [0, 0, 1])
        with pytest.raises(ValueError, match="theta1=nan outside"):
            small_angle_probabilities(3, [0.1, math.nan], [0, 0, 1])

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            small_angle_probabilities(2, 0.1, [1, 1, 0])


class TestClassicalFisher:
    def test_tetra2_saturates(self):
        state = tetra2()
        basis = optimal_basis(state)
        params = params_from_axis(1e-3, np.array([2.0, -1.0, 2.0]) / 3)
        fisher = classical_fisher_matrix(state, basis, params)
        assert fisher[0, 0] == pytest.approx(8.0, rel=0.01)

    def test_balance_saturates(self):
        state = balance()
        basis = optimal_basis(state)
        params = params_from_axis(1e-3, [0, 1, 0])
        fisher = classical_fisher_matrix(state, basis, params)
        assert fisher[0, 0] == pytest.approx(16.0, rel=0.01)

    def test_axis_independence(self):
        state = tetra2()
        basis = optimal_basis(state)
        rng = np.random.default_rng(19)
        values = [
            classical_fisher_matrix(state, basis, params_from_axis(1e-3, u))[0, 0]
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
            abs(
                classical_fisher_matrix(state, basis, params_from_axis(t, u))[0, 0]
                - 8.0
            )
            for t in grid
        ]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-6

    @pytest.mark.parametrize("theta1", [1e-8, 1e-10])
    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_saturates_at_tiny_rotations(self, factory, theta1):
        # the signal outcomes have P ~ theta1^2 far below 1e-15, yet each
        # keeps its finite share dP^2/P of F_11 = 4J(J+1)/3
        state = factory()
        bound = 4.0 * state.J * (state.J + 1.0) / 3.0
        for measurement in measurements(state):
            f = classical_fisher_matrix(state, measurement, RotationParams(theta1, 1.0, 0.5))
            assert f[0, 0] == pytest.approx(bound, rel=1e-6)

    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_rounding_level_outcomes_add_nothing(self, factory):
        # unrotated, only P0 = 1 is populated: the other outcomes' amplitudes
        # are rounding errors, and their ratio dP^2/P is no information
        state = factory()
        for measurement in measurements(state):
            f = classical_fisher_matrix(state, measurement, RotationParams(0.0, 1.0, 0.5))
            assert np.abs(f).max() <= 1e-12

    @pytest.mark.parametrize("factory", [tetra2, balance])
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_matches_central_differences(self, factory, which):
        # every F_kl; `which` picks the random parameter set
        state = factory()
        rng = np.random.default_rng(10 * which + int(state.J))
        for measurement in measurements(state):
            for _ in range(4):
                params = RotationParams(rng.uniform(0.01, 1.0), *rng.uniform(0.2, 2.9, 2))
                exact = classical_fisher_matrix(state, measurement, params)
                oracle = central_difference_fisher(state, measurement, params)
                assert exact == pytest.approx(oracle, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("factory", [tetra2, balance])
    @given(theta1=ANGLE, theta2=ANGLE, theta3=ANGLE)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_qfi_matrix(self, factory, theta1, theta2, theta3):
        # quantum Cramer-Rao: Q - F is positive semidefinite for every measurement
        state = factory()
        params = RotationParams(theta1, theta2, theta3)
        q = qfi_matrix(state, params)
        for measurement in measurements(state):
            f = classical_fisher_matrix(state, measurement, params)
            assert np.linalg.eigvalsh(q - f).min() >= -1e-10


class TestSaturationCheck:
    def test_tetra2_reference_point(self):
        state = tetra2()
        report = multiparam_saturation_check(state, {"optimal": optimal_basis(state)}, REFERENCE)
        report = report["optimal"]
        assert report["fisher"][0] / report["qfi_diag"][0] == pytest.approx(1.0, abs=0.02)
        assert report["fisher"][1] / report["qfi_diag"][1] == pytest.approx(1.0, abs=0.05)
        assert report["fisher"][2] / report["qfi_diag"][2] == pytest.approx(1.0, abs=0.05)

    def test_balance_reference_point(self):
        state = balance()
        report = multiparam_saturation_check(state, {"optimal": optimal_basis(state)}, REFERENCE)
        report = report["optimal"]
        for f, q in zip(report["fisher"], report["qfi_diag"]):
            assert f / q == pytest.approx(1.0, abs=0.05)

    def test_axis_generators_vanish_at_zero(self):
        state = tetra2()
        report = multiparam_saturation_check(
            state, {"optimal": optimal_basis(state)}, RotationParams(1e-8, 1.0, 0.5)
        )["optimal"]
        assert report["qfi_diag"][1] <= 1e-12
        assert report["qfi_diag"][2] <= 1e-12
        assert report["relative_dev"][1] is None
        assert report["relative_dev"][2] is None

    def test_report_serializes(self):
        state = tetra2()
        data = multiparam_saturation_check(state, {"optimal": optimal_basis(state)}, REFERENCE)
        assert set(data) == {"optimal"}
        assert set(data["optimal"]) == {"fisher", "qfi_diag", "relative_dev"}

    @pytest.mark.parametrize("factory", [tetra2, balance])
    def test_one_frame_serves_every_measurement(self, factory):
        state = factory()
        basis = optimal_basis(state)
        named = {"optimal": basis, "bell": bell_measurement(state)}
        report = multiparam_saturation_check(state, named, REFERENCE)
        qdiag = np.diag(qfi_matrix(state, REFERENCE)).tolist()
        for name, measurement in named.items():
            fisher = np.diag(classical_fisher_matrix(state, measurement, REFERENCE)).tolist()
            assert report[name]["fisher"] == fisher
            assert report[name]["qfi_diag"] == qdiag


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
                    state, basis, params_from_axis(theta, u)
                )[4]
                assert rest <= 1.0 * theta**3
