import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotosense.estimation import (
    estimate_params,
    multinomial_stats,
    qcrb_experiment,
    sample_outcomes,
)
from rotosense.spin_core import RotationParams
from rotosense.states import balance, tetra2

AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


class TestSampling:
    def test_deterministic(self):
        dist = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
        a = sample_outcomes(dist, 1000, 20, 42)
        b = sample_outcomes(dist, 1000, 20, 42)
        assert np.array_equal(a, b)

    def test_shape_and_read_only(self):
        counts = sample_outcomes(np.array([0.2, 0.3, 0.1, 0.25, 0.15]), 1000, 7, 42)
        assert counts.shape == (7, 5)
        assert counts.dtype == np.int64
        assert np.all(counts.sum(axis=1) == 1000)
        with pytest.raises(ValueError):
            counts[0, 0] = 1

    def test_row_is_its_own_stream(self):
        p = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
        counts = sample_outcomes(p, 1000, 4, 42)
        for t in range(4):
            rng = np.random.default_rng(np.random.SeedSequence((42, t)))
            assert np.array_equal(counts[t], rng.multinomial(1000, p))

    def test_point_mass(self):
        counts = sample_outcomes(np.array([1.0, 0, 0, 0, 0]), 500, 3, 7)
        assert np.all(counts[:, 0] == 500)
        assert counts[:, 1:].sum() == 0

    def test_binomial_concentration(self):
        counts = sample_outcomes(np.array([0.5, 0.5, 0, 0, 0]), 10**6, 1, 11)
        assert 0.498 <= counts[0, 0] / 10**6 <= 0.502

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_outcomes(np.array([1.0, 0, 0, 0, 0]), 0, 1, 1)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            sample_outcomes(np.array([1.0, 0, 0, 0, 0]), 10, 0, 1)

    def test_frequency_convergence(self):
        from rotosense.measurement import exact_probabilities, optimal_basis

        state = tetra2()
        p = exact_probabilities(
            state, optimal_basis(state), RotationParams.from_axis(0.05, AXIS)
        )
        counts = sample_outcomes(p, 10**6, 1, 2718)
        freq = counts[0] / 10**6
        bound = 5.0 * np.sqrt(p * (1 - p) / 10**6)
        assert np.all(np.abs(freq - p) <= bound + 1e-12)


class TestEstimateParams:
    def test_tetra_example(self):
        theta, u = estimate_params(np.array([980000, 20000, 0, 0, 0]), 2)
        assert theta == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_allclose(u, [1, 0, 0], atol=1e-12)

    def test_degenerate(self):
        theta, u = estimate_params(np.array([1000, 0, 0, 0, 0]), 2)
        assert theta == 0.0
        assert u.shape == (3,)
        assert np.all(np.isnan(u))

    def test_balance_example(self):
        theta, u = estimate_params(np.array([960, 0, 40, 0, 0]), 3)
        assert theta == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_allclose(u, [0, 1, 0], atol=1e-12)

    def test_axis_magnitudes_normalized(self):
        _, u = estimate_params(np.array([900, 40, 30, 20, 10]), 2)
        assert float(np.sum(u**2)) == pytest.approx(1.0, abs=1e-12)

    def test_rest_counts_folded_into_reference(self):
        with_rest = np.array([900, 50, 30, 20, 0])
        folded = np.array([890, 50, 30, 20, 10])
        theta_a, u_a = estimate_params(with_rest, 2)
        theta_b, u_b = estimate_params(folded, 2)
        assert theta_a == theta_b
        np.testing.assert_allclose(u_a, u_b)

    def test_rows_match_single_row_calls(self):
        # rows of different shot numbers, the degenerate one included
        counts = np.array(
            [[980000, 20000, 0, 0, 0], [1000, 0, 0, 0, 0], [900, 40, 30, 20, 10]]
        )
        thetas, us = estimate_params(counts, 2)
        assert thetas.shape == (3,) and us.shape == (3, 3)
        for row, theta, u in zip(counts, thetas, us):
            theta_row, u_row = estimate_params(row, 2)
            assert theta == theta_row
            np.testing.assert_array_equal(u, u_row)

    def test_rejects_wrong_category_count(self):
        with pytest.raises(ValueError):
            estimate_params(np.array([5, 5]), 2)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            estimate_params(np.array([[10, 5, 0, 0, 0], [20, -5, 0, 0, 0]]), 2)

    def test_rejects_row_without_shots(self):
        with pytest.raises(ValueError):
            estimate_params(np.array([[10, 5, 0, 0, 0], [0, 0, 0, 0, 0]]), 2)


class TestMultinomialStats:
    def test_variance_formula(self):
        stats = multinomial_stats(np.array([0.98, 0.02, 0, 0, 0]), 1000)
        assert stats.variances()[0] == pytest.approx(19.6)

    def test_complement_consistency(self):
        p = np.array([0.4, 0.3, 0.2, 0.07, 0.03])
        stats = multinomial_stats(p, 500)
        assert stats.variances()[0] == pytest.approx(stats.subset_sum_variance([1, 2, 3, 4]))

    def test_linear_combination_matches_quadratic_form(self):
        # Var(a . counts) = n (sum_i a_i^2 p_i - (sum_i a_i p_i)^2)
        p = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
        stats = multinomial_stats(p, 200)
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=5)
            closed_form = 200 * (np.sum(a**2 * p) - np.sum(a * p) ** 2)
            assert a @ stats.covariance() @ a == pytest.approx(closed_form, rel=1e-12)

    @given(n=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=30)
    def test_total_count_has_zero_variance(self, n):
        p = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        stats = multinomial_stats(p, n)
        ones = np.ones(5)
        assert abs(ones @ stats.covariance() @ ones) <= 1e-6 * n

    def test_aggregate_variance_small_angle(self):
        # Var of the reference-group count is about 2 n theta^2 at small theta
        from rotosense.bell_analysis import AGGREGATION_N4, bell_decompose
        from rotosense.spin_core import SpinState, dicke_to_qubit, rotation_unitary

        theta, n = 0.05, 10**6
        state = tetra2()
        params = RotationParams.from_axis(theta, AXIS)
        rotated = SpinState.normalized(
            state.J, rotation_unitary(state.J, params) @ state.amps
        )
        probs = (np.abs(bell_decompose(dicke_to_qubit(rotated))) ** 2).reshape(-1)
        stats = multinomial_stats(probs, n)
        indices = [4 * a + b for a, b in AGGREGATION_N4[0]]
        analytic = stats.subset_sum_variance(indices)
        assert analytic == pytest.approx(2 * n * theta**2, rel=0.02)


class TestQcrbExperiment:
    def test_deterministic(self):
        params = RotationParams.from_axis(0.05, AXIS)
        a = qcrb_experiment(tetra2(), params, 10**5, 50, 99, "optimal")
        b = qcrb_experiment(tetra2(), params, 10**5, 50, 99, "optimal")
        assert np.array_equal(a.theta1_hats, b.theta1_hats)

    def test_prefix_stability(self):
        params = RotationParams.from_axis(0.05, AXIS)
        short = qcrb_experiment(balance(), params, 10**5, 37, 99, "bell")
        long = qcrb_experiment(balance(), params, 10**5, 200, 99, "bell")
        np.testing.assert_array_equal(short.theta1_hats, long.theta1_hats[:37])
        np.testing.assert_array_equal(short.u_hats, long.u_hats[:37])

    @pytest.mark.parametrize("state", [tetra2, balance])
    def test_pipelines_paired_trial_by_trial(self, state):
        # one stream per trial keeps the draws of both pipelines aligned;
        # one stream shared by all trials drops this to 0.94 / 0.33
        params = RotationParams.from_axis(0.05, AXIS)
        optimal = qcrb_experiment(state(), params, 10**6, 200, 99, "optimal")
        bell = qcrb_experiment(state(), params, 10**6, 200, 99, "bell")
        assert np.corrcoef(optimal.theta1_hats, bell.theta1_hats)[0, 1] >= 0.99

    def test_sigma_tracks_prediction(self):
        params = RotationParams.from_axis(0.05, AXIS)
        report = qcrb_experiment(tetra2(), params, 10**6, 200, 99, "optimal")
        assert 0.9 <= report.sigma_ratio <= 1.1

    def test_pipelines_agree(self):
        params = RotationParams.from_axis(0.05, AXIS)
        optimal = qcrb_experiment(balance(), params, 10**6, 200, 99, "optimal")
        bell = qcrb_experiment(balance(), params, 10**6, 200, 99, "bell")
        assert bell.sigma_empirical / optimal.sigma_empirical == pytest.approx(1.0, abs=0.05)

    def test_estimator_consistency(self):
        params = RotationParams.from_axis(0.05, AXIS)
        report = qcrb_experiment(tetra2(), params, 10**6, 200, 99, "optimal")
        assert report.mean_theta1_hat == pytest.approx(0.05, rel=0.02)
        np.testing.assert_allclose(report.mean_u_abs, np.abs(AXIS), atol=0.02)

    def test_empirical_variance_of_counts(self):
        # three fixed settings, 1000 repetitions, 15 percent
        rng_settings = [
            (np.array([0.995, 0.002, 0.002, 0.001, 0.0]), 10**5, 101),
            (np.array([0.9, 0.06, 0.03, 0.01, 0.0]), 10**4, 202),
            (np.array([0.5, 0.3, 0.1, 0.06, 0.04]), 10**3, 303),
        ]
        for p, n, seed in rng_settings:
            rng = np.random.default_rng(seed)
            counts = rng.multinomial(n, p, size=1000)
            emp_var = counts.var(axis=0, ddof=1)
            analytic = multinomial_stats(p, n).variances()
            mask = analytic > 0
            assert np.all(np.abs(emp_var[mask] - analytic[mask]) <= 0.15 * analytic[mask])

    def test_degenerate_trials_counted(self):
        params = RotationParams(0.0, 1.0, 0.5)
        report = qcrb_experiment(tetra2(), params, 100, 10, 1, "optimal")
        assert report.degenerate_trials == 10
        assert report.mean_theta1_hat == 0.0

    def test_gap_diagnostics_reported(self):
        params = RotationParams.from_axis(0.05, AXIS)
        report = qcrb_experiment(tetra2(), params, 10**4, 10, 1, "bell")
        assert 0 < report.max_exact_vs_smallangle_gap < 1e-4
        assert 0 <= report.max_pipeline_vs_exact_gap < 1e-5

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            qcrb_experiment(tetra2(), RotationParams(0.05, 1, 1), 100, 1, 1)

    def test_rejects_unknown_pipeline(self):
        with pytest.raises(ValueError):
            qcrb_experiment(tetra2(), RotationParams(0.05, 1, 1), 100, 10, 1, "tomography")

    def test_rows_format(self):
        params = RotationParams.from_axis(0.05, AXIS)
        report = qcrb_experiment(tetra2(), params, 10**4, 5, 1, "optimal")
        rows = list(report.rows())
        assert len(rows) == 5
        assert rows[0][0] == 0
        assert len(rows[0]) == 5
