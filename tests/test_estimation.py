import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import multinomial_stats, params_from_axis
from rotosense.bell_analysis import bell_measurement
from rotosense.estimation import (
    _BLOCK,
    estimate_params,
    qcrb_experiment,
    sample_outcomes,
)
from rotosense.measurement import exact_probabilities, optimal_basis, small_angle_probabilities
from rotosense.spin_core import RotationParams
from rotosense.states import balance, tetra1, tetra2

AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


def counter_stream(seed, t):
    """The generator that row t of sample_outcomes(..., seed) draws from."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=t << 64))


def signal(p):
    """The probability P1 + P2 + P3 of a signal shot, for a p that sums to 1."""
    return p[1:4].sum()


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
        # row t's signal count is the one draw of its own counter stream
        p = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
        counts = sample_outcomes(p, 1000, 4, 42)
        for t in range(4):
            assert counts[t, 1:4].sum() == counter_stream(42, t).binomial(1000, signal(p))

    @pytest.mark.parametrize("trials", [30, _BLOCK + 3], ids=["one-block", "two-blocks"])
    def test_splits_come_from_the_spawned_streams(self, trials):
        # the signal splits over P1..P3 on the first spawned stream, the other
        # shots over P0 and Prest on the second, each in one call over all rows;
        # drawing them block by block reads each stream in the same order
        p = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
        n, seed = 20, 42
        counts = sample_outcomes(p, n, trials, seed)
        hits = counts[:, 1:4].sum(axis=1)
        split, rest = (
            np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(seed).spawn(2)
        )
        np.testing.assert_array_equal(counts[:, 1:4], split.multinomial(hits, p[1:4] / signal(p)))
        np.testing.assert_array_equal(counts[:, 4], rest.binomial(n - hits, p[4] / (p[0] + p[4])))
        np.testing.assert_array_equal(counts[:, 0], n - hits - counts[:, 4])

    def test_column_means_are_n_p(self):
        # each column's mean is n p_i within z = 5 standard errors
        # sqrt(n p_i (1 - p_i) / trials), over 2e4 trials
        p = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
        n, trials = 1000, 20000
        counts = sample_outcomes(p, n, trials, 7)
        se = np.sqrt(n * p * (1 - p) / trials)
        assert np.all(np.abs(counts.mean(axis=0) - n * p) <= 5.0 * se)

    @pytest.mark.parametrize(
        "p",
        [[0.5, 0.3, 0.2], [0.2, 0.3, 0.1, 0.25, 0.1, 0.05], [[0.2, 0.3, 0.1, 0.25, 0.15]]],
        ids=["three", "six", "two-dimensional"],
    )
    def test_refuses_other_than_five_outcomes(self, p):
        with pytest.raises(ValueError, match="five outcomes"):
            sample_outcomes(np.array(p), 1000, 3, 42)

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

    @pytest.mark.parametrize(
        "p",
        [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [-0.2, -0.3, -0.1, -0.25, -0.15],
            [np.inf, 0.0, 0.0, 0.0, 0.0],
            [-np.inf, -np.inf, -np.inf, -np.inf, -np.inf],
            [np.nan, 0.5, 0.5, 0.0, 0.0],
            [1e308, 1e308, 0.0, 0.0, 0.0],
        ],
        ids=["zero", "negative", "inf", "minus-inf", "nan", "sum-overflows"],
    )
    def test_rejects_unsampleable_p(self, p):
        with pytest.raises(ValueError, match="finite weights with a positive sum"):
            sample_outcomes(np.array(p), 1000, 3, 42)

    def test_renormalises_p(self):
        # p is divided by its sum once, so a scaled vector draws the same rows
        # (dyadic weights, so that 3p / sum(3p) is p to the bit)
        p = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
        assert np.array_equal(sample_outcomes(3 * p, 1000, 5, 42), sample_outcomes(p, 1000, 5, 42))

    def test_frequency_convergence(self):
        from rotosense.measurement import exact_probabilities, optimal_basis

        state = tetra2()
        p = exact_probabilities(
            state, optimal_basis(state), params_from_axis(0.05, AXIS)
        )
        counts = sample_outcomes(p, 10**6, 1, 2718)
        freq = counts[0] / 10**6
        bound = 5.0 * np.sqrt(p * (1 - p) / 10**6)
        assert np.all(np.abs(freq - p) <= bound + 1e-12)


# seeds on either side of the 32-bit word boundaries of SeedSequence's
# entropy, and past its pool of four words
BOUNDARY_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**96 - 1, 2**96,
    2**128 - 1, 2**128, 2**128 + 1, 2**160,
]


class TestSeeding:
    @given(
        seed=st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**200),
        trials=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_counter_streams(self, seed, trials):
        p = np.array([0.9, 0.04, 0.03, 0.02, 0.01])
        counts = sample_outcomes(p, 10**6, trials, seed)
        for t in range(trials):
            assert counts[t, 1:4].sum() == counter_stream(seed, t).binomial(10**6, signal(p))
        if seed <= np.iinfo(np.int64).max:
            np.testing.assert_array_equal(
                sample_outcomes(p, 10**6, trials, np.int64(seed)), counts
            )

    def test_rows_deep_in_a_run(self):
        # row t's counter is t << 64, past the first block of batched splits too
        p = np.array([0.9, 0.04, 0.03, 0.02, 0.01])
        counts = sample_outcomes(p, 1000, _BLOCK + 3, 2**64 + 3)
        for t in (0, 4095, 4096, _BLOCK - 1, _BLOCK, _BLOCK + 2):
            assert counts[t, 1:4].sum() == counter_stream(2**64 + 3, t).binomial(1000, signal(p))

    def test_negative_seed_keeps_numpy_message(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            sample_outcomes(np.array([0.2, 0.3, 0.1, 0.25, 0.15]), 1000, 3, -1)


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

    @pytest.mark.parametrize(
        "counts",
        [
            np.array([[990.7, 3.9, 2.9, 1.9, 0.9]]),
            np.array([[990.0, 3.0, 2.0, 1.0, 0.0]]),
            np.array([[True, False, True, False, False]]),
        ],
        ids=["fractional", "whole-floats", "bool"],
    )
    def test_rejects_non_integer_counts(self, counts):
        # a float count would be truncated and a bool read as 0 or 1
        with pytest.raises(ValueError, match="counts must be integers, got dtype"):
            estimate_params(counts, 2)

    @pytest.mark.parametrize(
        "counts",
        [
            [[True, 3, 2, 1, 0]],
            [120, 3, 2, False, 0],
            [[120, 3, 2, 1, 0], [np.True_, 3, 2, 1, 0]],
            [np.array([120, 3, 2, 1, 0]), np.array([True, False, True, False, False])],
        ],
        ids=["bool", "bool-1d", "numpy-bool", "bool-row-array"],
    )
    def test_rejects_a_bool_among_listed_integers(self, counts):
        # numpy promotes the list to int64 before the dtype check sees the bool
        with pytest.raises(ValueError, match="counts must be integers, got a bool"):
            estimate_params(counts, 2)

    def test_accepts_listed_integers(self):
        listed = estimate_params([[120, 3, 2, 1, 0], [np.int32(90), 4, 3, 2, 1]], 2)
        array = estimate_params(np.array([[120, 3, 2, 1, 0], [90, 4, 3, 2, 1]]), 2)
        np.testing.assert_array_equal(listed[0], array[0])
        np.testing.assert_array_equal(listed[1], array[1])

    def test_accepts_every_integer_dtype(self):
        counts = np.array([[120, 3, 2, 1, 0]])
        expected = estimate_params(counts, 2)
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            got = estimate_params(counts.astype(dtype), 2)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])


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
        from rotosense.bell_analysis import bell_decompose
        from rotosense.spin_core import SpinState, rotated_amplitudes

        theta, n = 0.05, 10**6
        state = tetra2()
        rotated = SpinState(state.J, rotated_amplitudes(state, [theta], AXIS)[:, 0])
        probs = (np.abs(bell_decompose(rotated)) ** 2).reshape(-1)
        stats = multinomial_stats(probs, n)
        indices = [0, 5, 15]  # the P0 group of tetra2: label tuples (0,0), (1,1), (3,3)
        analytic = stats.subset_sum_variance(indices)
        assert analytic == pytest.approx(2 * n * theta**2, rel=0.02)


def assert_statistics_are_numpys(report, state, params):
    """The theta1 statistics and both probability gaps are their numpy expressions, bit for bit."""
    assert report.mean_theta1_hat == float(np.mean(report.theta1_hats))
    assert report.sigma_empirical == float(np.std(report.theta1_hats, ddof=1))
    assert report.sigma_ratio == report.sigma_empirical / report.sigma_predicted
    basis = optimal_basis(state)
    pipeline = basis if report.pipeline == "optimal" else bell_measurement(state)
    p_exact, p = exact_probabilities(state, [basis, pipeline], params)
    p_small = small_angle_probabilities(state.J, params.theta1, params.axis)
    assert report.max_exact_vs_smallangle_gap == float(np.max(np.abs(p_exact - p_small)))
    assert report.max_pipeline_vs_exact_gap == float(np.max(np.abs(p - p_exact)))


class TestQcrbExperiment:
    def test_deterministic(self):
        params = params_from_axis(0.05, AXIS)
        a = qcrb_experiment(tetra2(), params, 10**5, 50, 99, "optimal")
        b = qcrb_experiment(tetra2(), params, 10**5, 50, 99, "optimal")
        assert np.array_equal(a.theta1_hats, b.theta1_hats)

    def test_prefix_stability(self):
        params = params_from_axis(0.05, AXIS)
        short = qcrb_experiment(balance(), params, 10**5, 37, 99, "bell")
        long = qcrb_experiment(balance(), params, 10**5, 200, 99, "bell")
        np.testing.assert_array_equal(short.theta1_hats, long.theta1_hats[:37])
        np.testing.assert_array_equal(short.u_hats, long.u_hats[:37])

    @pytest.mark.parametrize("state", [tetra2, balance])
    def test_pipelines_paired_trial_by_trial(self, state):
        # one stream per trial keeps the draws of both pipelines aligned;
        # one stream shared by all trials drops this to 0.94 / 0.33.  The
        # bound has no stated z yet: over seeds 0-299 it fails 67 times for
        # balance (minimum 0.9072, at seed 203), and reads 1.00000 at seed
        # 99.  Coupling the pipelines' draws (ROADMAP item 6) is the repair,
        # not a new seed.
        params = params_from_axis(0.05, AXIS)
        optimal = qcrb_experiment(state(), params, 10**6, 200, 99, "optimal")
        bell = qcrb_experiment(state(), params, 10**6, 200, 99, "bell")
        assert np.corrcoef(optimal.theta1_hats, bell.theta1_hats)[0, 1] >= 0.99

    def test_sigma_tracks_prediction(self):
        params = params_from_axis(0.05, AXIS)
        report = qcrb_experiment(tetra2(), params, 10**6, 2500, 99, "optimal")
        # SE 1/sqrt(2(T-1)) = 0.0141 at T = 2500: the band sits z = 7.1 from a
        # ratio of 1 (two-sided false-alarm rate 1.6e-12; at 200 trials z = 2.0
        # and 10 of seeds 0-299 failed), and the measured 1.0035 lies z = 6.8
        # inside it
        assert 0.9 <= report.sigma_ratio <= 1.1

    @pytest.mark.parametrize(
        "state,predicted",
        [(tetra2, lambda n: 1 / (2 * np.sqrt(2 * n))), (balance, lambda n: 1 / (4 * np.sqrt(n)))],
        ids=["tetra2", "balance"],
    )
    def test_sigma_predicted_is_the_qcrb(self, state, predicted):
        # 1/sqrt(n F) with F = 4J(J+1)/3: 8 for tetra2, 16 for balance
        n = 10**5
        report = qcrb_experiment(state(), params_from_axis(0.05, AXIS), n, 5, 99, "optimal")
        assert report.sigma_predicted == pytest.approx(predicted(n), rel=1e-12)

    def test_pipelines_agree(self):
        params = params_from_axis(0.05, AXIS)
        optimal = qcrb_experiment(balance(), params, 10**6, 200, 99, "optimal")
        bell = qcrb_experiment(balance(), params, 10**6, 200, 99, "bell")
        assert bell.sigma_empirical / optimal.sigma_empirical == pytest.approx(1.0, abs=0.05)

    def test_estimator_consistency(self):
        params = params_from_axis(0.05, AXIS)
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

    @pytest.mark.parametrize("state", [tetra2, balance])
    @pytest.mark.parametrize("pipeline", ["optimal", "bell"])
    def test_axis_statistics_match_nan_aware_ones(self, state, pipeline):
        # small n and a tiny theta1 leave many signal-free (NaN-axis) trials;
        # the axis statistics over the others are numpy's NaN-aware ones, bit for bit
        params = RotationParams(0.02, 1.0, 0.5)
        report = qcrb_experiment(state(), params, 1000, 200, 5, pipeline)
        assert 0 < report.degenerate_trials < report.trials - 1
        assert report.mean_u_abs == np.nanmean(report.u_hats, axis=0).tolist()
        assert report.sigma_u_abs == np.nanstd(report.u_hats, axis=0, ddof=1).tolist()
        assert_statistics_are_numpys(report, state(), params)

    @pytest.mark.parametrize("state", [tetra2, balance])
    @pytest.mark.parametrize("pipeline", ["optimal", "bell"])
    def test_statistics_match_numpy(self, state, pipeline):
        # no signal-free trial: the axis statistics are over every row
        params = RotationParams(0.05, 1.0, 0.5)
        report = qcrb_experiment(state(), params, 10**6, 200, 5, pipeline)
        assert report.degenerate_trials == 0
        assert report.mean_u_abs == report.u_hats.mean(axis=0).tolist()
        assert report.sigma_u_abs == report.u_hats.std(axis=0, ddof=1).tolist()
        assert_statistics_are_numpys(report, state(), params)

    def test_gap_diagnostics_reported(self):
        params = params_from_axis(0.05, AXIS)
        report = qcrb_experiment(tetra2(), params, 10**4, 10, 1, "bell")
        assert 0 < report.max_exact_vs_smallangle_gap < 1e-4
        assert 0 <= report.max_pipeline_vs_exact_gap < 1e-5

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            qcrb_experiment(tetra2(), RotationParams(0.05, 1, 1), 100, 1, 1)

    def test_rejects_unknown_pipeline(self):
        with pytest.raises(ValueError):
            qcrb_experiment(tetra2(), RotationParams(0.05, 1, 1), 100, 10, 1, "tomography")

    def test_bell_rejects_overlapping_supports(self):
        # the Bell supports of tetra1's optimal basis overlap: no analyzer fits it
        with pytest.raises(ValueError, match="outcomes 0 and 1 share .*; use --pipeline optimal"):
            qcrb_experiment(tetra1(), RotationParams(0.05, 1, 1), 100, 10, 1, "bell")
