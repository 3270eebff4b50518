"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
from oracles import (
    bell_outcome_probabilities,
    fisher_single,
    params_from_axis,
    register_contraction,
    rotation_unitary,
)

from rotosense.bell_analysis import (
    bell_decompose,
    bell_measurement,
    singlet_weight,
    verify_tabulated_decompositions,
)
from rotosense.circuit_sim import Gate, analyzer_distinguishability_report, prep_circuit_report
from rotosense.estimation import qcrb_experiment
from rotosense.measurement import (
    classical_fisher_matrix,
    exact_probabilities,
    multiparam_saturation_check,
    optimal_basis,
    small_angle_probabilities,
)
from rotosense.metrology import anticoherence_report, j_expectations, qfi_matrix
from rotosense.spin_core import RotationParams, SpinState, dicke_to_qubit
from rotosense.states import balance, tetra1, tetra2

SEED = 99
AXIS = np.array([1.0, 2.0, 2.0]) / 3.0
THETA_GRID = np.geomspace(1e-3, 5e-2, 20)


def criterion(num, name, limit_s):
    """Time the body, enforce the runtime limit, print one line."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {num:2d} {name}: {status} ({elapsed:.2f}s / limit {limit_s}s)")
            if exc_type is None:
                assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.2f}s)"
            return False

    return _Ctx()


def random_axes(count, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rotated(state, params):
    return SpinState.normalized(
        state.J, rotation_unitary(state.J, params) @ state.amps
    )


def test_criterion_01_fisher_bound_four_photons():
    with criterion(1, "Fisher bound N=4", 1.0):
        state = tetra2()
        for u in random_axes(50, 1):
            assert abs(fisher_single(state, u) - 8.0) <= 1e-9
        q = qfi_matrix(state, RotationParams(0.02, 1.0, 0.5))
        assert abs(q[0, 0] - 8.0) <= 1e-9


def test_criterion_02_fisher_bound_six_photons():
    with criterion(2, "Fisher bound N=6", 1.0):
        state = balance()
        for u in random_axes(50, 2):
            assert abs(fisher_single(state, u) - 16.0) <= 1e-9


def test_criterion_03_anticoherence_certification():
    with criterion(3, "anti-coherence certification", 1.0):
        for factory in (tetra1, tetra2, balance):
            state = factory()
            report = anticoherence_report(state.J, *j_expectations(state))
            assert report["pass"] and max(report["deviations"].values()) <= 1e-12
        state = SpinState.from_m_amplitudes(2, {2: 1.0})
        assert not anticoherence_report(state.J, *j_expectations(state))["pass"]
        state = SpinState.from_m_amplitudes(3, {3: 1.0})
        assert not anticoherence_report(state.J, *j_expectations(state))["pass"]


def test_criterion_04_small_angle_law():
    with criterion(4, "small-angle law (log-log slope >= 2.8)", 5.0):
        axes = random_axes(20, 4)
        for state in (tetra2(), balance()):
            basis = optimal_basis(state)
            gaps = np.zeros((4, THETA_GRID.size))
            for t_idx, theta in enumerate(THETA_GRID):
                for u in axes:
                    params = params_from_axis(float(theta), u)
                    exact = exact_probabilities(state, [basis], params)[0, :4]
                    small = small_angle_probabilities(state.J, float(theta), u)[:4]
                    gaps[:, t_idx] = np.maximum(
                        gaps[:, t_idx], np.abs(exact - small)
                    )
            for mu in range(4):
                slope = np.polyfit(np.log(THETA_GRID), np.log(gaps[mu]), 1)[0]
                assert slope >= 2.8, f"P{mu} slope {slope:.3f}"


def test_criterion_05_classical_fisher_saturation():
    with criterion(5, "classical Fisher saturation", 5.0):
        for state, target in ((tetra2(), 8.0), (balance(), 16.0)):
            basis = optimal_basis(state)
            params = params_from_axis(1e-3, AXIS)
            value = classical_fisher_matrix(state, basis, params)[0, 0]
            assert abs(value - target) <= 0.01 * target
        for state in (tetra2(), balance()):
            report = multiparam_saturation_check(
                state, {"optimal": optimal_basis(state)}, RotationParams(0.02, 1.0, 0.5)
            )["optimal"]
            for f, q in zip(report["fisher"], report["qfi_diag"]):
                assert 0.95 <= f / q <= 1.05


def test_criterion_06_bell_decomposition_exactness():
    with criterion(6, "Bell decomposition vs tabulated coefficients", 5.0):
        bp = bell_decompose(tetra2())
        sq3 = math.sqrt(3.0)
        assert abs(bp[0, 0] - (1 + 1j / sq3) / 2) <= 1e-10
        assert abs(bp[3, 3] + (1 - 1j / sq3) / 2) <= 1e-10
        assert abs(bp[1, 1] + 2j / sq3 / 2) <= 1e-10
        off_display = sum(
            abs(bp[t])
            for t in np.ndindex(4, 4)
            if t not in ((0, 0), (3, 3), (1, 1))
        )
        assert off_display <= 1e-10
        report = verify_tabulated_decompositions()
        for check in report["checks"]:
            if check["label"].startswith("n4"):
                assert check["fidelity"] >= 1 - 1e-9, check["label"]
            elif not check["ok"]:
                # six-photon discrepancies must be itemized with recomputed values
                assert len(check["mismatches"]) > 0, check["label"]


def test_criterion_07_singlet_exclusion():
    with criterion(7, "singlet exclusion under rotations", 10.0):
        rng = np.random.default_rng(7)
        for state in (tetra2(), balance()):
            for _ in range(100):
                params = RotationParams(*rng.uniform(-math.pi, math.pi, size=3))
                # on the 2^N register, where a singlet could show up
                bp = register_contraction(dicke_to_qubit(rotated(state, params)))
                assert singlet_weight(bp) <= 1e-10


def test_criterion_08_aggregation_equivalence():
    with criterion(8, "Bell aggregation matches exact probabilities", 10.0):
        axes = random_axes(20, 8)
        bound_constant = 1.0  # gap is what the lumped higher outcomes carry: O(theta^4)
        for state in (tetra2(), balance()):
            basis = optimal_basis(state)
            for theta in THETA_GRID:
                for u in axes:
                    params = params_from_axis(float(theta), u)
                    exact = exact_probabilities(state, [basis], params)[0, :4]
                    agg = bell_outcome_probabilities(bell_decompose(rotated(state, params)), basis)
                    assert np.max(np.abs(agg - exact)) <= bound_constant * theta**3


def test_criterion_09_monte_carlo_qcrb():
    with criterion(9, "Monte Carlo QCRB saturation", 60.0):
        params = params_from_axis(0.05, AXIS)
        # sigma/sigma_CR has SE 1/sqrt(2(T-1)) = 0.0141 at T = 2500 trials, so
        # the 0.9-1.1 band sits z = 7.1 from a ratio of 1 (two-sided
        # false-alarm rate 1.6e-12 per ratio); at 200 trials it sat at z = 2.0
        # and 17 of seeds 0-299 failed.  The ratios at seed 99 (tetra2
        # 1.0035/1.0035, balance 1.0022/0.9987) lie z >= 6.8 inside it.
        n, trials = 10**6, 2500
        predictions = {
            "tetra2": 1.0 / (2.0 * math.sqrt(2.0 * n)),
            "balance": 1.0 / (4.0 * math.sqrt(n)),
        }
        for state, label in ((tetra2(), "tetra2"), (balance(), "balance")):
            opt = qcrb_experiment(state, params, n, trials, SEED, "optimal")
            bell = qcrb_experiment(state, params, n, trials, SEED, "bell")
            for report in (opt, bell):
                ratio = report.sigma_empirical / predictions[label]
                assert 0.9 <= ratio <= 1.1, f"{label}/{report.pipeline}: {ratio:.4f}"
            # the pipelines' theta1 estimates are paired (correlation 1 for
            # tetra2, 0.988 for balance), so the ratio has SE
            # sqrt((1 - corr^2)/(T-1)) = 0.0031 for balance and the band's
            # edges sit z >= 15 from the measured 1.0000 and 0.9965
            # (false-alarm rate below 1e-50)
            pair = bell.sigma_empirical / opt.sigma_empirical
            assert 0.95 <= pair <= 1.05, f"{label} pipelines: {pair:.4f}"


def test_criterion_10_multinomial_algebra():
    with criterion(10, "multinomial algebra vs empirical moments", 30.0):
        from oracles import multinomial_stats

        # at 3*10**4 draws every 15 % band is z >= 5.5 standard errors wide (the
        # narrowest: cov(P1, P2) at n = 10**3), and the P0-group chain's is z = 17.6;
        # seeds 0-199 x the three settings failed 0 of 600 runs, worst deviation 8.7 %
        reps = 3 * 10**4
        settings = [
            (np.array([0.995, 0.002, 0.002, 0.001, 0.0]), 10**5, 101),
            (np.array([0.9, 0.06, 0.03, 0.01, 0.0]), 10**4, 202),
            (np.array([0.5, 0.3, 0.1, 0.06, 0.04]), 10**3, 303),
        ]
        for p, n, seed in settings:
            rng = np.random.default_rng(seed)
            counts = rng.multinomial(n, p, size=reps)
            stats = multinomial_stats(p, n)
            analytic_var = stats.variances()
            emp_var = counts.var(axis=0, ddof=1)
            mask = analytic_var > 0
            assert np.all(
                np.abs(emp_var[mask] - analytic_var[mask]) <= 0.15 * analytic_var[mask]
            )
            emp_cov = np.cov(counts.T, ddof=1)
            analytic_cov = stats.covariance()
            for i in range(5):
                for k in range(i + 1, 5):
                    if abs(analytic_cov[i, k]) > 0.02 * n:  # resolvable: z >= 5.5 at reps
                        assert (
                            abs(emp_cov[i, k] - analytic_cov[i, k])
                            <= 0.15 * abs(analytic_cov[i, k])
                        )

        # reference-group chain: Var(counts on the P0 tuples) ~ 2 n theta^2
        theta, n = 0.05, 10**6
        params = params_from_axis(theta, AXIS)
        probs = (np.abs(bell_decompose(rotated(tetra2(), params))) ** 2).reshape(-1)
        indices = [0, 5, 15]  # the P0 group of tetra2: label tuples (0,0), (1,1), (3,3)
        analytic = multinomial_stats(probs, n).subset_sum_variance(indices)
        assert abs(analytic - 2 * n * theta**2) <= 0.15 * 2 * n * theta**2
        rng = np.random.default_rng(404)
        sums = rng.multinomial(n, probs, size=reps)[:, indices].sum(axis=1)
        empirical = sums.var(ddof=1)
        assert abs(empirical - 2 * n * theta**2) <= 0.15 * 2 * n * theta**2


def test_criterion_11_circuit_diagnostics():
    with criterion(11, "circuit diagnostics", 5.0):
        eye = np.eye(2)
        for name in ("H", "X", "Z"):
            m = Gate(name, (0,)).matrix
            assert np.linalg.norm(m @ m - eye) <= 1e-12
        s = Gate("S", (0,)).matrix
        assert np.linalg.norm(s @ s - Gate("Z", (0,)).matrix) <= 1e-12

        prep = {name: prep_circuit_report(name) for name in ("tetra", "n6")}
        for name, report in prep.items():
            assert {"fidelity", "gate_count", "note"} <= set(report), name
        analyzer = analyzer_distinguishability_report()
        assert {"supports", "pairwise_tv", "all_disjoint"} <= set(analyzer)
        symmetric = ("phi0", "phi1", "phi3")
        for i, a in enumerate(symmetric):
            for b in symmetric[i + 1 :]:
                assert analyzer["pairwise_tv"][f"{a}|{b}"] >= 1.0 - 1e-10


def test_criterion_12_bell_fisher_matrix_saturation():
    with criterion(12, "Bell and optimal Fisher matrices saturate the QFI matrix", 5.0):
        # Every eigenvalue of Q^-1 F lies in [1 - C theta1^2, 1]. Measured C at
        # (theta2, theta3) = (1.0, 0.5): 2.39 / 2.51 (tetra2 optimal / Bell),
        # 3.05 / 8.2 (balance). C depends on the axis and grows as some u_i
        # approaches 0 (past 10^5 at |u_i| = 10^-3), so C = 10 holds for this
        # axis only.
        for state in (tetra2(), balance()):
            basis = optimal_basis(state)
            for measurement in (basis, bell_measurement(state)):
                for theta in np.geomspace(1e-3, 0.05, 8):
                    params = RotationParams(float(theta), 1.0, 0.5)
                    q = qfi_matrix(state, params)
                    f = classical_fisher_matrix(state, measurement, params)
                    # Q^-1 F is similar to L^-1 F L^-T with Q = L L^T
                    l_inv = np.linalg.inv(np.linalg.cholesky(q))
                    lam = np.linalg.eigvalsh(l_inv @ f @ l_inv.T)
                    assert lam.min() >= 1.0 - 10.0 * theta**2, (theta, lam)
                    assert lam.max() <= 1.0 + 1e-8, (theta, lam)
