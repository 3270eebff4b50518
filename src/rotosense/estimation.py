"""Monte Carlo estimation harness.

Repeats n-shot measurement rounds of a rotated probe, extracts |theta1| and
the axis magnitudes from the observed frequencies, and compares the
empirical spread of the estimates with the Cramer-Rao prediction
1/sqrt(n F), F = 4 J (J+1) / 3.  Rounds can be generated either from the
optimal-basis probabilities or from the Bell-pair aggregation; per-trial
RNG streams are derived from (seed, trial) so results do not depend on
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell_analysis import bell_measurement
from .measurement import (
    Measurement,
    OutcomeDistribution,
    exact_probabilities,
    optimal_basis,
    small_angle_probabilities,
)
from .spin_core import RotationParams, SpinState


@dataclass(frozen=True)
class OutcomeCounts:
    counts: np.ndarray
    n: int
    seed: object

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if counts.min() < 0 or counts.sum() != self.n:
            raise ValueError("counts must be non-negative and sum to n")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def sample_outcomes(dist, n: int, seed) -> OutcomeCounts:
    """Multinomial sample of n shots; deterministic for a given seed.

    dist may be an OutcomeDistribution or a plain probability vector.
    """
    p = dist.p if isinstance(dist, OutcomeDistribution) else np.asarray(dist, dtype=float)
    if n < 1:
        raise ValueError("n must be positive")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    return OutcomeCounts(rng.multinomial(n, p), n, seed)


@dataclass(frozen=True)
class EstimateReport:
    """Magnitude estimates |theta1| and |u_i| (signs are unobservable)."""

    theta1_hat: float
    u_hat_abs: np.ndarray | None
    n: int
    J: float
    axis_defined: bool

    def to_dict(self) -> dict:
        return {
            "theta1_hat": self.theta1_hat,
            "u_hat_abs": None if self.u_hat_abs is None else list(self.u_hat_abs),
            "n": self.n,
            "J": self.J,
            "axis_defined": self.axis_defined,
        }


def estimate_params(counts: OutcomeCounts, j) -> EstimateReport:
    """Invert the small-angle law: |theta1| = sqrt(3(1-P0)/(J(J+1))), |u_i| = sqrt(Pi/(1-P0)).

    Rest-category counts are folded into P0; they are third order in theta1.
    When every shot lands in P0 the rotation is indistinguishable from zero
    and the axis is undefined.
    """
    if counts.counts.size != 5:
        raise ValueError("expected counts over five categories")
    j = float(j)
    c = counts.counts
    signal = int(c[1] + c[2] + c[3])
    frac = signal / counts.n
    theta1 = math.sqrt(frac * 3.0 / (j * (j + 1.0)))
    if signal == 0:
        return EstimateReport(0.0, None, counts.n, j, axis_defined=False)
    u_abs = np.sqrt(c[1:4] / signal)
    return EstimateReport(theta1, u_abs, counts.n, j, axis_defined=True)


@dataclass(frozen=True)
class MultinomialStats:
    """Moments of multinomial category counts for n trials at probabilities p."""

    p: np.ndarray
    n: int

    def variances(self) -> np.ndarray:
        return self.n * self.p * (1.0 - self.p)

    def covariance(self) -> np.ndarray:
        cov = -self.n * np.outer(self.p, self.p)
        np.fill_diagonal(cov, self.variances())
        return cov

    def subset_sum_variance(self, indices) -> float:
        q = float(np.sum(self.p[list(indices)]))
        return self.n * q * (1.0 - q)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": list(self.p),
            "var": list(self.variances()),
            "cov": [list(row) for row in self.covariance()],
        }


def multinomial_stats(dist, n: int) -> MultinomialStats:
    """Analytic variance/covariance of the outcome counts."""
    p = dist.p if isinstance(dist, OutcomeDistribution) else np.asarray(dist, dtype=float)
    return MultinomialStats(p=np.array(p, dtype=float), n=int(n))


def _pipeline_measurement(phi0: SpinState, pipeline: str) -> Measurement:
    """The measurement a pipeline name selects: "optimal" or "bell"."""
    if pipeline == "optimal":
        return optimal_basis(phi0)
    if pipeline == "bell":
        return bell_measurement(int(round(2 * phi0.J)))
    raise ValueError(f"unknown pipeline {pipeline!r}")


@dataclass(frozen=True)
class QcrbReport:
    """Empirical estimator statistics against the Cramer-Rao prediction."""

    pipeline: str
    params: RotationParams
    n: int
    trials: int
    seed: int
    J: float
    mean_theta1_hat: float
    sigma_empirical: float
    sigma_predicted: float
    sigma_ratio: float
    u_true_abs: np.ndarray
    mean_u_abs: np.ndarray
    sigma_u_abs: np.ndarray
    degenerate_trials: int
    max_exact_vs_smallangle_gap: float
    max_pipeline_vs_exact_gap: float
    theta1_hats: np.ndarray
    u_hats: np.ndarray

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "theta1": self.params.theta1,
            "theta2": self.params.theta2,
            "theta3": self.params.theta3,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "J": self.J,
            "mean_theta1_hat": self.mean_theta1_hat,
            "sigma_empirical": self.sigma_empirical,
            "sigma_predicted": self.sigma_predicted,
            "sigma_ratio": self.sigma_ratio,
            "u_true_abs": list(self.u_true_abs),
            "mean_u_abs": list(self.mean_u_abs),
            "sigma_u_abs": list(self.sigma_u_abs),
            "degenerate_trials": self.degenerate_trials,
            "max_exact_vs_smallangle_gap": self.max_exact_vs_smallangle_gap,
            "max_pipeline_vs_exact_gap": self.max_pipeline_vs_exact_gap,
        }

    def rows(self):
        """Per-trial rows (trial, theta1_hat, u1_hat, u2_hat, u3_hat)."""
        for t in range(self.trials):
            yield (t, self.theta1_hats[t], *self.u_hats[t])


def qcrb_experiment(
    phi0: SpinState,
    params: RotationParams,
    n: int,
    trials: int,
    seed: int,
    pipeline: str = "optimal",
) -> QcrbReport:
    """Run repeated n-shot rounds and compare sigma(theta1_hat) with 1/sqrt(nF).

    Valid in the small-rotation regime (theta1 <= 0.05 documented); the
    report carries the exact-vs-small-angle probability gap so the
    breakdown at larger angles is visible.  Per-trial seeds come from
    (seed, trial); the same trial indices are used for every pipeline, so
    pipeline comparisons are paired.
    """
    if trials < 2:
        raise ValueError("need at least two trials for a spread estimate")
    p = exact_probabilities(phi0, _pipeline_measurement(phi0, pipeline), params).p
    p_exact = exact_probabilities(phi0, optimal_basis(phi0), params).p
    p_small = small_angle_probabilities(phi0.J, params.theta1, params.axis).p
    reports = [
        estimate_params(sample_outcomes(p, n, np.random.SeedSequence((seed, t))), phi0.J)
        for t in range(trials)
    ]

    theta_hats = np.array([r.theta1_hat for r in reports])
    degenerate = sum(1 for r in reports if not r.axis_defined)
    u_hats = np.array(
        [r.u_hat_abs if r.axis_defined else np.full(3, np.nan) for r in reports]
    )
    if degenerate >= trials - 1:  # too few valid trials for axis statistics
        mean_u = np.full(3, np.nan)
        sigma_u = np.full(3, np.nan)
    else:
        mean_u = np.nanmean(u_hats, axis=0)
        sigma_u = np.nanstd(u_hats, axis=0, ddof=1)
    fisher = 4.0 * phi0.J * (phi0.J + 1.0) / 3.0
    sigma_pred = 1.0 / math.sqrt(n * fisher)
    sigma_emp = float(np.std(theta_hats, ddof=1))
    return QcrbReport(
        pipeline=pipeline,
        params=params,
        n=n,
        trials=trials,
        seed=seed,
        J=phi0.J,
        mean_theta1_hat=float(theta_hats.mean()),
        sigma_empirical=sigma_emp,
        sigma_predicted=sigma_pred,
        sigma_ratio=sigma_emp / sigma_pred,
        u_true_abs=np.abs(params.axis),
        mean_u_abs=mean_u,
        sigma_u_abs=sigma_u,
        degenerate_trials=degenerate,
        max_exact_vs_smallangle_gap=float(np.max(np.abs(p_exact - p_small))),
        max_pipeline_vs_exact_gap=float(np.max(np.abs(p - p_exact))),
        theta1_hats=theta_hats,
        u_hats=u_hats,
    )
