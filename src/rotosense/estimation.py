"""Monte Carlo estimation harness.

Repeats n-shot measurement rounds of a rotated probe, extracts |theta1| and
the axis magnitudes from the observed frequencies, and compares the
empirical spread of the estimates with the Cramer-Rao prediction
1/sqrt(n F), F = 4 J (J+1) / 3.  Rounds can be generated either from the
optimal-basis probabilities or from the Bell-pair aggregation.

Trials are arrays: `sample_outcomes` draws every trial's counts into one
(trials, 5) matrix and `estimate_params` inverts all rows in one call.
Row t comes from its own RNG stream derived from (seed, t), so trial t
gives the same counts whatever the number of trials, and the two pipelines
are paired trial by trial.  One shared stream would be cheaper but would
unpair them: a binomial draw consumes a variable number of random numbers,
so a small difference between two probability vectors shifts every later
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell_analysis import bell_measurement
from .measurement import (
    Measurement,
    exact_probabilities,
    optimal_basis,
    small_angle_probabilities,
)
from .spin_core import RotationParams, SpinState

# Largest trial count sample_outcomes draws: its (trials, 5) int64 count
# matrix is allocated up front, 400 MB at this ceiling.
MAX_TRIALS = 10**7
# Counts are int64, so a round holds at most this many shots.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


def sample_outcomes(p, n: int, trials: int, seed: int) -> np.ndarray:
    """Read-only (trials, k) matrix of multinomial n-shot counts.

    The probability vector p is clipped at zero and renormalised once.
    Row t is drawn from its own stream default_rng(SeedSequence((seed, t))),
    so it depends only on (seed, t, n, p): a run of k trials gives the first
    k rows of a longer run, and two vectors sampled with one seed stay
    paired row by row.
    """
    p = np.asarray(p, dtype=float)
    if not 1 <= n <= _MAX_SHOTS:
        raise ValueError(f"n must be in 1..{_MAX_SHOTS}, got {n}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    counts = np.empty((trials, p.size), dtype=np.int64)
    for t in range(trials):
        counts[t] = np.random.default_rng(np.random.SeedSequence((seed, t))).multinomial(n, p)
    counts.setflags(write=False)
    return counts


def estimate_params(counts, j) -> tuple[np.ndarray, np.ndarray]:
    """Invert the small-angle law: |theta1| = sqrt(3(1-P0)/(J(J+1))), |u_i| = sqrt(Pi/(1-P0)).

    Works row by row on counts of shape (..., 5); a row's shot number is its
    sum.  Returns (theta1_hats, u_hats) of shapes (...) and (..., 3); signs
    are unobservable.  Rest-category counts are folded into P0; they are
    third order in theta1.  A row with every shot in P0 cannot tell the
    rotation from zero: its theta1 estimate is 0 and its axis is NaN.
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.shape[-1:] != (5,):
        raise ValueError("expected counts over five categories")
    if c.min() < 0:
        raise ValueError("counts must be non-negative")
    n = c.sum(-1)
    if n.min() < 1:
        raise ValueError("every row needs at least one shot")
    j = float(j)
    signal = c[..., 1:4].sum(-1)
    theta1 = np.sqrt(signal / n * 3.0 / (j * (j + 1.0)))
    with np.errstate(invalid="ignore"):  # 0/0 is the NaN axis of a signal-free row
        u_abs = np.sqrt(c[..., 1:4] / signal[..., None])
    return theta1, u_abs


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


def multinomial_stats(p, n: int) -> MultinomialStats:
    """Analytic variance/covariance of the outcome counts at probabilities p."""
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
    breakdown at larger angles is visible, and theta1 with
    theta1^2 J(J+1)/3 > 1, where that expansion has no probabilities, is
    rejected.  Trial t draws from the stream of (seed, t) for every
    pipeline, so pipeline comparisons are paired.
    """
    if trials < 2:
        raise ValueError("need at least two trials for a spread estimate")
    p = exact_probabilities(phi0, _pipeline_measurement(phi0, pipeline), params)
    p_exact = exact_probabilities(phi0, optimal_basis(phi0), params)
    p_small = small_angle_probabilities(phi0.J, params.theta1, params.axis)
    counts = sample_outcomes(p, n, trials, seed)
    theta_hats, u_hats = estimate_params(counts, phi0.J)
    degenerate = int(np.isnan(u_hats[:, 0]).sum())
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
