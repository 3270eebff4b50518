"""Monte Carlo estimation harness.

Repeats n-shot measurement rounds of a rotated probe, extracts |theta1| and
the axis magnitudes from the observed frequencies, and compares the
empirical spread of the estimates with the Cramer-Rao prediction
1/sqrt(n F), F = 4 J (J+1) / 3.  Rounds can be generated either from the
optimal-basis probabilities or from the Bell-pair aggregation.

Trials are arrays: `sample_outcomes` draws every trial's counts into one
(trials, 5) matrix and `estimate_params` inverts all rows in one call.
Row t comes from its own RNG stream, the PCG64 stream that
SeedSequence((seed, t)) seeds, so trial t gives the same counts whatever
the number of trials, and the two pipelines are paired trial by trial.
One shared stream would unpair them: a binomial draw consumes a variable
number of random numbers, so a small difference between two probability
vectors shifts every later row.  Building a SeedSequence per row is what
costs, so `_pcg64_states` hashes the seeds of all rows at once and one
generator is reseeded per row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bell_analysis import bell_measurement
from .measurement import (
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

# SeedSequence's entropy hash (numpy/random/bit_generator.pyx, pool of four
# uint32 words) and PCG64's 128-bit LCG multiplier (pcg64.h).  Python ints,
# so that updating them never overflows a numpy scalar.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Rows hashed per pass: large enough to amortise the numpy calls, small
# enough that the block's arrays and ints stay far below the count matrix.
_HASH_BLOCK = 4096


def _seed_words(seed) -> list[int]:
    """The uint32 words SeedSequence reads from an integer seed, low word first."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _pcg64_states(seed, trials: int):
    """Yield PCG64's (state, inc) after seeding from SeedSequence((seed, t)), t < trials.

    Runs SeedSequence's pool mixing and generate_state(4, uint64) as uint32
    array operations over a block of trials (the entropy of row t is the
    seed's words followed by t), then PCG64's srandom in 128-bit ints.
    Blocks of _HASH_BLOCK rows keep the memory flat in trials.
    """
    seed_words = _seed_words(seed)

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    for start in range(0, trials, _HASH_BLOCK):
        t = np.arange(start, min(start + _HASH_BLOCK, trials), dtype=np.uint32)
        entropy = [np.full(t.size, w, dtype=np.uint32) for w in seed_words]
        entropy.append(t)  # t < MAX_TRIALS: one word
        zero = np.zeros(t.size, dtype=np.uint32)
        hash_const = _INIT_A
        pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))

        hash_const = _INIT_B
        words = []
        for i in range(8):  # generate_state(4, uint64): eight words cycling over the pool
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const
            words.append((value ^ value >> 16).astype(np.uint64))
        # uint64 k is words 2k (low) and 2k+1; seed = (u0 << 64) | u1, stream = (u2 << 64) | u3
        u = [(words[2 * k] | words[2 * k + 1] << 32).tolist() for k in range(4)]
        for u0, u1, u2, u3 in zip(*u):
            inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
            yield ((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _MASK128, inc


def sample_outcomes(p, n: int, trials: int, seed: int) -> np.ndarray:
    """Read-only (trials, k) matrix of multinomial n-shot counts.

    The probability vector p is clipped at zero and renormalised once; it
    needs finite weights with a positive sum.  Row t is drawn from its own
    stream, the one default_rng(SeedSequence((seed, t))) would give, so it
    depends only on (seed, t, n, p): a run of k trials gives the first k
    rows of a longer run, and two vectors sampled with one seed stay paired
    row by row.  The seed is a non-negative integer.
    """
    if not 1 <= n <= _MAX_SHOTS:
        raise ValueError(f"n must be in 1..{_MAX_SHOTS}, got {n}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    with np.errstate(over="ignore"):  # a sum past the float range is rejected below
        total = p.sum()
    if not 0.0 < total < math.inf:
        raise ValueError("p needs finite weights with a positive sum")
    p = p / total
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    counts = np.empty((trials, p.size), dtype=np.int64)
    for t, (state, inc) in enumerate(_pcg64_states(seed, trials)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        counts[t] = rng.multinomial(n, p)
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
    pipeline, so pipeline comparisons are paired.  The Bell pipeline needs
    a probe that the analyzer's outcome 0 holds wholly before the
    rotation, as it holds tetra2 and balance, for which its aggregation
    groups were built; any other probe is rejected.
    """
    if trials < 2:
        raise ValueError("need at least two trials for a spread estimate")
    if pipeline == "bell":
        analyzer = bell_measurement(int(round(2 * phi0.J)))
        # elsewhere the counts do not follow the small-angle law that
        # estimate_params inverts
        weight = float(np.sum(np.abs(analyzer.rows[: analyzer.starts[1]] @ phi0.amps) ** 2))
        if weight < 1.0 - 1e-9:
            raise ValueError(
                f"the Bell analyzer puts {weight:.6g} of this unrotated probe on outcome 0, "
                "not 1: it is built for the reference probes tetra2 and balance; "
                "use --pipeline optimal"
            )
    elif pipeline != "optimal":
        raise ValueError(f"unknown pipeline {pipeline!r}")
    p_exact = exact_probabilities(phi0, optimal_basis(phi0), params)
    p = exact_probabilities(phi0, analyzer, params) if pipeline == "bell" else p_exact
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
