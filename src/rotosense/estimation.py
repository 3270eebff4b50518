"""Monte Carlo estimation harness.

Repeats n-shot measurement rounds of a rotated probe, extracts |theta1| and
the axis magnitudes from the observed frequencies, and compares the
empirical spread of the estimates with the Cramer-Rao prediction
1/sqrt(n F), F = 4 J (J+1) / 3.  Rounds can be generated either from the
optimal-basis probabilities or from the probe's Bell analyzer.

Trials are arrays: `sample_outcomes` draws every trial's counts into one
(trials, 5) matrix and `estimate_params` inverts all rows in one call.
Trial t's signal count, the number of shots outside P0 and Prest that the
theta1 estimate inverts, is the one draw of its own counter-based stream,
Philox with the seed's key and counter t << 64, so the two pipelines'
theta1 estimates are paired trial by trial.  Two streams shared by all
trials split each row's signal over P1..P3 and its other shots over P0
and Prest, in batched draws; the axis estimates are therefore paired only
in distribution.  Every stream is read in row order, so trial t gives the
same counts whatever the number of trials.  One shared stream for the
signal count too would unpair theta1: a binomial draw consumes a variable
number of random numbers, so a small difference between two probability
vectors shifts every later row.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .bell_analysis import bell_measurement
from .measurement import (
    exact_probabilities,
    optimal_basis,
    small_angle_probabilities,
    small_angle_warnings,
)
from .spin_core import RotationParams, SpinState

# Largest trial count sample_outcomes draws: its (trials, 5) int64 count
# matrix is allocated up front, 400 MB at this ceiling.  The batched splits
# are drawn _BLOCK rows at a time, so their temporaries add 2.0 MB at any
# trial count (tracemalloc peak above the matrix); one call over all rows
# would add about 0.3 GB at this ceiling.
MAX_TRIALS = 10**7
_BLOCK = 1 << 16
# Counts are int64, so a round holds at most this many shots.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


def sample_outcomes(p, n: int, trials: int, seed: int) -> np.ndarray:
    """Read-only (trials, 5) matrix of multinomial n-shot counts.

    p holds the five outcome weights P0..P3, Prest; it is clipped at zero
    and renormalised once, and needs finite weights with a positive sum.
    Row t is drawn in three steps, each from its own stream:
    - its signal count S_t = counts[t, 1:4].sum() ~ Bin(n, s), with
      s = P1 + P2 + P3 (clipped to <= 1), is the one draw of
      Generator(Philox(key=K, counter=t << 64)), with
      K = SeedSequence(seed).generate_state(2, np.uint64), so it depends
      only on (seed, t, n, s);
    - counts[t, 1:4] ~ Mult(S_t, (P1, P2, P3)/s) comes from the first stream
      of SeedSequence(seed).spawn(2), in batched calls over the rows;
    - counts[t, 4] ~ Bin(n - S_t, Prest/(P0 + Prest)) comes from the second,
      and P0 takes the remainder.
    Every row is exactly Mult(n, p), and each stream is read in row order,
    so a run of k trials gives the first k rows of a longer run.  Two
    vectors sampled with one seed keep S_t, the count theta1's estimate
    inverts, paired row by row; the split of the signal over the axis
    outcomes and the P0/Prest split are paired only in distribution.  The
    seed is a non-negative integer.  No generator is built per row: one
    Philox generator gets each row's counter through its state setter, and
    a row costs that state reset plus one scalar binomial, with n and s
    passed as 0-d arrays built once per call, which numpy reads without
    converting.  On a 2-CPU host with numpy 2.4.6 the reset took about
    0.46 us and the draw 0.51 us, about 1.0 ms per 1000 rows.
    Counts repeat only for a bit-identical p: numpy's binomial sampler
    branches on p, so p = [0.2, 0.3, 0.1, 0.25, 0.15] and 3p, whose
    renormalised entries differ by at most 2.8e-17 (in P0 and P2, not in
    s), draw the same signal counts and signal splits at n = 1000, seed 42,
    but P0/Prest splits that differ in 37 of the first 100 rows, by up to
    31 counts.
    n and trials are integers (numpy's too); a float or a bool is refused
    before any draw.
    """
    for name, value in (("n", n), ("trials", trials)):  # bool is a subclass of int
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= n <= _MAX_SHOTS:
        raise ValueError(f"n must be in 1..{_MAX_SHOTS}, got {n}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    p = np.maximum(np.asarray(p, dtype=float), 0.0)
    if p.shape != (5,):
        raise ValueError(f"p needs the five outcomes P0..P3, Prest, got shape {p.shape}")
    with np.errstate(over="ignore"):  # a sum past the float range is rejected below
        total = p.sum()
    if not 0.0 < total < math.inf:
        raise ValueError("p needs finite weights with a positive sum")
    p = p / total
    signal = min(p[1:4].sum(), 1.0)
    sequence = np.random.SeedSequence(seed)
    bit_generator = np.random.Philox(sequence)  # keyed by sequence.generate_state(2, np.uint64)
    rng = np.random.Generator(bit_generator)
    key = bit_generator.state["state"]["key"].tolist()
    # one state, reassigned per row; its setter reads lists as it reads arrays, and faster
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # 0-d arrays, which numpy's scalar binomial reads without converting per call
    shots, s = np.array(n, dtype=np.int64), np.array(signal)
    draw = rng.binomial
    hits = []
    for t in range(trials):
        counter[1] = t  # Philox(key=key, counter=t << 64)
        bit_generator.state = state
        hits.append(draw(shots, s))
    counts = np.empty((trials, 5), dtype=np.int64)
    counts[:, 0] = hits  # S_t until P0's remainder replaces it
    split, rest = (np.random.Generator(np.random.PCG64(child))
                   for child in sequence.spawn(2))
    axis_p = p[1:4] / signal if signal > 0.0 else np.array([1.0, 0.0, 0.0])
    rest_p = p[4] / (p[0] + p[4]) if p[0] + p[4] > 0.0 else 0.0
    for start in range(0, trials, _BLOCK):  # each stream drives one kind of draw
        block = counts[start:start + _BLOCK]
        hit = block[:, 0]
        block[:, 1:4] = split.multinomial(hit, axis_p)
        block[:, 4] = rest.binomial(n - hit, rest_p)
        block[:, 0] = n - hit - block[:, 4]
    counts.setflags(write=False)
    return counts


def estimate_params(counts, j) -> tuple[np.ndarray, np.ndarray]:
    """Invert the small-angle law: |theta1| = sqrt(3(1-P0)/(J(J+1))), |u_i| = sqrt(Pi/(1-P0)).

    Works row by row on counts of shape (..., 5); a row's shot number is its
    sum.  Returns (theta1_hats, u_hats) of shapes (...) and (..., 3); signs
    are unobservable.  Rest-category counts are folded into P0; they are
    fourth order in theta1.  A row with every shot in P0 cannot tell the
    rotation from zero: its theta1 estimate is 0 and its axis is NaN.
    Counts need an integer dtype: floats and bools are refused, and so is a
    bool among the integers of a list, which numpy would read as 0 or 1.
    """
    c = np.asarray(counts)
    if c.shape[-1:] != (5,):
        raise ValueError("expected counts over five categories")
    if c.dtype.kind not in "iu":  # a float would be truncated, a bool read as 0 or 1
        raise ValueError(f"counts must be integers, got dtype {c.dtype}")
    if not isinstance(counts, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(counts, dtype=object).flat
    ):
        raise ValueError("counts must be integers, got a bool")
    c = c.astype(np.int64, copy=False)
    if c.min() < 0:
        raise ValueError("counts must be non-negative")
    signal = c[..., 1] + c[..., 2] + c[..., 3]  # column sums: exact, and cheaper than sum(-1)
    n = c[..., 0] + signal + c[..., 4]
    if n.min() < 1:
        raise ValueError("every row needs at least one shot")
    j = float(j)
    theta1 = np.sqrt(signal / n * 3.0 / (j * (j + 1.0)))
    with np.errstate(invalid="ignore"):  # 0/0 is the NaN axis of a signal-free row
        u_abs = np.sqrt(c[..., 1:4] / signal[..., None])
    return theta1, u_abs


# The per-trial estimates qcrb_experiment returns besides the estimate payload.
PER_TRIAL = ("theta1_hats", "u_hats")


def qcrb_experiment(
    phi0: SpinState,
    params: RotationParams,
    n: int,
    trials: int,
    seed: int,
    pipeline: str = "optimal",
) -> SimpleNamespace:
    """Run repeated n-shot rounds and compare sigma(theta1_hat) with 1/sqrt(nF).

    Valid in the small-rotation regime (theta1 <= 0.05 documented); the
    result carries the exact-vs-small-angle probability gap so the
    breakdown at larger angles is visible, and theta1 with
    theta1^2 J(J+1)/3 > 1, where that expansion has no probabilities, is
    rejected.  Trial t draws from the stream of (seed, t) for every
    pipeline, so pipeline comparisons are paired.  The Bell pipeline
    rejects a probe that the Bell analyzer does not fit (`bell_measurement`).

    Returns a namespace whose attributes are the keys of the ``estimate``
    payload, in its order, followed by the PER_TRIAL arrays theta1_hats
    (trials,) and u_hats (trials, 3).  mean_u_abs and sigma_u_abs are
    [None] * 3 where fewer than two trials saw a signal shot.  The benchmark
    harness checks each op through ``trials``, ``degenerate_trials``,
    ``theta1_hats`` and ``sigma_empirical``.
    """
    if trials < 2:
        raise ValueError("need at least two trials for a spread estimate")
    if pipeline not in ("optimal", "bell"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    measurements = [optimal_basis(phi0)]
    if pipeline == "bell":
        try:
            measurements.append(bell_measurement(phi0))
        except ValueError as exc:
            raise ValueError(f"{exc}; use --pipeline optimal") from None
    axis = params.axis
    rows = exact_probabilities(phi0, measurements, params)
    p_exact, p = rows[0], rows[-1]
    p_small = small_angle_probabilities(phi0.J, params.theta1, axis)
    counts = sample_outcomes(p, n, trials, seed)
    theta_hats, u_hats = estimate_params(counts, phi0.J)
    signal_free = np.isnan(u_hats[:, 0])  # a NaN axis is NaN in all three entries
    degenerate = int(np.count_nonzero(signal_free))
    if degenerate >= trials - 1:  # too few valid trials for axis statistics: null in JSON
        mean_u, sigma_u = [None] * 3, [None] * 3
    else:
        valid = u_hats[~signal_free] if degenerate else u_hats
        mean_u, sigma_u = valid.mean(axis=0).tolist(), valid.std(axis=0, ddof=1).tolist()
    fisher = 4.0 * phi0.J * (phi0.J + 1.0) / 3.0
    sigma_pred = 1.0 / math.sqrt(n * fisher)
    sigma_emp = float(theta_hats.std(ddof=1))
    return SimpleNamespace(
        pipeline=pipeline,
        theta1=params.theta1,
        theta2=params.theta2,
        theta3=params.theta3,
        n=n,
        trials=trials,
        seed=seed,
        J=phi0.J,
        mean_theta1_hat=float(theta_hats.mean()),
        sigma_empirical=sigma_emp,
        sigma_predicted=sigma_pred,
        sigma_ratio=sigma_emp / sigma_pred,
        u_true_abs=np.abs(axis).tolist(),
        mean_u_abs=mean_u,
        sigma_u_abs=sigma_u,
        degenerate_trials=degenerate,
        max_exact_vs_smallangle_gap=float(np.abs(p_exact - p_small).max()),
        max_pipeline_vs_exact_gap=float(np.abs(p - p_exact).max()),
        theta1_hats=theta_hats,
        u_hats=u_hats,
    )


def estimate_report(
    phi0: SpinState, params: RotationParams, n: int, trials: int, seed: int,
    pipelines=("optimal", "bell"),
) -> tuple:
    """qcrb_experiment for each named pipeline, all on one seed.

    Returns the JSON-ready payload {pipeline: the result's attributes but
    the PER_TRIAL arrays}, the CSV header and per-trial rows (trial,
    theta1_hat, u1_hat, u2_hat, u3_hat), which hold a single pipeline's
    trials (None for more than one), and the small-angle warnings.
    """
    reports = {pipe: qcrb_experiment(phi0, params, n, trials, seed, pipe) for pipe in pipelines}
    report, *more = reports.values()
    rows = None if more else zip(range(trials), report.theta1_hats, *report.u_hats.T)
    header = ["trial", "theta1_hat", "u1_hat", "u2_hat", "u3_hat"]
    payload = {
        pipe: {key: value for key, value in vars(report).items() if key not in PER_TRIAL}
        for pipe, report in reports.items()
    }
    return payload, header, rows, small_angle_warnings(params.theta1)
