"""Measurements on the |J,m> basis and the induced multinomial statistics.

Every measurement is five row blocks K_0..K_3, K_rest over the |J,m> basis
whose rows form an isometry, so P_mu = ||K_mu psi||^2 for every outcome,
the rest included.  The optimal basis has one row in each of K_0..K_3 and
its orthonormal complement as K_rest; the Bell-product analyzer
(``bell_analysis.bell_measurement``) has one row per symmetric Bell product.
A report rotates the probe once per set of angles (``sweep_probabilities``
for a theta1 grid, one rotated frame for the Fisher matrices), and each of
its measurements reads its probabilities or Fisher matrix from that rotation.

For an anti-coherent probe phi0, the basis {phi0, J_1 phi0, J_2 phi0,
J_3 phi0} (normalized) is orthonormal and, measured after a small rotation,
yields outcome probabilities whose classical Fisher information saturates
the quantum bound.  The remaining 2J-3 dimensions are lumped into a single
rest outcome; their weight is fourth order in the rotation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .metrology import anticoherence_report, frame_qfi, rotated_frame
from .spin_core import (
    RotationParams, SpinState, check_unit_axis, rotated_amplitudes, spin_operators
)

@dataclass(frozen=True, eq=False)
class Measurement:
    """Five outcomes on the |J,m> basis, given by row blocks K_0..K_3, K_rest.

    Block mu is rows starts[mu] up to starts[mu+1] of ``rows`` (K_rest runs
    to the last row, and any block may be empty).  The rows form an
    isometry, R^dagger R = I, so P_mu = ||K_mu psi||^2 sums to 1 over the
    five outcomes, and sums of squared moduli keep every P_mu >= 0 exactly.
    It holds a read-only copy of the rows.
    """

    J: float
    rows: np.ndarray  # (rows of K_0, ..., rows of K_3, rows of K_rest) x (2J+1)
    starts: tuple  # first row of each of the five blocks

    def __post_init__(self):
        rows = np.array(self.rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "starts", tuple(map(int, self.starts)))


def _check_rows(p: np.ndarray) -> np.ndarray:
    """Validate rows [P0, P1, P2, P3, Prest] (range, completeness); clip into [0, 1], read-only."""
    if p.shape[-1] != 5:
        raise ValueError("expected five outcome categories")
    low, high = p.min(), p.max()
    if not (low >= -1e-12 and high <= 1.0 + 1e-12):  # NaN fails too
        raise ValueError("probabilities out of range")
    total = p.sum(axis=-1)
    miss = np.abs(total - 1.0)
    if miss.max() > 1e-12:
        raise ValueError(f"probabilities sum to {total.flat[np.argmax(miss)]}, not 1")
    # np.clip leaves rows inside [0, 1] as they are, -0.0 too: copy those
    p = np.clip(p, 0.0, 1.0) if low < 0.0 or high > 1.0 else p.copy()
    p.setflags(write=False)
    return p


# Results per probe kept by optimal_basis and bell_analysis.bell_measurement,
# each for the last MEMO_SIZE probes of the process.
MEMO_SIZE = 4

# Largest deviation from second-order anti-coherence optimal_basis accepts.
_ANTICOHERENCE_TOL = 1e-10


@lru_cache(maxsize=MEMO_SIZE)
def optimal_basis(phi0: SpinState) -> Measurement:
    """Measurement basis [phi0, J_i phi0 / sqrt(J(J+1)/3)], K_mu = <psi_mu|.

    K_rest is an orthonormal basis of the complement of the four states.
    Requires J >= 3/2, so that the four states fit in the 2J+1 dimensions,
    and a second-order anti-coherent phi0; otherwise the J_i phi0 are not
    orthogonal and no valid projector set exists.  Equal probes share one
    read-only Measurement (the last MEMO_SIZE are kept; refusals are not).
    """
    if phi0.J < 1.5:
        raise ValueError(
            "optimal_basis needs J >= 3/2: its four states need 2J+1 >= 4 "
            f"dimensions, got J={phi0.J:g}"
        )
    report = anticoherence_report(phi0, _ANTICOHERENCE_TOL)
    if not report["pass"]:
        dev = report["deviations"]
        raise ValueError(
            "optimal_basis requires a second-order anti-coherent state "
            f"(max deviations: mean {dev['max_mean_abs']:.3g}, "
            f"diag {dev['max_diagonal_dev']:.3g}, offdiag {dev['max_offdiagonal_abs']:.3g})"
        )
    scale = math.sqrt(phi0.J * (phi0.J + 1) / 3.0)
    states = [phi0]
    for op in spin_operators(phi0.J):
        states.append(SpinState.normalized(phi0.J, op @ phi0.amps / scale))
    rows = np.array([s.amps.conj() for s in states])
    rows = np.vstack([rows, np.linalg.svd(rows)[2][4:]])
    return Measurement(J=phi0.J, rows=rows, starts=(0, 1, 2, 3, 4))


def _block_sums(measurement: Measurement, values: np.ndarray) -> np.ndarray:
    """Sum per-row values over each block K_mu (along the first axis)."""
    starts = measurement.starts
    full = [start < end for start, end in zip(starts, (*starts[1:], len(values)))]
    if all(full):
        return np.add.reduceat(values, starts, axis=0)
    # np.add.reduceat mis-sums an empty block: sum the others, zero the empty ones
    sums = np.zeros((len(full), *values.shape[1:]))
    sums[full] = np.add.reduceat(values, np.compress(full, starts), axis=0)
    return sums


def _check_sector(phi0: SpinState, *measurements: Measurement):
    if any(measurement.J != phi0.J for measurement in measurements):
        raise ValueError("measurement and state belong to different spin sectors")


def sweep_probabilities(phi0: SpinState, measurements, theta1s, u) -> np.ndarray:
    """Rows [P0, P1, P2, P3, Prest], one per theta1 about the unit axis u.

    One eigendecomposition of u . J rotates the whole grid once for every
    measurement: one Measurement gives rows of shape (len(theta1s), 5), a
    sequence of k gives shape (k, len(theta1s), 5).  Rows are validated,
    read-only, and each is a function of its angle alone: the row of a
    one-angle grid, bit for bit.
    """
    single = isinstance(measurements, Measurement)
    measurements = (measurements,) if single else tuple(measurements)
    _check_sector(phi0, *measurements)
    psi = rotated_amplitudes(phi0, theta1s, u).T[..., None]  # one (2J+1, 1) column per angle
    p = np.stack([  # K psi per angle, as rotated_amplitudes forms psi
        _block_sums(m, (np.abs(np.matmul(m.rows, psi)) ** 2)[..., 0].T) for m in measurements
    ])
    rows = _check_rows(p.swapaxes(1, 2))
    return rows[0] if single else rows


def exact_probabilities(phi0: SpinState, measurements, params: RotationParams) -> np.ndarray:
    """P_mu = ||K_mu exp(-i theta1 u.J) phi0||^2, rest included, per measurement."""
    return sweep_probabilities(phi0, measurements, [params.theta1], params.axis)[..., 0, :]


# Small-angle validity: warn past this, never reject on it.  The separate
# hard limit theta1^2 J(J+1)/3 <= 1 (theta1 <= 0.707 for tetra2, 0.5 for
# balance) is where the second-order probabilities stop existing;
# small_angle_probabilities rejects theta1 beyond it.
THETA1_WARN = 0.05


def small_angle_warnings(theta1: float) -> list:
    """The validity warning for a report at theta1: one string past THETA1_WARN, else none."""
    if abs(theta1) <= THETA1_WARN:
        return []
    return [
        f"theta1={theta1} exceeds the small-angle validity threshold {THETA1_WARN}; "
        "estimates may be biased"
    ]


def small_angle_probabilities(j, theta1, u) -> np.ndarray:
    """Second-order expansion P0 = 1 - theta1^2 J(J+1)/3, P_i = theta1^2 u_i^2 J(J+1)/3.

    theta1 may be a number or an array of angles; the rows have shape
    np.shape(theta1) + (5,).  The first theta1 with theta1^2 J(J+1)/3 > 1,
    where the expansion has no probabilities, is named in the error.
    """
    u = check_unit_axis(u)
    theta1 = np.asarray(theta1, dtype=float)
    jj = float(j) * (float(j) + 1.0) / 3.0
    with np.errstate(over="ignore"):  # an overflowing square is an infinite leak
        leak = np.square(theta1) * jj
    if not (leak <= 1.0).all():  # NaN angles fail too
        bad = np.flatnonzero(~(leak <= 1.0))
        raise ValueError(
            f"theta1={float(theta1.flat[bad[0]])} outside the small-angle validity range "
            f"(theta1^2 J(J+1)/3 = {leak.flat[bad[0]]:.3g} > 1)"
        )
    leak = leak[..., None]
    return _check_rows(np.concatenate([1.0 - leak, leak * u**2, np.zeros_like(leak)], axis=-1))


def classical_fisher_matrix(
    phi0: SpinState, measurement: Measurement, params: RotationParams
) -> np.ndarray:
    """Multinomial Fisher matrix F_kl = sum_mu dP_mu/dtheta_k dP_mu/dtheta_l / P_mu.

    With psi the rotated probe and G_k psi its generator images
    (``metrology.rotated_frame``), the exact derivatives are
    dP_mu/dtheta_k = 2 Im <K_mu psi, K_mu G_k psi>, the rest outcome
    included.  Its amplitudes K_rest psi keep the relative precision that
    1 - sum_mu P_mu loses when the rest is small, and P_rest and dP_rest
    come from one vector, so F <= Q holds to rounding.
    Each term dP_mu^2 / P_mu is at most 4 ||K_mu G_k psi||^2
    (Cauchy-Schwarz) and stays finite as P_mu -> 0: at small theta1 the
    signal outcomes have P ~ theta1^2 and still carry F = Q.  So every
    outcome counts except those whose amplitudes are at the rounding level
    of the unit frame, P_mu <= ((2J+1) eps)^2, where dP^2/P would be a
    ratio of rounding errors.
    """
    _check_sector(phi0, measurement)
    return _frame_fisher(measurement, np.column_stack(rotated_frame(phi0, params)))


def _frame_fisher(measurement: Measurement, frame: np.ndarray) -> np.ndarray:
    """``classical_fisher_matrix`` from the frame columns psi, G_1 psi, G_2 psi, G_3 psi."""
    amps = measurement.rows @ frame
    p = _block_sums(measurement, np.abs(amps[:, 0]) ** 2)
    dp = 2.0 * _block_sums(measurement, (amps[:, :1].conj() * amps[:, 1:]).imag)
    mask = p > (len(frame) * np.finfo(float).eps) ** 2
    f = dp[mask].T @ (dp[mask] / p[mask, None])
    return 0.5 * (f + f.T)


def multiparam_saturation_check(
    phi0: SpinState, measurements: dict, params: RotationParams
) -> dict:
    """Compare F_kk with Q_kk, k = 1, 2, 3, for each of the named measurements.

    Q and every F come from one rotated frame.  Returns the JSON-ready report
    {name: {"fisher": F_kk, "qfi_diag": Q_kk, "relative_dev": F/Q - 1}}.
    Meaningful for small theta1 with sin(theta1) != 0; at theta2 in {0, pi}
    the azimuth generator vanishes and Q_33 = 0 is reported with a None
    deviation rather than an error.
    """
    _check_sector(phi0, *measurements.values())
    psi, g_psi = rotated_frame(phi0, params)
    qdiag = np.diag(frame_qfi(psi, g_psi)).tolist()
    frame = np.column_stack([psi, g_psi])
    report = {}
    for name, measurement in measurements.items():
        fisher = np.diag(_frame_fisher(measurement, frame)).tolist()
        rel = [f / qk - 1.0 if qk > 1e-12 else None for f, qk in zip(fisher, qdiag)]
        report[name] = {"fisher": fisher, "qfi_diag": list(qdiag), "relative_dev": rel}
    return report
