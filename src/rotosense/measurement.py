"""Measurements on the |J,m> basis and the induced multinomial statistics.

Every measurement is four row blocks K_mu over the |J,m> basis, with
P_mu = ||K_mu psi||^2 and the remaining weight lumped into a rest outcome.
The optimal projectors have one row each; the Bell-product analyzer
(``bell_analysis.bell_measurement``) has one row per Bell label tuple of
its aggregation group.

For an anti-coherent probe phi0, the basis {phi0, J_1 phi0, J_2 phi0,
J_3 phi0} (normalized) is orthonormal and, measured after a small rotation,
yields outcome probabilities whose classical Fisher information saturates
the quantum bound.  The remaining 2J-3 dimensions are lumped into a single
rest outcome; their weight is third order in the rotation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrology import anticoherence_report, qfi_matrix, rotated_frame
from .spin_core import RotationParams, SpinState, rotated_amplitudes, spin_operators

@dataclass(frozen=True)
class Measurement:
    """Four outcomes on the |J,m> basis, given by row blocks K_0..K_3.

    Outcome mu has probability P_mu = ||K_mu psi||^2, where K_mu is rows
    starts[mu] up to starts[mu+1] of ``rows``; the rest outcome takes
    1 - sum_mu P_mu.  Sums of squared moduli keep every P_mu >= 0 exactly.
    """

    J: float
    rows: np.ndarray  # (rows of K_0, ..., rows of K_3) x (2J+1)
    starts: tuple  # first row of each block


@dataclass(frozen=True)
class ProjectorBasis(Measurement):
    """Ordered orthonormal measurement states [psi0, psi1, psi2, psi3]; K_mu = <psi_mu|."""

    states: tuple


def _check_rows(p: np.ndarray) -> np.ndarray:
    """Validate rows [P0, P1, P2, P3, Prest] (range, unit sum); clip into [0, 1], read-only."""
    if p.shape[-1] != 5:
        raise ValueError("expected five outcome categories")
    if not (p.min() >= -1e-12 and p.max() <= 1.0 + 1e-12):  # NaN fails too
        raise ValueError("probabilities out of range")
    total = p.sum(axis=-1).ravel()
    worst = total[np.argmax(np.abs(total - 1.0))]
    if abs(worst - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {worst}, not 1")
    p = np.clip(p, 0.0, 1.0)
    p.setflags(write=False)
    return p


def optimal_basis(phi0: SpinState, tol: float = 1e-10) -> ProjectorBasis:
    """Measurement basis [phi0, J_i phi0 / sqrt(J(J+1)/3)].

    Requires a second-order anti-coherent phi0; otherwise the J_i phi0 are
    not orthogonal and no valid projector set exists.
    """
    report = anticoherence_report(phi0, tol)
    if not report.passed:
        raise ValueError(
            "optimal_basis requires a second-order anti-coherent state "
            f"(max deviations: mean {report.max_mean_abs:.3g}, "
            f"diag {report.max_diagonal_dev:.3g}, offdiag {report.max_offdiagonal_abs:.3g})"
        )
    scale = math.sqrt(phi0.J * (phi0.J + 1) / 3.0)
    states = [phi0]
    for op in spin_operators(phi0.J):
        states.append(SpinState.normalized(phi0.J, op @ phi0.amps / scale))
    rows = np.array([s.amps.conj() for s in states])
    rows.setflags(write=False)
    return ProjectorBasis(J=phi0.J, rows=rows, starts=(0, 1, 2, 3), states=tuple(states))


def _block_sums(measurement: Measurement, values: np.ndarray) -> np.ndarray:
    """Sum per-row values over each block K_mu (along the first axis)."""
    return np.add.reduceat(values, measurement.starts, axis=0)


def _check_sector(phi0: SpinState, measurement: Measurement):
    if measurement.J != phi0.J:
        raise ValueError("measurement and state belong to different spin sectors")


def sweep_probabilities(phi0: SpinState, measurement: Measurement, theta1s, u) -> np.ndarray:
    """Rows [P0, P1, P2, P3, Prest], one per theta1 about the unit axis u.

    One eigendecomposition of u . J rotates the whole grid; the rows are
    validated and read-only.
    """
    _check_sector(phi0, measurement)
    psi = rotated_amplitudes(phi0, theta1s, u)
    p = _block_sums(measurement, np.abs(measurement.rows @ psi) ** 2).T
    rest = np.maximum(0.0, 1.0 - p.sum(axis=1))
    return _check_rows(np.column_stack([p, rest]))


def exact_probabilities(
    phi0: SpinState, measurement: Measurement, params: RotationParams
) -> np.ndarray:
    """P_mu = ||K_mu exp(-i theta1 u.J) phi0||^2 with the rest aggregated."""
    return sweep_probabilities(phi0, measurement, [params.theta1], params.axis)[0]


def small_angle_probabilities(j, theta1, u) -> np.ndarray:
    """Second-order expansion P0 = 1 - theta1^2 J(J+1)/3, P_i = theta1^2 u_i^2 J(J+1)/3.

    theta1 may be a number or an array of angles; the rows have shape
    np.shape(theta1) + (5,).  The first theta1 with theta1^2 J(J+1)/3 > 1,
    where the expansion has no probabilities, is named in the error.
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("u must be a unit 3-vector")
    theta1 = np.asarray(theta1, dtype=float)
    jj = float(j) * (float(j) + 1.0) / 3.0
    with np.errstate(over="ignore"):  # an overflowing square is an infinite leak
        leak = np.square(theta1) * jj
    bad = np.flatnonzero(~(leak <= 1.0))  # NaN angles fail too
    if bad.size:
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
    dP_mu/dtheta_k = 2 Im <K_mu psi, K_mu G_k psi>.  The rest outcome is the
    complement I - R^dagger R of all rows R, a projector for both
    measurements here (orthonormal or isometric rows), and takes the same
    form with K_rest psi = psi - R^dagger R psi.  Its amplitudes keep the
    relative precision that 1 - sum_mu P_mu loses when the rest is small,
    and P_rest and dP_rest come from one vector, so F <= Q holds to rounding.
    Each term dP_mu^2 / P_mu is at most 4 ||K_mu G_k psi||^2
    (Cauchy-Schwarz) and stays finite as P_mu -> 0: at small theta1 the
    signal outcomes have P ~ theta1^2 and still carry F = Q.  So every
    outcome counts except those whose amplitudes are at the rounding level
    of the unit frame, P_mu <= ((2J+1) eps)^2, where dP^2/P would be a
    ratio of rounding errors.
    """
    _check_sector(phi0, measurement)
    frame = np.column_stack(rotated_frame(phi0, params))  # psi, G_1 psi, G_2 psi, G_3 psi
    blocks = measurement.rows @ frame
    amps = np.vstack([blocks, frame - measurement.rows.conj().T @ blocks])
    starts = (*measurement.starts, len(blocks))
    p = np.add.reduceat(np.abs(amps[:, 0]) ** 2, starts)
    dp = 2.0 * np.add.reduceat((amps[:, :1].conj() * amps[:, 1:]).imag, starts, axis=0)
    mask = p > (len(frame) * np.finfo(float).eps) ** 2
    f = dp[mask].T @ (dp[mask] / p[mask, None])
    return 0.5 * (f + f.T)


@dataclass(frozen=True)
class SaturationReport:
    """Classical Fisher matrix diagonal F_kk against the quantum matrix diagonal Q_kk."""

    fisher: np.ndarray  # F_kk, k = 1, 2, 3
    qfi_diag: np.ndarray  # Q_kk
    relative_dev: tuple  # F/Q - 1, or None where Q_kk vanishes

    def to_dict(self) -> dict:
        return {
            "fisher": list(self.fisher),
            "qfi_diag": list(self.qfi_diag),
            "relative_dev": list(self.relative_dev),
        }


def multiparam_saturation_check(
    phi0: SpinState, measurement: Measurement, params: RotationParams
) -> SaturationReport:
    """Compare F_kk of the measurement with Q_kk for k = 1, 2, 3 at the given parameters.

    Meaningful for small theta1 with sin(theta1) != 0; at theta2 in {0, pi}
    the azimuth generator vanishes and Q_33 = 0 is reported with a None
    deviation rather than an error.
    """
    fisher = np.diag(classical_fisher_matrix(phi0, measurement, params)).copy()
    qdiag = np.diag(qfi_matrix(phi0, params)).copy()
    rel = tuple(
        (float(f / qk - 1.0) if qk > 1e-12 else None) for f, qk in zip(fisher, qdiag)
    )
    return SaturationReport(fisher=fisher, qfi_diag=qdiag, relative_dev=rel)
