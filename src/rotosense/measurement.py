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

from .metrology import anticoherence_report, generator_matrix, qfi_matrix
from .spin_core import RotationParams, SpinState, rotated_amplitudes, spin_operators

_P_FLOOR = 1e-15  # outcomes below this are treated as exactly zero in Fisher sums


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


def classical_fisher(
    phi0: SpinState, measurement: Measurement, params: RotationParams, which: int
) -> float:
    """Multinomial Fisher information sum_mu (dP_mu/dtheta_k)^2 / P_mu.

    With psi the rotated probe and G_k the generator of theta_k, the exact
    derivatives are dP_mu = 2 Im <K_mu psi, K_mu G_k psi> and
    dP_rest = -sum_mu dP_mu.  Outcomes with P_mu below the floor contribute
    zero (their probability and derivative vanish together).
    """
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2 or 3")
    _check_sector(phi0, measurement)
    psi = rotated_amplitudes(phi0, [params.theta1], params.axis)[:, 0]
    k_psi = measurement.rows @ psi
    k_g_psi = measurement.rows @ (generator_matrix(phi0.J, params, which) @ psi)
    p = _block_sums(measurement, np.abs(k_psi) ** 2)
    dp = 2.0 * _block_sums(measurement, (k_psi.conj() * k_g_psi).imag)
    p = np.append(p, max(0.0, 1.0 - p.sum()))
    dp = np.append(dp, -dp.sum())
    mask = p > _P_FLOOR
    return float(np.sum(dp[mask] ** 2 / p[mask]))


@dataclass(frozen=True)
class SaturationReport:
    """Classical Fisher information F(theta_k) against the quantum matrix diagonal."""

    fisher: np.ndarray  # F(theta_k), k = 1, 2, 3
    qfi_diag: np.ndarray  # Q_kk
    relative_dev: tuple  # F/Q - 1, or None where Q_kk vanishes

    def to_dict(self) -> dict:
        return {
            "fisher": list(self.fisher),
            "qfi_diag": list(self.qfi_diag),
            "relative_dev": list(self.relative_dev),
        }


def multiparam_saturation_check(phi0: SpinState, params: RotationParams) -> SaturationReport:
    """Compare F(theta_k) with Q_kk for k = 1, 2, 3 at the given parameters.

    Meaningful for small theta1 with sin(theta1) != 0; at theta2 in {0, pi}
    the azimuth generator vanishes and Q_33 = 0 is reported with a None
    deviation rather than an error.
    """
    basis = optimal_basis(phi0)
    fisher = np.array([classical_fisher(phi0, basis, params, k) for k in (1, 2, 3)])
    q = qfi_matrix(phi0, params)
    qdiag = np.diag(q).copy()
    rel = tuple(
        (float(f / qk - 1.0) if qk > 1e-12 else None) for f, qk in zip(fisher, qdiag)
    )
    return SaturationReport(fisher=fisher, qfi_diag=qdiag, relative_dev=rel)
