"""Fisher-information machinery for SU(2) rotation sensing.

The single-parameter quantum Fisher information of a pure probe is four
times the variance of the rotation generator; for an unknown axis this
becomes ``F = 4 u^T Cov(J) u``, maximized by second-order anti-coherent
states, for which every diagonal entry of the covariance equals J(J+1)/3.
The multi-parameter Fisher matrix is assembled from the generator
coefficient vectors g_k, the 3x3 conjugation rotation R, and the spin
covariance of the unrotated probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import RotationParams, SpinState, rotation_unitary, spin_operators


def j_expectations(state: SpinState) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector <J_i> and symmetrized covariance matrix of the spin operators."""
    ops = spin_operators(state.J)
    jpsi = [op @ state.amps for op in ops]
    mean = np.array([np.vdot(state.amps, v).real for v in jpsi])
    second = np.empty((3, 3))
    for i in range(3):
        for k in range(i, 3):
            # <J_i J_k> symmetrized: Re <J_i psi | J_k psi>
            second[i, k] = second[k, i] = np.vdot(jpsi[i], jpsi[k]).real
    return mean, second - np.outer(mean, mean)


def fisher_single(state: SpinState, u) -> float:
    """Quantum Fisher information 4 u^T Cov(J) u for rotations about unit axis u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,) or abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("u must be a unit 3-vector")
    _, cov = j_expectations(state)
    return float(4.0 * u @ cov @ u)


@dataclass(frozen=True)
class AnticoherenceReport:
    """Deviations from the second-order anti-coherence conditions."""

    passed: bool
    max_mean_abs: float
    max_diagonal_dev: float
    max_offdiagonal_abs: float
    tol: float

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "deviations": {
                "max_mean_abs": self.max_mean_abs,
                "max_diagonal_dev": self.max_diagonal_dev,
                "max_offdiagonal_abs": self.max_offdiagonal_abs,
            },
            "tol": self.tol,
        }


def anticoherence_report(state: SpinState, tol: float = 1e-12) -> AnticoherenceReport:
    """Check <J_i> = 0 and Cov(J)_ij = delta_ij J(J+1)/3 within tol."""
    mean, cov = j_expectations(state)
    target = state.J * (state.J + 1) / 3.0
    max_mean = float(np.max(np.abs(mean)))
    max_diag = float(np.max(np.abs(np.diag(cov) - target)))
    off = cov - np.diag(np.diag(cov))
    max_off = float(np.max(np.abs(off)))
    passed = bool(max_mean <= tol and max_diag <= tol and max_off <= tol)
    return AnticoherenceReport(passed, max_mean, max_diag, max_off, tol)


def generator_coeffs(params: RotationParams) -> np.ndarray:
    """Generator coefficients of exp(-i theta1 u . J) in the (theta1, theta2, theta3) chart.

    Returns the 3x3 array whose column k-1 is g_k, with G_k = g_k . J:
    g1 = u, and for the axis angles

        g_k = sin(theta1) du/dtheta_k + (1 - cos(theta1)) (u x du/dtheta_k),

    which is the half-angle form 2 sin(t/2)[cos(t/2) du - sin(t/2) (du x u)]
    required by the [Jx, Jy] = i Jz normalization of the spin operators.
    """
    t1, t2, t3 = params.theta1, params.theta2, params.theta3
    u = params.axis
    du2 = np.array([math.cos(t2) * math.cos(t3), math.cos(t2) * math.sin(t3), -math.sin(t2)])
    du3 = np.array([-math.sin(t2) * math.sin(t3), math.sin(t2) * math.cos(t3), 0.0])
    s, c = math.sin(t1), math.cos(t1)

    def coeff(du):
        return s * du + (1.0 - c) * np.cross(u, du)

    return np.column_stack([u, coeff(du2), coeff(du3)])


def generator_matrix(j, params: RotationParams, k: int) -> np.ndarray:
    """Hermitian generator G_k = i (dU/dtheta_k) U^dagger, evaluated as g_k . J."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    g = generator_coeffs(params)[:, k - 1]
    jx, jy, jz = spin_operators(j)
    return g[0] * jx + g[1] * jy + g[2] * jz


def rotation_matrix(params: RotationParams) -> np.ndarray:
    """3x3 rotation R with U^dagger J_i U = sum_j R_ij J_j.

    Extracted by conjugating the spin-1/2 operators; R is orthogonal with
    determinant +1 and leaves the rotation axis fixed.
    """
    ops = spin_operators(0.5)
    unitary = rotation_unitary(0.5, params)
    r = np.empty((3, 3))
    for i in range(3):
        conj = unitary.conj().T @ ops[i] @ unitary
        for jdx in range(3):
            # Tr(J_a J_b) = delta_ab / 2 at spin 1/2
            r[i, jdx] = 2.0 * np.trace(conj @ ops[jdx]).real
    return r


def qfi_matrix(state: SpinState, params: RotationParams) -> np.ndarray:
    """Multi-parameter quantum Fisher information matrix.

    Q_ij = 4 (R g_i)^T Cov(J) (R g_j), using the full covariance of the
    unrotated probe.  For anti-coherent probes this reduces to
    (4 J (J+1) / 3) * G^T G with G the column matrix of the g_k.
    """
    _, cov = j_expectations(state)
    r = rotation_matrix(params)
    rg = r @ generator_coeffs(params)
    q = 4.0 * rg.T @ cov @ rg
    return 0.5 * (q + q.T)
