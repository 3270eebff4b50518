"""Fisher-information machinery for SU(2) rotation sensing.

The single-parameter quantum Fisher information of a pure probe is four
times the variance of the rotation generator; for an unknown axis this
becomes ``F = 4 u^T Cov(J) u``, maximized by second-order anti-coherent
states, for which every diagonal entry of the covariance equals J(J+1)/3.
The multi-parameter Fisher matrices are computed in the rotated frame: the
probe is rotated once, and the generator coefficient vectors g_k turn it
into the three images G_k psi; the probe and its images form one frame
array that both the quantum matrix here and the classical matrix of any
measurement (``measurement.classical_fisher_matrix``) read.
"""

from __future__ import annotations

import math

import numpy as np

from .spin_core import RotationParams, SpinState, rotated_amplitudes, spin_operators

# Largest deviation from second-order anti-coherence that anticoherence_report
# passes, and so the one optimal_basis accepts.
ANTICOHERENCE_TOL = 1e-10


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


def anticoherence_report(state: SpinState) -> dict:
    """Check <J_i> = 0 and Cov(J)_ij = delta_ij J(J+1)/3 within ANTICOHERENCE_TOL.

    Returns the JSON-ready report {"pass", "deviations": {"max_mean_abs",
    "max_diagonal_dev", "max_offdiagonal_abs"}, "tol"}.  J < 3/2 fails, as
    in optimal_basis: J = 0 meets both conditions with an all-zero QFI.
    """
    mean, cov = j_expectations(state)
    target = state.J * (state.J + 1) / 3.0
    deviations = {
        "max_mean_abs": float(np.max(np.abs(mean))),
        "max_diagonal_dev": float(np.max(np.abs(np.diag(cov) - target))),
        "max_offdiagonal_abs": float(np.max(np.abs(cov - np.diag(np.diag(cov))))),
    }
    passed = state.J >= 1.5 and all(dev <= ANTICOHERENCE_TOL for dev in deviations.values())
    return {"pass": passed, "deviations": deviations, "tol": ANTICOHERENCE_TOL}


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


def rotated_frame(state: SpinState, params: RotationParams) -> np.ndarray:
    """The rotated probe psi = exp(-i theta1 u.J) phi0 and its generator images.

    Returns the (2J+1, 4) array [psi, G_1 psi, G_2 psi, G_3 psi] of columns,
    with G_k psi = sum_i g_k[i] J_i psi and g_k the generator_coeffs columns.
    """
    psi = rotated_amplitudes(state, [params.theta1], params.axis)[0]
    j_psi = np.column_stack([op @ psi for op in spin_operators(state.J)])
    return np.column_stack([psi, j_psi @ generator_coeffs(params)])


def qfi_matrix(state: SpinState, params: RotationParams) -> np.ndarray:
    """Multi-parameter quantum Fisher information matrix.

    Q_kl = 4 Re Cov_psi(G_k, G_l) over the rotated probe psi.  For
    anti-coherent probes this reduces to (4 J (J+1) / 3) * G^T G with G the
    column matrix of the g_k.
    """
    return frame_qfi(rotated_frame(state, params))


def frame_qfi(frame: np.ndarray) -> np.ndarray:
    """The quantum Fisher matrix of a ``rotated_frame`` [psi, G_1 psi, G_2 psi, G_3 psi]."""
    psi, g_psi = frame[:, 0], frame[:, 1:]
    mean = (psi.conj() @ g_psi).real
    q = 4.0 * ((g_psi.conj().T @ g_psi).real - np.outer(mean, mean))
    return 0.5 * (q + q.T)


def fisher_report(state: SpinState, params: RotationParams) -> dict:
    """The JSON-ready Fisher report of a probe at a rotation.

    {"J", "mean", "cov"} of the spin operators, "anticoherence", the
    quantum Fisher matrix "qfi" with "fisher_single" = Q_11, and the
    rotation's "theta1" and unit "axis".
    """
    mean, cov = j_expectations(state)
    qfi = qfi_matrix(state, params)
    return {
        "J": state.J,
        "mean": list(mean),
        "cov": [list(row) for row in cov],
        "anticoherence": anticoherence_report(state),
        "fisher_single": float(qfi[0, 0]),
        "axis": list(params.axis),
        "qfi": [list(row) for row in qfi],
        "theta1": params.theta1,
    }
