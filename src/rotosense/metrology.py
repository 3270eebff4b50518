"""Fisher-information machinery for SU(2) rotation sensing.

The single-parameter quantum Fisher information of a pure probe is four
times the variance of the rotation generator; for an unknown axis this
becomes ``F = 4 u^T Cov(J) u``, maximized by second-order anti-coherent
states, for which every diagonal entry of the covariance equals J(J+1)/3.
Every second moment is read off one frame [psi, A_1 psi, A_2 psi, A_3 psi]
(``frame_moments``): the probe's spin frame for Cov(J), and for the Fisher
matrices the rotated probe's, whose J_i psi the generator coefficients g_k
turn into G_k psi; the classical matrix of any measurement
(``measurement.classical_fisher_matrix``) reads that same rotated frame.
"""

from __future__ import annotations

import math

import numpy as np

from .spin_core import RotationParams, SpinState, rotated_amplitudes, spin_frame

# Largest deviation from second-order anti-coherence that anticoherence_report
# passes, and so the one optimal_basis accepts.
ANTICOHERENCE_TOL = 1e-10


def frame_moments(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means <A_k> and symmetrized covariance of a frame [psi, A_1 psi, A_2 psi, A_3 psi].

    Both come from the frame's Gram matrix: <A_k> = Re <psi|A_k psi> and
    Cov_kl = Re <A_k psi|A_l psi> - <A_k><A_l>, made exactly symmetric.
    """
    gram = (frame.conj().T @ frame).real
    mean = gram[0, 1:]
    cov = gram[1:, 1:] - np.outer(mean, mean)
    return mean, 0.5 * (cov + cov.T)


def j_expectations(state: SpinState) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector <J_i> and symmetrized covariance matrix of the spin operators."""
    return frame_moments(spin_frame(state.J, state.amps))


def anticoherence_report(j: float, mean: np.ndarray, cov: np.ndarray) -> dict:
    """Check <J_i> = 0 and Cov(J)_ij = delta_ij J(J+1)/3 within ANTICOHERENCE_TOL.

    Reads a spin-j probe's moments <J_i> and Cov(J) (``j_expectations``).
    Returns the JSON-ready report {"pass", "deviations": {"max_mean_abs",
    "max_diagonal_dev", "max_offdiagonal_abs"}, "tol"}.  J < 3/2 fails, as
    in optimal_basis: J = 0 meets both conditions with an all-zero QFI.
    """
    target = j * (j + 1) / 3.0
    deviations = {
        "max_mean_abs": float(np.max(np.abs(mean))),
        "max_diagonal_dev": float(np.max(np.abs(np.diag(cov) - target))),
        "max_offdiagonal_abs": float(np.max(np.abs(cov - np.diag(np.diag(cov))))),
    }
    passed = j >= 1.5 and all(dev <= ANTICOHERENCE_TOL for dev in deviations.values())
    return {"pass": passed, "deviations": deviations, "tol": ANTICOHERENCE_TOL}


def generator_coeffs(params: RotationParams) -> np.ndarray:
    """Generator coefficients of exp(-i theta1 u . J) in the (theta1, theta2, theta3) chart.

    Returns the 3x3 array whose column k-1 is g_k, with G_k = g_k . J: g1 = u,
    and for the axis angles g_k = sin(theta1) du/dtheta_k + (1 - cos(theta1))
    (u x du/dtheta_k), the half-angle form that the [Jx, Jy] = i Jz
    normalization of the spin operators requires.  In the axis's orthonormal
    triad (u, e_theta, e_phi), du/dtheta2 = e_theta, du/dtheta3 =
    sin(theta2) e_phi, and u x e_theta = e_phi, u x e_phi = -e_theta give

        g2 = sin(theta1) e_theta + (1 - cos(theta1)) e_phi,
        g3 = sin(theta2) [sin(theta1) e_phi - (1 - cos(theta1)) e_theta].
    """
    t1, t2, t3 = params.theta1, params.theta2, params.theta3
    s, vers = math.sin(t1), 1.0 - math.cos(t1)
    e_theta = np.array([math.cos(t2) * math.cos(t3), math.cos(t2) * math.sin(t3), -math.sin(t2)])
    e_phi = np.array([-math.sin(t3), math.cos(t3), 0.0])
    g3 = math.sin(t2) * (s * e_phi - vers * e_theta)
    return np.column_stack([params.axis, s * e_theta + vers * e_phi, g3])


def rotated_frame(state: SpinState, params: RotationParams) -> np.ndarray:
    """The rotated probe psi = exp(-i theta1 u.J) phi0 and its generator images.

    Returns the (2J+1, 4) array [psi, G_1 psi, G_2 psi, G_3 psi] of columns:
    the spin frame of psi with its J_i psi columns times the generator_coeffs.
    """
    frame = spin_frame(state.J, rotated_amplitudes(state, [params.theta1], params.axis)[0])
    frame[:, 1:] = frame[:, 1:] @ generator_coeffs(params)
    return frame


def qfi_matrix(state: SpinState, params: RotationParams) -> np.ndarray:
    """Multi-parameter quantum Fisher information matrix.

    Q_kl = 4 Re Cov_psi(G_k, G_l) over the rotated probe psi.  For
    anti-coherent probes this reduces to (4 J (J+1) / 3) * G^T G with G the
    column matrix of the g_k.
    """
    return frame_qfi(rotated_frame(state, params))


def frame_qfi(frame: np.ndarray) -> np.ndarray:
    """The quantum Fisher matrix 4 Cov(G_k, G_l) of a ``rotated_frame``."""
    return 4.0 * frame_moments(frame)[1]


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
        "anticoherence": anticoherence_report(state.J, mean, cov),
        "fisher_single": float(qfi[0, 0]),
        "axis": list(params.axis),
        "qfi": [list(row) for row in qfi],
        "theta1": params.theta1,
    }
