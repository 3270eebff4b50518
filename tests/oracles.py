"""Reference implementations and data that only tests compare against."""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rotosense.bell_analysis import BELL_STATES
from rotosense.metrology import j_expectations
from rotosense.spin_core import (
    RotationParams,
    SpinState,
    dicke_to_qubit,
    spin_operators,
)


def vdot_j_expectations(state: SpinState) -> tuple[np.ndarray, np.ndarray]:
    """<J_i> and the symmetrized Cov(J) by np.vdot over the J_i psi, pair by pair."""
    jpsi = [op @ state.amps for op in spin_operators(state.J)]
    mean = np.array([np.vdot(state.amps, v).real for v in jpsi])
    second = np.empty((3, 3))
    for i in range(3):
        for k in range(i, 3):
            # <J_i J_k> symmetrized: Re <J_i psi | J_k psi>
            second[i, k] = second[k, i] = np.vdot(jpsi[i], jpsi[k]).real
    return mean, second - np.outer(mean, mean)


def cross_product_generator_coeffs(params: RotationParams) -> np.ndarray:
    """The g_k columns as sin(theta1) du/dtheta_k + (1 - cos(theta1)) (u x du/dtheta_k)."""
    t1, t2, t3 = params.theta1, params.theta2, params.theta3
    u = params.axis
    du2 = np.array([math.cos(t2) * math.cos(t3), math.cos(t2) * math.sin(t3), -math.sin(t2)])
    du3 = np.array([-math.sin(t2) * math.sin(t3), math.sin(t2) * math.cos(t3), 0.0])
    s, c = math.sin(t1), math.cos(t1)
    return np.column_stack([u, *(s * du + (1.0 - c) * np.cross(u, du) for du in (du2, du3))])


def per_operator_optimal_rows(phi0: SpinState) -> np.ndarray:
    """The optimal basis rows, each J_i phi0 / sqrt(J(J+1)/3) normalized as its own SpinState."""
    scale = math.sqrt(phi0.J * (phi0.J + 1) / 3.0)
    states = [phi0]
    for op in spin_operators(phi0.J):
        states.append(SpinState.normalized(phi0.J, op @ phi0.amps / scale))
    rows = np.array([s.amps.conj() for s in states])
    return np.vstack([rows, np.linalg.svd(rows)[2][4:]])


def rotation_unitary(j, params: RotationParams) -> np.ndarray:
    """The dense exp(-i theta1 u . J), by eigendecomposition of u . J."""
    u = params.axis
    jx, jy, jz = spin_operators(j)
    evals, evecs = np.linalg.eigh(u[0] * jx + u[1] * jy + u[2] * jz)
    return (evecs * np.exp(-1j * params.theta1 * evals)) @ evecs.conj().T


def fisher_single(state, u) -> float:
    """Single-axis quantum Fisher information 4 u^T Cov(J) u of the unrotated probe."""
    _, cov = j_expectations(state)
    return float(4.0 * u @ cov @ u)


def params_from_axis(theta1: float, u) -> RotationParams:
    """RotationParams of a rotation by theta1 about the unit vector u."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit vector")
    theta2 = math.acos(min(1.0, max(-1.0, u[2])))
    return RotationParams(theta1, theta2, math.atan2(u[1], u[0]))


def register_contraction(amps: np.ndarray) -> np.ndarray:
    """Amplitudes <phi_{l1} ... phi_{lk}|psi> of a 2k-qubit register as a (4,) * k array.

    amps are the 4^k amplitudes, qubit 0 the most significant bit; photons
    are paired (0,1), (2,3), ...  The register-picture reference for
    bell_analysis.bell_decompose, which never builds the register.
    """
    amps = np.asarray(amps)
    n_pairs = (amps.size.bit_length() - 1) // 2
    if amps.shape != (4**n_pairs,) or n_pairs < 1:
        raise ValueError("Bell decomposition needs an even number of qubits")
    tensor = amps.reshape([4] * n_pairs)
    for _ in range(n_pairs):
        # contract leading pair axis with <phi_l|; cycles axes so order is restored
        tensor = np.tensordot(tensor, BELL_STATES.conj(), axes=([0], [1]))
    return tensor


def bell_supports(basis) -> list:
    """The label tuples t with |<phi_t|psi_mu>|^2 > 1e-12, one set per optimal-basis state."""
    j = (basis.rows.shape[1] - 1) / 2
    states = (SpinState(j, row.conj()) for row in basis.rows[:4])
    return [
        {tuple(int(x) for x in t) for t in np.argwhere(np.abs(bp) ** 2 > 1e-12)}
        for bp in (register_contraction(dicke_to_qubit(psi)) for psi in states)
    ]


def bell_outcome_probabilities(bp: np.ndarray, basis) -> np.ndarray:
    """[P0, P1, P2, P3] of the Bell analyzer in the qubit picture.

    bp is the Bell tensor of the rotated probe; outcome mu sums |bp|^2 over
    the support of register_contraction(dicke_to_qubit(psi_mu)).
    """
    probs = np.abs(bp) ** 2
    return np.array([sum(probs[t] for t in support) for support in bell_supports(basis)])


def three_peak_state(j: int) -> SpinState:
    """(sqrt(p)|J,J> + sqrt(1-2p)|J,0> + sqrt(p)|J,-J>), p = (J+1)/(6J).

    Second-order anti-coherent for integer J >= 3: its peaks sit 3 or more
    apart, so <J_i> and <J_+^2> vanish, and p sets <J_z^2> = J(J+1)/3.
    J = 4 is the cube state.
    """
    p = (j + 1) / (6 * j)
    return SpinState.from_m_amplitudes(
        j, {j: math.sqrt(p), 0: math.sqrt(1 - 2 * p), -j: math.sqrt(p)}
    )


def seven_photon_state() -> SpinState:
    """A seven-photon (J = 7/2) anti-coherent probe, peaks at m = 7/2, 1/2, -5/2."""
    return SpinState.from_m_amplitudes(
        3.5, {3.5: math.sqrt(2 / 9), 0.5: math.sqrt(7 / 18), -2.5: math.sqrt(7 / 18)}
    )


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


def multinomial_stats(p, n: int) -> MultinomialStats:
    """Analytic variance/covariance of the outcome counts at probabilities p."""
    return MultinomialStats(p=np.array(p, dtype=float), n=int(n))


# the circuit file of tetra_prep_circuit(), written out by hand
TETRA_PREP_JSON = {
    "n_qubits": 4,
    "gates": [
        {"kind": "H", "targets": [0]},
        {"kind": "U1", "targets": [2]},
        {"kind": "X", "targets": [1], "controls": [0]},
        {"kind": "U2", "targets": [3], "controls": [2]},
        {"kind": "Z", "targets": [1], "controls": [2, 3]},
        {"kind": "X", "targets": [2]},
        {"kind": "X", "targets": [3]},
        {"kind": "X", "targets": [1], "controls": [2, 3]},
        {"kind": "X", "targets": [3]},
        {"kind": "H", "targets": [3]},
        {"kind": "X", "targets": [2], "controls": [3]},
    ],
}

# the circuit file of balanced_n6_prep_circuit(), written out by hand
N6_PREP_JSON = {
    "n_qubits": 6,
    "gates": [
        {"kind": "H", "targets": [0]},
        {"kind": "H", "targets": [2]},
        {"kind": "U", "targets": [4]},
        {"kind": "X", "targets": [1], "controls": [0]},
        {"kind": "X", "targets": [3], "controls": [2]},
        {"kind": "H", "targets": [5], "controls": [4]},
        {"kind": "X", "targets": [1], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [3], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [2], "controls": [4], "open_controls": [5]},
        {"kind": "H", "targets": [3], "controls": [4], "open_controls": [5]},
        {"kind": "X", "targets": [2], "controls": [3, 4], "open_controls": [5]},
        {"kind": "X", "targets": [4]},
        {"kind": "Z", "targets": [1], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [3], "controls": [2, 4], "open_controls": [5]},
        {"kind": "H", "targets": [2], "controls": [4], "open_controls": [5]},
        {"kind": "X", "targets": [3], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [4]},
        {"kind": "X", "targets": [1], "controls": [2, 4, 5]},
        {"kind": "X", "targets": [2], "controls": [4, 5]},
        {"kind": "Z", "targets": [1], "controls": [2, 4, 5]},
        {"kind": "H", "targets": [3], "controls": [4, 5]},
        {"kind": "X", "targets": [2], "controls": [3, 4, 5]},
        {"kind": "X", "targets": [4]},
        {"kind": "H", "targets": [5]},
        {"kind": "X", "targets": [4], "controls": [5]},
    ],
}


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity: they are not JSON."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def assert_well_formed_run(code, report: str, err: str, context=None):
    """The CLI's run rule: exit 0 or 2, no traceback, only `error:` and `warning:`
    lines on stderr, exactly one `error:` line on exit 2, and strict JSON when the
    report is a JSON object.  test_cli_fuzz applies it to random runs and
    test_report_diff to every invocation of scripts/report_diff.py."""
    lines = err.splitlines()
    assert code in (0, 2), (context, err)
    assert "Traceback" not in err, (context, err)
    assert all(line.startswith(("error:", "warning:")) for line in lines), (context, lines)
    if code == 2:
        assert sum(line.startswith("error:") for line in lines) == 1, (context, lines)
    elif report.startswith("{"):
        strict_json(report)


def fresh_python(*args) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new process, with this checkout's src first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
