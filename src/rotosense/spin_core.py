"""Exact spin-J algebra on small dense complex matrices.

Conventions used throughout the package:

* ``|J, m>`` amplitudes are stored in descending-m order, so index ``k``
  holds ``m = J - k``.
* Collective rotations are ``exp(-i * theta1 * u . J)`` with spin operators
  normalized so that ``[Jx, Jy] = i Jz``.  Per photon this is the half-angle
  rotation ``exp(-i * (theta1/2) * u . sigma)``; writing the exponent with
  bare Pauli matrices (no 1/2) would double every rotation angle and
  quadruple the Fisher information, so the half convention is load-bearing.
* In the qubit picture qubit 0 is the most significant bit and
  ``|H> -> |0>``, ``|V> -> |1>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 12  # largest register expanded into the 2^N-amplitude qubit picture
MAX_SPIN = 512  # largest J: each dense (2J+1)^2 spin operator stays under 17 MB

_NORM_SLACK = 1e-6  # constructor rejects inputs farther than this from unit norm


def _check_spin(j) -> int:
    """Validate a half-integer spin value up to MAX_SPIN, returning 2J as an int."""
    two_j = 2.0 * float(j)
    if not two_j <= 2 * MAX_SPIN:  # also catches NaN and infinity
        raise ValueError(f"J must be at most {MAX_SPIN}, got {j}")
    if two_j < 0 or abs(two_j - round(two_j)) > 1e-9:
        raise ValueError(f"J must be a non-negative half-integer, got {j}")
    return int(round(two_j))


def _rescaled(amps) -> np.ndarray:
    """Amplitudes divided by their norm, for the ``normalized`` constructors."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValueError("state amplitudes are identically zero")
    return amps / norm


def _unit_amplitudes(amps) -> np.ndarray:
    """Read-only copy of nearly unit-norm amplitudes, rescaled to unit norm."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= _NORM_SLACK:
        raise ValueError(f"state amplitudes are not normalized (norm={norm:.6g})")
    amps = amps / norm
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True)
class SpinState:
    """Pure state of a spin-J system, amplitudes over |J,m> with m = J..-J."""

    J: float
    amps: np.ndarray

    def __post_init__(self):
        two_j = _check_spin(self.J)
        amps = _unit_amplitudes(self.amps)
        if amps.size != two_j + 1:
            raise ValueError(f"expected {two_j + 1} amplitudes for J={self.J}, got {amps.size}")
        object.__setattr__(self, "J", two_j / 2.0)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, j, amps) -> "SpinState":
        """Construct from unnormalized amplitudes, rescaling to unit norm."""
        return cls(j, _rescaled(amps))

    @classmethod
    def from_m_amplitudes(cls, j, components: dict) -> "SpinState":
        """Build a state from a {m: amplitude} mapping (other m are zero)."""
        two_j = _check_spin(j)
        # index of m in descending order: k = J - m
        amps = np.zeros(two_j + 1, dtype=complex)
        for m, amp in components.items():
            k = round(two_j / 2.0 - float(m))
            if not 0 <= k <= two_j or abs((two_j / 2.0 - float(m)) - k) > 1e-9:
                raise ValueError(f"m={m} is not a valid projection for J={j}")
            amps[k] = amp
        return cls.normalized(j, amps)

    def to_json_dict(self) -> dict:
        return {"J": self.J, "amps": [[z.real, z.imag] for z in self.amps]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpinState":
        amps = np.array([complex(re, im) for re, im in data["amps"]])
        return cls.normalized(data["J"], amps)


@dataclass(frozen=True)
class QubitState:
    """Pure state of an n-qubit register; qubit 0 is the most significant bit."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        n = int(self.n_qubits)
        if n < 1:
            raise ValueError("n_qubits must be a positive integer")
        amps = _unit_amplitudes(self.amps)
        if amps.size != 2**n:
            raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.size}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, n_qubits, amps) -> "QubitState":
        return cls(n_qubits, _rescaled(amps))

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "QubitState":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)


@dataclass(frozen=True)
class RotationParams:
    """Rotation by theta1 about the axis with polar angle theta2, azimuth theta3."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def axis(self) -> np.ndarray:
        return axis_from_angles(self.theta2, self.theta3)

    @classmethod
    def from_axis(cls, theta1: float, u) -> "RotationParams":
        u = np.asarray(u, dtype=float)
        norm = np.linalg.norm(u)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("axis must be a unit vector")
        theta2 = math.acos(min(1.0, max(-1.0, u[2])))
        theta3 = math.atan2(u[1], u[0])
        return cls(theta1, theta2, theta3)


def axis_from_angles(theta2: float, theta3: float) -> np.ndarray:
    """Unit vector (sin t2 cos t3, sin t2 sin t3, cos t2)."""
    return np.array(
        [
            math.sin(theta2) * math.cos(theta3),
            math.sin(theta2) * math.sin(theta3),
            math.cos(theta2),
        ]
    )


@lru_cache(maxsize=None)
def _spin_operators_cached(two_j: int):
    dim = two_j + 1
    j = two_j / 2.0
    m = j - np.arange(dim)
    # raising operator: <m+1| J+ |m> = sqrt(J(J+1) - m(m+1)), m = J-1 .. -J
    up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = up
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = -0.5j * (jp - jm)
    jz = np.diag(m).astype(complex)
    for op in (jx, jy, jz):
        op.setflags(write=False)
    return jx, jy, jz


def spin_operators(j):
    """Spin matrices (Jx, Jy, Jz) in the (2J+1)-dimensional irrep."""
    return _spin_operators_cached(_check_spin(j))


def _axis_eigh(j, u) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the generator u . J."""
    jx, jy, jz = spin_operators(j)
    return np.linalg.eigh(u[0] * jx + u[1] * jy + u[2] * jz)


def rotation_unitary(j, params: RotationParams) -> np.ndarray:
    """exp(-i * theta1 * u . J), computed by eigendecomposition of u . J."""
    evals, evecs = _axis_eigh(j, params.axis)
    phases = np.exp(-1j * params.theta1 * evals)
    return (evecs * phases) @ evecs.conj().T


def rotated_amplitudes(state: SpinState, theta1s, u) -> np.ndarray:
    """Columns exp(-i t u . J)|state>, one per t in theta1s.

    One eigendecomposition of u . J serves the whole grid of angles.
    """
    evals, evecs = _axis_eigh(state.J, u)
    coeffs = evecs.conj().T @ state.amps
    phases = np.exp(-1j * np.outer(evals, np.asarray(theta1s, dtype=float)))
    return evecs @ (phases * coeffs[:, None])


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    counts = np.zeros(2**n, dtype=np.int64)
    for q in range(n):
        counts += (np.arange(2**n) >> q) & 1
    counts.setflags(write=False)
    return counts


def dicke_to_qubit(state: SpinState) -> QubitState:
    """Expand |J,m> into the symmetric N-qubit picture, N = 2J <= MAX_QUBITS.

    |J,m> maps to the equal-amplitude superposition of all computational
    strings with exactly J - m ones (V photons).
    """
    n = _check_spin(state.J)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"the qubit picture needs 1..{MAX_QUBITS} photons (2J), got {n}")
    ones = _popcounts(n)
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n + 1):
        amps[ones == k] = state.amps[k] / math.sqrt(math.comb(n, k))
    return QubitState(n, amps)
