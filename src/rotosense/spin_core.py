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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 12  # most photons in a 2^N qubit register or a 3^(N/2) x (N+1) Bell image
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


def complex_pairs(key: str, pairs) -> np.ndarray:
    """The complex numbers of a JSON list of [re, im] number pairs.

    Each part must be a JSON integer or float: a bool (which would read as 0
    or 1), a string or an integer past the float range raises TypeError.
    """
    def real(x):
        return type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max)

    if type(pairs) is not list or not all(
        type(z) is list and len(z) == 2 and real(z[0]) and real(z[1]) for z in pairs
    ):
        raise TypeError(f"{key} must be a list of [re, im] number pairs")
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _rescaled(amps) -> np.ndarray:
    """Amplitudes divided by their norm, for ``SpinState.normalized``."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):  # a norm past the float range is refused below
        norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValueError("state amplitudes are identically zero")
    if not norm < math.inf:  # NaN fails too
        raise ValueError(f"state amplitudes have no finite norm (norm={norm})")
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


@dataclass(frozen=True, eq=False)
class SpinState:
    """Pure state of a spin-J system, amplitudes over |J,m> with m = J..-J.

    A value: equal, and hashed alike, by J and the bytes of its read-only
    amplitudes, so bit-identical probes share one ``functools.lru_cache``
    entry; 0.0 and -0.0 differ.
    """

    J: float
    amps: np.ndarray

    def __post_init__(self):
        two_j = _check_spin(self.J)
        amps = _unit_amplitudes(self.amps)
        if amps.size != two_j + 1:
            raise ValueError(f"expected {two_j + 1} amplitudes for J={self.J}, got {amps.size}")
        object.__setattr__(self, "J", two_j / 2.0)
        object.__setattr__(self, "amps", amps)

    def __eq__(self, other):
        return type(other) is type(self) and (self.J, self.amps.tobytes()) == (
            other.J, other.amps.tobytes()
        )

    def __hash__(self):
        return hash((self.J, self.amps.tobytes()))

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpinState":
        j = data["J"]
        if type(j) not in (int, float):  # a bool would read as J = 0 or 1
            raise TypeError(f"J must be a number, got {j!r}")
        return cls.normalized(j, complex_pairs("amps", data["amps"]))


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
        """Unit vector (sin t2 cos t3, sin t2 sin t3, cos t2)."""
        t2, t3 = self.theta2, self.theta3
        return np.array([math.sin(t2) * math.cos(t3), math.sin(t2) * math.sin(t3), math.cos(t2)])


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


def spin_frame(j, psi) -> np.ndarray:
    """The (2J+1, 4) frame [psi, J_x psi, J_y psi, J_z psi], each spin operator applied once."""
    return np.column_stack([psi, *(op @ psi for op in spin_operators(j))])


def check_unit_axis(u) -> np.ndarray:
    """u as a float array, refused unless it is a unit 3-vector (within 1e-9)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,) or not abs(np.linalg.norm(u) - 1.0) <= 1e-9:
        raise ValueError("u must be a unit 3-vector")
    return u


def rotated_amplitudes(state: SpinState, theta1s, u) -> np.ndarray:
    """Rows exp(-i t u . J)|state>, one per t in theta1s, about the unit axis u.

    Shape (len(theta1s), 2J+1).  One eigendecomposition of u . J serves the
    whole grid, and each angle is its own matrix-vector product, so a row is
    a function of its angle alone, bit for bit the row of a one-angle grid.
    It refuses an angle whose phases t m are NaN or past the float range.
    """
    u = check_unit_axis(u)
    jx, jy, jz = spin_operators(state.J)
    evals, evecs = np.linalg.eigh(u[0] * jx + u[1] * jy + u[2] * jz)
    coeffs = evecs.conj().T @ state.amps
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        phase = np.outer(np.asarray(theta1s, dtype=float), evals)
    if not np.isfinite(phase).all():
        raise ValueError("theta1 out of range: the rotation phases theta1 * m are not finite")
    # angle as the batch axis: one (2J+1)-vector per angle, not one matrix product over the grid
    return np.matmul(evecs, (np.exp(-1j * phase) * coeffs)[..., None])[..., 0]


def dicke_to_qubit(state: SpinState) -> np.ndarray:
    """Expand |J,m> into the symmetric N-qubit picture, N = 2J <= MAX_QUBITS.

    |J,m> maps to the equal-amplitude superposition of all computational
    strings with exactly J - m ones (V photons).  Returns the read-only
    (2^N,) amplitudes, qubit 0 the most significant bit, rescaled to unit norm.
    """
    n = _check_spin(state.J)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"the qubit picture needs 1..{MAX_QUBITS} photons (2J), got {n}")
    ones = np.array([bin(i).count("1") for i in range(2**n)])
    scale = np.sqrt([math.comb(n, k) for k in range(n + 1)])
    return _unit_amplitudes((state.amps / scale)[ones])
