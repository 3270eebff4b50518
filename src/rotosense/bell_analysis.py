"""Bell-product decomposition of symmetric photon states.

Polarization rotations preserve permutation symmetry, so a rotated
anti-coherent probe never acquires weight on any pair projected onto the
antisymmetric singlet.  Decomposing the rotated state over tensor products
of the four Bell states (under a fixed pairing of the photons) therefore
captures the full state, and summing the Bell-pair outcome probabilities
over small groups of label tuples reproduces the optimal-basis
probabilities up to third order in the rotation angle.

Bell phase conventions: phi0 = (HH+VV)/sqrt2, phi1 = i(HV+VH)/sqrt2,
phi2 = -(HV-VH)/sqrt2, phi3 = i(HH-VV)/sqrt2.  Labels 0, 1, 3 are the
symmetric states; label 2 is the singlet.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .measurement import Measurement, optimal_basis
from .spin_core import QubitState, SpinState, dicke_to_qubit
from .states import balance, tetra2

SYMMETRIC_LABELS = (0, 1, 3)
SINGLET_LABEL = 2

_SQRT2 = math.sqrt(2.0)

# row l = amplitudes of phi_l over |00>, |01>, |10>, |11>
_BELL_MATRIX = (
    np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0j, 1.0j, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [1.0j, 0.0, 0.0, -1.0j],
        ],
        dtype=complex,
    )
    / _SQRT2
)
_BELL_MATRIX.setflags(write=False)


def bell_states() -> tuple[QubitState, QubitState, QubitState, QubitState]:
    """The four two-qubit Bell states phi0..phi3 (polarization factor only)."""
    return tuple(QubitState(2, row) for row in _BELL_MATRIX)


def bell_decompose(state: QubitState) -> np.ndarray:
    """Amplitudes <phi_{l1} ... phi_{lk}|psi> as a (4,) * k array indexed by label tuples.

    Photons are paired (0,1), (2,3), ...; a permutation-symmetric state
    gives the same array under every pairing.
    """
    n = state.n_qubits
    if n % 2:
        raise ValueError("Bell decomposition needs an even number of qubits")
    n_pairs = n // 2
    tensor = state.amps.reshape([4] * n_pairs)
    for _ in range(n_pairs):
        # contract leading pair axis with <phi_l|; cycles axes so order is restored
        tensor = np.tensordot(tensor, _BELL_MATRIX.conj(), axes=([0], [1]))
    return tensor


def singlet_weight(amps: np.ndarray) -> float:
    """Total probability on label tuples containing the singlet."""
    symmetric_part = amps[np.ix_(*[SYMMETRIC_LABELS] * amps.ndim)]
    return float(np.sum(np.abs(amps) ** 2) - np.sum(np.abs(symmetric_part) ** 2))


# Aggregation of Bell-pair probabilities into the optimal-basis outcomes.
# Four photons: the pair-label supports of psi0/psi4, psi1, psi2, psi3.
AGGREGATION_N4 = {
    0: ((0, 0), (3, 3), (1, 1)),
    1: ((0, 1), (1, 0)),
    2: ((1, 3), (3, 1)),
    3: ((0, 3), (3, 0)),
}
# Six photons: each group holds every distinct permutation of its label
# multiset exactly once; permutation symmetry of the states forces equal
# weight on all orderings.  The (3,3,3) tuple belongs to the P2 group: the
# J_2-image measurement state carries 3/8 of its weight there, and dropping
# it loses that fraction of the u_2 signal at leading order (verified
# against the exact probabilities in the tests).
AGGREGATION_N6 = {
    0: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 3, 3), (3, 1, 3), (3, 3, 1), (1, 1, 1)),
    1: ((0, 0, 0), (3, 3, 0), (0, 3, 3), (3, 0, 3), (0, 1, 1), (1, 0, 1), (1, 1, 0)),
    2: ((0, 3, 0), (3, 0, 0), (0, 0, 3), (3, 1, 1), (1, 3, 1), (1, 1, 3), (3, 3, 3)),
    3: ((0, 3, 1), (3, 0, 1), (1, 0, 3), (1, 3, 0), (0, 1, 3), (3, 1, 0)),
}


_AGGREGATION = {4: AGGREGATION_N4, 6: AGGREGATION_N6}


def aggregate_probabilities(amps: np.ndarray, n_photons: int) -> np.ndarray:
    """Sum Bell-tuple probabilities into estimates of [P0, P1, P2, P3].

    The qubit-picture reference for ``bell_measurement``.
    """
    groups = _AGGREGATION.get(n_photons)
    if groups is None or amps.ndim != n_photons // 2:
        raise ValueError(f"aggregation defined for 2 or 3 pairs, got {amps.ndim} pairs "
                         f"with n_photons={n_photons}")
    probs = np.abs(amps) ** 2
    return np.array([sum(probs[t] for t in groups[mu]) for mu in range(4)])


@lru_cache(maxsize=None)
def bell_measurement(n_photons: int) -> Measurement:
    """The Bell-product analyzer as row blocks over |J,m>, J = n_photons / 2.

    Block mu has one row per label tuple t of aggregation group mu, holding
    the Bell-product amplitude of t in each |J,m>; its outcome probability
    is the group's aggregated Bell probability.  Built on first use for
    each photon number.
    """
    groups = _AGGREGATION.get(n_photons)
    if groups is None:
        raise ValueError(f"the Bell analyzer is defined for 4 or 6 photons, got {n_photons}")
    j = n_photons / 2.0
    # bell_decompose . dicke_to_qubit is linear: its columns are the images of |J,m>
    image = np.stack(
        [bell_decompose(dicke_to_qubit(SpinState(j, e))) for e in np.eye(n_photons + 1)],
        axis=-1,
    )
    rows = np.array([image[t] for mu in range(4) for t in groups[mu]])
    rows.setflags(write=False)
    starts = tuple(accumulate((len(groups[mu]) for mu in range(3)), initial=0))
    return Measurement(J=j, rows=rows, starts=starts)


def bell_misfit(state: SpinState) -> str | None:
    """Why the Bell analyzer does not fit this unrotated probe, or None where it does.

    It fits a probe that its outcome 0 holds wholly, as it holds tetra2 and
    balance, for which its aggregation groups were built; for any other
    probe its outcome probabilities do not follow the small-angle law.
    """
    n_photons = int(round(2 * state.J))
    if n_photons not in _AGGREGATION:
        return f"the Bell analyzer is defined for 4 or 6 photons, got {n_photons}"
    analyzer = bell_measurement(n_photons)
    weight = float(np.sum(np.abs(analyzer.rows[: analyzer.starts[1]] @ state.amps) ** 2))
    if weight >= 1.0 - 1e-9:
        return None
    return (
        f"the Bell analyzer puts {weight:.6g} of this unrotated probe on outcome 0, "
        "not 1: it is built for the reference probes tetra2 and balance"
    )


# ---------------------------------------------------------------------------
# Tabulated Bell-product decompositions of the optimal-basis states and the
# vectors completing them to the full symmetric subspace, kept verbatim for
# verification against the direct basis-change computation.
# ---------------------------------------------------------------------------

_I3 = 1j / math.sqrt(3.0)

TABULATED_BELL_N4 = (
    {(0, 0): (1 + _I3) / 2, (3, 3): -(1 - _I3) / 2, (1, 1): -1j / math.sqrt(3)},
    {(0, 1): -1j / _SQRT2, (1, 0): -1j / _SQRT2},
    {(3, 1): -1 / _SQRT2, (1, 3): -1 / _SQRT2},
    {(0, 3): -1j / _SQRT2, (3, 0): -1j / _SQRT2},
    {(0, 0): (1 - _I3) / 2, (3, 3): -(1 + _I3) / 2, (1, 1): 1j / math.sqrt(3)},
)

_S6 = 1 / math.sqrt(6.0)
_S10 = 1 / math.sqrt(10.0)
_A = 1 / (2 * _SQRT2)

TABULATED_BELL_N6 = (
    {
        (0, 0, 1): -1j * _S6, (1, 0, 0): -1j * _S6, (0, 1, 0): -1j * _S6,
        (3, 3, 1): 1j * _S6, (1, 3, 3): 1j * _S6, (3, 1, 3): 1j * _S6,
    },
    {
        (0, 0, 0): _A * math.sqrt(3),
        (3, 3, 0): -_A / math.sqrt(3), (0, 3, 3): -_A / math.sqrt(3), (3, 0, 3): -_A / math.sqrt(3),
        (0, 1, 1): -_A * 2 / math.sqrt(3), (1, 0, 1): -_A * 2 / math.sqrt(3), (1, 1, 0): -_A * 2 / math.sqrt(3),
    },
    {
        (0, 3, 0): _S6, (3, 0, 0): _S6, (0, 0, 3): _S6,
        (3, 1, 1): -_S6, (1, 3, 1): -_S6, (1, 1, 3): -_S6,
    },
    {
        (0, 3, 1): -_S6, (3, 0, 1): -_S6, (1, 0, 3): -_S6,
        (1, 3, 0): -_S6, (0, 1, 3): -_S6, (3, 1, 0): -_S6,
    },
    {
        (0, 0, 1): -1j * _S10, (1, 0, 0): -1j * _S10, (0, 1, 0): -1j * _S10,
        (3, 3, 1): 1j * _S10, (1, 3, 3): 1j * _S10, (3, 1, 3): 1j * _S10,
        (1, 1, 1): -2j * _S10,
    },
    {
        (0, 0, 0): _A / math.sqrt(5),
        (3, 3, 0): -_A * 3 / math.sqrt(5), (0, 3, 3): -_A * 3 / math.sqrt(5), (3, 0, 3): -_A * 3 / math.sqrt(5),
        (0, 1, 1): _A * 2 / math.sqrt(5), (1, 0, 1): _A * 2 / math.sqrt(5), (1, 1, 0): _A * 2 / math.sqrt(5),
    },
    {
        (0, 3, 0): 1 / math.sqrt(10), (3, 0, 0): 1 / math.sqrt(10), (0, 0, 3): 1 / math.sqrt(10),
        (3, 1, 1): -1 / math.sqrt(10), (1, 3, 1): -1 / math.sqrt(10), (1, 1, 3): -1 / math.sqrt(10),
        (3, 3, 3): 2 / math.sqrt(10),
    },
)


def _n4_reference_states() -> list[SpinState]:
    basis = optimal_basis(tetra2())
    completion = SpinState.from_m_amplitudes(
        2, {2: 0.5, -2: 0.5, 0: -0.5j * math.sqrt(2)}
    )
    return [*basis.states, completion]


def _n6_reference_states() -> list[SpinState]:
    basis = optimal_basis(balance())
    s3, s5 = math.sqrt(3) / 4, math.sqrt(5) / 4
    extra4 = SpinState.from_m_amplitudes(3, {0: 1.0})
    extra5 = SpinState.from_m_amplitudes(3, {3: s5, -3: s5, 1: -s3, -1: -s3})
    extra6 = SpinState.from_m_amplitudes(
        3, {3: -1j * s5, -3: 1j * s5, 1: -1j * s3, -1: 1j * s3}
    )
    return [*basis.states, extra4, extra5, extra6]


def _check_one(label: str, table: dict, direct: SpinState, tol: float) -> dict:
    """{"label", "fidelity", "ok", "mismatches": [{"labels", "tabulated", "recomputed"}]}."""
    bp = bell_decompose(dicke_to_qubit(direct))
    tabulated_amps = np.zeros(bp.shape, dtype=complex)
    for labels, coeff in table.items():
        tabulated_amps[labels] = coeff
    # Bell products are orthonormal, so the overlap is taken in Bell
    # coordinates; dividing by the table's norm reports a row that fails to
    # normalize as a discrepancy rather than rejecting it
    fid = float(
        abs(np.vdot(tabulated_amps, bp)) ** 2 / np.vdot(tabulated_amps, tabulated_amps).real
    )
    ok = bool(fid >= 1.0 - tol)
    mismatches = []
    if not ok:
        # report the direct state's coefficients, phase-aligned to the table
        # on its largest tabulated entry
        anchor = max(table, key=lambda t: abs(table[t]))
        recomputed_anchor = complex(bp[anchor])
        phase = (
            table[anchor] / recomputed_anchor
            if abs(recomputed_anchor) > 1e-12
            else 1.0
        )
        phase /= abs(phase) if abs(phase) > 0 else 1.0
        seen = set(table) | {idx for idx in np.ndindex(bp.shape) if abs(bp[idx]) > 1e-10}
        for labels in sorted(seen):
            tabulated = table.get(labels, 0.0)
            recomputed = phase * complex(bp[labels])
            if abs(tabulated - recomputed) > 1e-8:
                mismatches.append(
                    {
                        "labels": list(labels),
                        "tabulated": [complex(tabulated).real, complex(tabulated).imag],
                        "recomputed": [recomputed.real, recomputed.imag],
                    }
                )
    return {"label": label, "fidelity": fid, "ok": ok, "mismatches": mismatches}


def verify_tabulated_decompositions(tol: float = 1e-9) -> dict:
    """Compare every tabulated decomposition with the direct basis-change computation.

    Returns the JSON-ready report {"all_ok", "checks"}, one check per
    tabulated state.  Discrepancies are report content: each failing state
    is listed with the recomputed coefficients, never patched silently.
    """
    checks = []
    for idx, (table, direct) in enumerate(zip(TABULATED_BELL_N4, _n4_reference_states())):
        checks.append(_check_one(f"n4_psi{idx}", table, direct, tol))
    for idx, (table, direct) in enumerate(zip(TABULATED_BELL_N6, _n6_reference_states())):
        checks.append(_check_one(f"n6_psi{idx}", table, direct, tol))
    return {"all_ok": all(check["ok"] for check in checks), "checks": checks}
