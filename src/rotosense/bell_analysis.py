"""Bell-product decomposition of symmetric photon states.

Polarization rotations preserve permutation symmetry, so a rotated
anti-coherent probe never acquires weight on any pair projected onto the
antisymmetric singlet.  Decomposing the rotated state over tensor products
of the four Bell states (under a fixed pairing of the photons) therefore
captures the full state.  Each optimal-basis state psi_mu of a probe lies
on its own set of Bell products, its support; where the four supports are
disjoint, summing the Bell-pair outcome probabilities over each support
reproduces the optimal-basis probabilities up to third order in the
rotation angle.  The module's reports check that claim: the probabilities
table and the Fisher saturation of both measurements, and the
decomposition of a rotated probe.

Bell phase conventions: phi0 = (HH+VV)/sqrt2, phi1 = i(HV+VH)/sqrt2,
phi2 = -(HV-VH)/sqrt2, phi3 = i(HH-VV)/sqrt2.  Labels 0, 1, 3 are the
symmetric states; label 2 is the singlet.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .measurement import (
    MEMO_SIZE, Measurement, multiparam_saturation_check, optimal_basis,
    small_angle_probabilities, small_angle_warnings, sweep_probabilities,
)
from .spin_core import MAX_QUBITS, RotationParams, SpinState, rotated_amplitudes
from .states import balance, tetra2

SYMMETRIC_LABELS = (0, 1, 3)

_SQRT2 = math.sqrt(2.0)

# row l = amplitudes of phi_l over |00>, |01>, |10>, |11>
BELL_STATES = (
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
BELL_STATES.setflags(write=False)


# _PAIR[s, v] = <phi_l|, l = SYMMETRIC_LABELS[s], summed over the pair strings with v V
# photons: |00>, |01> + |10>, |11>.  The antisymmetric singlet's row would be 0: it is left out.
_PAIR = BELL_STATES[list(SYMMETRIC_LABELS)].conj() @ np.array(
    [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
)


@lru_cache(maxsize=None)
def _bell_image(n_photons: int) -> np.ndarray:
    """<phi_t|J,J-k> at [s + (k,)], J = n_photons / 2, t_i = SYMMETRIC_LABELS[s_i].

    A (3,) * (N/2) + (N+1,) array over the symmetric label tuples only.
    |J,J-k> sums the strings with k V photons over sqrt(C(N,k)); that sum
    factors over the pairs, so each pair adds a label axis and convolves the
    V count with _PAIR.  The photon number is checked before any allocation.
    """
    if n_photons % 2 or not 2 <= n_photons <= MAX_QUBITS:
        raise ValueError(
            f"Bell products need an even photon number 2J from 2 to {MAX_QUBITS}, got {n_photons}"
        )
    image = np.ones(1, dtype=complex)
    for count in range(1, n_photons, 2):  # V counts 0..count-1 so far
        step = np.zeros((count, 3, count + 2), dtype=complex)
        for c in range(count):
            step[c, :, c : c + 3] = _PAIR  # V count c -> (s, c + v)
        image = (image @ step.reshape(count, -1)).reshape(image.shape[:-1] + (3, count + 2))
    image /= np.sqrt([math.comb(n_photons, k) for k in range(n_photons + 1)])
    image.setflags(write=False)
    return image


def bell_decompose(state: SpinState) -> np.ndarray:
    """Amplitudes <phi_{l1} ... phi_{lk}|state> as a (4,) * k array indexed by label tuples.

    The 2k photons are paired (0,1), (2,3), ..., and every tuple that holds
    a singlet is 0 by construction: only the symmetric tuples are computed.
    No 2^N qubit register is built.
    """
    image = _bell_image(round(2 * state.J))
    amps = np.zeros((4,) * (image.ndim - 1), dtype=complex)
    amps[np.ix_(*[SYMMETRIC_LABELS] * amps.ndim)] = image @ state.amps
    return amps


def singlet_weight(amps: np.ndarray) -> float:
    """Total probability on label tuples containing the singlet."""
    labels = np.indices(amps.shape)
    return float(np.sum(np.abs(amps[(labels == 2).any(axis=0)]) ** 2))


# |<phi_t|psi_mu>|^2 above this puts the Bell product t in the support of
# psi_mu; the probes checked (tetra1, tetra2, balance and a J = 4 one) hold
# >= 0.033 on their supports and <= 2.3e-33 off them.
_SUPPORT_TOL = 1e-12


@lru_cache(maxsize=MEMO_SIZE)
def bell_measurement(phi0: SpinState) -> Measurement:
    """The Bell-product analyzer of a probe, as row blocks over |J,m>.

    Block mu holds the symmetric Bell products t with |<phi_t|psi_mu>|^2 >
    1e-12, where psi_mu is the probe's optimal-basis state mu, one row per t
    with its amplitude in each |J,m>, so outcome mu sums the Bell
    probabilities over that support; the symmetric products outside every
    support are the rest, and the rows form an isometry.  The analyzer fits
    the probe only where the four supports are disjoint; otherwise a
    ValueError names two outcomes that share a Bell product.  It needs an
    even number of photons from 2 to spin_core.MAX_QUBITS, checked before
    the optimal basis is built.  Equal probes share one read-only analyzer
    (the last measurement.MEMO_SIZE are kept; refusals are not).
    """
    image = _bell_image(round(2 * phi0.J))
    support = np.abs(image @ optimal_basis(phi0).rows[:4].conj().T) ** 2 > _SUPPORT_TOL
    shared = np.argwhere(support.sum(axis=-1) > 1)
    if shared.size:
        labels = tuple(SYMMETRIC_LABELS[i] for i in shared[0])
        a, b = np.flatnonzero(support[tuple(shared[0])])[:2]
        raise ValueError(
            f"the Bell analyzer does not fit this probe: outcomes {a} and {b} "
            f"share the Bell product {labels}"
        )
    blocks = [image[support[..., mu]] for mu in range(4)] + [image[~support.any(axis=-1)]]
    starts = tuple(accumulate((len(block) for block in blocks[:4]), initial=0))
    return Measurement(rows=np.concatenate(blocks), starts=starts)


def probabilities_report(phi0: SpinState, theta1s, params: RotationParams, saturation=False) -> tuple:
    """Optimal-basis, small-angle and Bell probabilities on a theta1 grid about params.axis.

    Returns the JSON-ready payload {"axis", "columns", "rows"}, the CSV
    header and rows (the same objects) and the warnings.  Row k holds
    theta1s[k], u = params.axis, P0..Prest of the optimal basis, small_P0..3
    of the second-order model, bell_P0..3 of the Bell analyzer, and the
    largest signal-outcome gaps gap_small = |P - small_P| and gap_bell =
    |bell_P - P|.  A Bell analyzer that does not fit the probe leaves out its
    columns with a warning; the small-angle warning reads the grid's largest
    |theta1|.  With saturation, the payload also holds "saturation", the
    multiparam_saturation_check of both measurements at params with
    |theta1| clipped to 0.02, its sign kept; the unrotated probe (theta1 = 0
    or -0) is singular, F_11 = 0, so it is read at +-0.02.
    """
    grid, u = np.asarray(theta1s, dtype=float), params.axis
    measurements = {"optimal": optimal_basis(phi0)}
    try:
        measurements["bell"] = bell_measurement(phi0)
    except ValueError as exc:
        misfit = exc  # warned about after the errors the probabilities may raise
    exact, *bell = sweep_probabilities(phi0, list(measurements.values()), grid, u)
    small = small_angle_probabilities(phi0.J, grid, u)[:, :4]
    header = [
        "theta1", "u1", "u2", "u3",
        "P0", "P1", "P2", "P3", "Prest",
        "small_P0", "small_P1", "small_P2", "small_P3",
    ]
    columns = [grid, np.broadcast_to(u, (grid.size, 3)), exact, small]
    gaps = [np.abs(exact[:, :4] - small).max(axis=1)]
    warnings = []
    if bell:
        bell = bell[0][:, :4]
        header += ["bell_P0", "bell_P1", "bell_P2", "bell_P3"]
        columns.append(bell)
        gaps.append(np.abs(bell - exact[:, :4]).max(axis=1))
    else:
        out = "the bell_P* and gap_bell columns" + (" and saturation.bell" if saturation else "")
        warnings.append(f"{misfit}; the report leaves out {out}")
    header += ["gap_small", "gap_bell"][: len(gaps)]
    table = np.column_stack(columns + gaps)
    warnings += small_angle_warnings(float(grid[np.argmax(np.abs(grid))]))
    payload = {"axis": list(u), "columns": header, "rows": table}
    if saturation:
        t1 = math.copysign(min(abs(params.theta1), 0.02) or 0.02, params.theta1)
        clipped = RotationParams(t1, params.theta2, params.theta3)
        payload["saturation"] = multiparam_saturation_check(phi0, measurements, clipped)
    return payload, header, table, warnings


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


_R3, _R5 = math.sqrt(3) / 4, math.sqrt(5) / 4

# One record per photon number: (label prefix, probe builder, tabulated rows, completions).
# Rows 0-3 decompose the probe's optimal-basis states; each later row decomposes
# the completion state {m: amplitude} at its place in the list.
TABULATED_REFERENCES = (
    ("n4", tetra2, TABULATED_BELL_N4, ({2: 0.5, -2: 0.5, 0: -0.5j * _SQRT2},)),
    ("n6", balance, TABULATED_BELL_N6, (
        {0: 1.0},
        {3: _R5, -3: _R5, 1: -_R3, -1: -_R3},
        {3: -1j * _R5, -3: 1j * _R5, 1: -1j * _R3, -1: 1j * _R3},
    )),
)


# A tabulated row passes when its fidelity with the direct state is at least 1 - this.
_TABLE_FIDELITY_TOL = 1e-9


def _check_one(label: str, table: dict, direct: SpinState) -> dict:
    """{"label", "fidelity", "ok", "mismatches": [{"labels", "tabulated", "recomputed"}]}."""
    bp = bell_decompose(direct)
    tabulated_amps = np.zeros(bp.shape, dtype=complex)
    for labels, coeff in table.items():
        tabulated_amps[labels] = coeff
    # Bell products are orthonormal, so the overlap is taken in Bell
    # coordinates; dividing by the table's norm reports a row that fails to
    # normalize as a discrepancy rather than rejecting it
    fid = float(
        abs(np.vdot(tabulated_amps, bp)) ** 2 / np.vdot(tabulated_amps, tabulated_amps).real
    )
    ok = bool(fid >= 1.0 - _TABLE_FIDELITY_TOL)
    mismatches = []
    if not ok:
        # report the direct state's coefficients, phase-aligned to the table
        # on its largest tabulated entry
        anchor = max(table, key=lambda t: abs(table[t]))
        recomputed_anchor = complex(bp[anchor])
        phase = table[anchor] / recomputed_anchor if abs(recomputed_anchor) > 1e-12 else 1.0
        phase /= abs(phase)
        for labels in np.argwhere(np.abs(tabulated_amps - phase * bp) > 1e-8).tolist():
            tabulated = complex(tabulated_amps[tuple(labels)])
            recomputed = phase * complex(bp[tuple(labels)])
            mismatches.append({
                "labels": labels,
                "tabulated": [tabulated.real, tabulated.imag],
                "recomputed": [recomputed.real, recomputed.imag],
            })
    return {"label": label, "fidelity": fid, "ok": ok, "mismatches": mismatches}


def verify_tabulated_decompositions() -> dict:
    """Compare every tabulated decomposition with the direct basis-change computation.

    Each record of TABULATED_REFERENCES is read in one pass: its direct states
    are the probe's four optimal-basis states, then its completion states.
    Returns the JSON-ready report {"all_ok", "checks"}, one check per
    tabulated state (label prefix_psi<row>).  Discrepancies are report
    content: each failing state lists the recomputed coefficients, never
    patched silently.
    """
    checks = []
    for prefix, probe, rows, completions in TABULATED_REFERENCES:
        phi0 = probe()
        direct = [SpinState(phi0.J, row.conj()) for row in optimal_basis(phi0).rows[:4]]
        direct += [SpinState.from_m_amplitudes(phi0.J, amps) for amps in completions]
        for idx, (table, state) in enumerate(zip(rows, direct)):
            checks.append(_check_one(f"{prefix}_psi{idx}", table, state))
    return {"all_ok": all(check["ok"] for check in checks), "checks": checks}


def decompose_report(state: SpinState, params: RotationParams, verify_tables=False) -> tuple:
    """The Bell-product decomposition of the probe rotated by params.

    Returns the JSON-ready payload {"theta1", "theta2", "theta3",
    "decomposition": {"pairing", "amps"}, "singlet_weight"}, with
    "table_verification" (``verify_tabulated_decompositions``) where asked;
    the CSV header and rows (labels, re, im, prob) in label order; and the
    small-angle warnings.
    """
    rotated = SpinState(state.J, rotated_amplitudes(state, [params.theta1], params.axis)[0])
    bp = bell_decompose(rotated)
    amps = {",".join(map(str, t)): [z.real, z.imag] for t, z in np.ndenumerate(bp)}
    payload = {
        "theta1": params.theta1,
        "theta2": params.theta2,
        "theta3": params.theta3,
        "decomposition": {"pairing": [[2 * k, 2 * k + 1] for k in range(bp.ndim)], "amps": amps},
        "singlet_weight": singlet_weight(bp),
    }
    if verify_tables:
        payload["table_verification"] = verify_tabulated_decompositions()
    rows = [[labels, re, im, re**2 + im**2] for labels, (re, im) in amps.items()]
    return payload, ["labels", "re", "im", "prob"], rows, small_angle_warnings(params.theta1)
