"""Exact statevector simulator for small registers (up to 12 qubits).

Gates are single-qubit unitaries with any number of control qubits (closed
controls fire on |1>, open controls on |0>), which covers the whole gate
set used by the preparation and Bell-analysis circuits: H, X, Z, S, CNOT,
multi-controlled X/Z/H, and the named 2x2 unitaries U1, U2 and U; a user
circuit may also give any 2x2 unitary as a custom gate.  A state is a plain
(2^N,) complex array, qubit 0 the most significant bit, and ``run_circuit``
returns a circuit's output amplitudes without renormalising them.  The
module holds the two preparation circuits and the Bell analyzer, the
reports that check them (target fidelity, norm drift, disjoint analyzer
outcomes) and the report that checks a user's circuit.  Circuit outputs
are diagnostic only: all downstream physics uses analytically constructed
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bell_analysis import BELL_STATES
from .spin_core import MAX_QUBITS, SpinState, complex_pairs, dicke_to_qubit
from .states import balance, tetra2

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

_NAMED_2X2 = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    # amplitude-redistribution gates used by the preparation circuits
    "U1": np.array([[1j, -_SQRT2], [_SQRT2, -1j]], dtype=complex) / _SQRT3,
    "U2": np.array(
        [[_SQRT3 + 1j, -(_SQRT3 + 1j)], [_SQRT3 - 1j, _SQRT3 - 1j]], dtype=complex
    )
    / (2 * _SQRT2),
    "U": np.array([[1, -_SQRT2], [_SQRT2, 1]], dtype=complex) / _SQRT3,
}
for _m in _NAMED_2X2.values():
    _m.setflags(write=False)


def _qubit_list(key: str, value) -> tuple:
    """A JSON list of qubit indices; strings, floats and bools are rejected."""
    if not isinstance(value, list) or any(type(q) is not int for q in value):
        raise TypeError(f"{key} must be a list of integers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True, eq=False)
class Gate:
    """A single-qubit gate with optional closed (|1>) and open (|0>) controls.

    ``matrix`` is the gate's read-only 2x2 unitary, resolved when the gate is
    built: a named kind's own, or the one a custom gate must be given.
    """

    kind: str
    targets: tuple
    controls: tuple = ()
    open_controls: tuple = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        object.__setattr__(self, "open_controls", tuple(int(q) for q in self.open_controls))
        if len(self.targets) != 1:
            raise ValueError("gates act on exactly one target qubit")
        touched = (*self.targets, *self.controls, *self.open_controls)
        if len(set(touched)) != len(touched):
            raise ValueError("target and control qubits must be distinct")
        if self.kind == "custom":
            if self.matrix is None:
                raise ValueError("custom gates need a 2x2 matrix")
            try:
                m = np.asarray(self.matrix, dtype=complex)
            except ValueError:  # rows of different lengths
                m = None
            if m is None or m.shape != (2, 2):
                raise ValueError("custom gate matrix must be 2x2")
            bounded = (np.abs(m) <= 1 + 1e-10).all()  # as a unitary's are; NaN is not
            if not (bounded and np.linalg.norm(m @ m.conj().T - np.eye(2)) <= 1e-10):
                raise ValueError("custom gate matrix is not unitary")
            m = m.copy()
            m.setflags(write=False)
        elif type(self.kind) is not str or self.kind not in _NAMED_2X2:
            raise ValueError(f"unknown gate {self.kind!r}; known: {sorted(_NAMED_2X2)}")
        elif self.matrix is not None:
            raise ValueError(f"only custom gates take a matrix, not {self.kind}")
        else:
            m = _NAMED_2X2[self.kind]  # shared and read-only
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Gate":
        """A gate from its JSON object; the "matrix" key is read for custom gates only."""
        matrix = data.get("matrix") if data["kind"] == "custom" else None
        if matrix is not None:
            if type(matrix) is not list:
                raise TypeError("matrix must be a list of rows of [re, im] number pairs")
            matrix = [complex_pairs("a matrix row", row) for row in matrix]
        return cls(
            kind=data["kind"],
            targets=_qubit_list("targets", data["targets"]),
            controls=_qubit_list("controls", data.get("controls", [])),
            open_controls=_qubit_list("open_controls", data.get("open_controls", [])),
            matrix=matrix,
        )


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple

    def __post_init__(self):
        n = int(self.n_qubits)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        gates = tuple(self.gates)
        for g in gates:
            for q in (*g.targets, *g.controls, *g.open_controls):
                if not 0 <= q < n:
                    raise ValueError(f"gate {g.kind} touches qubit {q}, out of range")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", gates)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Circuit":
        if type(data["n_qubits"]) is not int:  # a bool or a float would be truncated
            raise TypeError(f"n_qubits must be an integer, got {data['n_qubits']!r}")
        gates = data["gates"]
        if type(gates) is not list or not all(type(g) is dict for g in gates):
            raise TypeError("gates must be a list of gate objects")
        return cls(n_qubits=data["n_qubits"], gates=tuple(map(Gate.from_json_dict, gates)))


def _apply_gates(amps: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply gates to a raw amplitude vector; returns a new vector."""
    tensor = np.asarray(amps, dtype=complex).reshape([2] * n).copy()
    for gate in gates:
        m = gate.matrix
        target = gate.targets[0]
        idx0 = [slice(None)] * n
        for c in gate.controls:
            idx0[c] = 1
        for c in gate.open_controls:
            idx0[c] = 0
        idx1 = list(idx0)
        idx0[target], idx1[target] = 0, 1
        idx0, idx1 = tuple(idx0), tuple(idx1)
        a, b = tensor[idx0], tensor[idx1]  # views: both halves are computed before either write
        tensor[idx0], tensor[idx1] = m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b
    return tensor.reshape(-1)


def run_circuit(circuit: Circuit, amps=None) -> np.ndarray:
    """The circuit's output amplitudes on the (2^N,) input amps, |0...0> by default.

    The output is not renormalised: its norm is the input's, to rounding.
    """
    dim = 2**circuit.n_qubits
    if amps is None:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
    elif np.shape(amps) != (dim,):
        raise ValueError(f"input has shape {np.shape(amps)}, circuit expects ({dim},)")
    return _apply_gates(amps, circuit.gates, circuit.n_qubits)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two amplitude arrays of equal shape, each normalised first."""
    if np.shape(a) != np.shape(b):
        raise ValueError("fidelity requires states of equal dimension")
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return float(abs(np.vdot(a, b)) ** 2)


# ---------------------------------------------------------------------------
# Named circuits.  The source diagrams are informal; where a glyph is
# ambiguous the reading that reproduces the analytic target state was chosen
# and is described in the prep report.
# ---------------------------------------------------------------------------


def tetra_prep_circuit() -> Circuit:
    """Four-qubit preparation of the J=2 anti-coherent probe (exact)."""
    gates = (
        Gate("H", (0,)),
        Gate("U1", (2,)),
        Gate("X", (1,), (0,)),
        Gate("U2", (3,), (2,)),
        Gate("Z", (1,), (2, 3)),
        Gate("X", (2,)),
        Gate("X", (3,)),
        Gate("X", (1,), (2, 3)),
        Gate("X", (3,)),
        Gate("H", (3,)),
        Gate("X", (2,), (3,)),
    )
    return Circuit(4, gates)


def balanced_n6_prep_circuit() -> Circuit:
    """Six-qubit preparation of the J=3 anti-coherent probe (exact).

    Qubits 4-5 form a three-way mode register ((1/sqrt3)(|00>+|10>+|11>)
    after the U and controlled-H column); three gate blocks then process one
    branch each, and the closing X/H/CNOT column recombines the modes into
    the one-excitation pair patterns.  Relative to the source diagram this
    transcription reads the q5 dots of the first two blocks as open
    controls, the mid-circuit bit flip as acting on q4 only, and the packed
    column pair as controlled-H on q3 followed by a triply-controlled flip
    of q2; it is the unique reading (up to relabeling q4/q5) that reproduces
    the target exactly.
    """
    gates = (
        # mode register and the two Bell pairs
        Gate("H", (0,)),
        Gate("H", (2,)),
        Gate("U", (4,)),
        Gate("X", (1,), (0,)),
        Gate("X", (3,), (2,)),
        Gate("H", (5,), (4,)),
        # block 1 (fires on mode 10): cross-pair excitation transfer
        Gate("X", (1,), (2, 4), (5,)),
        Gate("X", (3,), (2, 4), (5,)),
        Gate("X", (2,), (4,), (5,)),
        Gate("H", (3,), (4,), (5,)),
        Gate("X", (2,), (3, 4), (5,)),
        Gate("X", (4,)),
        # block 2 (fires on mode 10 after the flip): GHZ correlation of pairs 1-2
        Gate("Z", (1,), (2, 4), (5,)),
        Gate("X", (3,), (2, 4), (5,)),
        Gate("H", (2,), (4,), (5,)),
        Gate("X", (3,), (2, 4), (5,)),
        Gate("X", (4,)),
        # block 3 (fires on mode 11): excitation transfer for the last branch
        Gate("X", (1,), (2, 4, 5)),
        Gate("X", (2,), (4, 5)),
        Gate("Z", (1,), (2, 4, 5)),
        Gate("H", (3,), (4, 5)),
        Gate("X", (2,), (3, 4, 5)),
        # mode recombination
        Gate("X", (4,)),
        Gate("H", (5,)),
        Gate("X", (4,), (5,)),
    )
    return Circuit(6, gates)


def bell_analyzer_circuit() -> Circuit:
    """Four-qubit Bell analysis: qubits 0-1 polarization, 2-3 path.

    Models the 50-50 beam splitter plus polarizing splitters; fed with the
    bit-flipped Bell states tensored with |ud>, the four outcome
    distributions have pairwise disjoint supports.
    """
    gates = (
        Gate("X", (1,), (0,)),
        Gate("H", (2,)),
        Gate("X", (3,)),
        Gate("H", (0,)),
        Gate("X", (3,), (2,)),
        Gate("S", (1,), (0,)),
        Gate("X", (2,), (0,)),
        Gate("Z", (3,), (1,)),
        Gate("X", (1,)),
        Gate("H", (0,), (1,)),
        Gate("X", (1,)),
        Gate("X", (1,), (0,)),
    )
    return Circuit(4, gates)


# ---------------------------------------------------------------------------
# Diagnostic reports
# ---------------------------------------------------------------------------


def prep_circuit_report(name: str) -> dict:
    """Run a named preparation circuit on |0...0> and compare with its target.

    Returns the JSON-ready report {"name", "n_qubits", "gate_count",
    "fidelity", "norm_drift", "note"}.
    """
    if name == "tetra":
        circuit, target = tetra_prep_circuit(), dicke_to_qubit(tetra2())
        note = "transcribed column by column; no ambiguous glyphs"
    elif name == "n6":
        circuit, target = balanced_n6_prep_circuit(), dicke_to_qubit(balance())
        note = (
            "ambiguous control glyphs resolved to the reading that maximizes "
            "target fidelity: open q5 controls in the first two blocks, "
            "mid-circuit flip on q4 only, packed column read as controlled-H "
            "then triply-controlled X"
        )
    else:
        raise ValueError(f"unknown preparation circuit {name!r}")
    out = run_circuit(circuit)
    return {
        "name": name,
        "n_qubits": circuit.n_qubits,
        "gate_count": len(circuit.gates),
        "fidelity": fidelity(out, target),
        "norm_drift": abs(float(np.linalg.norm(out)) - 1.0),
        "note": note,
    }


def analyzer_distinguishability_report() -> dict:
    """Feed each Bell state (tensored with |ud>) through the analyzer.

    The first polarization qubit is flipped before analysis, matching how
    the rotated pairs reach the measurement.  The
    symmetric inputs phi0, phi1, phi3 must land on pairwise disjoint outcome
    sets, and the singlet phi2 on a fourth disjoint set.  Returns the
    JSON-ready report {"supports": {input: {outcome bitstring: probability}},
    "pairwise_tv": {"a|b": total variation distance}, "all_disjoint"};
    probabilities at or below 1e-10 count as zero.
    """
    flipped = Circuit(4, (Gate("X", (0,)), *bell_analyzer_circuit().gates))
    path_ud = np.zeros(4, dtype=complex)
    path_ud[1] = 1.0  # |u> -> |0>, |d> -> |1>
    probs = {}
    for label, phi in zip(("phi0", "phi1", "phi2", "phi3"), BELL_STATES):
        p = np.abs(run_circuit(flipped, np.kron(phi, path_ud))) ** 2
        probs[label] = np.where(p > 1e-10, p, 0.0)
    tv = {
        f"{a}|{b}": 0.5 * float(np.abs(probs[a] - probs[b]).sum())
        for a, b in combinations(probs, 2)
    }
    return {
        "supports": {
            label: {format(i, "04b"): float(p[i]) for i in range(16) if p[i] > 0.0}
            for label, p in probs.items()
        },
        "pairwise_tv": tv,
        "all_disjoint": all(dist >= 1.0 - 1e-10 for dist in tv.values()),
    }


def reference_circuits_report() -> dict:
    """{"prep": {"tetra", "n6"}, "bell_analyzer"}: both preparation reports and the analyzer report."""
    return {
        "prep": {name: prep_circuit_report(name) for name in ("tetra", "n6")},
        "bell_analyzer": analyzer_distinguishability_report(),
    }


def user_circuit_report(circuit: Circuit, seed: int, target: SpinState | None = None) -> dict:
    """The JSON-ready report {"n_qubits", "gate_count", "max_norm_drift"} of a circuit.

    max_norm_drift is the largest | ||out|| - 1 | over 20 random unit inputs
    from default_rng(seed).  Given a target probe with 2J photons, one per
    qubit, "fidelity_vs_state" compares the output on |0...0> with it.
    """
    rng, dim = np.random.default_rng(seed), 2**circuit.n_qubits
    drifts = []
    for _ in range(20):
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        drifts.append(abs(float(np.linalg.norm(run_circuit(circuit, amps))) - 1.0))
    report = {
        "n_qubits": circuit.n_qubits,
        "gate_count": len(circuit.gates),
        "max_norm_drift": max(drifts),
    }
    if target is not None:
        report["fidelity_vs_state"] = fidelity(run_circuit(circuit), dicke_to_qubit(target))
    return report
