"""Exact statevector simulator for small registers (up to 12 qubits).

Gates are single-qubit unitaries with any number of control qubits (closed
controls fire on |1>, open controls on |0>), which covers the whole gate
set used by the preparation and Bell-analysis circuits: H, X, Z, S, CNOT,
multi-controlled X/Z/H, and the custom 2x2 unitaries.  Measurement is
projective in the computational basis and returns the full outcome
distribution; sampling lives in the estimation layer.  Circuit outputs are
diagnostic only: all downstream physics uses analytically constructed
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import MAX_QUBITS, QubitState, dicke_to_qubit
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


def gate_matrix(name: str) -> np.ndarray:
    """The 2x2 matrix of a named gate (H, X, Z, S, U1, U2, U)."""
    try:
        return _NAMED_2X2[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; known: {sorted(_NAMED_2X2)}") from None


@dataclass(frozen=True)
class Gate:
    """A single-qubit gate with optional closed (|1>) and open (|0>) controls."""

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
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError("custom gate matrix must be 2x2")
            if np.linalg.norm(m @ m.conj().T - np.eye(2)) > 1e-10:
                raise ValueError("custom gate matrix is not unitary")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            gate_matrix(self.kind)  # validates the name

    def matrix_2x2(self) -> np.ndarray:
        return self.matrix if self.kind == "custom" else gate_matrix(self.kind)

    def to_json_dict(self) -> dict:
        data = {"kind": self.kind, "targets": list(self.targets), "controls": list(self.controls)}
        if self.open_controls:
            data["open_controls"] = list(self.open_controls)
        if self.kind == "custom":
            data["matrix"] = [[[z.real, z.imag] for z in row] for row in self.matrix]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Gate":
        matrix = None
        if data.get("matrix") is not None:
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in data["matrix"]]
            )
        return cls(
            kind=data["kind"],
            targets=tuple(data["targets"]),
            controls=tuple(data.get("controls", ())),
            open_controls=tuple(data.get("open_controls", ())),
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

    def to_json_dict(self) -> dict:
        return {"n_qubits": self.n_qubits, "gates": [g.to_json_dict() for g in self.gates]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Circuit":
        return cls(
            n_qubits=data["n_qubits"],
            gates=tuple(Gate.from_json_dict(g) for g in data["gates"]),
        )


def _apply_gates(amps: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply gates to a raw amplitude vector; returns a new vector."""
    tensor = np.asarray(amps, dtype=complex).reshape([2] * n).copy()
    for gate in gates:
        m = gate.matrix_2x2()
        target = gate.targets[0]
        idx0 = [slice(None)] * n
        for c in gate.controls:
            idx0[c] = 1
        for c in gate.open_controls:
            idx0[c] = 0
        idx1 = list(idx0)
        idx0[target], idx1[target] = 0, 1
        idx0, idx1 = tuple(idx0), tuple(idx1)
        a = tensor[idx0].copy()
        b = tensor[idx1].copy()
        tensor[idx0] = m[0, 0] * a + m[0, 1] * b
        tensor[idx1] = m[1, 0] * a + m[1, 1] * b
    return tensor.reshape(-1)


def run_circuit(circuit: Circuit, state: QubitState) -> QubitState:
    """Run the circuit on an input state; norm is preserved to rounding."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"input has {state.n_qubits} qubits, circuit expects {circuit.n_qubits}"
        )
    amps = _apply_gates(state.amps, circuit.gates, circuit.n_qubits)
    return QubitState(circuit.n_qubits, amps)


def fidelity(a: QubitState, b: QubitState) -> float:
    """|<a|b>|^2 for equal-size registers."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("fidelity requires states of equal dimension")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# ---------------------------------------------------------------------------
# Named circuits.  The source diagrams are informal; where a glyph is
# ambiguous the reading that reproduces the analytic target state was chosen
# and is described in the prep report.
# ---------------------------------------------------------------------------


def tetra_prep_circuit() -> Circuit:
    """Four-qubit preparation of the J=2 anti-coherent probe (exact)."""
    u1, u2 = gate_matrix("U1"), gate_matrix("U2")
    gates = (
        Gate("H", (0,)),
        Gate("custom", (2,), matrix=u1),
        Gate("X", (1,), (0,)),
        Gate("custom", (3,), (2,), matrix=u2),
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
    u = gate_matrix("U")
    gates = (
        # mode register and the two Bell pairs
        Gate("H", (0,)),
        Gate("H", (2,)),
        Gate("custom", (4,), matrix=u),
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


@dataclass(frozen=True)
class PrepCircuitReport:
    name: str
    n_qubits: int
    gate_count: int
    fidelity: float
    norm_drift: float
    note: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_qubits": self.n_qubits,
            "gate_count": self.gate_count,
            "fidelity": self.fidelity,
            "norm_drift": self.norm_drift,
            "note": self.note,
        }


def prep_circuit_report(name: str) -> PrepCircuitReport:
    """Run a named preparation circuit on |0...0> and compare with its target."""
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
    raw = _apply_gates(
        QubitState.basis(circuit.n_qubits).amps, circuit.gates, circuit.n_qubits
    )
    drift = abs(float(np.linalg.norm(raw)) - 1.0)
    out = QubitState(circuit.n_qubits, raw)
    return PrepCircuitReport(
        name=name,
        n_qubits=circuit.n_qubits,
        gate_count=len(circuit.gates),
        fidelity=fidelity(out, target),
        norm_drift=drift,
        note=note,
    )


@dataclass(frozen=True)
class AnalyzerReport:
    """Outcome supports of the Bell analyzer for each Bell-state input."""

    supports: dict  # input label -> {outcome bitstring: probability}
    pairwise_tv: dict  # "a|b" -> total variation distance
    all_disjoint: bool

    def to_dict(self) -> dict:
        return {
            "supports": self.supports,
            "pairwise_tv": self.pairwise_tv,
            "all_disjoint": self.all_disjoint,
        }


def analyzer_distinguishability_report(
    apply_bit_flip: bool = True, support_floor: float = 1e-10
) -> AnalyzerReport:
    """Feed each Bell state (tensored with |ud>) through the analyzer.

    With apply_bit_flip the first polarization qubit is flipped before
    analysis, matching how the rotated pairs reach the measurement.  The
    symmetric inputs phi0, phi1, phi3 must land on pairwise disjoint outcome
    sets, and the singlet phi2 on a fourth disjoint set.
    """
    from .bell_analysis import bell_states

    circuit = bell_analyzer_circuit()
    path_ud = np.zeros(4, dtype=complex)
    path_ud[1] = 1.0  # |u> -> |0>, |d> -> |1>
    preamble = (Gate("X", (0,)),) if apply_bit_flip else ()
    supports = {}
    for label, phi in zip(("phi0", "phi1", "phi2", "phi3"), bell_states()):
        amps = np.kron(phi.amps, path_ud)
        out = _apply_gates(amps, (*preamble, *circuit.gates), 4)
        probs = np.abs(out) ** 2
        supports[label] = {
            format(i, "04b"): float(probs[i])
            for i in range(16)
            if probs[i] > support_floor
        }
    tv = {}
    disjoint = True
    labels = list(supports)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            pa = np.array([supports[a].get(format(k, "04b"), 0.0) for k in range(16)])
            pb = np.array([supports[b].get(format(k, "04b"), 0.0) for k in range(16)])
            dist = 0.5 * float(np.abs(pa - pb).sum())
            tv[f"{a}|{b}"] = dist
            if dist < 1.0 - 1e-10:
                disjoint = False
    return AnalyzerReport(supports=supports, pairwise_tv=tv, all_disjoint=disjoint)
