"""Command-line surface for the reproduction workflows.

Commands: fisher, probabilities, circuit-verify, estimate, decompose.
Every command writes a machine-readable report (JSON or CSV) that is
bit-for-bit reproducible for a given flag set and seed.  A JSON config
file may supply the same keys as the flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import bell_analysis, circuit_sim
from .estimation import qcrb_experiment
from .measurement import (
    multiparam_saturation_check,
    optimal_basis,
    small_angle_probabilities,
    sweep_probabilities,
)
from .metrology import anticoherence_report, j_expectations, qfi_matrix
from .spin_core import RotationParams, SpinState, dicke_to_qubit, rotated_amplitudes
from .states import REGISTRY, get_state

# Small-angle validity: warn past this, never reject on it.  The separate
# hard limit theta1^2 J(J+1)/3 <= 1 (theta1 <= 0.707 for tetra2, 0.5 for
# balance) is where the second-order probabilities stop existing; `estimate`
# and `probabilities` reject theta1 beyond it.
THETA1_WARN = 0.05
# Largest theta1 grid `probabilities` evaluates; its rows are held in memory
# and written as one report.
MAX_GRID_POINTS = 10**5

_DEFAULTS = {
    "state": "tetra2",
    "theta1": 0.02,
    "theta2": 1.0,
    "theta3": 0.5,
    "n": 10**6,
    "trials": 200,
    "seed": 55555,
    "out": None,
    "format": "json",
}
_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max  # a larger JSON integer has no float value
_TYPES = {
    "state": str,
    "theta1": _NUMBER,
    "theta2": _NUMBER,
    "theta3": _NUMBER,
    "n": int,
    "trials": int,
    "seed": int,
    "out": (str, type(None)),
    "format": str,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings: explicit flags override the config file,
    which overrides the built-in defaults."""

    command: str
    state: str
    theta1: float
    theta2: float
    theta3: float
    n: int
    trials: int
    seed: int
    out: str | None
    format: str

    @classmethod
    def resolve(cls, args) -> "RunConfig":
        config = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("config file must hold a JSON object")
            unknown = set(config) - set(_DEFAULTS)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            for key, value in config.items():
                if isinstance(value, bool) or not isinstance(value, _TYPES[key]):
                    raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
                if _TYPES[key] is _NUMBER and type(value) is int and abs(value) > _FLOAT_MAX:
                    raise ValueError(f"config key {key!r} is past the float range")
        values = {}
        for key, default in _DEFAULTS.items():
            flag = getattr(args, key, None)
            values[key] = flag if flag is not None else config.get(key, default)
        if values["format"] not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {values['format']!r}")
        if values["seed"] < 0:
            raise ValueError(f"seed must be a non-negative integer, got {values['seed']}")
        return cls(command=args.command, **values)


def _load_state(selector: str) -> SpinState:
    if selector in REGISTRY:
        return get_state(selector)
    if selector.startswith("file:"):
        path = selector[len("file:") :]
        try:
            with open(path) as fh:
                return SpinState.from_json_dict(json.load(fh))
        except FileNotFoundError:
            raise ValueError(f"state file not found: {path}") from None
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed state file {path}: {exc}") from None
    raise ValueError(
        f"unknown state {selector!r}; use one of {sorted(REGISTRY)} or file:PATH"
    )


def _params(cfg: RunConfig) -> RotationParams:
    return RotationParams(cfg.theta1, cfg.theta2, cfg.theta3)


def _warn_theta1(theta1: float):
    if abs(theta1) > THETA1_WARN:
        print(
            f"warning: theta1={theta1} exceeds the small-angle validity "
            f"threshold {THETA1_WARN}; estimates may be biased",
            file=sys.stderr,
        )


def _json_text(payload) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``, where a
    top-level ``rows`` float array reads as its ``tolist()``.

    json's indenting encoder runs in pure Python, and a 101-point sweep
    table would spend most of a report's time in it, so that array is
    written by ``_float_table`` and spliced in.
    """
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, np.ndarray):
        return json.dumps(payload, indent=2, sort_keys=True)
    text = json.dumps({**payload, "rows": []}, indent=2, sort_keys=True)
    table = "\n    ],\n    [\n      ".join(map(",\n      ".join, _float_table(rows)))
    # strings escape newlines, so only the top-level key starts a line at indent 2
    return text.replace('\n  "rows": []', f'\n  "rows": [\n    [\n      {table}\n    ]\n  ]', 1)


def _float_table(table: np.ndarray) -> list:
    """The float.__repr__ cells of a non-empty 2-D float array, one tuple per row.

    Each column is formatted in one pass, and a column that is bitwise
    constant only once (bits, not ==, because 0.0 and -0.0 print
    differently).  JSON and CSV reports both write these cells.
    """
    if not np.isfinite(table).all():  # json spells NaN and inf its own way
        raise ValueError("a report table holds a non-finite value")
    bits = np.ascontiguousarray(table, dtype=float).view(np.uint64)
    columns = [
        [float.__repr__(column[0])] * len(column) if same else list(map(float.__repr__, column))
        for column, same in zip(table.T.tolist(), (bits == bits[0]).all(axis=0))
    ]
    return list(zip(*columns))


def _emit(cfg: RunConfig, json_payload, csv_rows=None, csv_header=None):
    """Write the report in the requested format to --out or stdout."""
    if cfg.format == "json":
        text = _json_text(json_payload) + "\n"
    elif csv_rows is None:
        raise ValueError("this command only supports --format json")
    elif isinstance(csv_rows, np.ndarray):
        text = "".join(",".join(row) + "\n" for row in [csv_header, *_float_table(csv_rows)])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_fisher(args) -> int:
    cfg = RunConfig.resolve(args)
    state = _load_state(cfg.state)
    params = _params(cfg)
    mean, cov = j_expectations(state)
    qfi = qfi_matrix(state, params)
    payload = {
        "state": cfg.state,
        "J": state.J,
        "mean": list(mean),
        "cov": [list(row) for row in cov],
        "anticoherence": anticoherence_report(state, tol=1e-10),
        "fisher_single": float(qfi[0, 0]),
        "axis": list(params.axis),
        "qfi": [list(row) for row in qfi],
        "theta1": params.theta1,
    }
    _emit(cfg, payload)
    return 0


def cmd_probabilities(args) -> int:
    cfg = RunConfig.resolve(args)
    if not 1 <= args.grid_points <= MAX_GRID_POINTS:
        raise ValueError(
            f"--grid-points must be in 1..{MAX_GRID_POINTS}, got {args.grid_points}"
        )
    state = _load_state(cfg.state)
    u = _params(cfg).axis  # also rejects a non-finite theta1 before the sweep
    grid = np.linspace(0.0, cfg.theta1, args.grid_points)
    measurements = {"optimal": optimal_basis(state)}
    try:
        measurements["bell"] = bell_analysis.bell_measurement(measurements["optimal"])
    except ValueError as exc:
        misfit = exc  # warned about after the errors the probabilities may raise
    exact, *bell = sweep_probabilities(state, list(measurements.values()), grid, u)
    small = small_angle_probabilities(state.J, grid, u)[:, :4]
    header = [
        "theta1", "u1", "u2", "u3",
        "P0", "P1", "P2", "P3", "Prest",
        "small_P0", "small_P1", "small_P2", "small_P3",
    ]
    columns = [grid, np.broadcast_to(u, (grid.size, 3)), exact, small]
    gaps = [np.abs(exact[:, :4] - small).max(axis=1)]
    if bell:
        bell = bell[0][:, :4]
        header += ["bell_P0", "bell_P1", "bell_P2", "bell_P3"]
        columns.append(bell)
        gaps.append(np.abs(bell - exact[:, :4]).max(axis=1))
    else:
        print(
            f"warning: {misfit}; the report leaves out the bell_P* and gap_bell "
            "columns and saturation.bell",
            file=sys.stderr,
        )
    header += ["gap_small", "gap_bell"][: len(gaps)]
    table = np.column_stack(columns + gaps)
    _warn_theta1(cfg.theta1)
    if cfg.format == "csv":
        _emit(cfg, None, csv_rows=table, csv_header=header)
        return 0
    saturation_params = RotationParams(min(cfg.theta1, 0.02), cfg.theta2, cfg.theta3)
    payload = {
        "state": cfg.state,
        "axis": list(u),
        "columns": header,
        "rows": table,
        "saturation": multiparam_saturation_check(state, measurements, saturation_params),
    }
    _emit(cfg, payload)
    return 0


def cmd_circuit_verify(args) -> int:
    cfg = RunConfig.resolve(args)
    if args.circuit:
        with open(args.circuit) as fh:
            data = json.load(fh)
        try:
            circuit = circuit_sim.Circuit.from_json_dict(data)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed circuit file {args.circuit}: {exc!r}") from None
        rng = np.random.default_rng(cfg.seed)
        drifts = []
        for _ in range(20):
            amps = rng.normal(size=2**circuit.n_qubits) + 1j * rng.normal(
                size=2**circuit.n_qubits
            )
            amps /= np.linalg.norm(amps)
            out = circuit_sim._apply_gates(amps, circuit.gates, circuit.n_qubits)
            drifts.append(abs(float(np.linalg.norm(out)) - 1.0))
        payload = {
            "circuit": args.circuit,
            "n_qubits": circuit.n_qubits,
            "gate_count": len(circuit.gates),
            "max_norm_drift": max(drifts),
        }
        if args.state:
            target = _load_state(cfg.state)
            out = circuit_sim.run_circuit(
                circuit, circuit_sim.QubitState.basis(circuit.n_qubits)
            )
            payload["fidelity_vs_state"] = circuit_sim.fidelity(
                out, dicke_to_qubit(target)
            )
        _emit(cfg, payload)
        return 0
    payload = {
        "prep": {
            name: circuit_sim.prep_circuit_report(name)
            for name in ("tetra", "n6")
        },
        "bell_analyzer": circuit_sim.analyzer_distinguishability_report(),
    }
    _emit(cfg, payload)
    return 0


def cmd_estimate(args) -> int:
    cfg = RunConfig.resolve(args)
    state = _load_state(cfg.state)
    params = _params(cfg)
    pipelines = ("optimal", "bell") if args.pipeline == "both" else (args.pipeline,)
    reports = {
        pipe: qcrb_experiment(state, params, cfg.n, cfg.trials, cfg.seed, pipe)
        for pipe in pipelines
    }
    _warn_theta1(cfg.theta1)
    if cfg.format == "csv":
        if len(pipelines) != 1:
            raise ValueError("CSV output needs a single pipeline (--pipeline optimal|bell)")
        report = reports[pipelines[0]]
        _emit(
            cfg,
            None,
            csv_rows=[list(r) for r in report.rows()],
            csv_header=["trial", "theta1_hat", "u1_hat", "u2_hat", "u3_hat"],
        )
        return 0
    _emit(cfg, {pipe: rep.to_dict() for pipe, rep in reports.items()})
    return 0


def cmd_decompose(args) -> int:
    cfg = RunConfig.resolve(args)
    if cfg.format == "csv" and args.verify_tables:
        raise ValueError("--verify-tables needs JSON output (--format json)")
    state = _load_state(cfg.state)
    params = _params(cfg)
    _warn_theta1(cfg.theta1)
    rotated = SpinState(state.J, rotated_amplitudes(state, [params.theta1], params.axis)[:, 0])
    bp = bell_analysis.bell_decompose(dicke_to_qubit(rotated))
    decomposition = {
        "pairing": [[2 * k, 2 * k + 1] for k in range(bp.ndim)],
        "amps": {",".join(map(str, t)): [z.real, z.imag] for t, z in np.ndenumerate(bp)},
    }
    payload = {
        "state": cfg.state,
        "theta1": params.theta1,
        "theta2": params.theta2,
        "theta3": params.theta3,
        "decomposition": decomposition,
        "singlet_weight": bell_analysis.singlet_weight(bp),
    }
    if args.verify_tables:
        payload["table_verification"] = bell_analysis.verify_tabulated_decompositions()
    if cfg.format == "csv":
        rows = [
            [labels, z[0], z[1], z[0] ** 2 + z[1] ** 2]
            for labels, z in sorted(decomposition["amps"].items())
        ]
        _emit(cfg, None, csv_rows=rows, csv_header=["labels", "re", "im", "prob"])
        return 0
    _emit(cfg, payload)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's error contract and negative exponent values.

    A usage error prints one ``error: ...`` line and exits 2.  A value such
    as ``-1e-3`` reads as a number, not an option: argparse's own
    negative-number pattern has no exponent, so ``--theta3 -1e-3`` would
    fail with "expected one argument".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_common(parser: argparse.ArgumentParser):
    # defaults resolve through RunConfig so a --config file can fill them in
    parser.add_argument("--state", help="tetra1|tetra2|balance|file:PATH")
    parser.add_argument("--theta1", type=float)
    parser.add_argument("--theta2", type=float)
    parser.add_argument("--theta3", type=float)
    parser.add_argument("--n", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--config", help="JSON file with the same keys; flags win")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main`` call.

    Parsing leaves the parser unchanged (each call gets a fresh namespace),
    so sharing it is safe; callers must not add to it.
    """
    parser = _Parser(
        prog="rotosense",
        description="Rotation-sensing analysis with anti-coherent polarization probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fisher", help="Fisher information and anti-coherence report")
    _add_common(p)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("probabilities", help="theta1 sweep: exact, small-angle, Bell analyzer")
    _add_common(p)
    p.add_argument("--grid-points", type=int, default=21)
    p.set_defaults(func=cmd_probabilities)

    p = sub.add_parser("circuit-verify", help="preparation fidelities and analyzer table")
    _add_common(p)
    p.add_argument("--circuit", default=None, help="verify a circuit JSON file instead")
    p.set_defaults(func=cmd_circuit_verify)

    p = sub.add_parser("estimate", help="Monte Carlo Cramer-Rao saturation experiment")
    _add_common(p)
    p.add_argument("--pipeline", choices=("optimal", "bell", "both"), default="both")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("decompose", help="Bell-product decomposition of a (rotated) state")
    _add_common(p)
    p.add_argument(
        "--verify-tables",
        action="store_true",
        help="include verification of the tabulated decompositions",
    )
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
