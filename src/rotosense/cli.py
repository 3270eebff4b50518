"""Command-line surface for the reproduction workflows.

Commands: fisher, probabilities, circuit-verify, estimate, decompose.
Every command writes a machine-readable report (JSON or CSV) that is
bit-for-bit reproducible for a given flag set and seed.  A JSON config
file may supply the same keys as the flags; explicit flags win.  Each
report is built by one call into the module it belongs to; this module
parses the flags, reads the input files, prints the report's warnings and
writes it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys

import numpy as np

from . import bell_analysis, estimation, metrology
from .spin_core import RotationParams, SpinState
from .states import REGISTRY, get_state

# Largest theta1 grid `probabilities` evaluates; its rows are held in memory
# and written as one report.
MAX_GRID_POINTS = 10**5

# The options every command takes, name -> (type, default).  The table makes
# their flags, checks a --config file's values and holds the defaults; main
# resolves each once: its flag, else the config file, else the default.
_OPTIONS = {
    "state": (str, "tetra2"),
    "theta1": (float, 0.02),
    "theta2": (float, 1.0),
    "theta3": (float, 0.5),
    "n": (int, 10**6),
    "trials": (int, 200),
    "seed": (int, 55555),
    "out": (str, None),
    "format": (str, "json"),
}
_FLOAT_MAX = sys.float_info.max  # a larger JSON integer has no float value


def _read_json(path: str, what: str, parse):
    """parse() of the JSON object in the <what> file at path.

    A missing file, text that is not JSON, a value that is not an object and
    one that parse refuses (a missing key, a wrong type, a bad value) each
    end in one ValueError that names the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        if type(data) is not dict:
            raise TypeError("expected a JSON object")
        return parse(data)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except (
        ValueError, RecursionError,  # not JSON (not UTF-8, too deep), or a bad value
        KeyError, TypeError, OverflowError,  # the wrong shape for parse
    ) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed {what} file {path}: {detail}") from None


def _config_values(data) -> dict:
    """The options a --config file sets, checked against _OPTIONS.

    A float option takes a JSON integer or float, but no bool and no integer
    past the float range; an option whose default is null may be null.
    """
    unknown = set(data) - set(_OPTIONS)
    if unknown:
        raise TypeError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        kind, default = _OPTIONS[key]
        if kind is float and type(value) is int:
            if abs(value) > _FLOAT_MAX:
                raise TypeError(f"config key {key!r} is past the float range")
        elif type(value) is not kind and not (value is None and default is None):
            raise TypeError(f"config key {key!r} has the wrong type: {value!r}")
    return data


def _resolve(args):
    """Set every common option on args: its flag, else the --config value,
    else the default.  args.flags names the options set by a flag."""
    config = _read_json(args.config, "config", _config_values) if args.config else {}
    args.flags = {name for name in _OPTIONS if getattr(args, name) is not None}
    for name, (_, default) in _OPTIONS.items():
        if name not in args.flags:
            setattr(args, name, config.get(name, default))
    if args.format not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {args.format!r}")
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")


def _load_state(selector: str) -> SpinState:
    if selector in REGISTRY:
        return get_state(selector)
    if selector.startswith("file:"):
        return _read_json(selector[len("file:") :], "state", SpinState.from_json_dict)
    raise ValueError(
        f"unknown state {selector!r}; use one of {sorted(REGISTRY)} or file:PATH"
    )


def _params(args) -> RotationParams:
    return RotationParams(args.theta1, args.theta2, args.theta3)


def _refuse_csv(args, reason: str = "this command only supports --format json"):
    """Refuse --format csv before the command does any work."""
    if args.format == "csv":
        raise ValueError(reason)


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


def _emit(args, payload, rows, header):
    """Write the JSON payload, or the CSV header and rows, to --out or stdout."""
    if args.format == "json":
        text = _json_text(payload) + "\n"
    elif isinstance(rows, np.ndarray):
        text = "".join(",".join(row) + "\n" for row in [header, *_float_table(rows)])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_fisher(args):
    _refuse_csv(args)
    report = metrology.fisher_report(_load_state(args.state), _params(args))
    return {"state": args.state, **report}, None, None, []


def cmd_probabilities(args):
    if not 1 <= args.grid_points <= MAX_GRID_POINTS:
        raise ValueError(
            f"--grid-points must be in 1..{MAX_GRID_POINTS}, got {args.grid_points}"
        )
    state, params = _load_state(args.state), _params(args)
    grid = np.linspace(0.0, params.theta1, args.grid_points)
    grid[-1] = params.theta1  # linspace's one point is 0, not the requested angle
    saturation_at = params if args.format == "json" else None  # a CSV holds just the table
    payload, *table = bell_analysis.probabilities_report(state, grid, params.axis, saturation_at)
    return {"state": args.state, **payload}, *table


def cmd_circuit_verify(args):
    from . import circuit_sim  # only this command simulates circuits: spare the others its import

    _refuse_csv(args)
    if not args.circuit:
        return circuit_sim.reference_circuits_report(), None, None, []
    circuit = _read_json(args.circuit, "circuit", circuit_sim.Circuit.from_json_dict)
    target = None
    if "state" in args.flags:  # only a --state flag asks for the fidelity
        target = _load_state(args.state)
        if round(2 * target.J) != circuit.n_qubits:
            raise ValueError(
                f"circuit {args.circuit} has {circuit.n_qubits} qubits, but state "
                f"{args.state} has {round(2 * target.J)} photons (2J)"
            )
    report = circuit_sim.user_circuit_report(circuit, args.seed, target)
    return {"circuit": args.circuit, **report}, None, None, []


def cmd_estimate(args):
    pipelines = ("optimal", "bell") if args.pipeline == "both" else (args.pipeline,)
    if len(pipelines) > 1:
        _refuse_csv(args, "CSV output needs a single pipeline (--pipeline optimal|bell)")
    state, params = _load_state(args.state), _params(args)
    return estimation.estimate_report(state, params, args.n, args.trials, args.seed, pipelines)


def cmd_decompose(args):
    if args.verify_tables:
        _refuse_csv(args, "--verify-tables needs JSON output (--format json)")
    state, params = _load_state(args.state), _params(args)
    payload, *table = bell_analysis.decompose_report(state, params, args.verify_tables)
    return {"state": args.state, **payload}, *table


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
    # no argparse defaults: main fills in whatever no flag sets (_resolve)
    extras = {
        "state": {"help": "tetra1|tetra2|balance|file:PATH"},
        "out": {"help": "output path (default stdout)"},
        "format": {"choices": ("json", "csv")},
    }
    for name, (kind, _) in _OPTIONS.items():
        parser.add_argument(f"--{name}", type=kind, **extras.get(name, {}))
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
        _resolve(args)
        payload, header, rows, warnings = args.func(args)
        for text in warnings:
            print(f"warning: {text}", file=sys.stderr)
        _emit(args, payload, rows, header)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
