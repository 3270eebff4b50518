"""Compare the CLI's reports at a git revision with the checkout's, byte for byte.

    python scripts/report_diff.py REF

extracts REF's ``src`` with ``git archive`` into a temporary directory and
runs every invocation in INVOCATIONS against both trees as
``PYTHONPATH=<tree>/src python -m rotosense.cli``, in one directory of input
files that it writes itself, REF under ``PYTHONHASHSEED=0`` and the checkout
under ``PYTHONHASHSEED=1``.  Exit code, stdout and stderr are compared byte
for byte, with each tree's path read as ``<tree>``.  For a JSON report that
differs it prints the largest absolute and relative float delta per key path
(list indices read ``[*]``).  The last line is a JSON summary; its
``max_abs_delta`` is the largest absolute float delta over every stdout that
differs (0.0 when none does), or null when some stdout difference is not a
float delta of two JSON reports.  Exit status:
0 when every invocation matches, 1 when some differ, 2 on a usage or git
error.  Uses only the standard library and git.

``REF`` = ``HEAD`` checks that every listed report is the same in any
process, whatever the string hash seed.  ``tests/test_report_diff.py`` runs
every invocation in process and checks its expected exit code and the run
rule of ``tests/oracles.py``, so the list keeps working.
"""

from __future__ import annotations

import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# --- input files, written to the directory that replaces {dir} ---------------

_CUBE = [[0.0, 0.0]] * 9  # the J = 4 anti-coherent cube state
_CUBE[0] = _CUBE[8] = [math.sqrt(5 / 24), 0.0]
_CUBE[4] = [math.sqrt(14 / 24), 0.0]


def _gate(kind, target, controls=()):
    return {"kind": kind, "targets": [target], "controls": list(controls)}


INPUTS = {
    "cube.json": {"J": 4, "amps": _CUBE},
    "tetra2.json": {"J": 2, "amps": [[0.5, 0], [0, 0], [0, math.sqrt(0.5)], [0, 0], [0.5, 0]]},
    "coherent.json": {"J": 2, "amps": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]},
    "j1.json": {"J": 1, "amps": [[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]},
    "j0.json": {"J": 0, "amps": [[1.0, 0.0]]},
    "j600.json": {"J": 600, "amps": [[1.0, 0.0]]},
    "config.json": {"state": "balance", "theta1": 0.01, "trials": 20, "seed": 3},
    "tetra.json": {
        "n_qubits": 4,
        "gates": [
            _gate("H", 0), _gate("U1", 2), _gate("X", 1, [0]), _gate("U2", 3, [2]),
            _gate("Z", 1, [2, 3]), _gate("X", 2), _gate("X", 3), _gate("X", 1, [2, 3]),
            _gate("X", 3), _gate("H", 3), _gate("X", 2, [3]),
        ],
    },
    "custom.json": {
        "n_qubits": 2,
        "gates": [
            {  # a real rotation
                "kind": "custom", "targets": [0],
                "matrix": [[[0.6, 0], [-0.8, 0]], [[0.8, 0], [0.6, 0]]],
            },
            {"kind": "X", "targets": [1], "controls": [0]},
        ],
    },
    "twenty.json": {"n_qubits": 20, "gates": []},
    "ragged.json": {
        "n_qubits": 1,
        "gates": [{"kind": "custom", "targets": [0], "matrix": [[[1, 0]], [[0, 0], [1, 0]]]}],
    },
    "nope.json": "nope",  # not JSON
    "list.json": [1, 2],  # JSON, but not an object
    "gates_str.json": {"n_qubits": 1, "gates": "ab"},
    "gates_ints.json": {"n_qubits": 1, "gates": [1]},
    "gates_obj.json": {"n_qubits": 1, "gates": {"a": 1}},
    # a named gate's "matrix" key is not read, whatever it holds
    "h_junk.json": {"n_qubits": 1, "gates": [{"kind": "H", "targets": [0], "matrix": "junk"}]},
    "h_big.json": {
        "n_qubits": 1,
        "gates": [{"kind": "H", "targets": [0], "matrix": [[[5, 0], [0, 0]], [[0, 0], [0, 0]]]}],
    },
}

# --- the invocations: (arguments after `rotosense`, expected exit code) -----

INVOCATIONS = [
    ("fisher", 0),
    ("fisher --state balance", 0),
    ("fisher --state tetra1", 0),
    ("fisher --state file:{dir}/cube.json", 0),
    ("fisher --state file:{dir}/j0.json", 0),
    ("fisher --theta1 -1e-3", 0),
    ("fisher --config {dir}/config.json", 0),
    ("fisher --format csv", 2),
    ("fisher --state file:{dir}/j600.json", 2),
    ("fisher --config {dir}/nope.json", 2),
    ("fisher --state file:{dir}/list.json", 2),
    ("fisher --help", 0),
    ("probabilities", 0),
    ("probabilities --format csv", 0),
    ("probabilities --state balance", 0),
    ("probabilities --state balance --format csv", 0),
    ("probabilities --state tetra1", 0),
    ("probabilities --state tetra1 --format csv", 0),
    ("probabilities --state file:{dir}/cube.json", 0),
    ("probabilities --state file:{dir}/cube.json --format csv", 0),
    ("probabilities --state file:{dir}/tetra2.json", 0),
    ("probabilities --theta2 0", 0),
    ("probabilities --state balance --theta2 0 --format csv", 0),
    ("probabilities --grid-points 1", 0),
    ("probabilities --state balance --grid-points 11", 0),
    ("probabilities --state balance --grid-points 11 --format csv", 0),
    ("probabilities --state balance --grid-points 101", 0),
    ("probabilities --state balance --grid-points 101 --format csv", 0),
    ("probabilities --theta1 0.3", 0),
    ("probabilities --theta1 1e-6", 0),
    ("probabilities --theta1 1e-8", 0),
    ("probabilities --theta1 0", 0),
    ("probabilities --theta1 -0.01", 0),
    ("probabilities --theta1 -0.3", 0),
    ("probabilities --state balance --theta1 -0.3", 0),
    ("probabilities --state balance --theta1 -0.02", 0),
    ("probabilities --state balance --theta1 -0.3 --format csv", 0),
    ("probabilities --config {dir}/config.json", 0),
    ("probabilities --theta1 1e308", 2),
    ("probabilities --theta1 nan", 2),
    ("probabilities --grid-points 0", 2),
    ("probabilities --state file:{dir}/coherent.json", 2),
    ("probabilities --state file:{dir}/j1.json", 2),
    ("probabilities --state file:{dir}/j0.json", 2),
    ("probabilities --state nosuch", 2),
    ("estimate --trials 20", 0),
    ("estimate --trials 20 --seed 0", 0),
    ("estimate --trials 20 --pipeline optimal --format csv", 0),
    ("estimate --state balance --trials 20 --pipeline optimal", 0),
    ("estimate --state balance --trials 20 --pipeline bell --format csv", 0),
    ("estimate --state tetra1 --trials 5 --pipeline optimal", 0),
    ("estimate --state file:{dir}/cube.json --trials 20 --pipeline bell", 0),
    ("estimate --n 1 --trials 5", 0),
    ("estimate --n 200 --trials 20", 0),
    # 10 of the 50 trials are degenerate in both pipelines: masked axis statistics
    ("estimate --theta1 0.01 --n 10000 --trials 50", 0),
    ("estimate --trials 50 --seed 7", 0),
    # the README's Monte Carlo study loop at one shot number
    ("estimate --theta1 0.05 --seed 99 --n 10000 --trials 20 --state tetra2", 0),
    ("estimate --theta1 0.05 --seed 99 --n 10000 --trials 20 --state balance", 0),
    ("estimate --config {dir}/config.json", 0),
    ("estimate --trials 20 --theta1 0.3 --pipeline optimal", 0),
    ("estimate --trials 20 --format csv", 2),
    ("estimate --state tetra1 --trials 5 --pipeline bell", 2),
    ("estimate --seed -1 --trials 5", 2),
    ("decompose", 0),
    ("decompose --state balance --format csv", 0),
    ("decompose --state tetra1", 0),
    ("decompose --state balance --verify-tables", 0),
    ("decompose --theta1 0.3", 0),
    ("decompose --verify-tables --format csv", 2),
    ("decompose --theta1 1e308", 2),
    ("circuit-verify", 0),
    ("circuit-verify --circuit {dir}/tetra.json", 0),
    ("circuit-verify --circuit {dir}/tetra.json --state tetra2", 0),
    ("circuit-verify --circuit {dir}/tetra.json --config {dir}/config.json", 0),
    ("circuit-verify --circuit {dir}/custom.json", 0),
    ("circuit-verify --circuit {dir}/custom.json --seed 3", 0),
    ("circuit-verify --circuit {dir}/tetra.json --state balance", 2),
    ("circuit-verify --circuit {dir}/missing.json", 2),
    ("circuit-verify --circuit {dir}/twenty.json", 2),
    ("circuit-verify --circuit {dir}/ragged.json", 2),
    ("circuit-verify --circuit {dir}/list.json", 2),
    ("circuit-verify --circuit {dir}/gates_str.json", 2),
    ("circuit-verify --circuit {dir}/gates_ints.json", 2),
    ("circuit-verify --circuit {dir}/gates_obj.json", 2),
    ("circuit-verify --circuit {dir}/h_junk.json", 0),
    ("circuit-verify --circuit {dir}/h_big.json", 0),
    ("", 2),
    ("fisher --theta1", 2),
]


def write_inputs(directory: Path):
    """Write INPUTS into directory: a dict as JSON, a string as it is."""
    for name, content in INPUTS.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / name).write_text(text)


def argv(line: str, directory: Path) -> list:
    """The arguments of an invocation, its input files in directory."""
    return shlex.split(line.replace("{dir}", str(directory)))


def float_deltas(old, new, path="$", out=None) -> dict:
    """Key path -> [largest absolute, largest relative] delta between two JSON values.

    List indices read ``[*]``, so a path gathers a whole column.  Two numbers
    that differ add their deltas; any other difference (a string, a type, a
    key or a length) marks its path with None.
    """
    out = {} if out is None else out
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key in old and key in new:
                float_deltas(old[key], new[key], f"{path}.{key}", out)
            else:
                out[f"{path}.{key}"] = None
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            float_deltas(a, b, f"{path}[*]", out)
    elif type(old) is type(new) and repr(old) == repr(new):  # 0.0 and -0.0 differ
        pass
    elif _is_number(old) and _is_number(new):
        worst = out.get(path, [0.0, 0.0])
        if worst is not None:
            delta = abs(new - old)
            relative = delta / max(abs(old), abs(new)) if delta else 0.0
            out[path] = [max(worst[0], delta), max(worst[1], relative)]
    else:
        out[path] = None
    return out


def max_abs_delta(deltas) -> float | None:
    """The largest absolute delta over a sequence of float_deltas results.

    None stands for a stdout that is not JSON; a None result, or a None path
    in any result, makes the answer None.
    """
    worst = 0.0
    for paths in deltas:
        if paths is None or None in paths.values():
            return None
        worst = max([worst, *(delta[0] for delta in paths.values())])
    return worst


def _json_deltas(old: bytes, new: bytes) -> dict | None:
    """float_deltas of two JSON outputs, or None when either is not JSON."""
    try:
        return float_deltas(json.loads(old), json.loads(new))
    except ValueError:
        return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _extract(ref: str, directory: Path) -> str:
    """Extract REF's src into directory; return REF's commit hash."""
    def git(*args) -> bytes:
        command = ["git", "-C", str(ROOT), *args]
        return subprocess.run(command, capture_output=True, check=True).stdout

    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with zipfile.ZipFile(io.BytesIO(git("archive", "--format=zip", commit, "src"))) as archive:
        archive.extractall(directory)
    return commit


def _python(tree: Path, inputs: Path, *args) -> subprocess.CompletedProcess:
    """``python ARGS`` run in the inputs directory, with tree's src first on the path,
    under PYTHONHASHSEED=1 for the checkout and 0 for REF."""
    path = os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="1" if tree == ROOT else "0")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=inputs, env=env, timeout=600
    )


def _run(tree: Path, args: list, inputs: Path) -> tuple:
    """(exit code, stdout, stderr) of ``python -m rotosense.cli ARGS`` from tree."""
    result = _python(tree, inputs, "-m", "rotosense.cli", *args)
    marker = str(tree).encode()
    outputs = (result.stdout, result.stderr)
    return result.returncode, *(out.replace(marker, b"<tree>") for out in outputs)


def _imports_from(tree: Path, inputs: Path) -> bool:
    """Whether ``import rotosense`` with tree's src first loads tree's package."""
    found = _python(tree, inputs, "-c", "import rotosense; print(rotosense.__file__)")
    return Path(found.stdout.decode().strip()).resolve().is_relative_to((tree / "src").resolve())


def _explain(old: bytes, new: bytes) -> list:
    """Lines that say how two outputs differ: float deltas for JSON, else the first line."""
    deltas = _json_deltas(old, new)
    if deltas is None:
        pairs = enumerate(zip(old.splitlines() + [b""], new.splitlines() + [b""]), 1)
        return [
            f"    first differing line {number}: {a[:120]!r} -> {b[:120]!r}"
            for number, (a, b) in pairs if a != b
        ][:1]
    return [
        f"    {path}: " + ("changed" if d is None else f"abs {d[0]:.3g}, rel {d[1]:.3g}")
        for path, d in deltas.items()
    ]


def main(args=None) -> int:
    args = sys.argv[1:] if args is None else args
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python scripts/report_diff.py REF", file=sys.stderr)
        return 2
    ref = args[0]
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        tmp = Path(tmp)
        old_tree, inputs = tmp / "ref", tmp / "inputs"
        old_tree.mkdir()
        inputs.mkdir()
        try:
            commit = _extract(ref, old_tree)
        except subprocess.CalledProcessError as exc:
            print(f"error: git {exc.cmd[3]} failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        for tree in (old_tree, ROOT):
            if not _imports_from(tree, inputs):
                print(f"error: python -m rotosense.cli does not load {tree}/src", file=sys.stderr)
                return 2
        write_inputs(inputs)
        differ, stdout_deltas = [], []
        for line, _ in INVOCATIONS:
            old, new = (_run(tree, argv(line, inputs), inputs) for tree in (old_tree, ROOT))
            streams = [name for name, a, b in zip(("exit", "stdout", "stderr"), old, new) if a != b]
            if old[1] != new[1]:
                stdout_deltas.append(_json_deltas(old[1], new[1]))
            if streams:
                differ.append(line)
                print(f"DIFFER rotosense {line}: {', '.join(streams)}")
                for name, a, b in zip(("stdout", "stderr"), old[1:], new[1:]):
                    if a != b:
                        print(f"  {name}:", *_explain(a, b), sep="\n")
    summary = {
        "ref": ref,
        "commit": commit,
        "invocations": len(INVOCATIONS),
        "identical": len(INVOCATIONS) - len(differ),
        "differ": differ,
        "max_abs_delta": max_abs_delta(stdout_deltas),
    }
    print(json.dumps(summary))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
