"""Run the benchmark on a git revision and on the checkout in alternating pairs.

    python scripts/bench_pairs.py REF --workload W --pairs N [--seed S] [--write PATH]

extracts REF's ``src``, ``perfbench`` and ``BENCHMARK.json``
(``revision.extract``) into a temporary directory ``.bench-pairs-*`` under the
repository root, so that both trees' runs, whose perfbench temp dirs sit
in their own tree, write to one filesystem, and runs
``python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0``
there and in the checkout for i = 0..N-1, REF first in even pairs and the
checkout first in odd ones; T is REF's ``run_seconds``.  For each
end-to-end metric of REF's ``BENCHMARK.json`` it prints each side's median
and quartiles, the checkout's wins out of N pairs (ties count for neither
side), the relative change of the median, whether that change stays within
the metric's bound, whether the median moved the better way by more
than REF's interquartile range, and the paired change: the median of the
pairs' changes, exp(median log(new/ref)) - 1, with its sign-test interval
(``paired_change``).  Below that table it summarises, the same
way, the raw figures of each run's ``info`` line (``ops``,
``raw_latency_p50_ms``, ``raw_latency_tail_ms``, ``raw_setup_s``: no host
slowness divisor, no bound), so both spreads are on record.  The last line
is a JSON summary: ``ref``, ``commit`` and ``workload``, then the same
workload entry that ``--write`` stores.

With ``--write PATH`` it also merges the workload's summary into the JSON
file at PATH, which records one comparison: REF's commit, the checkout's
HEAD and whether its ``src``, ``perfbench`` or ``BENCHMARK.json`` differ
from HEAD, and the host (CPU count, Python, numpy,
``PYTHONDONTWRITEBYTECODE``, and ``fs``: the type and options of the mount
that holds the repository); under ``workloads`` it holds each workload's
pairs, seeds, ``run_seconds``, per-metric summary and raw summary, each
metric with its ``per_pair`` [ref, new] values.  Running
it once per workload builds one file with all of them; a file that records
another comparison, or a PATH whose directory is missing, is refused before
any run.  Exit status: 0 when every run finished, 2 on a usage or git
error, a refused file or a run that printed no metrics.  Uses only the
standard library and git; it edits nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

from revision import ROOT, extract, git

EXTRACTED = ("src", "perfbench", "BENCHMARK.json")
# figures of run.py's info line summarised next to the gated metrics; they have no bound
RAW = [
    {"name": "ops", "better": "higher"},
    {"name": "raw_latency_p50_ms", "better": "lower"},
    {"name": "raw_latency_tail_ms", "better": "lower"},
    {"name": "raw_setup_s", "better": "lower"},
]
# smallest coverage of the sign-test interval of the median paired change
COVERAGE = 0.95


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Metric name -> value of one ``perfbench/run.py --trace 0`` run in tree, RAW figures too."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    result = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
        info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
        raw = {metric["name"]: info[metric["name"]] for metric in RAW}
    except (IndexError, ValueError, KeyError, StopIteration):
        raise RuntimeError(
            f"{tree}: run.py exited {result.returncode} without metrics:\n{result.stderr[-2000:]}"
        ) from None
    return {**{name: entry["value"] for name, entry in metrics.items()}, **raw}


def _quartiles(values: list) -> list:
    """[first quartile, median, third quartile], inclusive method."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return [q1, median(values), q3]


def sign_interval(pairs: int) -> tuple[int, float] | None:
    """(k, coverage) of the sign-test interval d_(k)..d_(pairs+1-k) of a median.

    d_(i) is the i-th smallest of the pairs' differences; the interval covers
    their median with probability 1 - 2 P(Bin(pairs, 1/2) < k) whatever their
    distribution.  k is the largest whose coverage is at least COVERAGE
    (k = 2, 97.9 % at ten pairs); None when even k = 1 falls short (pairs < 6).
    """
    best, below = None, 0  # below = sum of comb(pairs, i) for i < k
    for k in range(1, pairs // 2 + 1):
        below += math.comb(pairs, k - 1)
        coverage = 1.0 - 2.0 * below / 2**pairs
        if coverage < COVERAGE:
            break
        best = (k, coverage)
    return best


def paired_change(ref: list, new: list) -> dict:
    """The median per-pair change exp(median log(new/ref)) - 1 and its sign-test interval.

    The interval maps sign_interval's order statistics of the log ratios
    back to changes.  It and its coverage are None when there are too few
    pairs; the change is None too when a value is not positive.
    """
    summary = {
        "per_pair": [[a, b] for a, b in zip(ref, new)],
        "paired_change": None,
        "paired_interval": None,
        "paired_coverage": None,
    }
    if min(ref + new) <= 0.0:  # no log ratio
        return summary
    logs = sorted(math.log(b / a) for a, b in zip(ref, new))
    summary["paired_change"] = math.expm1(median(logs))
    interval = sign_interval(len(logs))
    if interval:
        k, summary["paired_coverage"] = interval
        summary["paired_interval"] = [math.expm1(logs[k - 1]), math.expm1(logs[-k])]
    return summary


def summarize(ref_runs: list, new_runs: list, declared: list) -> dict:
    """Per-metric comparison of paired runs (lists of name -> value dicts, pair by pair).

    declared is BENCHMARK.json's end_to_end list, or RAW.  A pair is a win
    when the checkout's value is better than REF's in the metric's direction;
    a metric without a bound (RAW) has within_bound None.  Each metric also
    holds its ``paired_change``.
    """
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        ref = [run[name] for run in ref_runs]
        new = [run[name] for run in new_runs]
        ref_q, new_q = _quartiles(ref), _quartiles(new)
        gain = sign * (new_q[1] - ref_q[1])  # > 0 when the checkout's median is better
        relative = gain / abs(ref_q[1]) if ref_q[1] else 0.0
        summary[name] = {
            "ref": ref_q,
            "new": new_q,
            "wins": sum(sign * (b - a) > 0 for a, b in zip(ref, new)),
            "change": sign * relative,
            "within_bound": -relative <= metric["bound"] if "bound" in metric else None,
            "clears_ref_iqr": gain > ref_q[2] - ref_q[0],
            **paired_change(ref, new),
        }
    return summary


def _percent(change) -> str:
    return "n/a" if change is None else f"{change:+.1%}"


def filesystem(path: Path, mounts: str) -> dict | None:
    """{"type", "options"} of the mount that holds path, or None.

    mounts is the text of /proc/mounts; the mount is the one whose mount
    point is the longest prefix of path, the last listed among equals (it
    is mounted over the others).
    """
    best, length = None, -1
    for line in mounts.splitlines():
        fields = line.split()
        if len(fields) < 4:
            continue
        # /proc/mounts writes a space, tab, newline or backslash as an octal escape
        point = re.sub(r"\\([0-7]{3})", lambda m: chr(int(m[1], 8)), fields[1])
        if path.is_relative_to(point) and len(point) >= length:
            best, length = {"type": fields[2], "options": fields[3]}, len(point)
    return best


def host() -> dict:
    """The facts of this host that a timing depends on."""
    try:
        fs = filesystem(ROOT, Path("/proc/mounts").read_text())
    except OSError:  # no /proc: not Linux, or not mounted
        fs = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "fs": fs,
    }


def load_record(path: Path, header: dict) -> dict:
    """The record at path to merge a workload into, or a new one with header.

    header holds the comparison (``ref``, ``new``, ``host``); a file that
    records another one raises ValueError, so one file never mixes trees or
    hosts.  So does a path outside a directory, which could not be written.
    """
    if not path.exists():
        if not path.parent.is_dir():
            raise ValueError(f"cannot write {path}: {path.parent} is not a directory")
        return {**header, "workloads": {}}
    record = json.loads(path.read_text())
    other = [key for key in header if record.get(key) != header[key]]
    if other:
        raise ValueError(f"{path} records another comparison (its {', '.join(other)} differ)")
    return record


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--write", type=Path, metavar="PATH",
                        help="merge this workload's summary into the JSON record at PATH")
    args = parser.parse_args(args)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix=".bench-pairs-", dir=ROOT) as tmp:
        ref_tree = Path(tmp)
        try:
            commit = extract(args.ref, ref_tree, EXTRACTED)
            if args.write:
                head = git("rev-parse", "HEAD").decode().strip()
                modified = bool(git("status", "--porcelain", "--", *EXTRACTED).strip())
                record = load_record(args.write, {
                    "ref": {"name": args.ref, "commit": commit},
                    "new": {"commit": head, "modified": modified},
                    "host": host(),
                })
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        benchmark = json.loads((ref_tree / "BENCHMARK.json").read_text())
        seconds = benchmark["run_seconds"]
        ref_runs, new_runs = [], []
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                trees = [(ref_tree, ref_runs), (ROOT, new_runs)]
                for tree, runs in trees if i % 2 == 0 else trees[::-1]:
                    runs.append(_run(tree, args.workload, seed, seconds))
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    summary = summarize(ref_runs, new_runs, benchmark["end_to_end"])
    raw = summarize(ref_runs, new_runs, RAW)
    coverage = sign_interval(args.pairs)
    coverage = f"{coverage[1]:.1%}" if coverage else f"too few pairs for {COVERAGE:.0%}"
    print(f"paired: the median per-pair change; interval: its sign-test interval ({coverage})")
    print(f"{'metric':<19} {'ref q1/median/q3':>30} {'new q1/median/q3':>30} {'wins':>6} "
          f"{'change':>8} {'paired':>8} {'interval':>17}  within bound, clears ref IQR")
    for name, row in {**summary, **raw}.items():
        if name == RAW[0]["name"]:
            print("raw figures of the info line (not gated):")
        ref, new = ("/".join(f"{v:.4g}" for v in row[side]) for side in ("ref", "new"))
        interval = ("n/a" if row["paired_interval"] is None
                    else "[" + ", ".join(map(_percent, row["paired_interval"])) + "]")
        print(f"{name:<19} {ref:>30} {new:>30} {row['wins']:>3}/{args.pairs:<2} "
              f"{row['change']:>+8.1%} {_percent(row['paired_change']):>8} {interval:>17}  "
              f"{row['within_bound']}, {row['clears_ref_iqr']}")
    entry = {
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "run_seconds": seconds,
        "metrics": summary,
        "raw": raw,
    }
    print(json.dumps({"ref": args.ref, "commit": commit, "workload": args.workload, **entry}))
    if args.write:  # replaces an earlier record of this workload
        record["workloads"][args.workload] = entry
        args.write.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
