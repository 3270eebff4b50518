"""rotosense benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload {mc_study,sweep,cli_cold} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` reports the end-to-end metrics, each timing divided by the
host slowness that a calibration kernel measured next to it (see
calibration.py).  ``--trace 1`` reports the per-layer metrics, timing traced
and untraced cycles of the same input mix alternately so that the tracing
overhead is measured in the same run.
Metric names and units come from BENCHMARK.json.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 when every op passed its check, 1 when some failed, 2 when the
benchmark cannot run (no package source next to it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import calibration
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # fresh interpreters timed per run; setup_s is their median
IMPORT_REPEATS = 3  # importtime children per traced in-process run
TAIL_LADDER = (99, 95, 90, 75, 50)
MIN_BEYOND = 10  # samples a tail percentile must have above it


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies, preferred):
    """Latency at the workload's tail percentile, stepping down the ladder
    while fewer than MIN_BEYOND samples lie beyond it."""
    ordered = sorted(latencies)
    for pct in (p for p in TAIL_LADDER if p <= preferred):
        beyond = int(len(ordered) * (100 - pct) / 100)
        if beyond >= MIN_BEYOND:
            break
    return percentile(ordered, pct), pct, beyond


def setup_times(args):
    """Fresh-interpreter time to a completed set-up, SETUP_REPEATS times,
    each with the mean host slowness measured just before and after it."""
    times = []
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        before = calibration.child_slowness()
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append((elapsed, (before + calibration.child_slowness()) / 2))
    return times


def import_times():
    """importtime figures of ``import rotosense.cli`` in fresh interpreters."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rotosense.cli"],
            env=workloads.child_env(ROOT), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(tracing.parse_importtime(proc.stderr))
    return runs


def run_ops(wl, seconds, trace):
    """Closed loop for `seconds`: [(traced, OpResult or None, slowness)] and
    failures, where slowness is the host's, measured just before the op."""
    # ops that start an interpreter are calibrated by one too
    slowness = calibration.child_slowness if isinstance(wl, workloads.CliCold) else calibration.slowness
    results, failed = [], 0
    deadline = perf_counter() + seconds
    min_ops = 2 * wl.cycle if trace else 1  # a traced run needs untraced ops too
    i = 0
    while i < min_ops or perf_counter() < deadline:
        traced = trace and (i // wl.cycle) % 2 == 0
        slow = None if trace else slowness()
        try:
            result = wl.op(wl.make_input(i), traced)
        except Exception:  # an op that raises is a failed op, not a crashed run
            print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            result = None
        if result is None or result.error:
            failed += 1
            if result is not None:
                print(f"op {i} failed its check: {result.error}", file=sys.stderr)
        results.append((traced, result, slow))
        i += 1
    return results, failed


def end_to_end(wl, results, setup):
    slowness = calibration.windowed([s for _, _, s in results])
    done = [(r, s) for (_, r, _), s in zip(results, slowness) if r is not None and not r.error]
    raw = [r.latency_s for r, _ in done]
    latencies = [r.latency_s / s for r, s in done]
    tail_s, pct, beyond = tail(latencies, wl.tail_pct)
    if isinstance(wl, workloads.CliCold):
        peak_kb = max(r.rss_kb for r, _ in done)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(done) / sum(latencies),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": median(t / s for t, s in setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "success_rate": len(done) / len(results),
    }
    info = {
        "ops": len(done),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "slowness_p50": median(s for _, _, s in results),
        "raw_latency_tail_ms": tail(raw, wl.tail_pct)[0] * 1e3,
        "raw_latency_p50_ms": median(raw) * 1e3,
        "raw_setup_s": median(t for t, _ in setup),
        "setup_samples": setup,
    }
    return metrics, info


def per_layer(wl, results, imports):
    traced = [r for t, r, _ in results if t and r is not None]
    untraced = [r for t, r, _ in results if not t and r is not None]
    n_ops = len(traced)
    wall_s = sum(r.latency_s for r in traced)
    snap = wl.snapshot if isinstance(wl, workloads.CliCold) else wl.tracer.snapshot()
    metrics = {}
    for layer, names in tracing.LAYERS.items():
        layer_s = 0.0
        for name in names:
            key = f"{layer}.{name}"
            calls = snap.get("calls", {}).get(key, 0)
            self_s = snap.get("self_s", {}).get(key, 0.0)
            metrics[f"{key}.calls"] = calls / n_ops
            metrics[f"{key}.self_ms"] = self_s * 1e3 / n_ops
            layer_s += self_s
        metrics[f"{layer}.share"] = layer_s / wall_s
    counters = snap.get("counters", {})
    trials = counters.get("trials", 0)
    metrics["circuit_sim.gates_applied"] = counters.get("gates_applied", 0) / n_ops
    metrics["estimation.trials"] = trials / wall_s
    metrics["estimation.degenerate_ratio"] = counters.get("degenerate_trials", 0) / trials if trials else 0.0
    metrics["cli.bytes_out"] = sum(r.bytes_out for r in traced) / n_ops
    if isinstance(wl, workloads.CliCold):
        imports = [r.imports for r in traced if r.imports]
        import_s = sum(x["rotosense_ms"] for x in imports) / 1e3
        metrics["import.share"] = import_s / wall_s
    else:
        metrics["import.share"] = 0.0  # paid in set-up, outside the timed ops
    metrics["import.numpy_ms"] = median(x["numpy_ms"] for x in imports)
    metrics["import.rotosense_ms"] = median(x["rotosense_ms"] for x in imports)
    metrics["trace.overhead"] = (
        median(r.latency_s for r in traced) / median(r.latency_s for r in untraced) - 1.0
    )
    info = {"traced_ops": n_ops, "untraced_ops": len(untraced), "absent": snap.get("absent", [])}
    return metrics, info


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "ROTOSENSE_THREADS": "unset (package default 1)",
    }


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc_study", "sweep", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "rotosense" / "__init__.py").is_file():
        print(f"error: no rotosense package source under {SRC}", file=sys.stderr)
        return 2
    # the thread-count knob stays at its default, so removing it later
    # leaves the benchmark unchanged
    os.environ.pop("ROTOSENSE_THREADS", None)
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        wl = workloads.make(args.workload, args.seed, Path(tmp), ROOT)
        if args.setup_probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        kind = "per_layer" if args.trace else "end_to_end"
        units = declared(kind)
        calibration.warm_up()
        setup = None if args.trace else setup_times(args)
        imports = import_times() if args.trace and not isinstance(wl, workloads.CliCold) else None
        wl.setup()
        if args.trace:
            wl.tracer = tracing.Tracer()
        gc.collect()
        gc.freeze()  # keep set-up objects out of the collections timed below
        results, failed = run_ops(wl, args.seconds, bool(args.trace))
        if failed == len(results):
            values, info = {}, {}
        elif args.trace:
            values, info = per_layer(wl, results, imports)
        else:
            values, info = end_to_end(wl, results, setup)

    if values and set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:<58} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
