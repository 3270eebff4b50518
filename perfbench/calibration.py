"""Host-speed calibration: fixed kernels timed next to every measured op.

The benchmark runs on shared hosts whose speed drifts between phases up to
about 1.8x apart, each lasting from a fraction of a second to minutes, so
two runs of the same code can differ by more than any regression bound.
Each kernel below does the same kind of work as the ops it calibrates but
none of the package's code, so it slows down with the host and not with
the program.  It reports its slowness: its time divided by its time on the
host where the benchmark was defined (a 2-vCPU Xeon VM, in its slow
phase).  A timing divided by the slowness around it reads as the time on
that reference host (see README.md).

- ``slowness``: small complex numpy products, a Python loop and JSON
  encoding in the benchmark's own process, for in-process ops.
- ``child_slowness``: a fresh interpreter that imports a few standard
  library modules, for ops and set-ups that start an interpreter, whose
  time is mostly process start and imports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 1.6e-3  # in-process kernel time on the reference host
CHILD_REFERENCE_S = 0.115  # child kernel time on the reference host
CHILD_CODE = "import argparse, csv, decimal, fractions, json"
WINDOW = 3  # slowness samples whose median scales one op: before the previous op, before it, after it
STEPS = 160
WARMUP = 20

_rng = np.random.default_rng(20240)
_A = (_rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))) / 8.0
_V = _rng.standard_normal(16) + 0j


def slowness() -> float:
    """Time one run of the in-process kernel, relative to the reference host."""
    t0 = perf_counter()
    x, acc = _V, 0.0
    for k in range(STEPS):
        x = _A @ x
        x = x / np.linalg.norm(x)
        acc += abs(complex(x[k % 16]))
    json.dumps({"acc": acc, "x": [[z.real, z.imag] for z in x.tolist()]})
    return (perf_counter() - t0) / REFERENCE_S


def child_slowness() -> float:
    """Time one fresh interpreter running CHILD_CODE, relative to the reference host."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", CHILD_CODE], check=True, timeout=60)
    return (perf_counter() - t0) / CHILD_REFERENCE_S


def warm_up():
    """Run the in-process kernel until numpy's first-call costs are paid."""
    for _ in range(WARMUP):
        slowness()


def windowed(samples):
    """Per-sample median of the WINDOW samples around it."""
    n, half = len(samples), WINDOW // 2
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - WINDOW))
        out.append(median(samples[lo:lo + WINDOW]))
    return out
