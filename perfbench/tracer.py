"""Per-layer tracing for the benchmark, installed from outside the package.

Timing wrappers replace each traced public function in every rotosense
module namespace that holds it, because callers bind names at import time
(``from .measurement import exact_probabilities`` in ``cli`` and
``estimation``).  Self time is a call's duration minus the time of traced
calls nested inside it, so the layers' self times add up without double
counting.  A traced name that the package no longer defines is reported as
absent instead of failing the run.

This module imports only the standard library at load time, so that a
child started with ``-X importtime`` attributes all numpy and rotosense
import time to the package itself.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer -> public functions timed as spans (see README.md for the metric each
# layer is expected to move on which workload)
LAYERS = {
    "spin_core": ("rotation_unitary", "dicke_to_qubit"),
    "metrology": ("qfi_matrix", "anticoherence_report"),
    "measurement": (
        "optimal_basis",
        "exact_probabilities",
        "small_angle_probabilities",
        "multiparam_saturation_check",
    ),
    "bell_analysis": (
        "bell_decompose",
        "aggregate_probabilities",
        "verify_tabulated_decompositions",
    ),
    "circuit_sim": ("prep_circuit_report", "analyzer_distinguishability_report"),
    "estimation": ("qcrb_experiment", "sample_outcomes", "estimate_params"),
    "cli": ("main",),
}

# the statevector kernel every circuit run goes through; counted, not timed
GATE_KERNEL = ("circuit_sim", "_apply_gates")


def _package_modules():
    importlib.import_module("rotosense")
    for layer in LAYERS:
        try:
            importlib.import_module(f"rotosense.{layer}")
        except ModuleNotFoundError:
            pass  # a removed module: its functions are reported absent
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rotosense" or name.startswith("rotosense."))
    ]


class Tracer:
    """Self time and call counts per traced function, plus work counters."""

    def __init__(self):
        keys = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]
        self.calls = dict.fromkeys(keys, 0)  # "layer.function" -> number of calls
        self.self_s = dict.fromkeys(keys, 0.0)  # "layer.function" -> seconds of self time
        self.counters = {"trials": 0, "degenerate_trials": 0, "gates_applied": 0}
        self.absent = set()
        self._stack = []  # time of traced children, one slot per open span
        self._patched = []  # (module, attribute, original)

    def _span(self, key, fn, on_result=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_gates(self, fn):
        counters = self.counters

        def wrapper(amps, gates, *args, **kwargs):
            counters["gates_applied"] += len(gates)
            return fn(amps, gates, *args, **kwargs)

        return wrapper

    def _on_qcrb(self, report):
        self.counters["trials"] += report.trials
        self.counters["degenerate_trials"] += report.degenerate_trials

    def install(self):
        """Patch every namespace that binds a traced function."""
        modules = _package_modules()
        replacements = {}  # id(original) -> (original, wrapper)
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"rotosense.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                original = getattr(home, name, None)
                if original is None:
                    self.absent.add(key)
                    continue
                hook = self._on_qcrb if key == "estimation.qcrb_experiment" else None
                replacements[id(original)] = (original, self._span(key, original, hook))
        kernel = getattr(sys.modules.get(f"rotosense.{GATE_KERNEL[0]}"), GATE_KERNEL[1], None)
        if kernel is None:
            self.absent.add(".".join(GATE_KERNEL))
        else:
            replacements[id(kernel)] = (kernel, self._count_gates(kernel))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "absent": sorted(self.absent),
        }


def merge(total: dict, part: dict):
    """Add one snapshot into a running total (both in snapshot form)."""
    for field in ("calls", "self_s", "counters"):
        bucket = total.setdefault(field, {})
        for key, value in part[field].items():
            bucket[key] = bucket.get(key, 0) + value
    total["absent"] = sorted(set(total.get("absent", [])) | set(part["absent"]))


def parse_importtime(stderr: str) -> dict:
    """numpy and rotosense cumulative import times (ms) from ``-X importtime``.

    ``rotosense_ms`` is the cumulative time of the top-level rotosense
    imports, so it includes numpy when rotosense is what pulled it in.
    """
    numpy_us = None
    rotosense_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the column header
        cumulative = int(parts[1])
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "numpy" and numpy_us is None:
            numpy_us = cumulative
        if depth == 1 and (name == "rotosense" or name.startswith("rotosense.")):
            rotosense_us += cumulative
    if numpy_us is None or rotosense_us == 0:
        raise ValueError("importtime output names no numpy or rotosense import")
    return {"numpy_ms": numpy_us / 1e3, "rotosense_ms": rotosense_us / 1e3}
