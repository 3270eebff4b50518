"""The three benchmark workloads: inputs, one op, and the op's correctness check.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one has finished.  Op ``i`` of a run is generated
from ``(workload, seed, i)`` alone, so the same seed gives the same inputs
however many ops a run completes.  Set-up uses negative op indices, which
the measured ops never reach.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from time import perf_counter

import tracer as tracing

STATES = ("tetra2", "balance")
J_OF = {"tetra2": 2.0, "balance": 3.0}

# sigma(theta1_hat)/sigma_CR is checked against 1 with a tolerance of z
# standard errors of a sample standard deviation, 1/sqrt(2 trials).  z keeps
# the chance of a false alarm below 1e-3 over a million checked ops, so a
# failure means the estimator is off, not that sampling was unlucky.
FALSE_ALARM = 1e-3 / 1e6
Z_SIGMA = NormalDist().inv_cdf(1.0 - FALSE_ALARM / 2.0)

# probability-table checks: rows sum to 1 within SUM_TOL, and the
# small-angle and Bell-aggregation gaps stay inside ENVELOPE * theta1^3 (the
# envelope of the aggregation acceptance criterion), plus SUM_TOL of
# rounding at theta1 = 0
SUM_TOL = 1e-12
ENVELOPE = 1.0

# documented inconsistencies in the six-photon decomposition tables
EXPECTED_TABLE_MISMATCHES = {"n6_psi2", "n6_psi4", "n6_psi6"}

CHILD_TIMEOUT_S = 60.0


@dataclass
class OpResult:
    latency_s: float
    bytes_out: int
    error: str | None = None  # the failed check, if any
    rss_kb: int = 0  # peak RSS of the op's child process (cli_cold)
    imports: dict | None = None  # importtime figures of a traced child


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the package source first on the path."""
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _random_axis(rng: random.Random) -> tuple[float, float]:
    """(theta2, theta3) of an axis drawn uniformly from the sphere."""
    return math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random()


def _fisher(j: float) -> float:
    return 4.0 * j * (j + 1.0) / 3.0


def sigma_ratio_error(sigma_empirical, j, n, trials) -> str | None:
    """Check sigma(theta1_hat) against the Cramer-Rao value 1/sqrt(n F)."""
    ratio = sigma_empirical * math.sqrt(n * _fisher(j))
    tol = Z_SIGMA / math.sqrt(2.0 * trials)
    if not abs(ratio - 1.0) <= tol:
        return f"sigma/sigma_CR = {ratio:.4f}, outside 1 +- {tol:.4f}"
    return None


def probability_table_error(columns, rows, theta_max, points) -> str | None:
    """Check a theta1 sweep table written by ``rotosense probabilities``."""
    if len(rows) != points:
        return f"{len(rows)} rows, expected {points}"
    col = {name: k for k, name in enumerate(columns)}
    exact_cols = [col[c] for c in ("P0", "P1", "P2", "P3", "Prest")]
    small_cols = [col[f"small_P{m}"] for m in range(4)]
    bell_cols = [col[f"bell_P{m}"] for m in range(4)]
    for k, row in enumerate(rows):
        theta = row[col["theta1"]]
        if abs(theta - theta_max * k / (points - 1)) > 1e-15:
            return f"row {k}: theta1 {theta!r} is off the grid"
        exact = [row[c] for c in exact_cols]
        small = [row[c] for c in small_cols]
        bell = [row[c] for c in bell_cols]
        if min(exact + small + bell) < 0.0:
            return f"row {k}: negative probability"
        if not abs(math.fsum(exact) - 1.0) <= SUM_TOL:
            return f"row {k}: exact probabilities sum to {math.fsum(exact)!r}"
        gap_small = max(abs(e - s) for e, s in zip(exact, small))
        gap_bell = max(abs(b - e) for b, e in zip(bell, exact))
        envelope = ENVELOPE * theta**3 + SUM_TOL
        if gap_small > envelope or gap_bell > envelope:
            return f"row {k}: gaps {gap_small:.3g}/{gap_bell:.3g} exceed {envelope:.3g}"
        if row[col["gap_small"]] != gap_small or row[col["gap_bell"]] != gap_bell:
            return f"row {k}: reported gaps disagree with the table"
    return None


class Workload:
    """One workload: ``make_input(i)`` builds op i, ``op`` runs it and checks the output."""

    cycle = 4  # ops per full turn of the input mix
    warmup_ops = 4

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp
        self.tracer = None  # a tracing.Tracer in traced runs

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup(self):
        for i in range(-self.warmup_ops, 0):
            result = self.op(self.make_input(i), traced=False)
            if result.error:
                raise RuntimeError(f"warm-up op {i} failed: {result.error}")


class InProcess(Workload):
    """Workloads that call the package from the benchmark's own process."""

    def setup(self):
        import rotosense.cli
        import rotosense.estimation
        import rotosense.spin_core
        import rotosense.states

        self.cli, self.estimation = rotosense.cli, rotosense.estimation
        self.RotationParams = rotosense.spin_core.RotationParams
        self.states = {name: rotosense.states.get_state(name) for name in STATES}
        super().setup()

    def op(self, inp, traced: bool) -> OpResult:
        if traced:
            self.tracer.install()
        try:
            t0 = perf_counter()
            out = self.call(inp)
            latency = perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        return self.checked(inp, out, latency)


class McStudy(InProcess):
    """One Monte Carlo Cramer-Rao experiment per op (the paper's headline study)."""

    name = "mc_study"
    tail_pct = 95
    N, TRIALS = 10**6, 1000
    MIX = [(s, p) for s in STATES for p in ("optimal", "bell")]

    def make_input(self, i: int) -> dict:
        rng = self.rng(i)
        state, pipeline = self.MIX[i % len(self.MIX)]
        theta2, theta3 = _random_axis(rng)
        return {
            "state": state,
            "pipeline": pipeline,
            "theta1": rng.uniform(0.01, 0.05),
            "theta2": theta2,
            "theta3": theta3,
            "seed": rng.getrandbits(63),
        }

    def call(self, inp):
        params = self.RotationParams(inp["theta1"], inp["theta2"], inp["theta3"])
        return self.estimation.qcrb_experiment(
            self.states[inp["state"]], params, self.N, self.TRIALS, inp["seed"], inp["pipeline"]
        )

    def checked(self, inp, report, latency) -> OpResult:
        if report.degenerate_trials != 0:
            error = f"{report.degenerate_trials} degenerate trials"
        elif len(report.theta1_hats) != self.TRIALS:
            error = f"{len(report.theta1_hats)} estimates for {self.TRIALS} trials"
        else:
            error = sigma_ratio_error(
                report.sigma_empirical, J_OF[inp["state"]], self.N, self.TRIALS
            )
        return OpResult(latency, 0, error)


class Sweep(InProcess):
    """One in-process ``rotosense probabilities`` theta1 sweep per op."""

    name = "sweep"
    tail_pct = 95
    THETA_MAX, POINTS = 0.05, 101

    def make_input(self, i: int) -> dict:
        theta2, theta3 = _random_axis(self.rng(i))
        return {
            "state": STATES[i % 2],
            "format": ("json", "csv")[(i // 2) % 2],
            "theta2": theta2,
            "theta3": theta3,
        }

    def call(self, inp):
        out = self.tmp / f"sweep.{inp['format']}"
        argv = [
            "probabilities",
            "--state", inp["state"],
            "--theta1", repr(self.THETA_MAX),
            "--theta2", repr(inp["theta2"]),
            "--theta3", repr(inp["theta3"]),
            "--grid-points", str(self.POINTS),
            "--format", inp["format"],
            "--out", str(out),
        ]
        return self.cli.main(argv), out

    def checked(self, inp, out, latency) -> OpResult:
        code, path = out
        if code != 0:
            return OpResult(latency, 0, f"exit code {code}")
        text = path.read_text()
        if inp["format"] == "json":
            payload = json.loads(text)
            columns, rows = payload["columns"], payload["rows"]
        else:
            table = list(csv.reader(text.splitlines()))
            columns, rows = table[0], [[float(x) for x in row] for row in table[1:]]
        error = probability_table_error(columns, rows, self.THETA_MAX, self.POINTS)
        return OpResult(latency, len(text.encode()), error)


class CliCold(Workload):
    """One fresh ``python -m rotosense.cli`` process per op, as a shell user runs it."""

    name = "cli_cold"
    tail_pct = 75
    cycle = 10  # five commands x two probes
    warmup_ops = 1
    N, TRIALS = 10**6, 200
    COMMANDS = (
        ("fisher",),
        ("probabilities", "--grid-points", "21"),
        ("circuit-verify",),
        ("estimate", "--trials", str(TRIALS), "--n", str(N)),
        ("decompose", "--verify-tables"),
    )

    def __init__(self, seed: int, tmp: Path, root: Path):
        super().__init__(seed, tmp)
        self.root = root
        self.env = child_env(root)
        self.snapshot = {}  # merged trace snapshots of the traced children

    def make_input(self, i: int) -> dict:
        rng = self.rng(i)
        theta2, theta3 = _random_axis(rng)
        command = self.COMMANDS[i % len(self.COMMANDS)]
        argv = list(command)
        if command[0] != "circuit-verify":  # the only command without a probe
            argv += [
                "--state", STATES[i % 2],
                "--theta1", repr(rng.uniform(0.01, 0.05)),
                "--theta2", repr(theta2),
                "--theta3", repr(theta3),
                "--seed", str(rng.getrandbits(63)),
            ]
        return {"state": STATES[i % 2], "argv": argv}

    def op(self, inp, traced: bool) -> OpResult:
        trace_out = self.tmp / "trace.json"
        if traced:
            head = ["-X", "importtime", str(Path(tracing.__file__).with_name("launch.py")), str(trace_out)]
        else:
            head = ["-m", "rotosense.cli"]
        code, stdout, stderr, latency, rss_kb = self._run_child([sys.executable, *head, *inp["argv"]])
        result = OpResult(latency, len(stdout), rss_kb=rss_kb)
        if code != 0:
            result.error = f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"
            return result
        if traced:
            tracing.merge(self.snapshot, json.loads(trace_out.read_text()))
            result.imports = tracing.parse_importtime(stderr.decode())
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            result.error = f"unparseable output: {exc}"
            return result
        result.error = self._check(inp, payload)
        return result

    def _run_child(self, argv):
        """Run one child to completion: exit code, output, wall time, peak RSS."""
        out_path, err_path = self.tmp / "child.out", self.tmp / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            latency = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), latency, usage.ru_maxrss

    def _check(self, inp, payload) -> str | None:
        command = inp["argv"][0]
        j = J_OF[inp["state"]]
        if command == "fisher":
            f = _fisher(j)
            if payload["J"] != j:
                return f"J = {payload['J']}, expected {j}"
            if abs(payload["fisher_single"] - f) > 1e-9 or abs(payload["qfi"][0][0] - f) > 1e-9:
                return f"Fisher information {payload['fisher_single']!r}, expected {f}"
            if payload["anticoherence"]["pass"] is not True:
                return "probe not certified anti-coherent"
        elif command == "probabilities":
            theta1 = float(inp["argv"][inp["argv"].index("--theta1") + 1])
            return probability_table_error(payload["columns"], payload["rows"], theta1, 21)
        elif command == "circuit-verify":
            for name, report in payload["prep"].items():
                if not report["fidelity"] >= 1.0 - 1e-10:
                    return f"{name} preparation fidelity {report['fidelity']!r}"
            if payload["bell_analyzer"]["all_disjoint"] is not True:
                return "Bell analyzer outcomes overlap"
        elif command == "estimate":
            for pipeline, report in payload.items():
                if report["degenerate_trials"] != 0:
                    return f"{pipeline}: {report['degenerate_trials']} degenerate trials"
                error = sigma_ratio_error(report["sigma_empirical"], j, self.N, self.TRIALS)
                if error:
                    return f"{pipeline}: {error}"
        elif command == "decompose":
            if not payload["singlet_weight"] <= 1e-10:
                return f"singlet weight {payload['singlet_weight']!r}"
            checks = payload["table_verification"]["checks"]
            mismatched = {c["label"] for c in checks if not c["ok"]}
            if mismatched != EXPECTED_TABLE_MISMATCHES:
                return f"table mismatches {sorted(mismatched)}"
        return None


def make(name: str, seed: int, tmp: Path, root: Path):
    if name == "mc_study":
        return McStudy(seed, tmp)
    if name == "sweep":
        return Sweep(seed, tmp)
    if name == "cli_cold":
        return CliCold(seed, tmp, root)
    raise ValueError(f"unknown workload {name!r}")
