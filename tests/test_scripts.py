"""Smoke tests: the experiment scripts run end to end and print what the README says."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


@pytest.mark.parametrize("state", ["tetra2", "balance"])
def test_small_angle_sweep_exponents(state, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_script("small_angle_sweep.py", "--state", state, "--out", str(out))
    assert result.returncode == 0, result.stderr
    match = re.search(
        r"small-angle gap (\S+), Bell-aggregation gap (\S+)", result.stderr
    )
    assert match, result.stderr
    # the README quotes exponent 4 for both gaps
    for exponent in match.groups():
        assert abs(float(exponent) - 4.0) <= 0.1
    assert len(out.read_text().splitlines()) == 21  # header + 20 grid points


@pytest.mark.parametrize("points", ["20", "5"])
def test_small_angle_sweep_names_a_gap_at_rounding_level(points):
    # about z, balance's Bell gap is 0 up to rounding (<= 4.4e-16): no slope is fitted to it
    result = run_script(
        "small_angle_sweep.py", "--state", "balance", "--theta2", "0", "--points", points
    )
    assert result.returncode == 0, result.stderr
    fit = result.stderr.splitlines()[-1]
    match = re.fullmatch(
        r"# convergence exponents: small-angle gap (\S+), "
        r"Bell-aggregation gap at rounding level \(max (\S+)\)",
        fit,
    )
    assert match, fit
    assert abs(float(match.group(1)) - 4.0) <= 0.1
    assert float(match.group(2)) <= 1e-14


def test_small_angle_sweep_fits_only_gaps_above_the_floor():
    # near z, balance's smallest Bell gaps sit at the rounding floor; fitted
    # with them the slope read 3.62, fitted without them it reads 4
    result = run_script("small_angle_sweep.py", "--state", "balance", "--theta2", "0.001")
    assert result.returncode == 0, result.stderr
    match = re.search(r"Bell-aggregation gap (\S+)$", result.stderr)
    assert match, result.stderr
    assert abs(float(match.group(1)) - 4.0) <= 0.1


@pytest.mark.parametrize("points", ["1", "0"])
def test_small_angle_sweep_refuses_too_few_points(points):
    result = run_script("small_angle_sweep.py", "--points", points)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f"a fit needs at least 2 points, got {points}")


def test_small_angle_sweep_refuses_unknown_state():
    result = run_script("small_angle_sweep.py", "--state", "nosuch")
    assert result.returncode == 2
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "argument --state: invalid choice: 'nosuch'" in errors[0]
    assert "Traceback" not in result.stderr


def test_small_angle_sweep_fits_the_small_angle_gap_where_bell_misfits(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_script("small_angle_sweep.py", "--state", "tetra1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    warning, fit = result.stderr.splitlines()
    assert warning.startswith("warning: the Bell analyzer does not fit this probe")
    match = re.fullmatch(r"# convergence exponents: small-angle gap (\S+)", fit)
    assert match, fit
    assert abs(float(match.group(1)) - 4.0) <= 0.1
    lines = out.read_text().splitlines()
    assert "gap_small" in lines[0] and "bell" not in lines[0]
    assert len(lines) == 21
