"""Smoke tests: the experiment scripts run end to end and print what the README says."""

import re
from pathlib import Path

import pytest
from oracles import fresh_python

SWEEP = str(Path(__file__).resolve().parents[1] / "scripts" / "small_angle_sweep.py")


@pytest.mark.parametrize("state", ["tetra2", "balance"])
def test_small_angle_sweep_exponents(state, tmp_path):
    out = tmp_path / "sweep.csv"
    result = fresh_python(SWEEP, "--state", state, "--out", str(out), text=True)
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
    result = fresh_python(
        SWEEP, "--state", "balance", "--theta2", "0", "--points", points, text=True
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
    result = fresh_python(SWEEP, "--state", "balance", "--theta2", "0.001", text=True)
    assert result.returncode == 0, result.stderr
    match = re.search(r"Bell-aggregation gap (\S+)$", result.stderr)
    assert match, result.stderr
    assert abs(float(match.group(1)) - 4.0) <= 0.1


@pytest.mark.parametrize("points", ["1", "0"])
def test_small_angle_sweep_refuses_too_few_points(points):
    result = fresh_python(SWEEP, "--points", points, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f"a fit needs at least 2 points, got {points}")


def test_small_angle_sweep_refuses_unknown_state():
    result = fresh_python(SWEEP, "--state", "nosuch", text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "argument --state: invalid choice: 'nosuch'" in errors[0]
    assert "Traceback" not in result.stderr


def test_small_angle_sweep_refuses_an_out_path_in_a_missing_directory(tmp_path):
    # argparse opens --out before the sweep, so the path is refused before any work
    out = tmp_path / "missing" / "sweep.csv"
    result = fresh_python(SWEEP, "--out", str(out), text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument --out: can't open '{out}'" in errors[0]
    assert "Traceback" not in result.stderr
    assert not out.parent.exists()


def test_small_angle_sweep_fits_the_small_angle_gap_where_bell_misfits(tmp_path):
    out = tmp_path / "sweep.csv"
    result = fresh_python(SWEEP, "--state", "tetra1", "--out", str(out), text=True)
    assert result.returncode == 0, result.stderr
    warning, fit = result.stderr.splitlines()
    assert warning.startswith("warning: the Bell analyzer does not fit this probe")
    match = re.fullmatch(r"# convergence exponents: small-angle gap (\S+)", fit)
    assert match, fit
    assert abs(float(match.group(1)) - 4.0) <= 0.1
    lines = out.read_text().splitlines()
    assert "gap_small" in lines[0] and "bell" not in lines[0]
    assert len(lines) == 21
