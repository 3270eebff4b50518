#!/usr/bin/env python3
"""Sweep theta1 on a log grid, write the probabilities report's table (CSV),
and print the fitted convergence exponents of its gap columns.

A fit reads only the gaps above 1e-14; a column with fewer than two of them
is at the rounding level and is reported by its largest value instead."""

import argparse
import csv
import sys

import numpy as np

from rotosense.bell_analysis import probabilities_report
from rotosense.spin_core import RotationParams
from rotosense.states import REGISTRY, get_state

FITS = {"gap_small": "small-angle gap", "gap_bell": "Bell-aggregation gap"}
# A gap at or below this is rounding noise: over 20x the largest noise seen
# (4.4e-16, the Bell gap of balance about z) and 11x below the smallest true
# gap seen (1.13e-13, the Bell gap of tetra2 about the default axis at theta1 = 1e-3).
FIT_FLOOR = 1e-14


def grid_points(text: str) -> int:
    points = int(text)
    if points < 2:
        raise argparse.ArgumentTypeError(f"a fit needs at least 2 points, got {points}")
    return points


def exponent(name: str, grid: np.ndarray, gap: np.ndarray) -> str:
    """name and the log-log slope of gap over grid, fitted above FIT_FLOOR."""
    above = gap > FIT_FLOOR
    if above.sum() < 2:
        return f"{name} at rounding level (max {gap.max():.2g})"
    return f"{name} {np.polyfit(np.log(grid[above]), np.log(gap[above]), 1)[0]:.2f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state", choices=sorted(REGISTRY), default="tetra2")
    parser.add_argument("--theta2", type=float, default=1.0)
    parser.add_argument("--theta3", type=float, default=0.5)
    parser.add_argument("--points", type=grid_points, default=20)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    params = RotationParams(0.0, args.theta2, args.theta3)
    grid = np.geomspace(1e-3, 5e-2, args.points)
    _, header, table, warnings = probabilities_report(get_state(args.state), grid, params)
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)

    out = open(args.out, "w") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{x:.12g}" for x in row] for row in table.tolist())
    if args.out:
        out.close()

    slopes = [
        exponent(name, grid, table[:, header.index(column)])
        for column, name in FITS.items()
        if column in header
    ]
    print(f"# convergence exponents: {', '.join(slopes)}", file=sys.stderr)


if __name__ == "__main__":
    main()
