#!/usr/bin/env python3
"""Sweep theta1 on a log grid, write the probabilities report's table (CSV),
and print the fitted convergence exponents of its gap columns."""

import argparse
import csv
import sys

import numpy as np

from rotosense.bell_analysis import probabilities_report
from rotosense.spin_core import RotationParams
from rotosense.states import REGISTRY, get_state

FITS = {"gap_small": "small-angle gap", "gap_bell": "Bell-aggregation gap"}


def grid_points(text: str) -> int:
    points = int(text)
    if points < 2:
        raise argparse.ArgumentTypeError(f"a fit needs at least 2 points, got {points}")
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state", choices=sorted(REGISTRY), default="tetra2")
    parser.add_argument("--theta2", type=float, default=1.0)
    parser.add_argument("--theta3", type=float, default=0.5)
    parser.add_argument("--points", type=grid_points, default=20)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    u = RotationParams(0.0, args.theta2, args.theta3).axis
    grid = np.geomspace(1e-3, 5e-2, args.points)
    _, header, table, warnings = probabilities_report(get_state(args.state), grid, u)
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)

    out = open(args.out, "w") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{x:.12g}" for x in row] for row in table.tolist())
    if args.out:
        out.close()

    slopes = [
        f"{name} {np.polyfit(np.log(grid), np.log(table[:, header.index(column)]), 1)[0]:.2f}"
        for column, name in FITS.items()
        if column in header
    ]
    print(f"# convergence exponents: {', '.join(slopes)}", file=sys.stderr)


if __name__ == "__main__":
    main()
