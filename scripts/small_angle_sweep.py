#!/usr/bin/env python3
"""Sweep theta1 and write exact, small-angle, and Bell-aggregated outcome
probabilities side by side (CSV), plus the fitted convergence exponents."""

import argparse
import csv
import sys

import numpy as np

from rotosense.bell_analysis import bell_measurement
from rotosense.measurement import (
    optimal_basis,
    small_angle_probabilities,
    sweep_probabilities,
)
from rotosense.spin_core import RotationParams
from rotosense.states import get_state


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state", default="tetra2")
    parser.add_argument("--theta2", type=float, default=1.0)
    parser.add_argument("--theta3", type=float, default=0.5)
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    state = get_state(args.state)
    u = RotationParams(0.0, args.theta2, args.theta3).axis
    grid = np.geomspace(1e-3, 5e-2, args.points)
    exact = sweep_probabilities(state, optimal_basis(state), grid, u)
    bell = sweep_probabilities(state, bell_measurement(int(round(2 * state.J))), grid, u)
    small = small_angle_probabilities(state.J, grid, u)
    gaps_small = np.abs(exact[:, :4] - small[:, :4]).max(axis=1)
    gaps_bell = np.abs(bell[:, :4] - exact[:, :4]).max(axis=1)
    table = np.column_stack(
        [grid, np.broadcast_to(u, (grid.size, 3)), exact, gaps_small, gaps_bell]
    )

    out = open(args.out, "w") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["theta1", "u1", "u2", "u3", "P0", "P1", "P2", "P3", "Prest",
         "gap_small", "gap_bell"]
    )
    writer.writerows([f"{x:.12g}" for x in row] for row in table.tolist())
    if args.out:
        out.close()

    slope_s = np.polyfit(np.log(grid), np.log(gaps_small), 1)[0]
    slope_b = np.polyfit(np.log(grid), np.log(gaps_bell), 1)[0]
    print(
        f"# convergence exponents: small-angle gap {slope_s:.2f}, "
        f"Bell-aggregation gap {slope_b:.2f}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
