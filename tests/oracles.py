"""Reference implementations and data that only tests compare against."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MultinomialStats:
    """Moments of multinomial category counts for n trials at probabilities p."""

    p: np.ndarray
    n: int

    def variances(self) -> np.ndarray:
        return self.n * self.p * (1.0 - self.p)

    def covariance(self) -> np.ndarray:
        cov = -self.n * np.outer(self.p, self.p)
        np.fill_diagonal(cov, self.variances())
        return cov

    def subset_sum_variance(self, indices) -> float:
        q = float(np.sum(self.p[list(indices)]))
        return self.n * q * (1.0 - q)


def multinomial_stats(p, n: int) -> MultinomialStats:
    """Analytic variance/covariance of the outcome counts at probabilities p."""
    return MultinomialStats(p=np.array(p, dtype=float), n=int(n))


# the circuit file of tetra_prep_circuit(), written out by hand
TETRA_PREP_JSON = {
    "n_qubits": 4,
    "gates": [
        {"kind": "H", "targets": [0]},
        {"kind": "U1", "targets": [2]},
        {"kind": "X", "targets": [1], "controls": [0]},
        {"kind": "U2", "targets": [3], "controls": [2]},
        {"kind": "Z", "targets": [1], "controls": [2, 3]},
        {"kind": "X", "targets": [2]},
        {"kind": "X", "targets": [3]},
        {"kind": "X", "targets": [1], "controls": [2, 3]},
        {"kind": "X", "targets": [3]},
        {"kind": "H", "targets": [3]},
        {"kind": "X", "targets": [2], "controls": [3]},
    ],
}

# the circuit file of balanced_n6_prep_circuit(), written out by hand
N6_PREP_JSON = {
    "n_qubits": 6,
    "gates": [
        {"kind": "H", "targets": [0]},
        {"kind": "H", "targets": [2]},
        {"kind": "U", "targets": [4]},
        {"kind": "X", "targets": [1], "controls": [0]},
        {"kind": "X", "targets": [3], "controls": [2]},
        {"kind": "H", "targets": [5], "controls": [4]},
        {"kind": "X", "targets": [1], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [3], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [2], "controls": [4], "open_controls": [5]},
        {"kind": "H", "targets": [3], "controls": [4], "open_controls": [5]},
        {"kind": "X", "targets": [2], "controls": [3, 4], "open_controls": [5]},
        {"kind": "X", "targets": [4]},
        {"kind": "Z", "targets": [1], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [3], "controls": [2, 4], "open_controls": [5]},
        {"kind": "H", "targets": [2], "controls": [4], "open_controls": [5]},
        {"kind": "X", "targets": [3], "controls": [2, 4], "open_controls": [5]},
        {"kind": "X", "targets": [4]},
        {"kind": "X", "targets": [1], "controls": [2, 4, 5]},
        {"kind": "X", "targets": [2], "controls": [4, 5]},
        {"kind": "Z", "targets": [1], "controls": [2, 4, 5]},
        {"kind": "H", "targets": [3], "controls": [4, 5]},
        {"kind": "X", "targets": [2], "controls": [3, 4, 5]},
        {"kind": "X", "targets": [4]},
        {"kind": "H", "targets": [5]},
        {"kind": "X", "targets": [4], "controls": [5]},
    ],
}
