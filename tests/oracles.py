"""Reference implementations that only tests compare against."""

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
