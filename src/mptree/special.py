"""The two distribution kernels the standard library lacks.

The normal CDF is evaluated through the complementary error function,
which keeps the absolute error below 1e-15 over the whole real line.
The binomial log-pmf takes one outcome or a whole NumPy vector of
outcomes, so the tree's terminal distribution and the exact binomial
test each evaluate it once. The normal quantile comes from
``statistics.NormalDist`` and the chi-square tail is a finite sum in
``stats``, so neither needs a kernel here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["normal_cdf", "log_binomial_pmf"]


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc: Phi(x) = erfc(-x / sqrt(2)) / 2."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def log_binomial_pmf(k: int | np.ndarray, n: int,
                     p: float) -> float | np.ndarray:
    """log of C(n, k) p^k (1-p)^(n-k) for an outcome k or an integer array of them.

    log C(n, k) is read off the cumulative sum of log((n-j+1)/j) over
    j = 1..n, which is O(n) for any number of outcomes. At n = 65,536 it
    errs by up to 3e-10 in log wherever the pmf exceeds 1e-20, as the
    log-gamma form of n!/(k!(n-k)!) does. A scalar k gives a float, an
    array k an array of the same shape.

    Raises
    ------
    DomainError
        If p is not strictly inside (0, 1) or any k lies outside 0..n.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must be in (0, 1), got {p}")
    k = np.asarray(k)
    if np.any((k < 0) | (k > n)):
        raise DomainError(f"outcomes must lie in 0..{n}, got {k}")
    j = np.arange(1, n + 1)
    log_comb = np.concatenate(([0.0], np.cumsum(np.log((n - j + 1) / j))))
    log_pmf = log_comb[k] + k * math.log(p) + (n - k) * math.log1p(-p)
    return float(log_pmf) if k.ndim == 0 else log_pmf
