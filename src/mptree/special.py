"""The two distribution kernels the standard library lacks.

The normal CDF is evaluated through the complementary error function,
which keeps the absolute error below 1e-15 over the whole real line.
The binomial weights are all n+1 probabilities of Binomial(n, p) in one
NumPy vector, so the tree's terminal distribution and the exact binomial
test each compute them once. They are summed out from the mode, as in
Loader (2000, "Fast and Accurate Computation of Binomial
Probabilities"), and only over the window outside which Hoeffding's
(1963) bound puts every probability below the smallest double. The
normal quantile comes from ``statistics.NormalDist`` and the chi-square
tail is a finite sum in ``stats``, so neither needs a kernel here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["normal_cdf", "binomial_weights"]


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc: Phi(x) = erfc(-x / sqrt(2)) / 2."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def binomial_weights(n: int, p: float) -> np.ndarray:
    """The n+1 probabilities C(n, k) p^k (1-p)^(n-k), k = 0..n, summing to 1.

    At p = 0 or p = 1 the result is the point mass on k = 0 or k = n.
    Otherwise the log-ratios of neighbouring probabilities,
    log((n-k)/(k+1)) + log(p/(1-p)), are summed cumulatively out from the
    mode m = min(floor((n+1)p), n), where the log-weight is 0, up to
    m + h and down to m - h, with h = ceil(sqrt(750 n/2)) + 1; their
    exponentials are then divided by their sum. Hoeffding's (1963) bound
    P(X = k) <= exp(-2(k - np)^2/n) puts every probability outside that
    window below e^-750, under the smallest double, so those weights are
    exactly 0. The partial sums stay small wherever the probability is
    not negligible, so for n up to 65,536 the relative error against the
    exact pmf is below 1e-12 wherever the pmf exceeds 1e-12.

    Raises
    ------
    DomainError
        If n is negative or p is not in [0, 1].
    """
    if n < 0:
        raise DomainError(f"trial count must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {p}")
    weights = np.zeros(n + 1)
    if p == 0.0 or p == 1.0:
        weights[n if p == 1.0 else 0] = 1.0
        return weights
    mode = min(math.floor((n + 1) * p), n)
    half = math.ceil(math.sqrt(750.0 * n / 2.0)) + 1
    lo, hi = max(mode - half, 0), min(mode + half, n)
    # step[j] = log(P(k + 1) / P(k)) at k = lo + j.
    k = np.arange(lo, hi)
    step = np.log((n - k) / (k + 1.0)) + math.log(p / (1.0 - p))
    below = -np.cumsum(step[:mode - lo][::-1])[::-1]
    above = np.cumsum(step[mode - lo:])
    weights[lo:hi + 1] = np.exp(np.concatenate((below, [0.0], above)))
    weights /= weights.sum()
    return weights
