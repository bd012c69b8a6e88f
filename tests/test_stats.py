"""Up-probability inference against SciPy's reference implementations."""

import random

import pytest
from scipy.stats import binomtest

from mptree.stats import UpDownCounts, exact_binomial_test, proportion_ci


@pytest.mark.parametrize("n_min,n_max", [(1, 1000), (1001, 2500)])
def test_exact_binomial_test_matches_scipy(n_min, n_max):
    rng = random.Random(n_max)
    for _ in range(60):
        n = rng.randint(n_min, n_max)
        # Mostly near the mean, where the two-sided sum has most terms,
        # plus the tails.
        k = min(n, max(0, round(rng.gauss(n / 2, n ** 0.5 * 2))))
        p0 = rng.choice([0.5, rng.uniform(0.3, 0.7), rng.uniform(0.01, 0.99)])
        expected = binomtest(k, n, p0).pvalue
        assert exact_binomial_test(UpDownCounts(k, n), p0) == pytest.approx(
            expected, rel=0.0, abs=1e-10), (k, n, p0)


@pytest.mark.parametrize("level", [0.8, 0.95, 0.99])
def test_proportion_ci_matches_scipy_wilson(level):
    rng = random.Random(int(level * 100))
    cases = [(k, n) for n in (1, 2, 7, 30, 299) for k in (0, 1, n - 1, n) if 0 <= k <= n]
    cases += [(rng.randint(0, n), n) for n in (rng.randint(1, 3000) for _ in range(100))]
    for k, n in cases:
        ci = binomtest(k, n).proportion_ci(level, method="wilson")
        lo, hi = proportion_ci(UpDownCounts(k, n), level)
        assert lo == pytest.approx(ci.low, rel=0.0, abs=1e-12), (k, n)
        assert hi == pytest.approx(ci.high, rel=0.0, abs=1e-12), (k, n)


def test_proportion_ci_contains_an_extreme_estimate():
    for n in range(1, 300):
        lo, hi = proportion_ci(UpDownCounts(0, n))
        assert lo == 0.0 < hi, n
        lo, hi = proportion_ci(UpDownCounts(n, n))
        assert lo < 1.0 == hi, n
