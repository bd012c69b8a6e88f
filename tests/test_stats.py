"""Up-probability inference against SciPy's reference implementations."""

import random

import pytest
from scipy.stats import binomtest
from scipy.stats import chi2, chi2_contingency

from mptree.stats import UpDownCounts, exact_binomial_test, proportion_ci
from mptree.stats import chi2_sf, homogeneity_test


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


def test_homogeneity_test_matches_scipy_contingency():
    rng = random.Random(17)
    for _ in range(200):
        totals = [rng.randint(1, 400) for _ in range(rng.randint(2, 12))]
        groups = [UpDownCounts(rng.randint(0, n), n) for n in totals]
        ups = sum(g.ups for g in groups)
        if ups in (0, sum(totals)):
            continue
        table = [[g.ups, g.total - g.ups] for g in groups]
        statistic, p_value, df, _ = chi2_contingency(table, correction=False)
        result = homogeneity_test(groups)
        assert result.df == df
        assert result.statistic == pytest.approx(statistic, rel=1e-12, abs=1e-10), table
        assert result.p_value == pytest.approx(p_value, rel=0.0, abs=1e-10), table


def test_chi2_sf_matches_scipy():
    rng = random.Random(29)
    cases = [(x, df) for df in (1, 2, 3, 10, 60) for x in (0.0, 1e-8, 0.5, df, 4.0 * df)]
    cases += [(rng.uniform(0.0, 120.0), rng.randint(1, 80)) for _ in range(300)]
    for x, df in cases:
        assert chi2_sf(x, df) == pytest.approx(chi2.sf(x, df), rel=0.0, abs=1e-10), (x, df)
