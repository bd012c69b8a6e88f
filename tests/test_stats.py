"""Up-probability inference against SciPy's reference implementations."""

import datetime as _dt
import math
import random

import pytest
from scipy.special import gammaincc
from scipy.stats import binomtest
from scipy.stats import chi2, chi2_contingency

from mptree import chi2_sf
from mptree.errors import DomainError
from mptree.market_io import ReturnSeries
from mptree.stats import UpDownCounts, exact_binomial_test, proportion_ci
from mptree.stats import grouped_estimates, up_proportion
from mptree.stats import homogeneity_test


@pytest.mark.parametrize("n_min,n_max", [(1, 1000), (1001, 2500), (7560, 7560)])
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
            expected, rel=0.0, abs=1e-14), (k, n, p0)
    assert type(exact_binomial_test(UpDownCounts(k, n), p0)) is float


def test_exact_binomial_test_at_a_thirty_year_count():
    # About 30 years of daily returns: large enough for weight rounding
    # that grows with n to show at 1e-14.
    expected = binomtest(3778, 7533, 0.5).pvalue
    assert exact_binomial_test(UpDownCounts(3778, 7533), 0.5) == pytest.approx(
        expected, rel=0.0, abs=1e-14)


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


# 0.99999999999999994 lies below 1, but 0.5 + level/2 rounds to 1.0.
@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, math.nan, 0.99999999999999994])
def test_proportion_ci_rejects_a_level_without_a_finite_quantile(level):
    with pytest.raises(DomainError, match="confidence level"):
        proportion_ci(UpDownCounts(3, 10), level)


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
    # Both parities up to df = 3,000, from a vanishing x through the body
    # of the distribution to x = 1e4.
    cases += [(x, df) for df in (1, 2, 5, 6, 999, 1000, 2999, 3000)
              for x in (1e-300, 0.5 * df, df - 1.0, df, 1.5 * df, 2.0 * df, 1e4)]
    for _ in range(200):
        df = rng.randint(1, 3000)
        cases += [(df * rng.uniform(0.5, 2.0), df), (rng.uniform(0.0, 1e4), df)]
    for x, df in cases:
        assert chi2_sf(x, df) == pytest.approx(chi2.sf(x, df), rel=0.0, abs=1e-10), (x, df)



# Q(s, x) = chi2_sf(2x, 2s): the regularized upper incomplete gamma at
# integer and half-integer s, over the body and both tails.
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 5.0, 17.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 10.0, 40.0])
def test_chi2_sf_is_the_regularized_gamma_tail(s, x):
    assert chi2_sf(2.0 * x, int(2.0 * s)) == pytest.approx(gammaincc(s, x), rel=0.0, abs=1e-12)

def test_chi2_sf_limits():
    for df in (1, 2, 7, 3000):
        assert chi2_sf(math.inf, df) == 0.0
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(-3.0, df) == 1.0


@pytest.mark.parametrize("x,df", [(math.nan, 1), (math.nan, 4), (1.0, 0), (1.0, 2.5)])
def test_chi2_sf_rejects_a_nan_statistic_and_a_bad_df(x, df):
    with pytest.raises(DomainError):
        chi2_sf(x, df)


@pytest.mark.parametrize("call, message", [
    (lambda: UpDownCounts(0, 0), "total must be >= 1"),
    (lambda: UpDownCounts(3, 2), "ups must be between 0 and total"),
    (lambda: UpDownCounts(-1, 2), "ups must be between 0 and total"),
    (lambda: up_proportion([]), "return sequence must be non-empty"),
    (lambda: exact_binomial_test(UpDownCounts(1, 2), 0.0), "null probability"),
    (lambda: exact_binomial_test(UpDownCounts(1, 2), 1.0), "null probability"),
    (lambda: homogeneity_test([UpDownCounts(1, 2)]), "at least two groups"),
    (lambda: homogeneity_test([UpDownCounts(2, 2), UpDownCounts(1, 1)]),
     "pooled proportion is degenerate"),
    (lambda: homogeneity_test([UpDownCounts(0, 2), UpDownCounts(0, 1)]),
     "pooled proportion is degenerate"),
    (lambda: grouped_estimates([]), "dated return sequence must be non-empty"),
], ids=["no-total", "ups-above-total", "negative-ups", "no-returns", "p0-zero",
        "p0-one", "one-group", "all-up", "all-down", "no-dated-returns"])
def test_stats_reject_degenerate_inputs(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_grouped_estimates_counts_each_year_of_unsorted_dates():
    d = _dt.date
    dated = [(d(2021, 3, 1), 0.01), (d(2019, 5, 2), -0.02), (d(2020, 1, 2), 0.0),
             (d(2021, 1, 4), -0.0), (d(2019, 1, 3), 0.03), (d(2021, 6, 6), 0.04),
             (d(2020, 7, 5), -0.01), (d(2019, 12, 31), 0.0), (d(2021, 2, 2), 0.02)]
    # By hand: 2019 has 1 up of 3, 2020 none of 2, 2021 3 of 4.
    hand = [(2019, 1, 3), (2020, 0, 2), (2021, 3, 4)]
    estimates = grouped_estimates(dated, level=0.9)
    assert [(e.year, e.counts.ups, e.counts.total) for e in estimates] == hand
    for e, (_, ups, total) in zip(estimates, hand):
        assert type(e.year) is int and type(e.counts.ups) is int
        assert e.p_hat == ups / total
        assert (e.ci_low, e.ci_high) == proportion_ci(UpDownCounts(ups, total), 0.9)


def test_price_returns_are_the_scalar_quotient_bit_for_bit():
    rng = random.Random(3)
    dates = [_dt.date(2001, 1, 1) + _dt.timedelta(days=i) for i in range(400)]
    prices = [rng.choice([rng.uniform(1e-3, 1e4), 100.0, 0.1 + 0.2]) for _ in dates]
    got = ReturnSeries(tuple(zip(dates, prices)), "price").returns()
    expected = [(d, (p_cur / p_prev - 1.0).hex())
                for d, p_prev, p_cur in zip(dates[1:], prices, prices[1:])]
    assert [(d, r.hex()) for d, r in got] == expected


def test_a_one_row_price_series_has_no_returns():
    assert ReturnSeries(((_dt.date(2020, 1, 2), 100.0),), "price").returns() == ()
