"""Inference for the daily up-move probability from return data.

The up indicator counts strictly positive returns. Interval estimation
uses the Wilson score interval (at the sample sizes of interest it agrees
with the plain normal approximation to four decimals but stays sane for
small counts); testing p = p0 uses the exact two-sided binomial test with
the minimum-likelihood convention, and equality of proportions across
groups uses the Pearson chi-square statistic with its tail probability
summed in closed form. The interval's normal quantile is the standard
library's ``statistics.NormalDist``.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import DomainError
from .special import binomial_weights

__all__ = [
    "UpDownCounts",
    "up_proportion",
    "proportion_ci",
    "exact_binomial_test",
    "HomogeneityResult",
    "homogeneity_test",
    "chi2_sf",
    "YearEstimate",
    "grouped_estimates",
]


@dataclass(frozen=True)
class UpDownCounts:
    """Count of up days out of a total."""

    ups: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise DomainError(f"total must be >= 1, got {self.total}")
        if not 0 <= self.ups <= self.total:
            raise DomainError(
                f"ups must be between 0 and total, got {self.ups}/{self.total}")

    @property
    def proportion(self) -> float:
        return self.ups / self.total


def up_proportion(returns: Sequence[float]) -> UpDownCounts:
    """Counts of strictly positive returns; zeros count as not-up."""
    if len(returns) == 0:
        raise DomainError("return sequence must be non-empty")
    ups = sum(1 for r in returns if r > 0.0)
    return UpDownCounts(ups=ups, total=len(returns))


def proportion_ci(counts: UpDownCounts, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for the up proportion at the given level."""
    q = 0.5 + level / 2.0
    # A level within an ulp of 1 rounds q to exactly 1, whose quantile is
    # infinite.
    if not (0.0 < level < 1.0 and q < 1.0):
        raise DomainError(
            f"confidence level must be in (0, 1) with 0.5 + level/2 < 1, got {level!r}")
    z = NormalDist().inv_cdf(q)
    n = counts.total
    p_hat = counts.proportion
    z2_n = z * z / n
    center = (p_hat + z2_n / 2.0) / (1.0 + z2_n)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / (1.0 + z2_n)
    # At p_hat = 0 or 1 the bound is center -/+ half = p_hat exactly, which
    # rounding would move off p_hat.
    lo = 0.0 if counts.ups == 0 else max(0.0, center - half)
    hi = 1.0 if counts.ups == n else min(1.0, center + half)
    return (lo, hi)


# Relative slack when comparing pmf values, matching the convention of the
# widely used implementations of the minimum-likelihood two-sided test.
_PMF_REL_SLACK = 1.0 + 1e-7


def exact_binomial_test(counts: UpDownCounts, p0: float) -> float:
    """Two-sided exact binomial p-value for H0: p = p0.

    Sums the probabilities of all outcomes no more likely than the
    observed count (minimum-likelihood convention), clipped to [0, 1].
    The n+1 probabilities come from one
    :func:`~mptree.special.binomial_weights` call and are compared in
    probability space, as SciPy's ``binomtest`` does. Outcomes outside
    the window Hoeffding's (1963) bound leaves nonzero weigh exactly 0,
    under e^-750 each. Against ``binomtest`` the p-value agrees to 1e-14
    for n up to 7,560.
    """
    if not 0.0 < p0 < 1.0:
        raise DomainError(f"null probability must be in (0, 1), got {p0}")
    pmf = binomial_weights(counts.total, p0)
    p_value = float(pmf[pmf <= pmf[counts.ups] * _PMF_REL_SLACK].sum())
    return min(1.0, max(0.0, p_value))


def chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail P(X >= x) with an integer df degrees of freedom.

    The tail is Q(df/2, x/2), which for integer df is a finite sum
    (Abramowitz & Stegun 26.4.4-26.4.5): with h = x/2, it is erfc(sqrt(h))
    when df is odd, plus h^j e^(-h) / Gamma(j + 1) over j = (df mod 2)/2 + i
    for i = 0 .. df//2 - 1. Each term is taken in log space, so e^(-h)
    does not underflow ahead of the sum. x <= 0 gives 1 and x = inf gives 0.
    """
    if not (df >= 1 and df % 1 == 0):
        raise DomainError(f"degrees of freedom must be an integer >= 1, got {df}")
    if math.isnan(x):
        raise DomainError("chi-square statistic must not be NaN")
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2.0
    terms, odd = divmod(int(df), 2)
    log_h = math.log(h)
    js = (i + odd / 2.0 for i in range(terms))
    tail = math.fsum(math.exp(j * log_h - h - math.lgamma(j + 1.0)) for j in js)
    return tail + math.erfc(math.sqrt(h)) if odd else tail


@dataclass(frozen=True)
class HomogeneityResult:
    statistic: float
    df: int
    p_value: float


def homogeneity_test(groups: Sequence[UpDownCounts]) -> HomogeneityResult:
    """Pearson chi-square test of equal proportions across groups.

    The k x 2 contingency table of (ups, downs) is compared against the
    pooled proportion; df = k - 1.
    """
    if len(groups) < 2:
        raise DomainError("homogeneity test needs at least two groups")
    total = sum(g.total for g in groups)
    ups = sum(g.ups for g in groups)
    pooled = ups / total
    if pooled == 0.0 or pooled == 1.0:
        raise DomainError(
            "pooled proportion is degenerate (0 or 1); expected counts vanish")
    statistic = 0.0
    for g in groups:
        expected_up = g.total * pooled
        expected_down = g.total * (1.0 - pooled)
        statistic += (g.ups - expected_up) ** 2 / expected_up
        statistic += ((g.total - g.ups) - expected_down) ** 2 / expected_down
    df = len(groups) - 1
    return HomogeneityResult(statistic=statistic, df=df,
                             p_value=chi2_sf(statistic, df))


@dataclass(frozen=True)
class YearEstimate:
    """Per-year counts, point estimate, and Wilson interval."""

    year: int
    counts: UpDownCounts
    p_hat: float
    ci_low: float
    ci_high: float


def grouped_estimates(dated_returns: Sequence[tuple[_dt.date, float]],
                      level: float = 0.95) -> list[YearEstimate]:
    """Estimate the up proportion per calendar year, ordered by year."""
    if len(dated_returns) == 0:
        raise DomainError("dated return sequence must be non-empty")
    n = len(dated_returns)
    years, year_of = np.unique(
        np.fromiter(map(attrgetter("year"), map(itemgetter(0), dated_returns)), int, n),
        return_inverse=True)
    is_up = np.fromiter(map(itemgetter(1), dated_returns), float, n) > 0.0
    totals = np.bincount(year_of)
    ups = np.bincount(year_of[is_up], minlength=len(years))
    estimates = []
    for year, year_ups, total in zip(years.tolist(), ups.tolist(), totals.tolist()):
        counts = UpDownCounts(ups=year_ups, total=total)
        lo, hi = proportion_ci(counts, level)
        estimates.append(YearEstimate(year=year, counts=counts,
                                      p_hat=counts.proportion,
                                      ci_low=lo, ci_high=hi))
    return estimates
