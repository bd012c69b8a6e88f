"""The normal CDF and the binomial log-pmf against independent references."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats as sstats

from mptree.errors import DomainError
from mptree.special import log_binomial_pmf, normal_cdf


@pytest.mark.parametrize("x", [-8.0, -3.0, -1.0, -0.15, 0.0, 0.5, 1.0, 2.5, 6.0])
def test_normal_cdf_matches_scipy(x):
    assert normal_cdf(x) == pytest.approx(sstats.norm.cdf(x), abs=1e-14)


def test_normal_cdf_frozen_value():
    # Phi(-0.15), the lognormal example point
    assert normal_cdf(-0.15) == pytest.approx(0.4403823076297575, abs=1e-14)


def test_normal_cdf_limits():
    assert normal_cdf(-40.0) == 0.0
    assert normal_cdf(40.0) == 1.0



# proportion_ci takes its z from the standard library's quantile; normal_cdf
# must invert it to relative accuracy deep into both tails.
@pytest.mark.parametrize("q", [1e-9, 1e-4, 0.025, 0.31, 0.5, 0.69, 0.975, 1 - 1e-6])
def test_normal_cdf_inverts_the_stdlib_quantile(q):
    assert normal_cdf(NormalDist().inv_cdf(q)) == pytest.approx(q, rel=1e-12, abs=1e-14)

def test_log_binomial_pmf_exact_small_n():
    for n, k, p in [(10, 3, 0.4), (25, 0, 0.5), (25, 25, 0.9), (7, 4, 0.12)]:
        exact = math.comb(n, k) * p ** k * (1 - p) ** (n - k)
        assert math.exp(log_binomial_pmf(k, n, p)) == pytest.approx(exact, rel=1e-12)


def test_log_binomial_pmf_survives_large_n():
    val = log_binomial_pmf(2048, 4096, 0.5)
    assert math.isfinite(val)
    assert math.exp(val) == pytest.approx(sstats.binom.pmf(2048, 4096, 0.5), rel=1e-10)


def test_log_binomial_pmf_rejects_degenerate_p():
    with pytest.raises(DomainError):
        log_binomial_pmf(1, 2, 0.0)


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 4096, 65_536])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_log_binomial_pmf_vector_matches_scipy(n, p):
    k = np.arange(n + 1)
    expected = sstats.binom.logpmf(k, n, p)
    kept = expected > math.log(1e-20)
    assert np.abs(log_binomial_pmf(k, n, p)[kept] - expected[kept]).max() <= 1e-9


def test_log_binomial_pmf_scalar_is_the_array_entry():
    n, p = 1000, 0.3
    vector = log_binomial_pmf(np.arange(n + 1), n, p)
    for k in (0, 1, 299, 300, 999, 1000):
        value = log_binomial_pmf(k, n, p)
        assert type(value) is float
        assert value == vector[k]


@pytest.mark.parametrize("k", [-1, 11, np.array([0, -1]), np.array([3, 11])])
def test_log_binomial_pmf_rejects_outcomes_outside_0_to_n(k):
    with pytest.raises(DomainError):
        log_binomial_pmf(k, 10, 0.5)
