"""The normal CDF and the binomial weights against independent references."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from mptree.errors import DomainError
from mptree.special import binomial_weights, normal_cdf


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


def test_binomial_weights_exact_small_n():
    for n, k, p in [(10, 3, 0.4), (25, 0, 0.5), (25, 25, 0.9), (7, 4, 0.12)]:
        exact = math.comb(n, k) * p ** k * (1 - p) ** (n - k)
        assert binomial_weights(n, p)[k] == pytest.approx(exact, rel=1e-12)


def test_binomial_weights_survive_large_n():
    assert binomial_weights(4096, 0.5)[2048] == pytest.approx(
        sstats.binom.pmf(2048, 4096, 0.5), rel=1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
def test_binomial_weights_reject_p_outside_0_to_1(p):
    with pytest.raises(DomainError, match="probability must be in"):
        binomial_weights(2, p)


def test_binomial_weights_reject_a_negative_n():
    with pytest.raises(DomainError, match="trial count"):
        binomial_weights(-1, 0.5)


@pytest.mark.parametrize("n", [0, 1, 7, 65_536])
def test_binomial_weights_point_mass_at_p_zero_and_one(n):
    bottom, top = np.zeros(n + 1), np.zeros(n + 1)
    bottom[0] = top[n] = 1.0
    assert np.array_equal(binomial_weights(n, 0.0), bottom)
    assert np.array_equal(binomial_weights(n, 1.0), top)


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 4096, 65_536])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_binomial_weights_match_scipy(n, p):
    expected = sstats.binom.pmf(np.arange(n + 1), n, p)
    weights = binomial_weights(n, p)
    for floor, rel in ((1e-20, 1e-9), (1e-12, 1e-12)):
        kept = expected > floor
        assert np.abs(weights[kept] / expected[kept] - 1.0).max() <= rel


# The extreme probabilities put the mode at an end of 0..n.
_EXTREME_P = st.sampled_from([1e-6, 1.0 - 1e-6])
_INTERIOR_P = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@settings(deadline=None)
@given(n=st.integers(min_value=0, max_value=65_536), p=_EXTREME_P | _INTERIOR_P)
def test_binomial_weights_property_against_scipy(n, p):
    expected = sstats.binom.pmf(np.arange(n + 1), n, p)
    weights = binomial_weights(n, p)
    kept = expected > 1e-12
    assert np.abs(weights[kept] / expected[kept] - 1.0).max() <= 1e-12
    assert np.all(expected[weights == 0.0] < 1e-300)
    assert abs(weights.sum() - 1.0) <= 1e-15
