"""Terminal distributions, Kolmogorov distance, and the 1/sqrt(n) law."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from mptree.convergence import (DiscreteCdf, kolmogorov_distance,
                                lognormal_cdf, rate_constant, rate_experiment,
                                terminal_distribution)
from mptree.errors import DomainError
from mptree.model import ModelParams, step_factors_exact
from mptree.pricing import risk_neutral_prob
from mptree.pricing import Lattice, Payoff, price_european
from mptree.special import normal_cdf


def mp(gamma=0.05, delta=0.05, g=0.5, v=0.0, sigma=0.2):
    return ModelParams(gamma=gamma, delta=delta, g=g, v=v, sigma=sigma)


def reference_lognormal_cdf(x, s0, b, sigma, t):
    """The lognormal CDF at one float x, with math.log and math.erfc."""
    ratio = x / s0
    if not ratio > 0.0:
        return 0.0
    z = (math.log(ratio) - (b - sigma * sigma / 2.0) * t) / (sigma * math.sqrt(t))
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def per_point(f):
    """An array-valued F that calls the scalar f once per point."""
    return lambda x: np.array([f(v) for v in x.tolist()], dtype=float)


# ---------------------------------------------------------------------------
# DiscreteCdf
# ---------------------------------------------------------------------------

def test_discrete_cdf_validation():
    DiscreteCdf(support=[1.0, 2.0], cum=[0.5, 1.0])
    with pytest.raises(DomainError, match="ascending"):
        DiscreteCdf(support=[2.0, 1.0], cum=[0.5, 1.0])
    with pytest.raises(DomainError, match="non-decreasing"):
        DiscreteCdf(support=[1.0, 2.0], cum=[0.9, 0.5])
    with pytest.raises(DomainError, match="end at 1"):
        DiscreteCdf(support=[1.0, 2.0], cum=[0.5, 0.9])
    with pytest.raises(DomainError):
        DiscreteCdf(support=[], cum=[])


@pytest.mark.parametrize("cum", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan]])
def test_discrete_cdf_rejects_a_nan_cumulative_weight(cum):
    # NaN fails both a difference test and the end-at-1 test, so such a CDF
    # used to pass and give kolmogorov_distance NaN.
    with pytest.raises(DomainError, match="non-NaN"):
        DiscreteCdf(support=[1.0, 2.0], cum=cum)


@pytest.mark.parametrize("support,cum", [([math.inf, math.inf], [0.5, 1.0]),
                                         ([1.0, 2.0], [-math.inf, -math.inf])],
                         ids=["support", "cum"])
def test_discrete_cdf_rejects_repeated_infinities_without_a_warning(support, cum):
    # inf - inf is NaN with a RuntimeWarning, an error in this suite.
    with pytest.raises(DomainError):
        DiscreteCdf(support=support, cum=cum)


def test_discrete_cdf_weights():
    cdf = DiscreteCdf(support=[1.0, 2.0, 3.0], cum=[0.2, 0.7, 1.0])
    assert np.allclose(cdf.weights, [0.2, 0.5, 0.3])


# ---------------------------------------------------------------------------
# terminal distribution
# ---------------------------------------------------------------------------

def test_terminal_one_step_two_atoms():
    params = mp()
    cdf = terminal_distribution(100.0, params, 1, 0.01)
    f = step_factors_exact(params, 0.01)
    assert np.allclose(cdf.support, [100.0 * f.d, 100.0 * f.u])
    assert np.allclose(cdf.weights, [0.5, 0.5])


def test_terminal_two_steps_matches_path_enumeration():
    # Brute force over the 4 paths of a 2-step tree, merging recombined
    # nodes, at p = 0.6.
    params = mp(g=0.6)
    dt = 0.01
    f = step_factors_exact(params, dt)
    paths = {}
    for first in (0, 1):
        for second in (0, 1):
            ups = first + second
            prob = (0.6 if first else 0.4) * (0.6 if second else 0.4)
            key = round(100.0 * f.u ** ups * f.d ** (2 - ups), 12)
            paths[key] = paths.get(key, 0.0) + prob
    support = sorted(paths)
    cdf = terminal_distribution(100.0, params, 2, dt)
    assert np.allclose(cdf.support, support, rtol=1e-12)
    assert np.allclose(cdf.weights, [paths[s] for s in support], rtol=1e-12)
    assert np.allclose(cdf.weights, [0.16, 0.48, 0.36], rtol=1e-12)


@pytest.mark.parametrize("n", [16, 512, 4096])
def test_terminal_weights_sum_to_one(n):
    params = mp(g=0.57, v=0.2, sigma=0.3)
    cdf = terminal_distribution(50.0, params, n, 1.0 / n)
    assert abs(float(cdf.cum[-1]) - 1.0) <= 1e-12
    assert np.all(cdf.weights >= 0.0)


def test_terminal_risk_neutral_measure():
    params = mp(gamma=0.08, delta=0.08, g=0.6)
    r, dt = 0.02, 0.01
    q = risk_neutral_prob(params, r, dt)
    cdf = terminal_distribution(100.0, params, 1, dt, r=r)
    assert np.allclose(cdf.weights, [1.0 - q, q], rtol=1e-12)


def test_terminal_without_rate_is_the_physical_law():
    # v != 0 puts p(dt) = g + v*sqrt(dt) away from both g and Q.
    params = mp(gamma=0.08, delta=0.02, g=0.55, v=0.3)
    dt, n = 0.01, 3
    p = step_factors_exact(params, dt).p
    assert p == pytest.approx(0.58)
    cdf = terminal_distribution(100.0, params, n, dt)
    assert np.allclose(cdf.weights, binom.pmf(np.arange(n + 1), n, p), rtol=1e-12)
    risk_neutral = terminal_distribution(100.0, params, n, dt, r=0.03)
    assert np.array_equal(risk_neutral.support, cdf.support)
    q = risk_neutral_prob(params, 0.03, dt)
    assert abs(q - p) > 1e-3
    assert np.allclose(risk_neutral.weights, binom.pmf(np.arange(n + 1), n, q), rtol=1e-12)


def test_terminal_rejects_a_nan_spot():
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        terminal_distribution(float("nan"), mp(), 2, 0.01)


@pytest.mark.parametrize("s0, message", [
    (math.inf, "spot must be finite, got inf"),
    (1e308, "top node s0*u^n overflows: ln(s0) = 709.19"),
], ids=["infinite-spot", "overflowing-top-node"])
def test_terminal_rejects_a_node_that_is_not_finite(s0, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        terminal_distribution(s0, mp(), 10, 0.1)


@pytest.mark.parametrize("n", [0, -1])
def test_terminal_rejects_a_step_count_below_one(n):
    with pytest.raises(DomainError, match=f"step count must be >= 1, got {n}"):
        terminal_distribution(100.0, mp(), n, 0.01)


@pytest.mark.parametrize("n", [4096, 65_536])
def test_terminal_cumulative_weights_match_scipy(n):
    params = mp(g=0.57, v=0.2, sigma=0.3)
    dt = 1.0 / n
    cdf = terminal_distribution(50.0, params, n, dt)
    expected = binom.cdf(np.arange(n + 1), n, step_factors_exact(params, dt).p)
    assert np.abs(cdf.cum - expected).max() <= 1e-13


@pytest.mark.parametrize("r,node", [(1.0, 4), (-1.0, 0)])
def test_terminal_risk_neutral_point_mass_at_q_one_and_zero(r, node):
    # p = 1/2 and gamma = delta = 0 put Q exactly at 1 (r = 1) or 0 (r = -1).
    params = ModelParams(0.0, 0.0, 0.5, 0.0, 0.1)
    dt = 0.01
    assert risk_neutral_prob(params, r, dt) == float(node == 4)
    cdf = terminal_distribution(100.0, params, 4, dt, r=r)
    assert np.array_equal(cdf.weights, np.eye(5)[node])
    # Both end nodes lie above the strike, so the call pays S - 90 there.
    lattice = Lattice.build(100.0, params, 4, dt, r)
    price = price_european(lattice, params, Payoff.call(90.0))
    assert price == pytest.approx(math.exp(-4 * r * dt) * (cdf.support[node] - 90.0),
                                  rel=1e-13)


# ---------------------------------------------------------------------------
# lognormal CDF
# ---------------------------------------------------------------------------

def test_lognormal_median():
    s0, b, sigma, t = 100.0, 0.05, 0.2, 1.0
    median = s0 * math.exp((b - sigma ** 2 / 2) * t)
    assert lognormal_cdf(median, s0, b, sigma, t) == pytest.approx(0.5, abs=1e-14)


def test_lognormal_limits():
    assert lognormal_cdf(0.0, 100.0, 0.05, 0.2, 1.0) == 0.0
    assert lognormal_cdf(-5.0, 100.0, 0.05, 0.2, 1.0) == 0.0
    assert lognormal_cdf(1e9, 100.0, 0.05, 0.2, 1.0) == pytest.approx(1.0,
                                                                      abs=1e-12)


def test_lognormal_frozen_value():
    # z = (ln(1) - 0.03)/0.2 = -0.15
    assert lognormal_cdf(100.0, 100.0, 0.05, 0.2, 1.0) == \
        pytest.approx(0.4403823076297575, abs=1e-13)


def test_lognormal_monotone_in_x():
    rng = random.Random(11)
    for _ in range(200):
        x = rng.uniform(1.0, 400.0)
        y = x + rng.uniform(1e-6, 50.0)
        assert lognormal_cdf(x, 100.0, 0.05, 0.2, 1.0) <= \
            lognormal_cdf(y, 100.0, 0.05, 0.2, 1.0)


def test_lognormal_symmetry_around_median():
    s0, b, sigma, t = 80.0, 0.03, 0.4, 2.0
    median = s0 * math.exp((b - sigma ** 2 / 2) * t)
    for a in (0.1, 0.7, 2.0):
        low = lognormal_cdf(median * math.exp(-a), s0, b, sigma, t)
        high = lognormal_cdf(median * math.exp(a), s0, b, sigma, t)
        assert low + high == pytest.approx(1.0, abs=1e-10)


def test_lognormal_rejects_nan_inputs():
    nan = float("nan")
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        lognormal_cdf(1.0, nan, 0.05, 0.2, 1.0)
    with pytest.raises(DomainError, match="sigma and t must be positive"):
        lognormal_cdf(1.0, 1.0, 0.05, nan, 1.0)
    with pytest.raises(DomainError, match="sigma and t must be positive"):
        lognormal_cdf(1.0, 1.0, 0.05, 0.2, nan)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("x, s0, b, sigma, t, message", [
    (1.0, INF, 0.05, 0.2, 1.0, "spot and drift must be finite"),
    (1.0, 1.0, NAN, 0.2, 1.0, "spot and drift must be finite"),
    (1.0, 1.0, INF, 0.2, 1.0, "spot and drift must be finite"),
    (1.0, 1.0, -INF, 0.2, 1.0, "spot and drift must be finite"),
    (1.0, 1.0, 0.05, INF, 1.0, "sigma and t must be positive and finite"),
    (1.0, 1.0, 0.05, 0.2, INF, "sigma and t must be positive and finite"),
    (1.0, 1.0, 0.05, 0.0, 1.0, "sigma and t must be positive and finite"),
    (NAN, 1.0, 0.05, 0.2, 1.0, "argument must not be NaN"),
    # (b - sigma^2/2)*t overflows, through b*t and through sigma^2.
    (1.0, 1.0, 1e300, 0.2, 1e10, "log-mean"),
    (1.0, 1.0, 0.05, 1e200, 1.0, "log-mean"),
    # sigma*sqrt(t) underflows to 0.
    (1.0, 1.0, 0.05, 1e-200, 1e-300, "log-sd"),
], ids=["inf-spot", "nan-b", "inf-b", "-inf-b", "inf-sigma", "inf-t", "zero-sigma",
        "nan-x", "log-mean-overflow-b", "log-mean-overflow-sigma", "log-sd-underflow"])
def test_lognormal_rejects_non_finite_or_degenerate_inputs(x, s0, b, sigma, t, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        lognormal_cdf(x, s0, b, sigma, t)


def test_lognormal_array_evaluation_equals_one_call_per_point():
    # x <= 0, x/s0 underflowing to 0, and x = inf take the edge branches.
    s0, b, sigma, t = 1e300, 0.05, 0.3, 0.7
    x = np.array([-INF, -1.0, 0.0, 1e-30, 1e299, 1e300, 3e300, INF])
    expected = [lognormal_cdf(float(v), s0, b, sigma, t) for v in x]
    assert lognormal_cdf(x, s0, b, sigma, t).tolist() == expected
    assert expected[:4] == [0.0] * 4 and expected[-1] == 1.0
    with pytest.raises(DomainError, match="argument must not be NaN"):
        lognormal_cdf(np.array([1.0, NAN]), s0, b, sigma, t)


@settings(deadline=None, max_examples=200)
@given(s0=st.floats(1e-300, 1e300), b=st.floats(-1.0, 1.0), sigma=st.floats(1e-3, 3.0),
       t=st.floats(1e-3, 30.0),
       x=st.lists(st.one_of(st.floats(-1e308, 1e308), st.just(0.0), st.just(INF),
                            st.just(-INF)), max_size=40))
def test_lognormal_on_arrays_equals_the_per_point_reference(s0, b, sigma, t, x):
    expected = [reference_lognormal_cdf(v, s0, b, sigma, t) for v in x]
    values = lognormal_cdf(np.array(x, dtype=float), s0, b, sigma, t)
    assert values.shape == (len(x),) and values.tolist() == expected
    assert [lognormal_cdf(v, s0, b, sigma, t) for v in x] == expected


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def full_scan(empirical, continuous):
    """Reference: both one-sided gaps at every support point."""
    f_vals = continuous(empirical.support)
    right = np.abs(empirical.cum - f_vals)
    left = np.abs(np.concatenate(([0.0], empirical.cum[:-1])) - f_vals)
    return float(max(right.max(), left.max()))


class CountingCdf:
    """An array-valued CDF that records every point it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.points = []

    def __call__(self, x):
        self.points.extend(x.tolist())
        return self.fn(x)


def test_kolmogorov_single_atom():
    continuous = lambda x: lognormal_cdf(x, 100.0, 0.05, 0.2, 1.0)
    for atom in (60.0, 100.0, 170.0):
        cdf = DiscreteCdf(support=[atom], cum=[1.0])
        expected = max(continuous(atom), 1.0 - continuous(atom))
        assert kolmogorov_distance(cdf, continuous) == pytest.approx(expected,
                                                                     rel=1e-14)


def test_kolmogorov_matches_dense_grid_scan():
    # Oracle: brute-force scan over a ~1e6-point grid (augmented with the
    # jump locations approached from both sides).
    params = mp(g=0.6)
    cdf = terminal_distribution(100.0, params, 2, 0.01)
    continuous = lambda x: lognormal_cdf(x, 100.0, params.mean_drift,
                                         params.sigma, 0.02)
    lo, hi = cdf.support[0] * 0.5, cdf.support[-1] * 1.5
    grid = np.concatenate([np.linspace(lo, hi, 1_000_000),
                           cdf.support, cdf.support - 1e-9])
    f_cont = continuous(cdf.support)
    scan = 0.0
    step_vals = np.concatenate(([0.0], cdf.cum))
    idx = np.searchsorted(cdf.support, grid, side="right")
    f_grid_cont = continuous(grid)
    scan = np.max(np.abs(step_vals[idx] - f_grid_cont))
    assert kolmogorov_distance(cdf, continuous) == pytest.approx(scan, abs=1e-9)
    assert f_cont.shape == cdf.support.shape


def test_kolmogorov_in_unit_interval():
    params = mp(g=0.35, sigma=0.4)
    cdf = terminal_distribution(100.0, params, 64, 1.0 / 64)
    d = kolmogorov_distance(
        cdf, lambda x: lognormal_cdf(x, 100.0, params.mean_drift, 0.4, 1.0))
    assert 0.0 <= d <= 1.0


def test_kolmogorov_invariant_under_monotone_rescaling():
    # Mapping both distributions through the standardizing transform of
    # the lognormal leaves the distance unchanged.
    params = mp(g=0.4, sigma=0.3)
    t, n = 1.0, 128
    s0, b = 100.0, params.mean_drift
    cdf = terminal_distribution(s0, params, n, t / n)
    d_price = kolmogorov_distance(
        cdf, lambda x: lognormal_cdf(x, s0, b, params.sigma, t))
    z_support = (np.log(cdf.support / s0) - (b - params.sigma ** 2 / 2) * t) \
        / (params.sigma * math.sqrt(t))
    z_cdf = DiscreteCdf(support=z_support, cum=cdf.cum)
    d_z = kolmogorov_distance(z_cdf, per_point(normal_cdf))
    assert d_z == pytest.approx(d_price, abs=1e-13)


@settings(deadline=None, max_examples=300)
@given(sigma=st.floats(0.05, 1.0), g=st.floats(0.2, 0.8), v=st.floats(-0.1, 0.1),
       gamma=st.floats(-0.2, 0.2), delta=st.floats(-0.2, 0.2), t=st.floats(0.1, 2.0),
       n=st.integers(1, 4096), shift=st.one_of(st.just(0.0), st.floats(-12.0, 12.0)),
       scale=st.one_of(st.just(1.0), st.floats(0.2, 5.0)))
def test_kolmogorov_pruned_scan_equals_full_scan(sigma, g, v, gamma, delta, t, n,
                                                 shift, scale):
    # shift moves F's median by that many of F_n's standard deviations and
    # scale stretches F's sigma: a mis-specified F whose mass sits in a
    # tail of F_n must send the scan back to every support point.
    t = min(t, n / 16.0)  # dt <= 1/16 keeps the exact factors' d below u
    params = ModelParams(gamma=gamma, delta=delta, g=g, v=v, sigma=sigma)
    cdf = terminal_distribution(1.0, params, n, t / n)
    drift = params.mean_drift + shift * sigma / math.sqrt(t)
    continuous = lambda x: lognormal_cdf(x, 1.0, drift, sigma * scale, t)
    assert kolmogorov_distance(cdf, continuous) == full_scan(cdf, continuous)


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_kolmogorov_falls_back_when_a_tail_bound_fails(level):
    # F = 0 leaves a gap of 1 at the right end, F = 1 one at the left end;
    # the body (cum = 0.5) alone sees 0.5 and 1 - 1e-8.
    cdf = DiscreteCdf(support=[1.0, 2.0, 3.0, 4.0], cum=[1e-8, 0.5, 1.0 - 1e-8, 1.0])
    continuous = CountingCdf(lambda x: np.full(x.shape, level))
    assert kolmogorov_distance(cdf, continuous) == full_scan(cdf, continuous) == 1.0
    assert set(cdf.support) <= set(continuous.points)


def test_kolmogorov_evaluates_f_on_the_body_only():
    n, t = 65_536, 1.0
    params = mp(g=0.3)
    cdf = terminal_distribution(1.0, params, n, t / n)
    continuous = CountingCdf(
        lambda x: lognormal_cdf(x, 1.0, params.mean_drift, params.sigma, t))
    distance = kolmogorov_distance(cdf, continuous)
    assert len(continuous.points) < 2000
    assert distance == full_scan(cdf, continuous)


@pytest.mark.parametrize("level", [NAN, -1e-300, 1.0 + 1e-15, INF])
def test_kolmogorov_rejects_f_values_that_are_not_probabilities(level):
    cdf = DiscreteCdf(support=[1.0, 2.0, 3.0], cum=[0.25, 0.5, 1.0])
    with pytest.raises(DomainError, match=re.escape("must lie in [0, 1], got")):
        kolmogorov_distance(cdf, lambda x: np.full(x.shape, level))


@pytest.mark.parametrize("continuous", [
    lambda x: 0.5,
    lambda x: np.float64(0.5),
    lambda x: [0.5] * x.size,
    lambda x: np.full(x.size + 1, 0.5),
    lambda x: np.full((x.size, 1), 0.5),
], ids=["float", "numpy-scalar", "list", "one-too-many", "column"])
def test_kolmogorov_rejects_f_that_does_not_return_an_array_of_the_points_shape(
        continuous):
    # F is first called on the body, the two points whose cum is below 1.
    cdf = DiscreteCdf(support=[1.0, 2.0, 3.0], cum=[0.25, 0.5, 1.0])
    with pytest.raises(DomainError, match=re.escape("must return an array of shape (2,)")):
        kolmogorov_distance(cdf, continuous)


def test_kolmogorov_rejects_a_bad_f_value_in_the_full_scan():
    # The body alone is fine, but the bound at the right end fails, so the
    # tail point at 4.0, where F is NaN, is scanned too.
    cdf = DiscreteCdf(support=[1.0, 2.0, 3.0, 4.0], cum=[1e-8, 0.5, 1.0 - 1e-8, 1.0])
    continuous = lambda x: np.where(x == 4.0, NAN, 0.0)
    with pytest.raises(DomainError, match=re.escape("must lie in [0, 1], got nan")):
        kolmogorov_distance(cdf, continuous)


# ---------------------------------------------------------------------------
# rate constant and experiment
# ---------------------------------------------------------------------------

def test_rate_constant_values():
    assert rate_constant(0.5) == pytest.approx(1.0, rel=1e-15)
    assert rate_constant(0.9) == pytest.approx(0.82 / 0.3, rel=1e-13)


def test_rate_constant_symmetry():
    for p in (0.05, 0.21, 0.4):
        assert rate_constant(p) == pytest.approx(rate_constant(1 - p), rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
def test_rate_constant_domain(p):
    with pytest.raises(DomainError):
        rate_constant(p)


def test_rate_experiment_slope_and_stabilization():
    experiment = rate_experiment(mp(g=0.5), 1.0, [16, 32, 64, 128, 256, 512])
    assert -0.6 <= experiment.slope <= -0.4
    scaled = [pt.scaled for pt in experiment.points]
    top = scaled[len(scaled) // 2:]
    assert max(top) / min(top) < 1.5


def test_rate_experiment_cross_p_proportionality():
    ns = [2048]
    d_mid = rate_experiment(mp(g=0.5), 1.0, [1024, 2048]).points[-1].distance
    d_high = rate_experiment(mp(g=0.9), 1.0, [1024, 2048]).points[-1].distance
    measured = d_high / d_mid
    predicted = rate_constant(0.9) / rate_constant(0.5)
    assert abs(measured / predicted - 1.0) < 0.25
    assert ns  # documents the fixed large n used above


# Shevtsova (2011): sup |F_n - Phi| <= 0.4748 * E|X - p|^3 / (s^3 sqrt(n))
# for n i.i.d. steps; for a Bernoulli(p) step that ratio is rate_constant(p).
BERRY_ESSEEN_CONSTANT = 0.4748
BERRY_ESSEEN_NS = [64, 256, 1024, 4096]


@settings(deadline=None, max_examples=30)
@given(g=st.floats(0.05, 0.95), v=st.floats(-0.3, 0.3), b=st.floats(-0.05, 0.1),
       sigma=st.floats(0.1, 0.5))
def test_rate_experiment_stays_within_the_berry_esseen_bound(g, v, b, sigma):
    # With v != 0 the up probability p = g + v*sqrt(t/n) moves with n, so
    # each n is scaled by its own rate constant.
    t = 1.0
    experiment = rate_experiment(mp(gamma=b, delta=b, g=g, v=v, sigma=sigma), t,
                                 BERRY_ESSEEN_NS)
    for point in experiment.points:
        p = g + v * math.sqrt(t / point.n)
        assert point.scaled / rate_constant(p) <= BERRY_ESSEEN_CONSTANT, point


@pytest.mark.parametrize("g", [0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.8, 0.9])
def test_rate_experiment_approaches_the_esseen_lattice_limit(g):
    # Esseen (1945): for a lattice sum the x = 0 term of the expansion gives
    # sqrt(n) * D_n -> (1/2 + |1 - 2p|/6) / sqrt(2 pi p (1 - p)); 1/sqrt(2 pi)
    # at p = 1/2. At n = 16,384 the largest gap is 0.68%, at g = 0.9. The
    # gap does not shrink with n for every g: at g = 0.1 it is 0.02%, 0.30%
    # and 0.42% at n = 1,024, 4,096 and 16,384.
    n = 16384
    point = rate_experiment(mp(gamma=0.05, delta=0.05, g=g, sigma=0.2), 1.0,
                            [n // 4, n]).points[-1]
    limit = (0.5 + abs(1.0 - 2.0 * g) / 6.0) / math.sqrt(2.0 * math.pi * g * (1.0 - g))
    assert point.n == n
    assert point.scaled / rate_constant(g) == pytest.approx(limit / rate_constant(g),
                                                            rel=0.01)


def test_rate_experiment_validates_input():
    with pytest.raises(DomainError):
        rate_experiment(mp(), 1.0, [64])
    with pytest.raises(DomainError):
        rate_experiment(mp(), 1.0, [64, 32])
    with pytest.raises(DomainError):
        rate_experiment(mp(), -1.0, [16, 32])
    with pytest.raises(DomainError, match="horizon must be positive, got nan"):
        rate_experiment(mp(), float("nan"), [16, 32])


@pytest.mark.parametrize("n_values", [[0, 16], [-4, 16], [-8, -4]])
def test_rate_experiment_rejects_a_step_count_below_one(n_values):
    with pytest.raises(DomainError, match=f"step counts must be >= 1, got {n_values[0]}"):
        rate_experiment(mp(), 1.0, n_values)


def test_rate_experiment_csv_round_trip():
    experiment = rate_experiment(mp(g=0.5), 1.0, [16, 32, 64])
    lines = experiment.to_csv().strip().splitlines()
    assert lines[0] == "n,distance,scaled"
    rows = [line.split(",") for line in lines[1:-1]]
    assert [int(row[0]) for row in rows] == [16, 32, 64]
    for row, pt in zip(rows, experiment.points):
        assert float(row[1]) == pt.distance
        assert float(row[2]) == pt.scaled
    assert lines[-1].startswith("# slope=")
    assert float(lines[-1].split("=")[1]) == experiment.slope


@settings(deadline=None, max_examples=150)
@given(sigma=st.floats(0.05, 1.0), g=st.floats(0.2, 0.8), v=st.floats(-0.1, 0.1),
       gamma=st.floats(-0.2, 0.2), delta=st.floats(-0.2, 0.2), t=st.floats(0.1, 2.0),
       ns=st.lists(st.integers(1, 4096), min_size=2, max_size=3, unique=True))
def test_rate_experiment_distances_equal_the_scalar_lognormal_scan(sigma, g, v, gamma,
                                                                   delta, t, ns):
    # rate_experiment evaluates the lognormal on whole slices of the
    # support; the per-point reference must give the same bits.
    ns = sorted(ns)
    t = min(t, ns[0] / 16.0)  # dt <= 1/16 keeps the exact factors' d below u
    params = ModelParams(gamma=gamma, delta=delta, g=g, v=v, sigma=sigma)
    experiment = rate_experiment(params, t, ns)
    for point in experiment.points:
        cdf = terminal_distribution(1.0, params, point.n, t / point.n)
        scalar = kolmogorov_distance(cdf, per_point(
            lambda x: reference_lognormal_cdf(x, 1.0, params.mean_drift, sigma, t)))
        assert point.distance == scalar
