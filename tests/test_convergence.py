"""Terminal distributions, Kolmogorov distance, and the 1/sqrt(n) law."""

import math
import random

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
    cdf = terminal_distribution(100.0, params, 1, dt, measure="risk_neutral", r=r)
    assert np.allclose(cdf.weights, [1.0 - q, q], rtol=1e-12)


def test_terminal_rejects_a_nan_spot():
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        terminal_distribution(float("nan"), mp(), 2, 0.01)


@pytest.mark.parametrize("n", [4096, 65_536])
def test_terminal_cumulative_weights_match_scipy(n):
    params = mp(g=0.57, v=0.2, sigma=0.3)
    dt = 1.0 / n
    cdf = terminal_distribution(50.0, params, n, dt)
    expected = binom.cdf(np.arange(n + 1), n, step_factors_exact(params, dt).p)
    assert np.abs(cdf.cum - expected).max() <= 1e-10


@pytest.mark.parametrize("r,node", [(1.0, 4), (-1.0, 0)])
def test_terminal_risk_neutral_point_mass_at_q_one_and_zero(r, node):
    # p = 1/2 and gamma = delta = 0 put Q exactly at 1 (r = 1) or 0 (r = -1).
    params = ModelParams(0.0, 0.0, 0.5, 0.0, 0.1)
    dt = 0.01
    assert risk_neutral_prob(params, r, dt) == float(node == 4)
    cdf = terminal_distribution(100.0, params, 4, dt, measure="risk_neutral", r=r)
    assert np.array_equal(cdf.weights, np.eye(5)[node])
    # Both end nodes lie above the strike, so the call pays S - 90 there.
    lattice = Lattice.build(100.0, params, 4, dt, r)
    price = price_european(lattice, params, Payoff.call(90.0))
    assert price == pytest.approx(math.exp(-4 * r * dt) * (cdf.support[node] - 90.0),
                                  rel=1e-13)


def test_terminal_risk_neutral_requires_rate():
    with pytest.raises(DomainError, match="requires r"):
        terminal_distribution(100.0, mp(), 2, 0.01, measure="risk_neutral")


def test_terminal_rejects_unknown_measure():
    with pytest.raises(DomainError, match="measure"):
        terminal_distribution(100.0, mp(), 2, 0.01, measure="surreal")


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


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def full_scan(empirical, continuous):
    """Reference: both one-sided gaps at every support point."""
    f_vals = np.array([continuous(float(x)) for x in empirical.support])
    right = np.abs(empirical.cum - f_vals)
    left = np.abs(np.concatenate(([0.0], empirical.cum[:-1])) - f_vals)
    return float(max(right.max(), left.max()))


class CountingCdf:
    """A continuous CDF that records every point it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.points = []

    def __call__(self, x):
        self.points.append(x)
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
    f_cont = np.array([continuous(float(x)) for x in cdf.support])
    scan = 0.0
    step_vals = np.concatenate(([0.0], cdf.cum))
    idx = np.searchsorted(cdf.support, grid, side="right")
    f_grid_cont = np.array([continuous(float(x)) for x in grid])
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
    d_z = kolmogorov_distance(z_cdf, normal_cdf)
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
    continuous = CountingCdf(lambda x: level)
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


def test_rate_experiment_validates_input():
    with pytest.raises(DomainError):
        rate_experiment(mp(), 1.0, [64])
    with pytest.raises(DomainError):
        rate_experiment(mp(), 1.0, [64, 32])
    with pytest.raises(DomainError):
        rate_experiment(mp(), -1.0, [16, 32])
    with pytest.raises(DomainError, match="horizon must be positive, got nan"):
        rate_experiment(mp(), float("nan"), [16, 32])


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
