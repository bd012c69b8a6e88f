"""Lattice pricing, risk-neutral probabilities, hedging, discontinuity."""

import math
import random

import numpy as np
import pytest
from scipy import stats as sstats

from mptree.errors import ArbitrageError, DomainError
from mptree.model import ModelParams, jarrow_rudd_params, step_factors_asymptotic
from mptree.pricing import (Lattice, Payoff, black_scholes_call, delta_hedge,
                            discontinuity_report, market_price_of_risk,
                            price_european, risk_neutral_prob)

DAILY = 1.0 / 252.0


def mp(gamma=0.05, delta=0.05, g=0.5, v=0.0, sigma=0.2):
    return ModelParams(gamma=gamma, delta=delta, g=g, v=v, sigma=sigma)


# ---------------------------------------------------------------------------
# risk-neutral probability
# ---------------------------------------------------------------------------

def test_q_reduces_to_p_when_drift_equals_rate():
    params = mp(gamma=0.03, delta=0.03, g=0.37)
    assert risk_neutral_prob(params, 0.03, DAILY) == pytest.approx(0.37, rel=1e-15)


def test_q_general_formula_value():
    params = mp(gamma=0.08, delta=0.08, g=0.6)
    assert risk_neutral_prob(params, 0.02, 0.01) == \
        pytest.approx(0.5853030615433009, rel=1e-13)


def test_q_equals_p_minus_theta_vol_spread():
    # gamma = delta special case: Q = p - theta*sqrt(p(1-p))*sqrt(dt).
    params = mp(gamma=0.08, delta=0.08, g=0.6)
    theta = market_price_of_risk(params, 0.02)
    expected = 0.6 - theta * math.sqrt(0.6 * 0.4) * math.sqrt(0.01)
    assert risk_neutral_prob(params, 0.02, 0.01) == pytest.approx(expected,
                                                                  rel=1e-14)


def test_q_is_continuous_with_endpoint_limits():
    # Small market price of risk keeps Q inside [0, 1] all the way to the
    # endpoints; the map p -> Q is continuous with limits 0 and 1.
    r, sigma = 0.05, 0.2
    gamma = r + 0.01 * sigma  # theta = 0.01
    grid = np.concatenate([
        np.array([1e-6, 1e-5, 1e-4, 1e-3]),
        np.linspace(0.01, 0.99, 99),
        1.0 - np.array([1e-3, 1e-4, 1e-5, 1e-6])])
    values = [risk_neutral_prob(mp(gamma=gamma, delta=gamma, g=float(p)),
                                r, DAILY) for p in grid]
    assert abs(values[0] - 0.0) < 1e-4
    assert abs(values[-1] - 1.0) < 1e-4
    steps = np.abs(np.diff(values))
    assert steps.max() < 0.02


def test_q_out_of_band_raises_arbitrage_error():
    with pytest.raises(ArbitrageError):
        risk_neutral_prob(mp(), 4.0, DAILY)
    with pytest.raises(ArbitrageError):
        risk_neutral_prob(mp(), -4.0, DAILY)


def test_q_denominator_guard():
    params = mp(gamma=-40.0, delta=40.0, g=0.5, sigma=0.05)
    with pytest.raises(DomainError, match="denominator"):
        risk_neutral_prob(params, 0.02, 1.0)


# ---------------------------------------------------------------------------
# market price of risk and hedging
# ---------------------------------------------------------------------------

def test_market_price_of_risk_values():
    assert market_price_of_risk(mp(gamma=0.02, delta=0.02), 0.02) == 0.0
    assert market_price_of_risk(mp(gamma=0.08, delta=0.08), 0.02) == \
        pytest.approx(0.3, rel=1e-14)


def test_market_price_of_risk_sign():
    for gamma in (-0.1, 0.0, 0.04, 0.2):
        theta = market_price_of_risk(mp(gamma=gamma, delta=gamma), 0.04)
        assert math.copysign(1.0, theta) == math.copysign(1.0, gamma - 0.04) \
            or theta == 0.0


def test_market_price_of_risk_requires_equal_drifts():
    with pytest.raises(DomainError, match="gamma = delta"):
        market_price_of_risk(mp(gamma=0.05, delta=0.04), 0.02)


def test_delta_hedge_flat_payoff():
    assert delta_hedge(100.0, 5.0, 5.0, mp(), 0.01) == 0.0


def test_delta_hedge_direct_arithmetic():
    assert delta_hedge(100.0, 5.0, 0.0, mp(), 0.01) == pytest.approx(1.25,
                                                                     rel=1e-14)


def test_delta_hedge_zeroes_portfolio_variance():
    rng = random.Random(7)
    for _ in range(100):
        params = mp(gamma=rng.uniform(-0.2, 0.2), delta=rng.uniform(-0.2, 0.2),
                    g=rng.uniform(0.1, 0.9), sigma=rng.uniform(0.05, 0.6))
        s = rng.uniform(10.0, 500.0)
        f_u, f_d = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
        dt = rng.choice([DAILY, 0.01, 0.05])
        delta = delta_hedge(s, f_u, f_d, params, dt)
        f = step_factors_asymptotic(params, dt)
        up_branch = delta * s * f.u - f_u
        down_branch = delta * s * f.d - f_d
        scale = max(1.0, abs(up_branch), abs(down_branch))
        assert abs(up_branch - down_branch) / scale < 1e-12


# ---------------------------------------------------------------------------
# European pricing
# ---------------------------------------------------------------------------

def test_price_one_step_hand_induction():
    params = mp(gamma=0.0, delta=0.0, g=0.5, sigma=0.2)
    lattice = Lattice.build(100.0, params, n=1, dt=1.0, rate=0.0)
    price = price_european(lattice, params, Payoff.call(100.0))
    u = math.exp(-0.02 + 0.2)
    q = risk_neutral_prob(params, 0.0, 1.0)  # = 0.5 here
    assert q == 0.5
    assert price == pytest.approx(q * (100.0 * u - 100.0), rel=1e-14)


def test_price_two_step_hand_induction():
    params = mp(gamma=0.06, delta=0.06, g=0.55, sigma=0.3)
    r, dt = 0.02, 0.25
    lattice = Lattice.build(50.0, params, n=2, dt=dt, rate=r)
    q = risk_neutral_prob(params, r, dt)
    f = lattice.factors
    strike = 52.0
    disc = math.exp(-r * dt)
    nodes = [max(50.0 * f.d ** 2 - strike, 0.0),
             max(50.0 * f.u * f.d - strike, 0.0),
             max(50.0 * f.u ** 2 - strike, 0.0)]
    level1 = [disc * (q * nodes[1] + (1 - q) * nodes[0]),
              disc * (q * nodes[2] + (1 - q) * nodes[1])]
    expected = disc * (q * level1[1] + (1 - q) * level1[0])
    assert price_european(lattice, params, Payoff.call(strike)) == \
        pytest.approx(expected, rel=1e-14)


def test_price_deep_in_the_money_forward_parity_limit():
    params = mp(sigma=0.005)
    lattice = Lattice.build(100.0, params, n=100, dt=0.01, rate=0.05)
    price = price_european(lattice, params, Payoff.call(50.0))
    assert price == pytest.approx(100.0 - 50.0 * math.exp(-0.05), abs=1e-6)


def test_price_converges_to_black_scholes():
    reference = black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0)
    assert reference == pytest.approx(10.450583572185565, rel=1e-13)
    params = mp(gamma=0.05, delta=0.05, g=0.5, sigma=0.2)
    lattice = Lattice.build(100.0, params, n=1000, dt=1.0 / 1000, rate=0.05)
    price = price_european(lattice, params, Payoff.call(100.0))
    assert abs(price - reference) < 0.01


def test_price_error_shrinks_like_one_over_n():
    reference = black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0)
    params = mp(gamma=0.05, delta=0.05, g=0.5, sigma=0.2)
    errors = {}
    for n in (64, 256, 1024):
        lattice = Lattice.build(100.0, params, n=n, dt=1.0 / n, rate=0.05)
        errors[n] = abs(price_european(lattice, params, Payoff.call(100.0))
                        - reference)
    scaled = [errors[n] * n for n in errors]
    assert errors[1024] < errors[64]
    assert max(scaled) <= 4.0 * min(scaled)


def test_price_monotone_in_strike_and_spot():
    params = mp(gamma=0.05, delta=0.05, g=0.55, sigma=0.25)
    prices_k = []
    for strike in (80.0, 90.0, 100.0, 110.0, 120.0):
        lattice = Lattice.build(100.0, params, n=50, dt=DAILY, rate=0.03)
        prices_k.append(price_european(lattice, params, Payoff.call(strike)))
    assert all(a >= b for a, b in zip(prices_k, prices_k[1:]))
    prices_s = []
    for s0 in (80.0, 90.0, 100.0, 110.0, 120.0):
        lattice = Lattice.build(s0, params, n=50, dt=DAILY, rate=0.03)
        prices_s.append(price_european(lattice, params, Payoff.call(100.0)))
    assert all(a <= b for a, b in zip(prices_s, prices_s[1:]))


def test_put_payoff_prices_positive():
    params = mp()
    lattice = Lattice.build(100.0, params, n=30, dt=DAILY, rate=0.02)
    assert price_european(lattice, params, Payoff.put(100.0)) > 0.0


def test_custom_payoff():
    params = mp()
    lattice = Lattice.build(100.0, params, n=10, dt=DAILY, rate=0.0)
    constant = price_european(lattice, params,
                              Payoff.custom(lambda s: np.ones_like(s)))
    assert constant == pytest.approx(1.0, rel=1e-12)


def test_custom_payoff_requires_fn():
    with pytest.raises(DomainError):
        Payoff(kind="custom").evaluate(np.array([1.0]))


def test_payoff_checks_kind_at_construction():
    with pytest.raises(DomainError, match="'cal'"):
        Payoff(kind="cal", strike=100.0)
    with pytest.raises(DomainError, match="evaluator"):
        Payoff(kind="custom")


def test_lattice_rejects_unknown_factor_method():
    with pytest.raises(DomainError, match="'exatc'"):
        Lattice.build(100.0, mp(), n=10, dt=DAILY, rate=0.0, method="exatc")


def test_lattice_recombines():
    params = mp(gamma=0.05, delta=0.02, g=0.4, v=0.1, sigma=0.3)
    lattice = Lattice.build(100.0, params, n=40, dt=DAILY, rate=0.02)
    for k in (0, 1, 7, 40):
        values = lattice.node_values(k)
        assert values.size == k + 1
        assert np.unique(values).size == k + 1
        assert np.all(np.diff(values) > 0.0)


def test_lattice_validation():
    f = step_factors_asymptotic(mp(), DAILY)
    with pytest.raises(DomainError):
        Lattice(s0=-1.0, n=10, dt=DAILY, factors=f, rate=0.0)
    with pytest.raises(DomainError):
        Lattice(s0=100.0, n=0, dt=DAILY, factors=f, rate=0.0)
    with pytest.raises(DomainError):
        Lattice(s0=100.0, n=10, dt=0.0, factors=f, rate=0.0)
    lattice = Lattice(s0=100.0, n=10, dt=DAILY, factors=f, rate=0.0)
    assert lattice.maturity == pytest.approx(10 * DAILY, rel=1e-15)


def test_replication_identity_at_every_node():
    # Backward induction with the asymptotic factors satisfies
    # Delta*S*u - f_u = Delta*S*d - f_d at every interior node.
    params = mp(gamma=0.06, delta=0.01, g=0.45, v=0.05, sigma=0.3)
    r, dt, n = 0.03, DAILY, 12
    lattice = Lattice.build(100.0, params, n=n, dt=dt, rate=r,
                            method="asymptotic")
    q = risk_neutral_prob(params, r, dt)
    disc = math.exp(-r * dt)
    levels = [Payoff.call(100.0).evaluate(lattice.node_values(n))]
    for _ in range(n):
        v = levels[-1]
        levels.append(disc * (q * v[1:] + (1 - q) * v[:-1]))
    levels.reverse()  # levels[k] = values at step k
    for k in range(n):
        spots = lattice.node_values(k)
        for i in range(k + 1):
            f_u, f_d = levels[k + 1][i + 1], levels[k + 1][i]
            delta = delta_hedge(float(spots[i]), float(f_u), float(f_d),
                                params, dt)
            up = delta * spots[i] * lattice.factors.u - f_u
            down = delta * spots[i] * lattice.factors.d - f_d
            assert abs(up - down) / max(1.0, abs(up)) < 1e-12


# ---------------------------------------------------------------------------
# discontinuity report
# ---------------------------------------------------------------------------

def test_discontinuity_flat_payoff_has_no_gap():
    report = discontinuity_report(100.0, 0.02, 0.2, 1.0,
                                  Payoff.custom(lambda s: np.full_like(s, 3.0)),
                                  0.5)
    assert report.gap_at_0 == pytest.approx(0.0, abs=1e-15)
    assert report.gap_at_1 == pytest.approx(0.0, abs=1e-15)


def test_discontinuity_worked_example():
    report = discontinuity_report(100.0, 0.0, 0.2, 1.0, Payoff.call(100.0), 0.5)
    u = math.exp(0.2)
    q = (1.0 - 1.0 / u) / (u - 1.0 / u)
    assert q == pytest.approx(0.45016600268752216, rel=1e-14)
    assert report.f0_interior == pytest.approx(9.966799462495581, rel=1e-13)
    assert report.gap_at_0 == pytest.approx(-9.966799462495581, rel=1e-13)
    assert report.gap_at_1 == pytest.approx((1 - q) * (100 * u - 100), rel=1e-13)


def test_discontinuity_interior_value_constant_in_p():
    values = [discontinuity_report(100.0, 0.0, 0.2, 1.0, Payoff.call(100.0),
                                   p).f0_interior
              for p in (0.01, 0.3, 0.5, 0.7, 0.99)]
    assert max(values) - min(values) == 0.0


def test_discontinuity_endpoint_values():
    payoff = Payoff.call(100.0)
    at0 = discontinuity_report(100.0, 0.0, 0.2, 1.0, payoff, 0.0)
    at1 = discontinuity_report(100.0, 0.0, 0.2, 1.0, payoff, 1.0)
    assert at0.f0_at_p == pytest.approx(0.0, abs=1e-15)  # down payoff is 0
    assert at1.f0_at_p == pytest.approx(100 * math.exp(0.2) - 100, rel=1e-13)
    assert at0.f0_at_p == pytest.approx(at0.f0_interior + at0.gap_at_0, rel=1e-12)
    assert at1.f0_at_p == pytest.approx(at1.f0_interior + at1.gap_at_1, rel=1e-12)


def test_discontinuity_rejects_arbitrage_rate():
    with pytest.raises(ArbitrageError):
        discontinuity_report(100.0, 1.5, 0.2, 1.0, Payoff.call(100.0), 0.5)


def test_discontinuity_rejects_bad_probability():
    with pytest.raises(DomainError):
        discontinuity_report(100.0, 0.0, 0.2, 1.0, Payoff.call(100.0), 1.5)


# ---------------------------------------------------------------------------
# Black-Scholes reference
# ---------------------------------------------------------------------------

def test_black_scholes_against_scipy():
    for s0, k, r, sigma, t in [(100, 100, 0.05, 0.2, 1.0), (90, 110, 0.01, 0.4, 0.5),
                               (120, 100, 0.03, 0.15, 2.0)]:
        srt = sigma * math.sqrt(t)
        d1 = (math.log(s0 / k) + (r + sigma ** 2 / 2) * t) / srt
        d2 = d1 - srt
        reference = s0 * sstats.norm.cdf(d1) - k * math.exp(-r * t) * sstats.norm.cdf(d2)
        assert black_scholes_call(s0, k, r, sigma, t) == pytest.approx(reference,
                                                                       rel=1e-12)


def test_black_scholes_monotone_in_sigma():
    prices = [black_scholes_call(100, 100, 0.02, sigma, 1.0)
              for sigma in (0.1, 0.2, 0.3, 0.5)]
    assert all(a < b for a, b in zip(prices, prices[1:]))


def test_black_scholes_input_guards():
    with pytest.raises(DomainError):
        black_scholes_call(-1, 100, 0.0, 0.2, 1.0)
    with pytest.raises(DomainError):
        black_scholes_call(100, 100, 0.0, -0.2, 1.0)
    nan = float("nan")
    with pytest.raises(DomainError, match="spot and strike must be positive"):
        black_scholes_call(nan, 100, 0.0, 0.2, 1.0)
    with pytest.raises(DomainError, match="spot and strike must be positive"):
        black_scholes_call(100, nan, 0.0, 0.2, 1.0)
    with pytest.raises(DomainError, match="sigma and t must be positive"):
        black_scholes_call(100, 100, 0.0, nan, 1.0)
    with pytest.raises(DomainError, match="sigma and t must be positive"):
        black_scholes_call(100, 100, 0.0, 0.2, nan)


def test_delta_hedge_and_discontinuity_reject_a_nan_spot():
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        delta_hedge(float("nan"), 5.0, 0.0, mp(), 0.01)
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        discontinuity_report(float("nan"), 0.0, 0.2, 1.0, Payoff.call(100.0), 0.5)
