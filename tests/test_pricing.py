"""Lattice pricing, risk-neutral probabilities, hedging, discontinuity."""

import math
import random
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from mptree.calibration import MODELS, build_params, free_parameter_names
from mptree.errors import ArbitrageError, DomainError
from mptree.model import ModelParams, jarrow_rudd_params, step_factors_asymptotic
from mptree.pricing import (Lattice, Payoff, black_scholes_call, delta_hedge,
                            discontinuity_report, price_european,
                            risk_neutral_prob)

DAILY = 1.0 / 252.0


def mp(gamma=0.05, delta=0.05, g=0.5, v=0.0, sigma=0.2):
    return ModelParams(gamma=gamma, delta=delta, g=g, v=v, sigma=sigma)


def exact_price(lattice, params, payoff):
    """What :func:`price_european` computes, in exact arithmetic, to 40 digits.

    The float lattice is priced from the floats the kernel reads: u, d,
    Q, 1 - Q and e^{-r dt}. The root value is
    e^{-r dt n} * sum_i C(n, i) Q^i (1-Q)^(n-i) payoff(s0 u^i d^(n-i)),
    each weight and node taken from the one before by the ratio
    recurrence. Q must lie strictly inside (0, 1).
    """
    q = risk_neutral_prob(params, lattice.rate, lattice.dt)
    n, u, d = lattice.n, lattice.factors.u, lattice.factors.d
    with localcontext() as ctx:
        ctx.prec = 40
        up, down = Decimal(q), Decimal(1.0 - q)
        strike, sign = Decimal(payoff.strike), 1 if payoff.kind == "call" else -1
        weight, node = down ** n, Decimal(lattice.s0) * Decimal(d) ** n
        ratio, total = Decimal(u) / Decimal(d), Decimal(0)
        for i in range(n + 1):
            total += weight * max(sign * (node - strike), 0)
            weight = weight * (n - i) / (i + 1) * up / down
            node *= ratio
        return total * Decimal(math.exp(-lattice.rate * lattice.dt)) ** n


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
    # gamma = delta special case: Q = p - theta*sqrt(p(1-p))*sqrt(dt), with
    # the market price of risk theta = (gamma - r)/sigma.
    params = mp(gamma=0.08, delta=0.08, g=0.6)
    theta = (0.08 - 0.02) / 0.2
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
# hedging
# ---------------------------------------------------------------------------

def test_delta_hedge_flat_payoff():
    assert delta_hedge(100.0, 5.0, 5.0, mp(), 0.01) == 0.0


def test_delta_hedge_rejects_a_zero_factor_spread():
    # (gamma - delta)*dt = -0.5 cancels sigma*sqrt(dt)/sqrt(p(1-p)) = 0.5.
    with pytest.raises(DomainError, match="degenerate hedge"):
        delta_hedge(100.0, 5.0, 0.0, mp(gamma=-1.0, delta=1.0, sigma=0.5), 0.25)


@pytest.mark.parametrize("s, f_u, f_d, message", [
    (math.inf, 10.0, 0.0, "spot must be finite, got inf"),
    # f_u - f_d overflows.
    (100.0, 1e308, -1e308, "hedge ratio = inf is not finite"),
], ids=["infinite-spot", "overflowing-spread"])
def test_delta_hedge_rejects_a_hedge_that_is_not_finite(s, f_u, f_d, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        delta_hedge(s, f_u, f_d, jarrow_rudd_params(0.05, 0.2), DAILY)


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


def test_payoff_checks_kind_at_construction():
    for kind in ("cal", "custom"):
        with pytest.raises(DomainError, match=f"'{kind}'"):
            Payoff(kind=kind, strike=100.0)


@pytest.mark.parametrize("strike", [-5.0, -1e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [Payoff.call, Payoff.put])
def test_payoff_rejects_a_negative_or_non_finite_strike(make, strike):
    with pytest.raises(DomainError, match="strike must be finite and >= 0"):
        make(strike)


def test_payoff_allows_the_zero_strike_limit():
    terminal = np.array([50.0, 100.0, 200.0])
    assert Payoff.call(0.0).evaluate(terminal).tolist() == [50.0, 100.0, 200.0]
    assert Payoff.put(0.0).evaluate(terminal).tolist() == [0.0, 0.0, 0.0]


# The bound on |price_european - exact_price| / exact_price. Over 3,000
# draws of each property below the largest measured was 8.7e-14 (tian,
# exact factors, n = 4,096) and 1.5e-14 for the zero-strike call.
REFERENCE_REL_BOUND = Decimal("2e-13")


@settings(deadline=None, max_examples=300)
@given(s0=st.floats(1.0, 1000.0), r=st.floats(-0.05, 0.2),
       sigma=st.floats(0.01, 1.0), dt=st.floats(1e-4, 0.05), n=st.integers(1, 400))
def test_zero_strike_call_carries_the_documented_martingale_residual(
        s0, r, sigma, dt, n):
    # On the exact Jarrow-Rudd lattice Q = 1/2, so one discounted step
    # takes S to S e^{-s^2/2} cosh s with s = sigma*sqrt(dt).
    params = jarrow_rudd_params(r, sigma)
    lattice = Lattice.build(s0, params, n=n, dt=dt, rate=r)
    s = sigma * math.sqrt(dt)
    expected = s0 * (math.exp(-s * s / 2.0) * math.cosh(s)) ** n
    price = price_european(lattice, params, Payoff.call(0.0))
    assert price == pytest.approx(expected, rel=1e-12)
    exact = exact_price(lattice, params, Payoff.call(0.0))
    assert abs(Decimal(price) - exact) <= REFERENCE_REL_BOUND * exact


# n from 1 to 4,096, spread evenly over its powers of two, so that few
# draws take the large lattices.
steps_up_to_4096 = st.integers(0, 12).flatmap(
    lambda k: st.integers(2 ** k, min(2 ** (k + 1), 4096)))


@settings(deadline=None, max_examples=200)
@given(model=st.sampled_from(MODELS), sigma=st.floats(0.05, 0.6), g=st.floats(0.3, 0.7),
       gamma=st.floats(-0.5, 0.5), r=st.floats(-0.02, 0.1), t=st.floats(0.05, 2.0),
       n=steps_up_to_4096, s0=st.floats(1.0, 1000.0), moneyness=st.floats(-0.5, 0.5),
       kind=st.sampled_from(["call", "put"]), method=st.sampled_from(["exact", "asymptotic"]))
def test_price_european_stays_within_a_bound_of_the_exact_lattice_price(
        model, sigma, g, gamma, r, t, n, s0, moneyness, kind, method):
    # Strikes within half a standard deviation of the spot.
    strike = s0 * math.exp(moneyness * sigma * math.sqrt(t))
    x = (sigma, g, gamma)[:len(free_parameter_names(model))]
    try:
        params = build_params(model, x, r)
        lattice = Lattice.build(s0, params, n, t / n, r, method=method)
        q = risk_neutral_prob(params, r, t / n)
    except (DomainError, ArbitrageError):
        reject()
    assume(0.0 < q < 1.0)
    payoff = Payoff(kind, strike)
    price = price_european(lattice, params, payoff)
    exact = exact_price(lattice, params, payoff)
    assert abs(Decimal(price) - exact) <= REFERENCE_REL_BOUND * exact


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


@pytest.mark.parametrize("s0, sigma, n, message", [
    (math.inf, 0.2, 10, "spot must be finite, got inf"),
    (1e308, 0.2, 10, "top node s0*u^n overflows: ln(s0) = 709.19"),
    # s0*u^n would be about exp(260), but u^n alone overflows first.
    (1e-300, 10.0, 10_000, "top node s0*u^n overflows: ln(s0) = -690.77"),
], ids=["infinite-spot", "overflowing-top-node", "overflowing-growth"])
def test_lattice_rejects_a_node_that_is_not_finite(s0, sigma, n, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        Lattice.build(s0, jarrow_rudd_params(0.05, sigma), n, 1.0 / n, 0.05)


def test_lattice_accepts_a_large_spot_when_no_node_rises_above_it():
    # With sigma = 10 and dt = 0.1, ln u = (0.05 - 50)*0.1 + 10*sqrt(0.1) < 0.
    params = jarrow_rudd_params(0.05, 10.0)
    lattice = Lattice.build(1e308, params, 10, 0.1, 0.05)
    assert lattice.factors.u < 1.0
    assert math.isfinite(price_european(lattice, params, Payoff.call(100.0)))


def test_lattice_validation():
    f = step_factors_asymptotic(mp(), DAILY)
    with pytest.raises(DomainError):
        Lattice(s0=-1.0, n=10, dt=DAILY, factors=f, rate=0.0)
    with pytest.raises(DomainError):
        Lattice(s0=100.0, n=0, dt=DAILY, factors=f, rate=0.0)
    for dt in (0.0, math.nan):
        with pytest.raises(DomainError, match="time step must be positive"):
            Lattice(s0=100.0, n=10, dt=dt, factors=f, rate=0.0)
        with pytest.raises(DomainError, match="time step must be positive"):
            Lattice.build(100.0, mp(), n=4, dt=dt, rate=0.02)


@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
def test_lattice_rejects_a_rate_that_is_not_finite(rate):
    # At rate = inf each step would discount by exp(-inf) = 0, so roll_back
    # would return 0.0 for any terminal values.
    with pytest.raises(DomainError, match=f"rate must be finite, got {rate}"):
        Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 4, 0.01, rate=rate)


def textbook_roll_back(q, disc, values, n):
    for _ in range(n):
        values = disc * (q * values[1:] + (1.0 - q) * values[:-1])
    return values[0]


@st.composite
def terminal_values(draw, n):
    """(n+1,) or (n+1, k) values with runs of exact zeros at either end."""
    cols = draw(st.sampled_from([None, 1, 2, 5]))
    shape = (n + 1,) if cols is None else (n + 1, cols)
    values = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    low = draw(st.integers(0, n + 1))
    high = draw(st.integers(low, n + 1))
    values[:low] = 0.0
    values[high:] = 0.0
    return values


@settings(deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 64), rate=st.floats(-0.05, 0.2),
       q=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_roll_back_equals_the_textbook_step_applied_n_times(data, n, rate, q):
    lattice = Lattice.build(100.0, jarrow_rudd_params(rate, 0.2), n, DAILY, rate)
    values = data.draw(terminal_values(n))
    values.setflags(write=False)
    before = values.copy()
    root = lattice.roll_back(q, values)
    expected = textbook_roll_back(q, math.exp(-rate * DAILY), values, n)
    assert np.array_equal(root, expected)
    assert np.array_equal(values, before)
    assert not np.shares_memory(root, values)


def test_roll_back_sweeps_a_float32_payoff_in_float64():
    lattice = Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 64, DAILY, 0.05)
    values = Payoff.call(100.0).evaluate(lattice.node_values(64)).astype(np.float32)
    root = lattice.roll_back(0.5, values)
    assert root.dtype == np.float64
    assert root == lattice.roll_back(0.5, values.astype(np.float64))


@pytest.mark.parametrize("q", [math.nan, math.inf, -0.2, 1.5])
def test_roll_back_rejects_an_up_probability_outside_0_1(q):
    lattice = Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 4, DAILY, 0.05)
    values = Payoff.call(100.0).evaluate(lattice.node_values(4))
    with pytest.raises(DomainError, match=r"up probability q must be in \[0, 1\]"):
        lattice.roll_back(q, values)


@pytest.mark.parametrize("q, node", [(0.0, 0), (1.0, -1)])
def test_roll_back_at_q_0_or_1_discounts_the_single_branch(q, node):
    lattice = Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 4, DAILY, 0.05)
    values = lattice.node_values(4)
    expected = values[node]
    for _ in range(4):
        expected = math.exp(-0.05 * DAILY) * expected
    assert lattice.roll_back(q, values) == expected


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
    # Struck above s0*u = 122.1, the call pays 0 on both branches.
    report = discontinuity_report(100.0, 0.02, 0.2, 1.0, Payoff.call(150.0), 0.5)
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


@pytest.mark.parametrize("sigma, t", [(0.2, 0.0), (0.2, -1.0), (0.0, 1.0), (-0.2, 1.0),
                                      (math.nan, 1.0), (0.2, math.nan), (math.inf, 1.0),
                                      (0.2, math.inf)])
def test_discontinuity_rejects_a_sigma_or_t_that_is_not_positive_and_finite(sigma, t):
    with pytest.raises(DomainError, match="sigma and t must be positive"):
        discontinuity_report(100.0, 0.05, sigma, t, Payoff.call(100.0), 0.5)


def test_discontinuity_rejects_bad_probability():
    with pytest.raises(DomainError):
        discontinuity_report(100.0, 0.0, 0.2, 1.0, Payoff.call(100.0), 1.5)


def hedge_one_step_call(s0, strike, r, sigma, t, p):
    """The paper's resolution: one asymptotic step priced under the hedge Q.

    With gamma = delta = r and v = 0 the hedge Q equals p, which moves
    with p, where the replication q of discontinuity_report does not.
    """
    params = mp(gamma=r, delta=r, g=p, v=0.0, sigma=sigma)
    lattice = Lattice.build(s0, params, n=1, dt=t, rate=r, method="asymptotic")
    return lattice, price_european(lattice, params, Payoff.call(strike))


@pytest.mark.parametrize("p", [10.0 ** -k for k in range(2, 13)])
def test_hedge_price_tends_to_the_single_branch_value_as_p_goes_to_0(p):
    # s0*d >= K here, so both branches pay and the price is the discounted
    # forward less the strike, whatever p; the report's gap at 0 remains.
    lattice, price = hedge_one_step_call(100.0, 100.0, 0.05, 0.2, 1.0, p)
    assert lattice.s0 * lattice.factors.d >= 100.0
    assert price == pytest.approx(4.756147122503571, rel=1e-12)
    assert price == pytest.approx(math.exp(-0.05) * (100.0 * 1.05 - 100.0), rel=1e-12)
    assert discontinuity_report(100.0, 0.05, 0.2, 1.0, Payoff.call(100.0),
                                p).gap_at_0 != 0.0


@settings(deadline=None, max_examples=100)
@given(s0=st.floats(50.0, 150.0), r=st.floats(0.0, 0.1), sigma=st.floats(0.1, 0.5),
       t=st.floats(0.25, 2.0), p=st.floats(1e-12, 0.5), moneyness=st.floats(0.5, 1.0))
def test_hedge_price_is_the_single_branch_value_whenever_s0_d_reaches_the_strike(
        s0, r, sigma, t, p, moneyness):
    lattice, _ = hedge_one_step_call(s0, 100.0, r, sigma, t, p)
    strike = moneyness * s0 * lattice.factors.d
    _, price = hedge_one_step_call(s0, strike, r, sigma, t, p)
    assert price == pytest.approx(math.exp(-r * t) * (s0 * (1.0 + r * t) - strike),
                                  rel=1e-12, abs=1e-12 * s0)


@settings(deadline=None, max_examples=200)
@given(s0=st.floats(50.0, 150.0), strike=st.floats(50.0, 150.0), r=st.floats(0.0, 0.1),
       sigma=st.floats(0.1, 0.5), t=st.floats(0.25, 2.0), p=st.floats(1e-12, 0.5),
       step=st.floats(-1e-6, 1e-6))
def test_hedge_price_is_continuous_in_p_on_the_valid_range(s0, strike, r, sigma, t, p,
                                                           step):
    # On p <= 1/2 with sigma*sqrt(t) <= 0.71 the asymptotic d stays positive.
    # p*u and (1 - p)*d are affine in p and sqrt(p(1 - p)), which is
    # 1/2-Hoelder with constant 1, so each branch moves by at most
    # (s0(1 + rt) + K)|dp| + s0*sigma*sqrt(t*|dp|).
    other = min(max(p + step, 1e-12), 0.5)
    moved = abs(other - p)
    _, price = hedge_one_step_call(s0, strike, r, sigma, t, p)
    _, near = hedge_one_step_call(s0, strike, r, sigma, t, other)
    bound = 2.0 * ((s0 * (1.0 + r * t) + strike) * moved
                   + s0 * sigma * math.sqrt(t * moved))
    assert abs(near - price) <= bound + 1e-12 * s0


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


@pytest.mark.parametrize("r, sigma, t, message", [
    (0.05, 1000.0, 1.0, "sigma*sqrt(t) = 1000.0 is too large for exp"),
    (0.05, 1e200, 1e300, "sigma*sqrt(t) = inf is too large for exp"),
    (1000.0, 0.2, 1.0, "r*t = 1000.0 is too large for exp"),
    (1e308, 0.2, 10.0, "r*t = inf is too large for exp"),
])
def test_discontinuity_rejects_an_exponent_too_large_for_exp(r, sigma, t, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        discontinuity_report(100.0, r, sigma, t, Payoff.call(100.0), 0.5)


def test_discontinuity_accepts_the_largest_finite_exponent():
    # math.exp(log(max float)) is finite, so the bound itself is allowed.
    log_max = math.log(1.7976931348623157e308)
    report = discontinuity_report(1.0, 0.0, log_max, 1.0, Payoff.put(1.0), 0.5)
    assert math.isfinite(report.f0_interior)


@pytest.mark.parametrize("s0, r, sigma, strike, message", [
    # exp(709) is finite, 100*exp(709) is not.
    (100.0, 0.05, 709.0, 100.0, "s0*u = inf is not finite"),
    # The spot's own check comes first.
    (math.inf, 0.05, 0.2, 100.0, "spot must be finite, got inf"),
    # s0*u = exp(709) is finite, but exp(30) times it is not.
    (1.0, -30.0, 709.0, 0.0, "gap_at_1 = inf is not finite"),
], ids=["overflowing-up-price", "infinite-spot", "overflowing-gap"])
def test_discontinuity_rejects_a_price_that_is_not_finite(s0, r, sigma, strike, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        discontinuity_report(s0, r, sigma, 1.0, Payoff.call(strike), 0.5)


def test_discontinuity_rejects_a_step_so_small_that_u_rounds_to_d():
    with pytest.raises(DomainError, match=re.escape("sigma*sqrt(t) is too small: u = d")):
        discontinuity_report(100.0, 0.0, 1e-300, 1e-300, Payoff.call(100.0), 0.5)


@pytest.mark.parametrize("s0, strike, r, sigma, t, message", [
    (100.0, 100.0, 0.0, 1e-300, 1e-300, "sigma*sqrt(t) = 0.0, s0/strike = 1.0"),
    (5e-324, 1e300, 0.05, 0.2, 1.0, "sigma*sqrt(t) = 0.2, s0/strike = 0.0"),
    (100.0, 100.0, -1.0, 1e-300, 1e300, "-r*t = 1e+300 is too large for exp"),
], ids=["sigma-sqrt-t-underflows", "moneyness-underflows", "discount-overflows"])
def test_black_scholes_rejects_a_zero_scale_or_an_overflowing_discount(
        s0, strike, r, sigma, t, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        black_scholes_call(s0, strike, r, sigma, t)


@pytest.mark.parametrize("s0, strike, r, sigma, t, message", [
    (math.inf, 100.0, 0.05, 0.2, 1.0, "spot and strike must be positive and finite"),
    (100.0, 100.0, 0.05, math.inf, 1.0, "sigma and t must be positive and finite"),
    (100.0, 100.0, math.nan, 0.2, 1.0, "-r*t is NaN"),
    # sigma*sqrt(t) overflows, so d1 = inf/inf.
    (100.0, 100.0, 0.05, 1e300, 1e300, "d1 = nan"),
    # K*exp(-r*t) overflows.
    (1.0, 1e308, -1.0, 0.2, 700.0, "the value nan must be finite"),
    # sigma^2*t/2 overflows, so d1 = d2 = inf and the call would be worth 4.877.
    (100.0, 100.0, 0.05, 1e200, 1.0, "d1 = inf"),
], ids=["infinite-spot", "infinite-sigma", "nan-rate", "overflowing-scale",
        "overflowing-strike-value", "overflowing-variance"])
def test_black_scholes_rejects_a_result_that_is_not_finite(s0, strike, r, sigma, t, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        black_scholes_call(s0, strike, r, sigma, t)


def test_discontinuity_rejects_a_nan_rate_by_name():
    # Not an ArbitrageError that blames the rate's band.
    with pytest.raises(DomainError, match=re.escape("r*t is NaN")):
        discontinuity_report(100.0, math.nan, 0.2, 1.0, Payoff.call(100.0), 0.5)


def test_roll_back_rejects_a_discount_too_large_for_exp():
    lattice = Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 4, 0.01, rate=-1e5)
    with pytest.raises(DomainError, match=re.escape("-rate*dt = 1000.0 is too large")):
        lattice.roll_back(0.5, np.ones(5))


def test_roll_back_rejects_a_root_that_overflows_at_a_negative_rate():
    # exp(-rate*dt) > 1 lifts the largest float past itself at the first step.
    lattice = Lattice.build(100.0, jarrow_rudd_params(-0.05, 0.2), 4, 1 / 252, -0.05)
    with pytest.raises(DomainError, match="overflows a float"):
        lattice.roll_back(0.5, np.full(5, 1.7976931348623157e308))


def test_roll_back_leaves_a_two_dimensional_payoff_unwritten_and_repeats_bit_for_bit():
    lattice = Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 64, DAILY, 0.05)
    values = np.maximum(lattice.node_values(64)[:, None]
                        - np.array([90.0, 100.0, 110.0])[None, :], 0.0)
    before = values.tobytes()
    first = lattice.roll_back(0.5, values)
    kept = first.tobytes()
    second = lattice.roll_back(0.5, values)
    assert values.tobytes() == before
    assert second.tobytes() == first.tobytes() == kept
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("q, values", [
    (0.5, [math.nan, 1.0, 1.0, 1.0, 1.0]),
    (1.0, [math.inf, 1.0, 1.0, 1.0, 1.0]),
], ids=["nan", "inf-row-of-zero-weight"])
def test_roll_back_rejects_non_finite_terminal_values(q, values):
    lattice = Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 4, 0.01, rate=0.05)
    with pytest.raises(DomainError, match="terminal values must be finite"):
        lattice.roll_back(q, np.array(values))


def test_delta_hedge_rejects_a_price_spread_that_underflows():
    # u - d is about 0.025 at a daily step, so s*(u - d) rounds to 0.
    with pytest.raises(DomainError, match=re.escape("s*(u - d) underflows")):
        delta_hedge(5e-324, 1.0, 0.0, mp(), DAILY)


def test_discontinuity_rejects_a_very_negative_rate_as_arbitrage():
    # exp(r*t) underflows to 0, so q = -d/(u - d) < 0.
    with pytest.raises(ArbitrageError, match="replication probability"):
        discontinuity_report(100.0, -1000.0, 0.2, 1.0, Payoff.call(100.0), 0.5)


def test_delta_hedge_and_discontinuity_reject_a_nan_spot():
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        delta_hedge(float("nan"), 5.0, 0.0, mp(), 0.01)
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        discontinuity_report(float("nan"), 0.0, 0.2, 1.0, Payoff.call(100.0), 0.5)
