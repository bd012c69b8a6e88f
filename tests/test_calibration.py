"""Error metrics, chain pricing, and least-squares calibration."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptree import calibration
from mptree.calibration import (MODELS, CalibrationConfig, OptionQuote,
                                build_params, calibrate, calibrate_suite,
                                calibration_report_csv, error_metrics,
                                free_parameter_spec, implied_atm_sigma,
                                model_prices)
from mptree.calibration import free_parameter_names
from mptree.errors import ArbitrageError, DomainError
from mptree.model import jarrow_rudd_params
from mptree.pricing import (Lattice, Payoff, black_scholes_call,
                            price_european, risk_neutral_prob)

DAILY = 1.0 / 252.0
S0, RATE = 100.0, 0.04
STRIKES = [85.0, 92.5, 100.0, 107.5, 115.0]
DAYS = [21, 42]


def synthetic_chain(model, x):
    protos = [OptionQuote(k, d, 1.0) for d in DAYS for k in STRIKES]
    params = build_params(model, x, RATE, DAILY)
    prices = model_prices(model, params, protos, S0, RATE)
    return [OptionQuote(q.strike, q.days_to_maturity, p)
            for q, p in zip(protos, prices)]


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def test_metrics_zero_on_identical_inputs():
    metrics = error_metrics([3.0, 4.0, 5.0], [3.0, 4.0, 5.0])
    assert metrics.aae == metrics.ape == metrics.arpe == metrics.rmse == 0.0


def test_metrics_direct_arithmetic():
    metrics = error_metrics([11.0, 18.0], [10.0, 20.0])
    assert metrics.aae == pytest.approx(1.5, rel=1e-15)
    assert metrics.ape == pytest.approx(0.1, rel=1e-15)
    assert metrics.arpe == pytest.approx(0.1, rel=1e-15)
    assert metrics.rmse == pytest.approx(math.sqrt(2.5), rel=1e-15)


def test_metrics_rmse_dominates_aae():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 12)
        market = [rng.uniform(1.0, 50.0) for _ in range(n)]
        model = [m + rng.uniform(-5.0, 5.0) for m in market]
        metrics = error_metrics(model, market)
        assert metrics.rmse >= metrics.aae - 1e-12


def test_metrics_scaling_behaviour():
    market = [10.0, 20.0, 40.0]
    model = [11.0, 19.0, 37.0]
    base = error_metrics(model, market)
    scaled = error_metrics([3.0 * m for m in model], [3.0 * m for m in market])
    assert scaled.aae == pytest.approx(3.0 * base.aae, rel=1e-12)
    assert scaled.rmse == pytest.approx(3.0 * base.rmse, rel=1e-12)
    assert scaled.ape == pytest.approx(base.ape, rel=1e-12)
    assert scaled.arpe == pytest.approx(base.arpe, rel=1e-12)


def test_metrics_input_guards():
    with pytest.raises(DomainError):
        error_metrics([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        error_metrics([], [])
    with pytest.raises(DomainError):
        error_metrics([1.0], [0.0])


# ---------------------------------------------------------------------------
# quote and chain pricing
# ---------------------------------------------------------------------------

def test_quote_validation():
    with pytest.raises(DomainError):
        OptionQuote(strike=-1.0, days_to_maturity=10, market_price=1.0)
    with pytest.raises(DomainError):
        OptionQuote(strike=100.0, days_to_maturity=0, market_price=1.0)
    with pytest.raises(DomainError):
        OptionQuote(strike=100.0, days_to_maturity=10, market_price=0.0)


def test_quote_days_must_be_an_integer():
    with pytest.raises(DomainError, match="integer"):
        OptionQuote(strike=100.0, days_to_maturity=21.5, market_price=1.0)
    quote = OptionQuote(strike=100.0, days_to_maturity=np.int64(21), market_price=1.0)
    assert type(quote.days_to_maturity) is int


def test_model_prices_zero_strike_limit():
    quote = OptionQuote(strike=1e-8, days_to_maturity=21, market_price=1.0)
    price = model_prices("jr", jarrow_rudd_params(RATE, 0.2), [quote], S0, RATE)[0]
    assert price == pytest.approx(S0, abs=1e-6)


def test_model_prices_one_step_matches_hand_induction():
    params = jarrow_rudd_params(RATE, 0.2)
    quote = OptionQuote(strike=100.0, days_to_maturity=1, market_price=1.0)
    price = model_prices("jr", params, [quote], S0, RATE)[0]
    lattice = Lattice.build(S0, params, n=1, dt=DAILY, rate=RATE)
    q = risk_neutral_prob(params, RATE, DAILY)
    f_u = max(S0 * lattice.factors.u - 100.0, 0.0)
    f_d = max(S0 * lattice.factors.d - 100.0, 0.0)
    assert price == pytest.approx(math.exp(-RATE * DAILY)
                                  * (q * f_u + (1 - q) * f_d), rel=1e-14)


def test_model_prices_monotone_in_strike():
    quotes = [OptionQuote(k, 42, 1.0) for k in STRIKES]
    prices = model_prices("crr", build_params("crr", (0.25,), RATE, DAILY),
                          quotes, S0, RATE)
    assert all(a >= b for a, b in zip(prices, prices[1:]))


def test_model_prices_grouping_matches_individual_pricing():
    params = build_params("mpbin1", (0.3, 0.45), RATE, DAILY)
    quotes = [OptionQuote(k, d, 1.0) for d in (7, 21, 42) for k in STRIKES]
    grouped = model_prices("mpbin1", params, quotes, S0, RATE)
    single = [model_prices("mpbin1", params, [q], S0, RATE)[0] for q in quotes]
    assert grouped == single


def test_model_prices_equals_price_european():
    params = build_params("mpbin1", (0.22, 0.55), RATE, DAILY)
    quote = OptionQuote(strike=101.0, days_to_maturity=35, market_price=1.0)
    batch = model_prices("mpbin1", params, [quote], S0, RATE)[0]
    lattice = Lattice.build(S0, params, n=35, dt=DAILY, rate=RATE)
    direct = price_european(lattice, params, Payoff.call(101.0))
    assert batch == pytest.approx(direct, rel=1e-14)


def test_model_prices_error_names_offending_quote():
    quotes = [OptionQuote(100.0, 21, 1.0)]
    with pytest.raises(ArbitrageError, match="quote 0"):
        model_prices("jr", jarrow_rudd_params(RATE, 0.2), quotes, S0, r=4.0)


def test_model_prices_input_guards():
    params = jarrow_rudd_params(RATE, 0.2)
    with pytest.raises(DomainError):
        model_prices("jr", params, [], S0, RATE)
    with pytest.raises(DomainError):
        model_prices("nope", params, [OptionQuote(100.0, 21, 1.0)], S0, RATE)
    with pytest.raises(DomainError):
        model_prices("jr", params, [OptionQuote(100.0, 21, 1.0)], -5.0, RATE)


def test_build_params_mpbin2_derived_quantities():
    sigma, g, p_dt, gamma = 0.21, 0.45, 0.52, 0.09
    params = build_params("mpbin2", (sigma, g, p_dt, gamma), RATE, DAILY)
    assert params.v == pytest.approx((p_dt - g) / math.sqrt(DAILY), rel=1e-14)
    assert params.delta == pytest.approx((RATE - g * gamma) / (1 - g), rel=1e-14)
    # the construction pins the physical mean drift at r
    assert params.mean_drift == pytest.approx(RATE, rel=1e-12)


def test_free_parameter_spec_shapes():
    assert len(free_parameter_spec("crr")[0]) == 1
    assert len(free_parameter_spec("mpbin1")[0]) == 2
    assert len(free_parameter_spec("mpbin2")[0]) == 4
    with pytest.raises(DomainError):
        free_parameter_spec("black-scholes")


def test_implied_atm_sigma_recovers_generator_vol():
    chain = synthetic_chain("crr", (0.2,))
    assert implied_atm_sigma(chain, S0, RATE) == pytest.approx(0.2, abs=2e-3)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_round_trip_mpbin1_recovers_parameters():
    chain = synthetic_chain("mpbin1", (0.2, 0.55))
    result = calibrate("mpbin1", chain, S0, RATE)
    assert result.metrics.rmse < 1e-6 * S0
    assert result.params.sigma == pytest.approx(0.2, abs=1e-3)
    assert result.params.g == pytest.approx(0.55, abs=2e-2)


def test_black_scholes_chain_recovers_sigma_with_crr():
    # Quotes priced by the closed form at long maturities; the daily CRR
    # lattice then carries only O(1/n) discretization error.
    quotes = []
    for days in (189, 252):
        t = days / 252.0
        for strike in (90.0, 100.0, 110.0):
            quotes.append(OptionQuote(
                strike, days, black_scholes_call(S0, strike, RATE, 0.25, t)))
    result = calibrate("crr", quotes, S0, RATE)
    assert result.params.sigma == pytest.approx(0.25, abs=5e-3)


def test_calibrate_respects_bounds():
    chain = synthetic_chain("mpbin2", (0.21, 0.45, 0.52, 0.09))
    for model in MODELS:
        result = calibrate(model, chain, S0, RATE)
        p = result.params
        assert 1e-4 <= p.sigma <= 5.0
        assert 1e-4 <= p.g <= 1 - 1e-4
        if model == "mpbin2":
            assert 1e-4 <= p.gamma <= 5.0
            p_dt = p.g + p.v * math.sqrt(DAILY)
            assert 1e-4 - 1e-12 <= p_dt <= 1 - 1e-4 + 1e-12


def test_calibrate_is_deterministic():
    chain = synthetic_chain("jr", (0.25,))
    first = calibrate("mpbin1", chain, S0, RATE)
    second = calibrate("mpbin1", chain, S0, RATE)
    assert first.params == second.params
    assert first.metrics == second.metrics
    assert first.objective_evaluations == second.objective_evaluations


def test_calibrate_rejects_bad_extra_start():
    chain = synthetic_chain("jr", (0.25,))
    config = CalibrationConfig(extra_starts=((0.2, 0.5, 0.5),))
    with pytest.raises(DomainError, match="extra start"):
        calibrate("mpbin1", chain, S0, RATE, config)


def test_calibrate_requires_quotes():
    with pytest.raises(DomainError):
        calibrate("crr", [], S0, RATE)


def test_suite_seeded_nesting_on_tian_chain():
    chain = synthetic_chain("tian", (0.18,))
    results = calibrate_suite(MODELS, chain, S0, RATE)
    rmse = {res.model: res.metrics.rmse for res in results}
    best_classical = min(rmse["crr"], rmse["jr"], rmse["tian"])
    assert rmse["mpbin1"] <= best_classical + 1e-12
    assert rmse["mpbin2"] <= rmse["mpbin1"] + 1e-12


def test_suite_runs_subset_in_canonical_order():
    chain = synthetic_chain("jr", (0.25,))
    results = calibrate_suite(["mpbin1", "crr"], chain, S0, RATE)
    assert [res.model for res in results] == ["crr", "mpbin1"]


def test_suite_rejects_unknown_model():
    chain = synthetic_chain("jr", (0.25,))
    with pytest.raises(DomainError):
        calibrate_suite(["crr", "heston"], chain, S0, RATE)


def test_report_csv_layout():
    chain = synthetic_chain("jr", (0.25,))
    results = calibrate_suite(["crr", "jr"], chain, S0, RATE)
    lines = calibration_report_csv(results).strip().splitlines()
    assert lines[0].startswith("model,sigma,g,v,gamma,delta,aae,ape,arpe,rmse")
    assert len(lines) == 3
    for line, res in zip(lines[1:], results):
        fields = line.split(",")
        assert fields[0] == res.model
        assert float(fields[1]) == res.params.sigma
        assert float(fields[9]) == res.metrics.rmse
        assert fields[11] in ("True", "False")


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------

EMBED_CHAIN = [OptionQuote(k, d, 1.0) for d in (5, 21) for k in (95.0, 100.0, 105.0)]
NESTING = [(poorer, "mpbin1") for poorer in ("crr", "jr", "tian")] + \
    [(poorer, "mpbin2") for poorer in ("crr", "jr", "tian", "mpbin1")]


@settings(deadline=None)
@given(sigma=st.floats(0.05, 1.0), g=st.floats(0.3, 0.7))
def test_richer_family_reprices_an_embedded_poorer_tree(sigma, g):
    for poorer, richer in NESTING:
        x = (sigma, g)[:len(free_parameter_spec(poorer)[0])]
        params = build_params(poorer, x, RATE, DAILY)
        family = calibration._FAMILIES[richer]
        embedded = family.build(family.embed(params, DAILY), RATE, DAILY)
        assert model_prices(richer, embedded, EMBED_CHAIN, S0, RATE) == pytest.approx(
            model_prices(poorer, params, EMBED_CHAIN, S0, RATE), rel=1e-12), (poorer, richer)


# ---------------------------------------------------------------------------
# one roll-back kernel for chains and single options
# ---------------------------------------------------------------------------

FREE_PARAMETER_RANGES = {"sigma": (0.05, 1.0), "g": (0.3, 0.7), "p_dt": (0.3, 0.7),
                         "gamma": (0.01, 0.5)}
MATURITIES = [1, 5, 21, 42, 63, 126]


@st.composite
def family_params(draw):
    """(model, rate, params) for any family, free parameters inside their ranges."""
    model = draw(st.sampled_from(MODELS))
    x = [draw(st.floats(*FREE_PARAMETER_RANGES[name]))
         for name in free_parameter_names(model)]
    r = draw(st.floats(0.0, 0.08))
    return model, r, build_params(model, x, r, DAILY)


@settings(deadline=None)
@given(case=family_params(), s0=st.floats(50.0, 150.0),
       legs=st.lists(st.tuples(st.sampled_from(MATURITIES), st.floats(0.5, 1.5)),
                     min_size=1, max_size=12))
def test_model_prices_is_price_european_of_each_quote(case, s0, legs):
    model, r, params = case
    quotes = [OptionQuote(moneyness * s0, days, 1.0) for days, moneyness in legs]

    def one_at_a_time():
        return [price_european(Lattice.build(s0, params, q.days_to_maturity, DAILY, r),
                               params, Payoff.call(q.strike)) for q in quotes]

    try:
        batch = model_prices(model, params, quotes, s0, r)
    except (DomainError, ArbitrageError) as exc:
        with pytest.raises(type(exc)):
            one_at_a_time()
        return
    assert batch == one_at_a_time()


@settings(deadline=None)
@given(case=family_params(), s0=st.floats(50.0, 150.0),
       n=st.sampled_from(MATURITIES),
       moneyness=st.lists(st.floats(0.5, 1.5), min_size=2, max_size=6),
       bump=st.floats(1.0, 1.5), method=st.sampled_from(["exact", "asymptotic"]))
def test_call_price_monotone_in_strike_and_spot(case, s0, n, moneyness, bump, method):
    _, r, params = case

    def price(spot, strike):
        lattice = Lattice.build(spot, params, n, DAILY, r, method=method)
        return price_european(lattice, params, Payoff.call(strike))

    by_strike = [price(s0, m * s0) for m in sorted(moneyness)]
    assert all(a >= b for a, b in zip(by_strike, by_strike[1:]))
    strike = moneyness[0] * s0
    assert price(s0 * bump, strike) >= price(s0, strike)


@settings(deadline=None)
@given(case=family_params(), s0=st.floats(50.0, 150.0),
       n=st.sampled_from(MATURITIES),
       moneyness=st.lists(st.floats(0.5, 1.5), min_size=1, max_size=8))
def test_roll_back_columns_equal_one_dimensional_roll_backs(case, s0, n, moneyness):
    _, r, params = case
    lattice = Lattice.build(s0, params, n, DAILY, r)
    q = risk_neutral_prob(params, r, DAILY)
    terminal = lattice.node_values(n)
    values = np.maximum(terminal[:, None] - np.array(moneyness)[None, :] * s0, 0.0)
    root = lattice.roll_back(q, values)
    assert root.shape == (len(moneyness),)
    for col in range(len(moneyness)):
        assert root[col] == lattice.roll_back(q, values[:, col])


@settings(deadline=None)
@given(case=family_params(), n=st.sampled_from([1, 5, 21, 42]),
       c=st.floats(0.01, 100.0))
def test_roll_back_discounts_a_constant_payoff(case, n, c):
    _, r, params = case
    lattice = Lattice.build(S0, params, n, DAILY, r)
    q = risk_neutral_prob(params, r, DAILY)
    assert lattice.roll_back(q, np.full(n + 1, c)) == pytest.approx(
        c * math.exp(-r * n * DAILY), rel=1e-14)


@pytest.mark.parametrize("shape", [(), (21,), (23,), (23, 3)])
def test_roll_back_rejects_values_without_one_row_per_node(shape):
    params = jarrow_rudd_params(RATE, 0.2)
    lattice = Lattice.build(S0, params, 21, DAILY, RATE)
    with pytest.raises(DomainError, match="need 22 terminal rows"):
        lattice.roll_back(0.5, np.ones(shape))


def test_custom_payoff_of_the_wrong_shape_is_a_domain_error():
    params = jarrow_rudd_params(RATE, 0.2)
    lattice = Lattice.build(S0, params, 21, DAILY, RATE)
    with pytest.raises(DomainError, match="got \\(\\)$"):
        price_european(lattice, params, Payoff.custom(lambda s: 1.0))
