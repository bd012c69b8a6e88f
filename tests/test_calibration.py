"""Error metrics, chain pricing, and least-squares calibration."""

import math
import random
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mptree import calibration
from mptree.calibration import (MODELS, CalibrationConfig, OptionQuote,
                                build_params, calibrate, calibrate_suite,
                                calibration_report_csv, error_metrics,
                                free_parameter_spec, implied_atm_sigma,
                                model_prices)
from mptree.calibration import free_parameter_names
from mptree.errors import ArbitrageError, DomainError
from mptree.market_io import load_chain
from mptree.optimize import least_squares, minimize
from mptree.model import ModelParams, crr_params, jarrow_rudd_params, p_up
from mptree.pricing import (Lattice, Payoff, black_scholes_call,
                            price_european, risk_neutral_prob)

DAILY = 1.0 / 252.0
S0, RATE = 100.0, 0.04
STRIKES = [85.0, 92.5, 100.0, 107.5, 115.0]
DAYS = [21, 42]


def four_coordinate_tree(sigma, g, p_dt, gamma, r):
    """The tree with up probability p_dt at one day and mean drift r under g.

    Where p_dt != g its slope v is not 0, so it lies outside mpbin2 as
    parameterized, though at the daily dt it has a v = 0 twin there.
    """
    return ModelParams(gamma=gamma, delta=(r - g * gamma) / (1.0 - g), g=g,
                       v=(p_dt - g) / math.sqrt(DAILY), sigma=sigma)


def priced_chain(model, params):
    protos = [OptionQuote(k, d, 1.0) for d in DAYS for k in STRIKES]
    prices = model_prices(model, params, protos, S0, RATE)
    return [OptionQuote(q.strike, q.days_to_maturity, p)
            for q, p in zip(protos, prices)]


def synthetic_chain(model, x):
    return priced_chain(model, build_params(model, x, RATE))


# A chain whose generating tree has v != 0 and gamma != delta.
SLOPED_CHAIN = priced_chain("mpbin2", four_coordinate_tree(0.21, 0.45, 0.52, 0.09, RATE))


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


def test_quote_rejects_a_nan_strike():
    with pytest.raises(DomainError, match="strike must be positive and finite, got nan"):
        OptionQuote(strike=float("nan"), days_to_maturity=10, market_price=1.0)


def test_quote_rejects_a_nan_market_price():
    with pytest.raises(DomainError, match="market price must be positive and finite, got nan"):
        OptionQuote(strike=100.0, days_to_maturity=10, market_price=float("nan"))


def test_quote_rejects_an_infinite_strike():
    with pytest.raises(DomainError, match="strike must be positive and finite, got inf"):
        OptionQuote(strike=math.inf, days_to_maturity=21, market_price=2.0)


def test_quote_rejects_an_infinite_market_price():
    with pytest.raises(DomainError,
                       match="market price must be positive and finite, got inf"):
        OptionQuote(strike=100.0, days_to_maturity=21, market_price=math.inf)


def test_quote_days_must_be_an_integer():
    with pytest.raises(DomainError, match="integer"):
        OptionQuote(strike=100.0, days_to_maturity=21.5, market_price=1.0)
    quote = OptionQuote(strike=100.0, days_to_maturity=np.int64(21), market_price=1.0)
    assert type(quote.days_to_maturity) is int


def test_model_prices_rejects_a_nan_spot():
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        model_prices("jr", jarrow_rudd_params(RATE, 0.2), [OptionQuote(100.0, 21, 1.0)],
                     float("nan"), RATE)


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
    prices = model_prices("crr", build_params("crr", (0.25,), RATE),
                          quotes, S0, RATE)
    assert all(a >= b for a, b in zip(prices, prices[1:]))


def test_model_prices_grouping_matches_individual_pricing():
    params = build_params("mpbin1", (0.3, 0.45), RATE)
    quotes = [OptionQuote(k, d, 1.0) for d in (7, 21, 42) for k in STRIKES]
    grouped = model_prices("mpbin1", params, quotes, S0, RATE)
    single = [model_prices("mpbin1", params, [q], S0, RATE)[0] for q in quotes]
    assert grouped == single


def test_model_prices_equals_price_european():
    params = build_params("mpbin1", (0.22, 0.55), RATE)
    quote = OptionQuote(strike=101.0, days_to_maturity=35, market_price=1.0)
    batch = model_prices("mpbin1", params, [quote], S0, RATE)[0]
    lattice = Lattice.build(S0, params, n=35, dt=DAILY, rate=RATE)
    direct = price_european(lattice, params, Payoff.call(101.0))
    assert batch == pytest.approx(direct, rel=1e-14)


def test_model_prices_error_names_the_cause_not_a_quote():
    # The tree is checked once for the whole chain, so no quote is to blame.
    quotes = [OptionQuote(100.0, 21, 1.0), OptionQuote(110.0, 42, 1.0)]
    with pytest.raises(ArbitrageError, match="risk-neutral probability") as info:
        model_prices("jr", jarrow_rudd_params(RATE, 0.2), quotes, S0, r=4.0)
    assert "quote" not in str(info.value)


def test_model_prices_input_guards():
    params = jarrow_rudd_params(RATE, 0.2)
    with pytest.raises(DomainError):
        model_prices("jr", params, [], S0, RATE)
    with pytest.raises(DomainError):
        model_prices("nope", params, [OptionQuote(100.0, 21, 1.0)], S0, RATE)
    with pytest.raises(DomainError):
        model_prices("jr", params, [OptionQuote(100.0, 21, 1.0)], -5.0, RATE)


def test_build_params_mpbin2_derived_quantities():
    sigma, g, gamma = 0.21, 0.45, 0.09
    params = build_params("mpbin2", (sigma, g, gamma), RATE)
    assert (params.sigma, params.g, params.v, params.gamma) == (sigma, g, 0.0, gamma)
    assert params.delta == pytest.approx((RATE - g * gamma) / (1 - g), rel=1e-14)
    # the construction pins the mean drift under the up probability g at r
    assert params.mean_drift == pytest.approx(RATE, rel=1e-12)


@pytest.mark.parametrize("g", [1.0, 0.0, float("nan")])
def test_build_params_mpbin2_rejects_g_outside_the_unit_interval(g):
    with pytest.raises(DomainError, match="g must lie strictly inside"):
        build_params("mpbin2", (0.21, g, 0.09), RATE)


@pytest.mark.parametrize("model, x", [
    ("crr", [0.2, 0.9, 7.0]),
    ("mpbin1", [0.2, 0.45, 3.0]),
    ("crr", []),
    ("mpbin2", [0.2]),
], ids=["crr-too-long", "mpbin1-too-long", "crr-empty", "mpbin2-too-short"])
def test_build_params_rejects_a_vector_of_the_wrong_length(model, x):
    names = re.escape(str(free_parameter_names(model)))
    with pytest.raises(DomainError, match=f"^{model} takes free parameters {names}, "
                                          f"got {len(x)} values$"):
        build_params(model, x, 0.05)


def test_model_prices_rejects_a_discount_too_large_for_exp():
    # Q is valid here, but exp(-r*dt) = exp(180000/252) overflows a float.
    with pytest.raises(DomainError, match=re.escape("-rate*dt = 714.2857142857142 is too large")):
        model_prices("jr", jarrow_rudd_params(-180000.0, 0.2),
                     [OptionQuote(100.0, 21, 2.0)], 100.0, -180000.0)


def test_model_prices_rejects_a_price_that_overflows_at_a_negative_rate():
    # Q = g = 0.9 leaves a martingale residual of about +0.5% a step, and
    # u < 1 keeps every node at or below the spot, so the call's value
    # outgrows the largest float before it reaches the root.
    params = ModelParams(gamma=-20.0, delta=-20.0, g=0.9, v=0.0, sigma=3.0)
    with pytest.raises(DomainError, match="overflows a float"):
        model_prices("mpbin1", params, [OptionQuote(1.0, 21, 1.0)], 1.7e308, -20.0)


def test_free_parameter_spec_shapes():
    assert len(free_parameter_spec("crr")[0]) == 1
    assert len(free_parameter_spec("mpbin1")[0]) == 2
    assert len(free_parameter_spec("mpbin2")[0]) == 3
    with pytest.raises(DomainError):
        free_parameter_spec("black-scholes")


def test_implied_atm_sigma_returns_the_start_when_no_tree_prices():
    # At r = 100 the CRR up probability of a daily step exceeds 1 for every
    # sigma in the box, so no tree prices the quote.
    start = calibration._default_start("crr", 0.2, 100.0, DAILY)[0]
    assert implied_atm_sigma([OptionQuote(100.0, 21, 1.0)], 100.0, 100.0) == start


@pytest.mark.parametrize("strike, days, r, price", [(110.0, 1, RATE, 0.5),
                                                     (97.22, 55, 0.053, 34.93)])
def test_implied_atm_sigma_reprices_a_quote_far_from_0_2(strike, days, r, price):
    # At sigma 0.2 the first quote's one-step tree has no node above the
    # strike, so its price is 0 and flat in sigma there; the second needs
    # a sigma near 1.9, where the price is nearly flat in sigma.
    assert S0 * math.exp(0.2 * math.sqrt(DAILY)) < 110.0
    quote = OptionQuote(strike, days, price)
    found = implied_atm_sigma([quote], S0, r)
    assert found > 1.0
    assert model_prices("crr", crr_params(r, found), [quote], S0, r)[0] == pytest.approx(
        price, abs=1e-10 * S0)


def test_implied_atm_sigma_recovers_generator_vol():
    chain = synthetic_chain("crr", (0.2,))
    assert implied_atm_sigma(chain, S0, RATE) == pytest.approx(0.2, abs=2e-3)


@settings(deadline=None, max_examples=100)
@given(sigma=st.floats(0.02, 1.5), r=st.floats(-0.02, 0.08),
       days=st.integers(1, 60), moneyness=st.floats(0.8, 1.2),
       noise=st.floats(-0.3, 0.3))
def test_implied_atm_sigma_reprices_the_quote_when_the_range_brackets_it(
        sigma, r, days, moneyness, noise):
    # When the prices at the ends of the range fall on both sides of the
    # market price, some sigma between them reprices the quote, and the
    # inversion finds one to rounding; otherwise it returns the start of
    # the fits, which is 0.2 made admissible.
    proto = OptionQuote(moneyness * S0, days, 1.0)
    price = model_prices("crr", crr_params(r, sigma), [proto], S0, r)[0]
    quote = OptionQuote(proto.strike, days, max(price * (1.0 + noise), 1e-3))

    def miss(sig):
        return model_prices("crr", crr_params(r, sig), [quote], S0, r)[0] - quote.market_price

    lo = calibration._default_start("crr", calibration.SIGMA_BOUNDS[0], r, DAILY)[0]
    found = implied_atm_sigma([quote], S0, r)
    if miss(lo) <= 0.0 <= miss(calibration.SIGMA_BOUNDS[1]):
        assert abs(miss(found)) <= 1e-10 * S0
    else:
        assert found == calibration._default_start("crr", 0.2, r, DAILY)[0]


def test_implied_atm_sigma_ignores_the_order_of_the_quotes():
    # 92.5 and 107.5 are equally near the money: the shorter maturity, then
    # the lower strike, is the at-the-money quote whatever the input order.
    chain = [q for q in synthetic_chain("mpbin1", (0.25, 0.47)) if q.strike != 100.0]
    expected = implied_atm_sigma([q for q in chain if q.strike == 92.5 and
                                  q.days_to_maturity == 21], S0, RATE)
    for quotes in (chain, chain[::-1], random.Random(3).sample(chain, len(chain))):
        assert implied_atm_sigma(quotes, S0, RATE) == expected


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
    for model in MODELS:
        result = calibrate(model, SLOPED_CHAIN, S0, RATE)
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


def test_calibrate_hands_its_config_to_the_optimizer(monkeypatch):
    # One Nelder-Mead search from the best-ranked start, then one polish,
    # which takes the one setting it reads, the tolerance.
    configs = []

    def spy(search):
        def call(*args):
            configs.append((search.__name__, args[-1]))
            return search(*args)
        return call

    monkeypatch.setattr(calibration, "minimize", spy(minimize))
    monkeypatch.setattr(calibration, "least_squares", spy(least_squares))
    config = CalibrationConfig(tolerance=1e-6, restarts=1, max_iterations=30, seed=4)
    calibrate("crr", synthetic_chain("jr", (0.25,)), S0, RATE, config)
    assert configs == [("minimize", config), ("least_squares", config.tolerance)]
    assert configs[0][1] is config


def test_calibrate_counts_every_evaluation(monkeypatch):
    # Each search counts every call it makes to its objective, a repeated
    # point included, while model_prices runs once per distinct point: the
    # fit answers a repeat, and takes its reported metrics, from the
    # prices it keeps. model_prices also runs for the at-the-money sigma
    # and the poorer families' fits (as "crr", "jr" and "tian").
    points, priced = [], []

    def spy(search):
        def call(objective, bounds, *rest):
            def counted(x):
                if len(bounds) == 2:  # mpbin1
                    points.append(np.asarray(x, dtype=float).tobytes())
                return objective(x)
            return search(counted, bounds, *rest)
        return call

    def counting(model, *args):
        priced.append(model)
        return model_prices(model, *args)

    monkeypatch.setattr(calibration, "minimize", spy(minimize))
    monkeypatch.setattr(calibration, "least_squares", spy(least_squares))
    monkeypatch.setattr(calibration, "model_prices", counting)
    result = calibrate("mpbin1", SLOPED_CHAIN, S0, RATE)
    assert result.objective_evaluations == len(points)
    assert priced.count("mpbin1") == len(set(points)) < len(points)


def test_a_fit_prices_each_point_once(monkeypatch, tmp_path):
    # On the benchmark's first chain of seed 1 the searches revisit
    # points, and each fit reports the metrics of its best point; a fit
    # answers every such repeat from the prices it keeps. The free
    # vector's coordinates are fields of the tree.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from mptree_bench import inputs
    job = inputs.make_jobs("calibrate", 1, tmp_path)[0]
    chain = load_chain(job.path)
    fits = []
    fit = calibration._fit

    def fitting(*args):
        fits.append([])
        return fit(*args)

    def pricing(model, params, *rest):
        if fits:  # not the at-the-money sigma, which comes before the fits
            free = [getattr(params, name) for name in free_parameter_names(model)]
            fits[-1].append((model, np.array(free).tobytes()))
        return model_prices(model, params, *rest)

    monkeypatch.setattr(calibration, "_fit", fitting)
    monkeypatch.setattr(calibration, "model_prices", pricing)
    calibrate_suite(MODELS, chain.quotes, chain.spot, chain.rate)
    assert len(fits) == len(MODELS)
    for points in fits:
        assert len(set(points)) == len(points)


def record_searches(monkeypatch):
    """(search name, dimensions, evaluations) of every search and polish.

    The dimension names the family: 1 for crr, jr and tian, 2 for mpbin1,
    3 for mpbin2.
    """
    calls = []

    def spy(search):
        def call(objective, bounds, *rest):
            result = search(objective, bounds, *rest)
            calls.append((search.__name__, len(bounds), result.evaluations))
            return result
        return call

    monkeypatch.setattr(calibration, "minimize", spy(minimize))
    monkeypatch.setattr(calibration, "least_squares", spy(least_squares))
    return calls


def test_fit_makes_no_ranking_evaluation(monkeypatch):
    # Every evaluation belongs to the search or the polish: each fit has one
    # start, and nothing prices it before the search does.
    calls = record_searches(monkeypatch)
    results = calibrate_suite(MODELS, SLOPED_CHAIN, S0, RATE)
    counts = [evaluations for _, _, evaluations in calls]
    assert len(counts) == 2 * len(MODELS)
    assert [res.objective_evaluations for res in results] == [
        counts[i] + counts[i + 1] for i in range(0, len(counts), 2)]


def test_nested_family_starts_from_the_best_poorer_optimum(monkeypatch):
    starts = []

    def recording(objective, bounds, start, *rest):
        starts.append(list(start))
        return minimize(objective, bounds, start, *rest)

    monkeypatch.setattr(calibration, "minimize", recording)
    results = calibrate_suite(MODELS, SLOPED_CHAIN, S0, RATE)
    for i in (3, 4):  # mpbin1, mpbin2
        best = min(results[:i], key=lambda res: res.metrics.rmse)
        bounds = free_parameter_spec(MODELS[i])[0]
        seed = calibration._seed(best.params, DAILY)[:len(bounds)]
        assert starts[i] == [calibration._inside(x, box) for x, box in zip(seed, bounds)]


def test_polish_reports_no_convergence_where_the_sigma_transform_saturated():
    # The Gauss-Newton step from sigma 0.2 lands at the top of the sigma box,
    # where the forward-difference point decodes to the same sigma and the
    # Jacobian is exactly 0. sigma near 1.9 reprices the quote.
    bounds, transforms = free_parameter_spec("crr")
    residuals = calibration._residuals("crr", [OptionQuote(97.22, 55, 34.93)],
                                       S0, 0.053, DAILY)
    result = least_squares(residuals, bounds,
                           calibration._default_start("crr", 0.2, 0.053, DAILY),
                           transforms)
    assert result.x[0] == pytest.approx(5.0)
    assert result.value > 400.0
    assert not result.converged


def test_suite_rejects_a_call_priced_above_the_spot():
    # No call is worth more than the stock; crr used to fit this chain at
    # the top of the sigma box with converged = True.
    quotes = [OptionQuote(90.0, 21, 10.6), OptionQuote(100.0, 21, 150.0),
              OptionQuote(110.0, 21, 0.4)]
    with pytest.raises(DomainError, match=r"spot 100\.0.*strike=100\.0.*market_price=150\.0"):
        calibrate("crr", quotes, S0, RATE)


def test_suite_names_the_first_call_priced_above_the_spot():
    # The first in the order given, not in the (maturity, strike) order.
    quotes = [OptionQuote(100.0, 21, 3.0), OptionQuote(110.0, 21, 101.0),
              OptionQuote(90.0, 21, 102.0)]
    with pytest.raises(DomainError, match="strike=110.0"):
        calibrate_suite(MODELS, quotes, S0, RATE)


@pytest.mark.parametrize("s0, message", [
    (0.0, "spot must be positive, got 0.0"),
    (-1.0, "spot must be positive, got -1.0"),
    (math.inf, "spot must be finite, got inf"),
    (math.nan, "spot must be positive, got nan"),
])
def test_suite_rejects_a_bad_spot(s0, message):
    with pytest.raises(DomainError, match=message):
        calibrate_suite(["crr"], [OptionQuote(100.0, 21, 3.0)], s0, RATE)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_suite_rejects_a_non_finite_rate(r):
    with pytest.raises(DomainError, match=f"rate must be finite, got {r}"):
        calibrate_suite(["crr"], [OptionQuote(100.0, 21, 3.0)], S0, r)


def _chain_with_one_long_quote():
    """Five noisy mpbin1 quotes: four of at most 100 days, one of 101."""
    protos = [OptionQuote(k, d, 1.0) for d, k in
              ((21, 95.0), (21, 100.0), (21, 105.0), (100, 100.0), (101, 110.0))]
    prices = model_prices("mpbin1", build_params("mpbin1", (0.25, 0.55), RATE),
                          protos, S0, RATE)
    return [OptionQuote(q.strike, q.days_to_maturity, p * noise) for q, p, noise in
            zip(protos, prices, (1.02, 0.97, 1.03, 0.99, 1.04))]


# A non-default value of every CalibrationConfig field.
NON_DEFAULT_CONFIG = {"dt": 1.0 / 365.0, "tolerance": 1e-4, "max_iterations": 5,
                      "restarts": 0, "seed": 1, "maturity_filter": True}


@pytest.mark.parametrize("field", sorted(NON_DEFAULT_CONFIG))
def test_every_config_field_changes_the_suite_result(field):
    # maturity_filter used to act only in the CLI, so the suite ignored it.
    assert set(NON_DEFAULT_CONFIG) == {f.name for f in fields(CalibrationConfig)}
    quotes = _chain_with_one_long_quote()
    config = CalibrationConfig(**{field: NON_DEFAULT_CONFIG[field]})
    assert (calibrate_suite(["crr", "mpbin1"], quotes, S0, RATE, config)
            != calibrate_suite(["crr", "mpbin1"], quotes, S0, RATE))


def test_maturity_filter_fits_the_quotes_of_at_most_100_days():
    quotes = _chain_with_one_long_quote()
    short = [q for q in quotes if q.days_to_maturity <= 100]
    assert len(short) == 4
    config = CalibrationConfig(maturity_filter=True)
    assert (calibrate_suite(MODELS, quotes, S0, RATE, config)
            == calibrate_suite(MODELS, short, S0, RATE))
    assert calibrate("jr", quotes, S0, RATE, config) == calibrate("jr", short, S0, RATE)


def test_maturity_filter_acts_before_the_quote_checks():
    # A long quote priced above the spot is dropped, not rejected; a chain
    # the filter empties is rejected with a message that names the filter.
    above = OptionQuote(100.0, 101, 150.0)
    short = _chain_with_one_long_quote()[:4]
    config = CalibrationConfig(maturity_filter=True)
    assert (calibrate_suite(["crr"], short + [above], S0, RATE, config)
            == calibrate_suite(["crr"], short, S0, RATE))
    with pytest.raises(DomainError, match=r"^maturity_filter left no quote within 100 days$"):
        calibrate_suite(["crr"], [above, OptionQuote(90.0, 150, 12.0)], S0, RATE, config)
    with pytest.raises(DomainError, match="no call is worth more than the spot"):
        calibrate_suite(["crr"], short + [above], S0, RATE)


def _noisy_chains():
    """60 noisy mpbin1 chains at S0 = 100 in three shapes, cycled."""
    rng = np.random.default_rng(2024)
    chains = []
    for c in range(60):
        r, sigma, g = rng.uniform(-0.01, 0.08), rng.uniform(0.05, 0.9), rng.uniform(0.3, 0.7)
        if c % 3 == 0:
            days, strikes = rng.integers(3, 30, size=3), [80.0, 88.0, 110.0, 120.0]
        elif c % 3 == 1:
            days, strikes = rng.integers(1, 5, size=2), np.linspace(90.0, 110.0, 7)
        else:
            days, strikes = rng.integers(5, 120, size=4), np.linspace(70.0, 130.0, 9)
        protos = [OptionQuote(k, d, 1.0) for d in sorted(set(days.tolist())) for k in strikes]
        prices = np.array(model_prices(
            "mpbin1", build_params("mpbin1", (sigma, g), r), protos, S0, r))
        noise = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=prices.size)
        prices = np.where(prices > 1e-6, prices * noise, prices)
        chains.append((r, [OptionQuote(q.strike, q.days_to_maturity, p)
                           for q, p in zip(protos, prices) if p > 0.0]))
    return chains


def test_one_parameter_fits_are_no_worse_than_a_sigma_grid():
    # Short-dated lattice prices are kinked in sigma, so the SSE has local
    # minima a few percent of sigma apart. On chain 12 jr has two, near
    # sigma 0.1245 and 0.1357; a single Nelder-Mead run from the
    # at-the-money sigma stops in the poorer, and the restarts find the
    # better.
    chains = _noisy_chains()
    grid = np.geomspace(1e-3, 4.9, 300)
    for c in (6, 12, 14, 34, 57):
        r, quotes = chains[c]
        for result in calibrate_suite(["crr", "jr", "tian"], quotes, S0, r):
            residuals = calibration._residuals(result.model, quotes, S0, r, DAILY)
            grid_rmse = np.nanmin([np.sqrt(np.mean(residuals((s,)) ** 2)) for s in grid])
            assert result.metrics.rmse <= (1.0 + 1e-9) * grid_rmse, (c, result.model)


def test_calibrate_crosses_the_region_where_pricing_raises(monkeypatch):
    # At sigma = 0.005 the CRR probability slope is steep, and the search
    # tries trial points whose up probability leaves (0, 1). Those price
    # to NaN residuals, and the fit still reaches the generating tree.
    protos = [OptionQuote(k, d, 1.0) for d in (21, 42) for k in (95.0, 100.0)]
    prices = model_prices("crr", crr_params(RATE, 0.005), protos, S0, RATE)
    chain = [OptionQuote(q.strike, q.days_to_maturity, p) for q, p in zip(protos, prices)]
    failed = []

    def recording(*args):
        try:
            return model_prices(*args)
        except (DomainError, ArbitrageError):
            # The at-the-money inversion prices one quote at a time.
            if len(args[2]) == len(chain):
                failed.append(args[1])
            raise

    monkeypatch.setattr(calibration, "model_prices", recording)
    result = calibrate("crr", chain, S0, RATE)
    assert failed
    assert result.params.sigma == pytest.approx(0.005, rel=1e-10)
    assert result.metrics.rmse < 1e-12
    assert result.converged


def test_default_start_walks_sigma_up_to_an_admissible_tree():
    # At r = 3.5 the CRR tree at sigma 0.2 has its up probability above 1.
    with pytest.raises(DomainError, match="up probability"):
        p_up(crr_params(3.5, 0.2), DAILY)
    start = calibration._default_start("crr", 0.2, 3.5, DAILY)
    assert start == (0.2 * 1.5,)
    p_up(build_params("crr", start, 3.5), DAILY)


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


def test_suite_fits_a_family_that_contains_the_chain_exactly():
    chain = synthetic_chain("mpbin1", (0.2, 0.55))
    rmse = {res.model: res.metrics.rmse for res in calibrate_suite(MODELS, chain, S0, RATE)}
    assert rmse["mpbin1"] < 1e-10
    assert rmse["mpbin2"] < 1e-10


@pytest.mark.parametrize("rate", [0.0, -0.005])
def test_suite_nests_mpbin2_at_a_zero_or_negative_rate(rate):
    # mpbin2 embeds the poorer optima at gamma = r, so its gamma box must
    # hold every such rate.
    protos = [OptionQuote(k, d, 1.0) for d in (21, 42) for k in (90.0, 100.0, 110.0)]
    prices = model_prices("crr", crr_params(rate, 0.25), protos, S0, rate)
    chain = [OptionQuote(q.strike, q.days_to_maturity, p) for q, p in zip(protos, prices)]
    rmse = {res.model: res.metrics.rmse for res in calibrate_suite(MODELS, chain, S0, rate)}
    assert rmse["mpbin1"] < 1e-10
    assert rmse["mpbin2"] < 1e-10


@pytest.mark.parametrize("rate", [-1.0, -1.5, 5.0])
def test_suite_rejects_mpbin2_at_a_rate_outside_its_gamma_box(rate):
    chain = synthetic_chain("jr", (0.25,))
    with pytest.raises(DomainError, match="rate must lie inside"):
        calibrate_suite(["crr", "mpbin2"], chain, S0, rate)


def test_suite_runs_subset_in_canonical_order():
    chain = synthetic_chain("jr", (0.25,))
    results = calibrate_suite(["mpbin1", "crr"], chain, S0, RATE)
    assert [res.model for res in results] == ["crr", "mpbin1"]


def test_suite_rejects_unknown_model():
    chain = synthetic_chain("jr", (0.25,))
    with pytest.raises(DomainError):
        calibrate_suite(["crr", "heston"], chain, S0, RATE)


def test_suite_rejects_an_empty_model_list():
    chain = synthetic_chain("jr", (0.25,))
    with pytest.raises(DomainError, match="model list must be non-empty"):
        calibrate_suite([], chain, S0, RATE)


def test_suite_inverts_the_atm_sigma_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return implied_atm_sigma(*args)

    monkeypatch.setattr(calibration, "implied_atm_sigma", counting)
    calibrate_suite(MODELS, synthetic_chain("jr", (0.25,)), S0, RATE)
    assert len(calls) == 1


def test_calibrate_is_the_suite_result_of_one_model():
    # A nested family requested alone or in a subset is still fit after
    # every family before it, from all their optima.
    suite = calibrate_suite(MODELS, SLOPED_CHAIN, S0, RATE)
    for model, expected in zip(MODELS, suite):
        assert calibrate(model, SLOPED_CHAIN, S0, RATE) == expected
    assert calibrate_suite(["jr", "mpbin1"], SLOPED_CHAIN, S0, RATE) == [suite[1], suite[3]]


def test_suite_results_do_not_depend_on_the_order_of_the_quotes():
    # The suite sorts the quotes once, so the at-the-money quote and the
    # order of the SSE's sum are the same for any permutation.
    expected = calibrate_suite(MODELS, SLOPED_CHAIN, S0, RATE)
    for quotes in (SLOPED_CHAIN[::-1],
                   random.Random(7).sample(SLOPED_CHAIN, len(SLOPED_CHAIN))):
        assert calibrate_suite(MODELS, quotes, S0, RATE) == expected


def test_mpbin2_fits_a_chain_of_nonzero_slope_with_v_zero():
    # At one dt the prices see (u, d, Q) only, and the generating tree has
    # a v = 0 twin in mpbin2.
    result = calibrate("mpbin2", SLOPED_CHAIN, S0, RATE)
    assert result.metrics.rmse < 1e-10
    assert result.params.v == 0.0


def test_standalone_mpbin2_fits_a_chain_of_its_nested_family():
    chain = synthetic_chain("mpbin1", (0.2, 0.55))
    assert calibrate("mpbin2", chain, S0, RATE).metrics.rmse < 1e-10


def test_mpbin2_is_polished_alone_from_a_seed_that_fits_the_chain(monkeypatch):
    # mpbin1 reprices its own chain, so mpbin2's seed already has an SSE
    # below the tolerance and no Nelder-Mead search runs for it.
    calls = record_searches(monkeypatch)
    result = calibrate("mpbin2", synthetic_chain("mpbin1", (0.2, 0.55)), S0, RATE)
    assert [(name, evaluations) for name, dims, evaluations in calls if dims == 3] == [
        ("least_squares", result.objective_evaluations)]
    assert result.metrics.rmse < 1e-10


def test_both_nested_families_are_polished_alone_on_a_crr_chain(monkeypatch):
    calls = record_searches(monkeypatch)
    rmse = {res.model: res.metrics.rmse
            for res in calibrate_suite(MODELS, synthetic_chain("crr", (0.25,)), S0, RATE)}
    assert [(name, dims) for name, dims, _ in calls if dims > 1] == [
        ("least_squares", 2), ("least_squares", 3)]
    assert rmse["mpbin1"] <= rmse["crr"] + 1e-10
    assert rmse["mpbin2"] <= rmse["crr"] + 1e-10


def test_a_fit_stopped_at_its_box_edges_is_not_converged():
    # On chain 37 mpbin2 stops on a small gain at the bottom of the sigma
    # box and the top of the gamma box, where the polish's difference steps
    # decode to the coordinates they left; on chain 58 at the sigma floor.
    chains = _noisy_chains()
    fits = {c: calibrate("mpbin2", chains[c][1], S0, chains[c][0]) for c in (37, 58)}
    assert fits[37].params.gamma == pytest.approx(calibration.GAMMA_BOUNDS[1])
    for fit in fits.values():
        assert fit.params.sigma == pytest.approx(calibration.SIGMA_BOUNDS[0])
        assert not fit.converged


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
        params = build_params(poorer, x, RATE)
        family = calibration._FAMILIES[richer]
        seed = calibration._seed(params, DAILY)[:len(family.params)]
        embedded = family.build(seed, RATE)
        assert model_prices(richer, embedded, EMBED_CHAIN, S0, RATE) == pytest.approx(
            model_prices(poorer, params, EMBED_CHAIN, S0, RATE), rel=1e-12), (poorer, richer)


FREE_PARAMETER_RANGES = {"sigma": (0.05, 1.0), "g": (0.3, 0.7), "gamma": (0.01, 0.5)}
MATURITIES = [1, 5, 21, 42, 63, 126]


@st.composite
def family_params(draw, min_rate=0.0, models=MODELS):
    """(model, rate, params) for a family of ``models``, free parameters
    inside their ranges.

    An mpbin2 draw also takes a one-day up probability p_dt != g in the
    range of g, and gamma != r, so that its tree has v != 0 and
    gamma != delta.
    """
    model = draw(st.sampled_from(models))
    x = [draw(st.floats(*FREE_PARAMETER_RANGES[name]))
         for name in free_parameter_names(model)]
    r = draw(st.floats(min_rate, 0.08))
    if model != "mpbin2":
        return model, r, build_params(model, x, r)
    sigma, g, gamma = x
    assume(gamma != r)
    p_dt = draw(st.floats(*FREE_PARAMETER_RANGES["g"]).filter(lambda p: p != g))
    return model, r, four_coordinate_tree(sigma, g, p_dt, gamma, r)


SHORT_RUN = CalibrationConfig(restarts=0, tolerance=1e-8)


@settings(deadline=None, max_examples=10)
@given(case=family_params(min_rate=-0.02),
       legs=st.lists(st.tuples(st.integers(1, 30), st.floats(0.9, 1.1),
                               st.floats(-0.05, 0.05)), min_size=1, max_size=4))
def test_suite_errors_nest_on_random_chains(case, legs):
    # Prices of a random tree, perturbed so that no family fits exactly.
    model, r, params = case
    protos = [OptionQuote(moneyness * S0, days, 1.0) for days, moneyness, _ in legs]
    prices = model_prices(model, params, protos, S0, r)
    chain = [OptionQuote(q.strike, q.days_to_maturity, max(p * (1.0 + noise), 1e-3))
             for q, p, (_, _, noise) in zip(protos, prices, legs)]
    rmse = {res.model: res.metrics.rmse
            for res in calibrate_suite(MODELS, chain, S0, r, SHORT_RUN)}
    assert rmse["mpbin1"] <= min(rmse["crr"], rmse["jr"], rmse["tian"]) + 1e-10, rmse
    assert rmse["mpbin2"] <= rmse["mpbin1"] + 1e-10, rmse


@settings(deadline=None, max_examples=40)
@given(case=family_params(min_rate=-0.02, models=MODELS[:4]),
       legs=st.lists(st.tuples(st.integers(1, 30), st.floats(0.9, 1.1)),
                     min_size=1, max_size=4))
def test_suite_errors_nest_on_chains_of_a_nested_family(case, legs):
    # Exact prices of a tree that mpbin2, and mpbin1 too unless it is the
    # truth, contains: most nested fits start from a seed that already
    # fits the chain and are polished alone. None may raise or break the
    # nesting.
    model, r, params = case
    protos = [OptionQuote(moneyness * S0, days, 1.0) for days, moneyness in legs]
    prices = model_prices(model, params, protos, S0, r)
    chain = [OptionQuote(q.strike, q.days_to_maturity, p)
             for q, p in zip(protos, prices) if p > 0.0]
    assume(chain)
    rmse = {res.model: res.metrics.rmse
            for res in calibrate_suite(MODELS, chain, S0, r, SHORT_RUN)}
    assert rmse["mpbin1"] <= min(rmse["crr"], rmse["jr"], rmse["tian"]) + 1e-10, rmse
    assert rmse["mpbin2"] <= rmse["mpbin1"] + 1e-10, rmse


# ---------------------------------------------------------------------------
# one roll-back kernel for chains and single options
# ---------------------------------------------------------------------------

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


@st.composite
def arranged_chain(draw):
    """Quotes with maturity 1 among them, each maturity struck 1 to 3 times.

    The maturities come ascending, descending, or interleaved as two
    ascending runs (1, 21, 63, 1, 42, ...).
    """
    days = draw(st.lists(st.sampled_from(MATURITIES), max_size=5)) + [1]
    legs = sorted((n, draw(st.floats(0.5, 1.5)))
                  for n in days for _ in range(draw(st.integers(1, 3))))
    order = draw(st.sampled_from(["ascending", "descending", "interleaved"]))
    if order == "descending":
        legs.reverse()
    elif order == "interleaved":
        legs = legs[0::2] + legs[1::2]
    return [OptionQuote(moneyness * S0, n, 1.0) for n, moneyness in legs]


@settings(deadline=None)
@given(case=family_params(), data=st.data())
def test_model_prices_do_not_depend_on_the_order_of_the_quotes(case, data):
    model, r, params = case
    quotes = data.draw(arranged_chain())
    perm = data.draw(st.permutations(range(len(quotes))))
    permuted = [quotes[i] for i in perm]
    try:
        prices = model_prices(model, params, quotes, S0, r)
    except (DomainError, ArbitrageError) as exc:
        with pytest.raises(type(exc)):
            model_prices(model, params, permuted, S0, r)
        return
    assert model_prices(model, params, permuted, S0, r) == [prices[i] for i in perm]


@st.composite
def shuffled_chain(draw):
    """1 to 4 maturities struck 1 to 6 times each, in a drawn order."""
    days = draw(st.lists(st.integers(1, 63), min_size=1, max_size=4, unique=True))
    quotes = [OptionQuote(draw(st.floats(0.5, 1.5)) * S0, n, draw(st.floats(0.01, 30.0)))
              for n in days for _ in range(draw(st.integers(1, 6)))]
    return draw(st.permutations(quotes))


@settings(deadline=None, max_examples=50)
@given(model=st.sampled_from(MODELS), quotes=shuffled_chain(), data=st.data())
def test_a_fit_prices_its_laid_out_chain_as_a_fresh_quote_list(model, quotes, data):
    # A fit lays its chain out once and prices it at every point, so each
    # point must see none of the points before it, those that raise
    # included: a negative sigma is no tree in any family.
    point = st.tuples(*(st.floats(*FREE_PARAMETER_RANGES[name])
                        for name in free_parameter_names(model)))
    points = data.draw(st.lists(point, min_size=1, max_size=5))
    sigma, *rest = data.draw(point)
    points.insert(data.draw(st.integers(0, len(points))), (-sigma, *rest))
    market = np.array([q.market_price for q in quotes])
    residuals = calibration._residuals(model, quotes, S0, RATE, DAILY)

    def fresh(x):
        try:
            prices = model_prices(model, build_params(model, x, RATE), list(quotes), S0, RATE)
        except (DomainError, ArbitrageError):
            return np.full(len(quotes), np.nan)
        return np.asarray(prices) - market

    returned = []
    for x in points:
        res = residuals(x)
        assert res.tobytes() == fresh(x).tobytes(), x
        returned.append((res, res.tobytes()))
    # Levenberg-Marquardt keeps a residual array across its trials.
    assert all(res.tobytes() == kept for res, kept in returned)


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
