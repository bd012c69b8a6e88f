"""Degenerate float inputs fail as DomainError or ArbitrageError and nothing else,
and a call that returns gives finite numbers."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mptree.calibration import (MODELS, OptionQuote, build_params, free_parameter_names,
                                 model_prices)
from mptree.convergence import DiscreteCdf, lognormal_cdf, terminal_distribution
from mptree.errors import ArbitrageError, DomainError
from mptree.model import (ModelParams, gbm_moment, jarrow_rudd_params,
                          step_factors_asymptotic, step_factors_exact, step_moment)
from mptree.optimize import MinimizeConfig, minimize
from mptree.pricing import (Lattice, Payoff, black_scholes_call, delta_hedge,
                            discontinuity_report, risk_neutral_prob)

EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
         1e-300, 1e300, -1e300)
# Ordinary values, so that edges also meet arguments that pass every check.
ORDINARY = (0.5, 0.45, 0.2, 0.05, -0.05, 1.0 / 252.0, 1.0, 2.0, 100.0)
reals = st.one_of(st.sampled_from(EDGES + ORDINARY), st.floats())
orders = st.integers(-1, 66)
steps = st.one_of(st.integers(-1, 66), st.sampled_from([400, 100_000]))
params = st.builds(ModelParams, reals, reals, reals, reals, reals)
kinds = st.sampled_from(["call", "put"])
models = st.sampled_from(MODELS)
# Trees of the five families on values inside their boxes, so that edges
# also meet a tree that passes every check.
IN_BOX = {"sigma": st.floats(0.05, 1.0), "g": st.floats(0.3, 0.7), "gamma": st.floats(0.01, 0.5)}
trees = models.flatmap(lambda model: st.builds(
    build_params, st.just(model),
    st.tuples(*(IN_BOX[name] for name in free_parameter_names(model))), st.floats(0.0, 0.08)))
# Small counts, so that no search runs long; floats among them must fail.
counts = st.one_of(st.integers(-2, 4), st.floats(-2.0, 4.0), st.sampled_from(EDGES))


def _discontinuity_report(s0, r, sigma, t, kind, strike, p):
    # The payoff is built inside the call, since a bad strike raises there too.
    return discontinuity_report(s0, r, sigma, t, Payoff(kind=kind, strike=strike), p)


def _roll_back(q, values):
    lattice = Lattice.build(100.0, jarrow_rudd_params(0.05, 0.2), 4, 1.0 / 252.0, 0.05)
    return lattice.roll_back(q, np.array(values))


def _model_prices(model, params, quotes, s0, r, dt):
    # The quotes, and a Jarrow-Rudd tree given as (r, sigma), are built
    # inside the call, since a bad field raises there too.
    if isinstance(params, tuple):
        params = jarrow_rudd_params(*params)
    return model_prices(model, params, [OptionQuote(*quote) for quote in quotes], s0, r, dt)


def _discrete_cdf(pairs):
    return DiscreteCdf(support=[x for x, _ in pairs], cum=[c for _, c in pairs])


def _minimize(tolerance, max_iterations, restarts, seed):
    # The config is built inside the call, since a bad setting raises there.
    config = MinimizeConfig(tolerance, max_iterations, restarts, seed)
    return minimize(lambda x: float(np.dot(x - 0.3, x - 0.3)), [(-1.0, 1.0)] * 2,
                    [0.5, -0.5], config=config)


# Each call: (function, strategies of its arguments).
CALLS = {
    "gbm_moment": (gbm_moment, (reals, reals, reals, orders)),
    "step_moment": (step_moment, (params, reals, orders)),
    "step_factors_exact": (step_factors_exact, (params, reals)),
    "step_factors_asymptotic": (step_factors_asymptotic, (params, reals)),
    "risk_neutral_prob": (risk_neutral_prob, (params, reals, reals)),
    "delta_hedge": (delta_hedge, (reals, reals, reals, params, reals)),
    "Lattice.build": (Lattice.build, (reals, params | trees, steps, reals, reals,
                                      st.sampled_from(["exact", "asymptotic"]))),
    "terminal_distribution": (terminal_distribution,
                              (reals, params, steps, reals, st.none() | reals)),
    "DiscreteCdf": (_discrete_cdf, (st.lists(st.tuples(reals, reals), max_size=4),)),
    "minimize": (_minimize, (reals, counts, counts, counts)),
    "lognormal_cdf": (lognormal_cdf, (reals | st.lists(reals, max_size=4).map(np.array),
                                      reals, reals, reals, reals)),
    "discontinuity_report": (_discontinuity_report,
                             (reals, reals, reals, reals, kinds, reals, reals)),
    "black_scholes_call": (black_scholes_call, (reals, reals, reals, reals, reals)),
    "Lattice.roll_back": (_roll_back, (reals, st.lists(reals, min_size=4, max_size=6))),
    "model_prices": (_model_prices,
                     (models, params | st.tuples(reals, reals),
                      st.lists(st.tuples(reals, orders, reals), max_size=3),
                      reals, reals, reals)),
    "build_params": (build_params, (models, st.lists(reals, max_size=4), reals)),
}


@settings(deadline=None, max_examples=1500)
@given(data=st.data(), name=st.sampled_from(sorted(CALLS)))
def test_degenerate_inputs_raise_only_domain_or_arbitrage_errors(data, name):
    # Warnings are errors in this suite, so a NumPy overflow warning fails too.
    fn, strategies = CALLS[name]
    args = [data.draw(strategy, label=f"arg {i}") for i, strategy in enumerate(strategies)]
    try:
        fn(*args)
    except (DomainError, ArbitrageError):
        pass


# Calls left out of the finite-result property, each with its reason.
RECORDS = {
    "build_params": "holds its vector as a ModelParams; p_up checks it wherever a tree is built",
    "DiscreteCdf": "holds the support and weights it is given; its rules are order and total",
}


def _numbers(result):
    """Every number in a result: a float, an array or list, or a record's fields."""
    if dataclasses.is_dataclass(result):
        return np.concatenate([_numbers(getattr(result, field.name))
                               for field in dataclasses.fields(result)])
    return np.asarray(result, dtype=float).ravel()


@settings(deadline=None, max_examples=1500)
@given(data=st.data(), name=st.sampled_from(sorted(set(CALLS) - set(RECORDS))))
def test_a_computed_result_is_finite(data, name):
    fn, strategies = CALLS[name]
    args = [data.draw(strategy, label=f"arg {i}") for i, strategy in enumerate(strategies)]
    try:
        result = fn(*args)
    except (DomainError, ArbitrageError):
        return
    assert np.isfinite(_numbers(result)).all(), result
