"""Least-squares calibration of tree models to an option chain.

Five model families share one pricing path (daily lattice, dt = 1/252,
n = days to maturity):

* ``crr``, ``jr``, ``tian`` - one free parameter, sigma; the remaining
  tree parameters come from the classical-reduction constructors.
* ``mpbin1`` - free (sigma, g) with gamma = delta = r and v = 0, so the
  up probability is g itself.
* ``mpbin2`` - free (sigma, g, p_dt, gamma) with v = (p_dt - g)/sqrt(dt)
  and delta = (r - g*gamma)/(1 - g), which pins the physical mean drift
  at r.

Each family is one entry of a private table: the names of its free
parameters, ``build(x, r, dt)`` mapping them to the tree parameters, and
optionally ``embed(params, dt)`` mapping a poorer optimum into them. A
parameter's box and transform follow from its name, so a new family is
one entry; :data:`MODELS` is the table's order.

The objective is the sum of squared price differences; reported fit
quality is AAE, APE, ARPE and RMSE. Because every classical family is,
at a fixed dt, an exact slice of mpbin1 (gamma = delta = r with v folded
into the probability) and mpbin1 an exact slice of mpbin2, seeding a
richer model's search with a poorer model's optimum makes the optimal
errors nest monotonically.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ArbitrageError, DomainError
from .model import (ModelParams, crr_params, jarrow_rudd_params,
                    step_factors_exact, tian_params, validate_params)
from .optimize import MinimizeConfig, MinimizeResult, minimize
from .pricing import Lattice, risk_neutral_prob

__all__ = [
    "MODELS",
    "OptionQuote",
    "ErrorMetrics",
    "error_metrics",
    "CalibrationConfig",
    "CalibrationResult",
    "model_prices",
    "calibrate",
    "calibrate_suite",
    "calibration_report_csv",
]

SIGMA_BOUNDS = (1e-4, 5.0)
PROB_BOUNDS = (1e-4, 1.0 - 1e-4)
GAMMA_BOUNDS = (1e-4, 5.0)

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class OptionQuote:
    """One observed call: strike, maturity in trading days, market price."""

    strike: float
    days_to_maturity: int
    market_price: float

    def __post_init__(self) -> None:
        # Plain floats and ints, so that write_chain's repr() output parses back.
        object.__setattr__(self, "strike", float(self.strike))
        object.__setattr__(self, "market_price", float(self.market_price))
        try:
            days = operator.index(self.days_to_maturity)
        except TypeError:
            raise DomainError(f"days to maturity must be an integer, "
                              f"got {self.days_to_maturity!r}") from None
        object.__setattr__(self, "days_to_maturity", days)
        if self.strike <= 0.0:
            raise DomainError(f"strike must be positive, got {self.strike}")
        if self.days_to_maturity < 1:
            raise DomainError(
                f"days to maturity must be >= 1, got {self.days_to_maturity}")
        if self.market_price <= 0.0:
            raise DomainError(
                f"market price must be positive, got {self.market_price}")


@dataclass(frozen=True)
class ErrorMetrics:
    """Fit-quality summary of model against market prices."""

    aae: float
    ape: float
    arpe: float
    rmse: float


def error_metrics(model_prices: Sequence[float],
                  market_prices: Sequence[float]) -> ErrorMetrics:
    """AAE, APE, ARPE and RMSE of model prices against market prices.

    AAE = mean |P - P_hat|; APE = AAE / mean(P); ARPE = mean(|P - P_hat|/P);
    RMSE = sqrt(mean (P - P_hat)^2).
    """
    model = np.asarray(model_prices, dtype=float)
    market = np.asarray(market_prices, dtype=float)
    if model.shape != market.shape or model.ndim != 1 or model.size == 0:
        raise DomainError("price sequences must be equal-length and non-empty")
    if np.any(market <= 0.0):
        raise DomainError("market prices must all be positive")
    abs_err = np.abs(market - model)
    aae = float(abs_err.mean())
    return ErrorMetrics(
        aae=aae,
        ape=aae / float(market.mean()),
        arpe=float((abs_err / market).mean()),
        rmse=float(math.sqrt(np.mean((market - model) ** 2))),
    )


@dataclass(frozen=True)
class CalibrationConfig:
    """Calibration settings; all deterministic given the seed.

    ``maturity_filter`` is read where the chain is loaded: it keeps only
    the short-dated quotes (:func:`~mptree.market_io.load_chain`).
    """

    dt: float = 1.0 / TRADING_DAYS_PER_YEAR
    tolerance: float = 1e-10
    restarts: int = 3
    max_iterations: int = 2000
    seed: int = 0
    maturity_filter: bool = False
    extra_starts: tuple[tuple[float, ...], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        self.minimize_config()

    def minimize_config(self) -> MinimizeConfig:
        return MinimizeConfig(tolerance=self.tolerance, restarts=self.restarts,
                              max_iterations=self.max_iterations, seed=self.seed)


@dataclass(frozen=True)
class CalibrationResult:
    """Best parameters found for one model on one chain."""

    model: str
    params: ModelParams
    metrics: ErrorMetrics
    objective_evaluations: int
    converged: bool


def _clip(value: float, bounds: tuple[float, float]) -> float:
    return min(max(value, bounds[0]), bounds[1])


def _embed_mpbin1(params: ModelParams, dt: float) -> tuple[float, ...]:
    # At a fixed dt every classical family has gamma = delta = r, so folding
    # v into the probability (g' = g + v*sqrt(dt)) reproduces its tree.
    return (params.sigma, _clip(params.g + params.v * math.sqrt(dt), PROB_BOUNDS))


def _embed_mpbin2(params: ModelParams, dt: float) -> tuple[float, ...]:
    # g = p_dt makes v = 0 and gamma = r makes delta = r.
    sigma, p = _embed_mpbin1(params, dt)
    return (sigma, p, p, _clip(params.gamma, GAMMA_BOUNDS))


def _build_mpbin2(x: Sequence[float], r: float, dt: float) -> ModelParams:
    sigma, g, p_dt, gamma = x
    return ModelParams(gamma=gamma, delta=(r - g * gamma) / (1.0 - g), g=g,
                       v=(p_dt - g) / math.sqrt(dt), sigma=sigma)


@dataclass(frozen=True)
class _Family:
    params: tuple[str, ...]
    build: Callable[[Sequence[float], float, float], ModelParams]
    embed: Callable[[ModelParams, float], tuple[float, ...]] | None = None


# In nesting order: each family with an ``embed`` is seeded from the optima
# of every family before it.
_FAMILIES = {
    "crr": _Family(("sigma",), lambda x, r, dt: crr_params(r, x[0])),
    "jr": _Family(("sigma",), lambda x, r, dt: jarrow_rudd_params(r, x[0])),
    "tian": _Family(("sigma",), lambda x, r, dt: tian_params(r, x[0])),
    "mpbin1": _Family(("sigma", "g"), lambda x, r, dt: ModelParams(
        gamma=r, delta=r, g=x[1], v=0.0, sigma=x[0]), _embed_mpbin1),
    "mpbin2": _Family(("sigma", "g", "p_dt", "gamma"), _build_mpbin2, _embed_mpbin2),
}

MODELS = tuple(_FAMILIES)

# Box and optimizer transform of each free parameter.
_PARAMETER_BOXES = {"sigma": (SIGMA_BOUNDS, "log"), "g": (PROB_BOUNDS, "logit"),
                    "p_dt": (PROB_BOUNDS, "logit"), "gamma": (GAMMA_BOUNDS, "log")}


def _family(model: str) -> _Family:
    if model not in _FAMILIES:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    return _FAMILIES[model]


def free_parameter_names(model: str) -> tuple[str, ...]:
    """Names of the free parameters of ``model``, in vector order."""
    return _family(model).params


def build_params(model: str, x: Sequence[float], r: float,
                 dt: float) -> ModelParams:
    """Map a free-parameter vector to the full five-tuple for ``model``."""
    return _family(model).build(x, r, dt)


def free_parameter_spec(model: str) -> tuple[tuple[tuple[float, float], ...],
                                             tuple[str, ...]]:
    """Bounds and transforms of the free-parameter vector for ``model``."""
    boxes = [_PARAMETER_BOXES[name] for name in _family(model).params]
    return tuple(box for box, _ in boxes), tuple(kind for _, kind in boxes)


def model_prices(model: str, params: ModelParams, quotes: Sequence[OptionQuote],
                 s0: float, r: float,
                 dt: float = 1.0 / TRADING_DAYS_PER_YEAR) -> list[float]:
    """Price every quote: n = days to maturity on a step of ``dt``.

    Quotes sharing a maturity are priced in one
    :meth:`~mptree.pricing.Lattice.roll_back` with a strike column per
    quote, so each price is bit-identical to pricing its quote alone with
    :func:`~mptree.pricing.price_european`. The lattice uses the exact
    (exponential) factors and the paper's hedge probability Q, which
    leaves the martingale residual documented on ``roll_back``.
    """
    _family(model)  # rejects an unknown model
    if len(quotes) == 0:
        raise DomainError("quote list must be non-empty")
    try:
        factors = step_factors_exact(params, dt)
        q = risk_neutral_prob(params, r, dt)
    except (DomainError, ArbitrageError) as exc:
        raise type(exc)(f"{exc} (while pricing quote 0)") from exc
    prices = [0.0] * len(quotes)
    by_maturity: dict[int, list[int]] = {}
    for idx, quote in enumerate(quotes):
        by_maturity.setdefault(quote.days_to_maturity, []).append(idx)
    for n, idxs in by_maturity.items():
        lattice = Lattice(s0=s0, n=n, dt=dt, factors=factors, rate=r)
        strikes = np.array([quotes[idx].strike for idx in idxs])
        root = lattice.roll_back(q, np.maximum(
            lattice.node_values(n)[:, None] - strikes[None, :], 0.0))
        for col, idx in enumerate(idxs):
            prices[idx] = float(root[col])
    return prices


def implied_atm_sigma(quotes: Sequence[OptionQuote], s0: float, r: float,
                      dt: float = 1.0 / TRADING_DAYS_PER_YEAR) -> float:
    """Bisect the CRR model's sigma through the most at-the-money quote.

    Tiny sigma makes the CRR probability slope blow up, so the lower
    bracket edge is walked inward to the first admissible sigma. Falls
    back to 0.2 if the quote price cannot be bracketed.
    """
    quote = min(quotes, key=lambda q: abs(q.strike - s0))
    lo, hi = SIGMA_BOUNDS[0] * 1.01, SIGMA_BOUNDS[1] * 0.99

    def priced(sig: float) -> float | None:
        try:
            return model_prices("crr", crr_params(r, sig), [quote], s0, r, dt)[0]
        except (DomainError, ArbitrageError):
            return None

    p_lo = priced(lo)
    while p_lo is None and lo < hi:
        lo *= 2.0
        p_lo = priced(lo)
    p_hi = priced(hi)
    if p_lo is None or p_hi is None:
        return 0.2
    f_lo = p_lo - quote.market_price
    f_hi = p_hi - quote.market_price
    if f_lo * f_hi > 0.0:
        return 0.2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        p_mid = priced(mid)
        f_mid = (p_mid - quote.market_price) if p_mid is not None else math.inf
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _default_start(model: str, quotes: Sequence[OptionQuote], s0: float,
                   r: float, dt: float) -> tuple[float, ...]:
    family = _family(model)
    sigma0 = implied_atm_sigma(quotes, s0, r, dt)
    sigma0 = min(max(sigma0, SIGMA_BOUNDS[0] * 2), SIGMA_BOUNDS[1] / 2)
    gamma0 = min(max(r, GAMMA_BOUNDS[0] * 2), GAMMA_BOUNDS[1] / 2)

    def start(sigma: float) -> tuple[float, ...]:
        neutral = {"sigma": sigma, "g": 0.5, "p_dt": 0.5, "gamma": gamma0}
        return tuple(neutral[name] for name in family.params)

    # Keep the start admissible: the CRR slope diverges as sigma -> 0.
    while sigma0 < SIGMA_BOUNDS[1] / 2:
        try:
            validate_params(family.build(start(sigma0), r, dt), dt)
            break
        except DomainError:
            sigma0 *= 1.5
    return start(sigma0)


_PENALTY = 1e15


def calibrate(model: str, quotes: Sequence[OptionQuote], s0: float, r: float,
              config: CalibrationConfig | None = None) -> CalibrationResult:
    """Fit ``model`` to the chain by least squares on prices.

    The search starts from an at-the-money sigma inversion with neutral
    probabilities, plus any ``config.extra_starts`` (free-parameter
    vectors, e.g. a poorer model's optimum embedded in this model's
    space); each start runs a restarted Nelder-Mead and the best outcome
    wins. Non-convergence is reported through the flag, never raised.
    """
    cfg = config or CalibrationConfig()
    if len(quotes) == 0:
        raise DomainError("quote list must be non-empty")
    bounds, transforms = free_parameter_spec(model)
    market = np.array([q.market_price for q in quotes])

    def objective(x: np.ndarray) -> float:
        try:
            prices = model_prices(model, build_params(model, x, r, cfg.dt),
                                  quotes, s0, r, cfg.dt)
        except (DomainError, ArbitrageError):
            return _PENALTY
        diff = np.asarray(prices) - market
        return float(np.dot(diff, diff))

    starts = [_default_start(model, quotes, s0, r, cfg.dt)]
    for extra in cfg.extra_starts:
        if len(extra) != len(bounds):
            raise DomainError(
                f"extra start {extra!r} has wrong length for model {model!r}")
        starts.append(tuple(float(v) for v in extra))

    best: MinimizeResult | None = None
    total_evaluations = 0
    for start in starts:
        clipped = tuple(
            min(max(value, lo * (1 + 1e-9) if lo > 0 else lo + 1e-12),
                hi * (1 - 1e-9) if hi > 0 else hi - 1e-12)
            for value, (lo, hi) in zip(start, bounds))
        result = minimize(objective, bounds, clipped, transforms,
                          cfg.minimize_config())
        total_evaluations += result.evaluations
        if best is None or result.value < best.value:
            best = result
    assert best is not None
    params = build_params(model, best.x, r, cfg.dt)
    metrics = error_metrics(model_prices(model, params, quotes, s0, r, cfg.dt),
                            market)
    return CalibrationResult(model=model, params=params, metrics=metrics,
                             objective_evaluations=total_evaluations,
                             converged=best.converged)


def calibrate_suite(models: Sequence[str], quotes: Sequence[OptionQuote],
                    s0: float, r: float,
                    config: CalibrationConfig | None = None
                    ) -> list[CalibrationResult]:
    """Calibrate several models, seeding richer ones from poorer optima.

    Models run in :data:`MODELS` order. A family that can embed poorer
    optima (mpbin1, mpbin2) starts from every earlier result as well,
    which enforces the nesting of optimal errors numerically.
    """
    cfg = config or CalibrationConfig()
    for model in models:
        _family(model)  # rejects an unknown model
    results: list[CalibrationResult] = []
    for model in (m for m in MODELS if m in models):
        embed = _FAMILIES[model].embed
        seeds = tuple(embed(res.params, cfg.dt) for res in results) if embed else ()
        run_cfg = replace(cfg, extra_starts=cfg.extra_starts + seeds)
        results.append(calibrate(model, quotes, s0, r, run_cfg))
    return results


def calibration_report_csv(results: Sequence[CalibrationResult]) -> str:
    """One CSV row per model: parameters then the four error metrics."""
    lines = ["model,sigma,g,v,gamma,delta,aae,ape,arpe,rmse,evaluations,converged"]
    for res in results:
        p = res.params
        m = res.metrics
        lines.append(
            f"{res.model},{p.sigma!r},{p.g!r},{p.v!r},{p.gamma!r},{p.delta!r},"
            f"{m.aae!r},{m.ape!r},{m.arpe!r},{m.rmse!r},"
            f"{res.objective_evaluations},{res.converged}")
    return "\n".join(lines) + "\n"
