"""Least-squares calibration of tree models to an option chain.

Five model families share one pricing path (daily lattice, dt = 1/252,
n = days to maturity):

* ``crr``, ``jr``, ``tian`` - one free parameter, sigma; the remaining
  tree parameters come from the classical-reduction constructors.
* ``mpbin1`` - free (sigma, g) with gamma = delta = r and v = 0, so the
  up probability is g itself.
* ``mpbin2`` - free (sigma, g, gamma) with v = 0 and
  delta = (r - g*gamma)/(1 - g): the trees whose mean drift under the up
  probability g is r.

:func:`model_prices` prices a whole chain in one run of the one backward
induction of :mod:`mptree.pricing`, the induction that
:func:`~mptree.pricing.price_european` runs on too. A suite prices one
chain many times, so it lays the chain out once, as a private
``_Chain``: the quotes with their order by maturity, each maturity's
strike row, the (step count, up-moves) of every maturity's terminal
nodes, which one ``exp`` pass then takes together, and the induction's
plans, one per number of trees priced together, whose work arrays and
step views every evaluation reuses. ``_Chain.price`` is the one place a
chain is priced, for one tree or several. A fit keeps the prices of
every free vector it has priced, its one store of them: a point its
searches revisit is answered from it, and its reported metrics are
those of its best point's stored prices, so each distinct point is
priced once. The searches still count every evaluation.

A fit is resumable: it yields each point it has not priced and is sent
that point's prices, and its two searches, from
:mod:`mptree.optimize`, are resumable in the same way. crr, jr and tian
are fit in lockstep: each round prices the pending point of every one
of them in one run of the chain's plan for that many trees, in which
the trees share every step's ufunc calls, each column with its own Q. A
round of one point goes through :func:`model_prices`. The prices are
bit for bit those of pricing each point's quotes afresh, and a point
that the pricing rejects fails alone, so every fit, and its evaluation
count, is that of fitting it alone.

The slope v is visible only across step sizes, as in
:func:`~mptree.convergence.rate_experiment` where dt = t/n; it is never
visible in a calibration at one dt. There a lattice's prices depend on
(u, d, Q) alone, three numbers, so a fourth free coordinate would only
move the reported parameters along a curve of equal prices. Measured on
random trees with v != 0 and delta = (r - g*gamma)/(1 - g), at the daily
dt with sigma in [0.05, 1] and r in [0, 0.08]: all 400 drawn with g and
p(dt) in [0.3, 0.7] and gamma in [0.01, 0.5] have a v = 0 twin in mpbin2,
with the same (log u, log d, Q) to 1.1e-16. With g and p(dt) in
[0.02, 0.98] and gamma in [-0.9, 4], every one of 1,500 has a twin, but
167 of those twins have a gamma outside ``GAMMA_BOUNDS``.

Each family is one entry of a private table: the names of its free
parameters, ``build(x, r)`` mapping them to the tree parameters, and
whether it is nested. A parameter's box and transform follow
from its name, so a new family is one entry; :data:`MODELS` is the
table's order.

The objective is the sum of squared price differences (SSE); reported
fit quality is AAE, APE, ARPE and RMSE. Each fit has one start and at
most one search: a restarted Nelder-Mead from the start, then a
Levenberg-Marquardt polish on the price residuals; a nested family whose
start already fits the chain is polished alone (below). The polish
reaches an exact fit to rounding where the family contains the chain's
tree, which Nelder-Mead alone stops short of. The restarts matter in one coordinate
too: at short maturities the SSE is kinked in sigma, with local minima
a few percent of sigma apart, and a single run can stop in the poorer.

Every start follows one rule. A bisection first finds the CRR sigma of
the most at-the-money quote (:func:`implied_atm_sigma`), and crr, jr and
tian start from that sigma. Every classical family is, at a fixed dt, an
exact slice of mpbin1 (gamma = delta = r with v folded into the
probability) and mpbin1 an exact slice of mpbin2 (gamma = r). So a
nested family (mpbin1, mpbin2) starts from the best optimum (lowest
RMSE) of the families before it, mapped to (sigma, p(dt), gamma) and cut
to the nested family's length, its free vector being a prefix of that
one. The start reprices that tree and no phase accepts a worse point,
so the optimal errors nest monotonically. Where that seed already fits
the chain, its SSE below ``tolerance``, the nested family skips
Nelder-Mead and runs the polish alone: :func:`~mptree.optimize.minimize`
stops once its simplex spread falls below ``tolerance * max(1, f0)``,
and an SSE is >= 0, so no search from such a seed can gain more than
that spread. On a chain made by an mpbin1 tree this spares mpbin2's
search, which would move its SSE by rounding only.

:func:`calibrate_suite` is the one fit loop, and :func:`calibrate` is its
result for one model. The one-parameter families are fit together, and
each nested family after them, in :data:`MODELS` order; a requested
nested family is fit after every family before it. Without a nested
family only the requested families are fit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import ArbitrageError, DomainError
from .model import (ModelParams, _nodes, _require_finite_rate, _require_g, _require_spot,
                    _require_tree, crr_params, jarrow_rudd_params, p_up, step_factors_exact,
                    tian_params)
# minimize stays a name of this module, though no fit calls it: the
# benchmark's tracer wraps calibration.minimize.
from .optimize import (MinimizeConfig, MinimizeResult, _least_squares_search,
                       _minimize_search, minimize)  # noqa: F401
from .pricing import _Plan, risk_neutral_prob

__all__ = [
    "MODELS",
    "OptionQuote",
    "ChainFile",
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
GAMMA_BOUNDS = (-1.0, 5.0)

TRADING_DAYS_PER_YEAR = 252

# With ``maturity_filter`` set, calibrate_suite fits only the quotes of at
# most this many trading days to maturity.
MAX_CALIBRATION_DAYS = 100


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
        if not 0.0 < self.strike < math.inf:
            raise DomainError(f"strike must be positive and finite, got {self.strike}")
        if self.days_to_maturity < 1:
            raise DomainError(
                f"days to maturity must be >= 1, got {self.days_to_maturity}")
        if not 0.0 < self.market_price < math.inf:
            raise DomainError(
                f"market price must be positive and finite, got {self.market_price}")


@dataclass(frozen=True)
class ChainFile:
    """An option chain with its spot and annualized risk-free rate.

    Building one is the one check of a chain, for
    :func:`~mptree.market_io.load_chain` and :func:`calibrate_suite`
    alike: the spot is positive and finite, the rate finite, there is at
    least one quote, and no call is priced above the spot (Merton 1973).
    """

    spot: float
    rate: float
    quotes: tuple[OptionQuote, ...]

    def __post_init__(self) -> None:
        # Plain floats, so that write_chain's repr() output parses back.
        object.__setattr__(self, "spot", float(self.spot))
        object.__setattr__(self, "rate", float(self.rate))
        _require_spot(self.spot)
        _require_finite_rate(self.rate)
        if len(self.quotes) == 0:
            raise DomainError("chain must contain at least one quote")
        above = next((quote for quote in self.quotes if quote.market_price > self.spot), None)
        if above is not None:
            raise DomainError(f"no call is worth more than the spot {self.spot!r}: {above}")


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
class CalibrationConfig(MinimizeConfig):
    """Calibration settings; all deterministic given the seed.

    The optimizer's settings (``tolerance``, ``max_iterations``,
    ``restarts``, ``seed``) are inherited from
    :class:`~mptree.optimize.MinimizeConfig` and reach the Nelder-Mead
    search of :func:`~mptree.optimize.minimize` unchanged. ``dt`` is the
    lattice step. ``maturity_filter`` is read by
    :func:`calibrate_suite`, which then fits only the quotes of at most
    ``MAX_CALIBRATION_DAYS`` = 100 trading days to maturity.
    """

    dt: float = 1.0 / TRADING_DAYS_PER_YEAR
    maturity_filter: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")


@dataclass(frozen=True)
class CalibrationResult:
    """Best parameters found for one model on one chain.

    ``objective_evaluations`` counts the Nelder-Mead search and the
    Levenberg-Marquardt polish, or the polish alone for a nested family
    whose seed already fit the chain (see :func:`calibrate_suite`).
    ``converged`` is the polish's flag.
    """

    model: str
    params: ModelParams
    metrics: ErrorMetrics
    objective_evaluations: int
    converged: bool


def _seed(params: ModelParams, dt: float) -> tuple[float, float, float]:
    # Every poorer family has gamma = delta = r, so at a fixed dt folding v
    # into the probability (p = g + v*sqrt(dt)) reproduces its tree in
    # mpbin1 and mpbin2. calibrate clips every start into the box.
    return (params.sigma, p_up(params, dt), params.gamma)


def _build_mpbin2(x: Sequence[float], r: float) -> ModelParams:
    sigma, g, gamma = x
    # delta divides by 1 - g, so g = 1 from the command line must not reach it.
    _require_g(g)
    return ModelParams(gamma=gamma, delta=(r - g * gamma) / (1.0 - g), g=g, v=0.0,
                       sigma=sigma)


@dataclass(frozen=True)
class _Family:
    params: tuple[str, ...]
    build: Callable[[Sequence[float], float], ModelParams]
    nested: bool = False


# In nesting order: each nested family is seeded from the best optimum of
# the families before it.
_FAMILIES = {
    "crr": _Family(("sigma",), lambda x, r: crr_params(r, x[0])),
    "jr": _Family(("sigma",), lambda x, r: jarrow_rudd_params(r, x[0])),
    "tian": _Family(("sigma",), lambda x, r: tian_params(r, x[0])),
    "mpbin1": _Family(("sigma", "g"), lambda x, r: ModelParams(
        gamma=r, delta=r, g=x[1], v=0.0, sigma=x[0]), nested=True),
    "mpbin2": _Family(("sigma", "g", "gamma"), _build_mpbin2, nested=True),
}

MODELS = tuple(_FAMILIES)

# Box and optimizer transform of each free parameter.
_PARAMETER_BOXES = {"sigma": (SIGMA_BOUNDS, "log"), "g": (PROB_BOUNDS, "logit"),
                    "gamma": (GAMMA_BOUNDS, "logit")}


def _family(model: str) -> _Family:
    if model not in _FAMILIES:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    return _FAMILIES[model]


def free_parameter_names(model: str) -> tuple[str, ...]:
    """Names of the free parameters of ``model``, in vector order."""
    return _family(model).params


def build_params(model: str, x: Sequence[float], r: float) -> ModelParams:
    """Map a free-parameter vector to the full five-tuple for ``model``.

    ``x`` must hold one value per free parameter, or DomainError is raised.
    """
    family = _family(model)
    if len(x) != len(family.params):
        raise DomainError(f"{model} takes free parameters {family.params}, got {len(x)} values")
    return family.build(x, r)


def free_parameter_spec(model: str) -> tuple[tuple[tuple[float, float], ...],
                                             tuple[str, ...]]:
    """Bounds and transforms of the free-parameter vector for ``model``."""
    boxes = [_PARAMETER_BOXES[name] for name in _family(model).params]
    return tuple(box for box, _ in boxes), tuple(kind for _, kind in boxes)


class _Chain(tuple):
    """The quotes of one suite, laid out once for the backward induction.

    A tuple of the quotes in their given order, which also holds what
    pricing them would otherwise redo at every evaluation: the place of
    each quote in their order by descending maturity (``position``), the
    step count and strike row of each maturity, and the terminal nodes of
    every maturity end to end in that order: the step count and up-moves
    of each node (``node_steps``, ``node_ups``) and the slice of each
    maturity's rows (``rows``). :meth:`price` is the one place a chain is
    priced, one tree or several at a time, on the induction's ``_Plan``
    for that many trees, with one block per maturity, longest first; each
    plan is laid out the first time a pricing needs it and kept in
    ``plans``. Every pricing overwrites a plan's arrays, so a chain
    belongs to one suite, whose fits it serves one round at a time, and
    is never shared.
    """

    def __new__(cls, quotes: Sequence[OptionQuote]) -> "_Chain":
        chain = super().__new__(cls, quotes)
        # model_prices also takes raw quotes, which no ChainFile has checked.
        if len(chain) == 0:
            raise DomainError("quote list must be non-empty")
        order = sorted(range(len(chain)), key=lambda idx: -chain[idx].days_to_maturity)
        groups = [(n, [chain[idx].strike for idx in idxs]) for n, idxs in
                  groupby(order, key=lambda idx: chain[idx].days_to_maturity)]
        chain.position = np.argsort(order)
        chain.steps = [n for n, _ in groups]
        chain.strikes = [np.array(strikes) for _, strikes in groups]
        chain.sizes = [n + 1 for n in chain.steps]
        chain.plans = {}
        chain.node_steps = np.repeat(np.array(chain.steps, dtype=float), chain.sizes)
        chain.node_ups = np.concatenate([np.arange(size, dtype=float) for size in chain.sizes])
        chain.rows = [slice(end - size, end) for size, end in
                      zip(chain.sizes, accumulate(chain.sizes))]
        return chain

    def tree(self, params: ModelParams, s0: float, r: float,
             dt: float) -> tuple[float, np.ndarray]:
        """Q and the terminal nodes of one tree on this chain.

        Raises where :func:`model_prices` raises before its induction,
        with the checks of a :class:`~mptree.pricing.Lattice` of the
        longest maturity in its order: the factors (whose p(dt) checks
        dt), Q, then ``_require_tree``, the nodes and rate checks that
        ``Lattice`` runs.
        """
        factors = step_factors_exact(params, dt)
        q = risk_neutral_prob(params, r, dt)
        _require_tree(s0, factors, self.steps[0], r)
        return q, _nodes(s0, factors, self.node_steps, self.node_ups)

    def price(self, trees: Sequence[tuple[float, np.ndarray]], r: float,
              dt: float) -> list[np.ndarray | None]:
        """The prices in quote order of each (Q, terminal nodes) of
        :meth:`tree` in ``trees``, or None where that tree's root
        overflows, from one run of the plan for that many trees.

        Each is a new array. DomainError is raised where the discount is
        too large for a float or no root is finite, so a pricing of one
        tree raises where its root overflows.
        """
        if len(trees) not in self.plans:
            self.plans[len(trees)] = _Plan(self.sizes, [len(k) for k in self.strikes],
                                           trees=len(trees))
        plan = self.plans[len(trees)]
        # One column per tree; np.stack takes four times as long.
        nodes = np.array([column for _, column in trees]).T
        for rows, strikes, block in zip(self.rows, self.strikes, plan.blocks):
            # A view: the block's rows are contiguous runs of k*w columns.
            calls = block.reshape(len(block), -1, strikes.size)
            np.subtract(nodes[rows, :, None], strikes, out=calls)
            np.maximum(calls, 0.0, out=calls)
        return [None if root is None else root[self.position]
                for root in plan.run([q for q, _ in trees], r, dt)]


def model_prices(model: str, params: ModelParams, quotes: Sequence[OptionQuote],
                 s0: float, r: float,
                 dt: float = 1.0 / TRADING_DAYS_PER_YEAR) -> list[float]:
    """Price every quote: n = days to maturity on a step of ``dt``.

    Every maturity shares one recombining lattice, so the whole chain is
    priced in one run of pricing's backward induction, the one that
    :meth:`~mptree.pricing.Lattice.roll_back` makes for
    :func:`~mptree.pricing.price_european`: one block of strike columns
    per maturity, longest first, each joining at its own step. Each
    column goes through the arithmetic of rolling it back alone, so each
    price is bit-identical to pricing its quote with ``price_european``.
    The tree is checked as a ``Lattice`` checks it, with the same
    messages, though none is built. The induction also checks Q, takes
    the discount and rejects a price that overflows, so a discount too
    large for a float raises DomainError here as in ``roll_back``. The
    lattice uses the exact (exponential) factors and the paper's hedge
    probability Q, which leaves the martingale residual documented on
    ``roll_back``. The terminal nodes of every maturity are taken in one
    ``exp`` pass of the node formula of :func:`~mptree.model.node_values`,
    the same bits as that function gives maturity by maturity.

    ``quotes`` laid out by a suite (a private ``_Chain``) are priced
    through the chain's plan of one tree, with its 0-d weights; any other
    sequence is laid out for this call alone. The prices are the same
    bits either way, and the same as those of the tree's columns when a
    suite prices several fits' points in one run.
    """
    _family(model)  # rejects an unknown model
    chain = quotes if isinstance(quotes, _Chain) else _Chain(quotes)
    prices, = chain.price([chain.tree(params, s0, r, dt)], r, dt)
    return prices.tolist()


def _price_round(chain: _Chain, points: Sequence[tuple[str, np.ndarray]], s0: float,
                 r: float, dt: float) -> list[np.ndarray | None]:
    """The prices of the chain's quotes at each (model, free vector) of
    ``points``, each a new array, or None where :func:`model_prices`
    raises on it.

    One point is priced by ``model_prices``, looked up on this module.
    Several are priced in one :meth:`_Chain.price` of the trees that pass
    ``model_prices``'s checks: each tree's columns take the arithmetic of
    pricing it alone, and a tree whose root overflows reads as raised on
    its own.
    """
    if len(points) == 1:
        (model, x), = points
        try:
            return [np.asarray(model_prices(model, build_params(model, x, r), chain, s0, r, dt))]
        except (DomainError, ArbitrageError):
            return [None]
    trees = []
    for model, x in points:
        try:
            trees.append(chain.tree(build_params(model, x, r), s0, r, dt))
        except (DomainError, ArbitrageError):
            trees.append(None)
    ready = [tree for tree in trees if tree is not None]
    if not ready:
        return [None] * len(trees)
    try:
        prices = iter(chain.price(ready, r, dt))
    except DomainError:  # the discount, which every tree shares, or no root finite
        return [None] * len(trees)
    return [None if tree is None else next(prices) for tree in trees]


def _point(x: Sequence[float]) -> bytes:
    """The float64 bytes of a free vector, the key of its stored prices."""
    return np.asarray(x, dtype=float).tobytes()


def _chain_order(quote: OptionQuote) -> tuple[int, float, float]:
    return (quote.days_to_maturity, quote.strike, quote.market_price)


def implied_atm_sigma(quotes: Sequence[OptionQuote], s0: float, r: float,
                      dt: float = 1.0 / TRADING_DAYS_PER_YEAR) -> float:
    """The CRR sigma that prices the most at-the-money quote.

    The quote is the one nearest ``s0``, ties broken by the chain order of
    :func:`calibrate_suite` (maturity, strike, price), so the input order
    does not matter. Its CRR sigma is bisected between the lowest
    admissible sigma of ``_default_start`` and the top of the sigma box,
    down to adjacent floats, which reprices the quote to rounding whenever
    the prices at those two ends fall on both sides of it, even where the
    price is flat in sigma over part of the range. Otherwise
    ``_default_start("crr", 0.2, r, dt)`` is returned, which is 0.2
    wherever that tree is valid. The price rises with sigma except where
    every node at maturity is in the money: there it falls slightly, by
    the martingale residual of the hedge probability, so a quote on that
    plateau can have a repricing sigma that the two ends do not bracket.

    Each sigma tried is priced by :func:`_price_round` on a ``_Chain``
    of the one quote, and so through :func:`model_prices`.
    """
    quote = min(sorted(quotes, key=_chain_order), key=lambda q: abs(q.strike - s0))
    chain = _Chain([quote])

    def residual(sigma: float) -> float:
        prices, = _price_round(chain, [("crr", (sigma,))], s0, r, dt)
        return math.nan if prices is None else prices[0] - quote.market_price

    lo, hi = _default_start("crr", SIGMA_BOUNDS[0], r, dt)[0], SIGMA_BOUNDS[1]
    if not residual(lo) <= 0.0 <= residual(hi):
        return _default_start("crr", 0.2, r, dt)[0]
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # until lo and hi are adjacent floats
        lo, hi = (mid, hi) if residual(mid) < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return mid


def _default_start(model: str, sigma0: float, r: float, dt: float) -> tuple[float]:
    """``(sigma0,)`` for a one-parameter family, made admissible.

    sigma0 is clipped into the sigma box and walked up by factors of 1.5
    until ``model``'s tree is valid, since the CRR slope diverges as
    sigma -> 0. This is the only sigma walk: the at-the-money inversion
    takes from it the low end of its bracket and its answer for a quote
    that no sigma reprices, and crr, jr and tian start from it at that
    inversion's sigma. Nested families start from the best poorer optimum.
    """
    family = _FAMILIES[model]
    sigma0 = min(max(sigma0, SIGMA_BOUNDS[0] * 2), SIGMA_BOUNDS[1] / 2)
    while sigma0 < SIGMA_BOUNDS[1] / 2:
        try:
            p_up(family.build((sigma0,), r), dt)
            break
        except DomainError:
            sigma0 *= 1.5
    return (sigma0,)


def _inside(value: float, bounds: tuple[float, float]) -> float:
    """``value`` clipped to just inside the open box, whatever its signs."""
    lo, hi = bounds
    margin = (hi - lo) * 1e-9
    return min(max(value, lo + margin), hi - margin)


_PENALTY = 1e15


def _fit(model: str, start: Sequence[float], chain: _Chain, s0: float, r: float,
         cfg: CalibrationConfig, search: bool
         ) -> Generator[np.ndarray, np.ndarray | None, CalibrationResult]:
    """Fit ``model`` to the chain by least squares on prices, resumably.

    The fit yields each free vector that it has not priced yet and is
    sent that vector's prices in quote order, or None where the pricing
    raises; it returns the result. The fit's store maps each vector it
    has been sent prices for to them, and is its searches' one source: a
    search is answered from it at every visit, the first included, with
    the SSE for Nelder-Mead and the residuals (NaN where the pricing
    raised) for the polish, and the reported metrics are those of the
    best point's stored prices.

    ``start`` (a free-parameter vector of this model) is clipped into the
    box; a restarted Nelder-Mead with the optimizer settings of ``cfg``
    runs from it unless ``search`` is False, and a Levenberg-Marquardt
    polish on the price residuals follows, whose point is kept only if it
    lowers the SSE. ``objective_evaluations`` counts both phases, or the
    polish alone without the search. ``converged`` is the polish's flag:
    False if its iteration cap stopped it or its box transform saturated,
    or if the search never left the region where the pricing raises.
    Non-convergence is reported through the flag, never raised.
    """
    bounds, transforms = free_parameter_spec(model)
    market = np.array([q.market_price for q in chain])
    # The prices of every point priced, by its _point, or None where the
    # pricing raised.
    priced: dict[bytes, np.ndarray | None] = {}

    def residuals(prices: np.ndarray | None) -> np.ndarray:
        # A new array, NaN wherever the pricing raised.
        return np.full(market.size, np.nan) if prices is None else prices - market

    def objective(prices: np.ndarray | None) -> float:
        diff = residuals(prices)
        sse = float(np.dot(diff, diff))
        return sse if math.isfinite(sse) else _PENALTY

    def drive(search: Generator[np.ndarray, object, MinimizeResult],
              evaluate: Callable[[np.ndarray | None], object]
              ) -> Generator[np.ndarray, np.ndarray | None, MinimizeResult]:
        # Yields each point not yet priced, then sends the search its value.
        point = next(search)
        while True:
            key = _point(point)
            if key not in priced:
                priced[key] = yield point
            try:
                point = search.send(evaluate(priced[key]))
            except StopIteration as stop:
                return stop.value

    start = [_inside(float(value), box) for value, box in zip(start, bounds)]
    if search:
        best = yield from drive(_minimize_search(bounds, start, transforms, cfg), objective)
        evaluations, converged = best.evaluations, False
        if best.value < _PENALTY:
            polished = yield from drive(
                _least_squares_search(bounds, best.x, transforms, cfg.tolerance), residuals)
            evaluations += polished.evaluations
            converged = polished.converged
            if polished.value < best.value:
                best = polished
    else:
        best = yield from drive(
            _least_squares_search(bounds, start, transforms, cfg.tolerance), residuals)
        evaluations, converged = best.evaluations, best.converged
    params = build_params(model, best.x, r)
    prices = priced.get(_point(best.x))
    if prices is None:
        # Only a fit that never left the region where the pricing raises
        # ends here: pricing its point again raises that error.
        prices = model_prices(model, params, chain, s0, r, cfg.dt)
    metrics = error_metrics(prices, [q.market_price for q in chain])
    return CalibrationResult(model=model, params=params, metrics=metrics,
                             objective_evaluations=evaluations,
                             converged=converged)


def _run_fits(fits: dict[str, Generator[np.ndarray, np.ndarray | None, CalibrationResult]],
              chain: _Chain, s0: float, r: float, dt: float) -> list[CalibrationResult]:
    """Drive ``fits`` (model to ``_fit``) in lockstep; their results, in order.

    Each round prices the next point of every fit still running in one
    :func:`_price_round`. A point's prices do not depend on the others
    priced with it, so each fit ends as it would alone. If fits raise
    DomainError or ArbitrageError, the error of the first in order is
    raised once all have ended, as a loop fitting one after the other
    would raise it.
    """
    outcomes: dict[str, CalibrationResult | ValueError] = {}
    sent: dict[str, np.ndarray | None] = dict.fromkeys(fits)  # None starts a fit
    while sent:
        points = {}
        for model, prices in sent.items():
            try:
                points[model] = fits[model].send(prices)
            except StopIteration as stop:
                outcomes[model] = stop.value
            except (DomainError, ArbitrageError) as error:  # raised below, in order
                outcomes[model] = error
        sent = dict(zip(points, _price_round(chain, list(points.items()), s0, r, dt)
                        if points else []))
    results = [outcomes.pop(model) for model in fits]
    failed = next((result for result in results if isinstance(result, ValueError)), None)
    if failed is not None:
        # Dropping every reference from this frame before the raise leaves
        # no cycle through the traceback, which holds the chain.
        results = None
        try:
            raise failed
        finally:
            del failed
    return results


def calibrate(model: str, quotes: Sequence[OptionQuote], s0: float, r: float,
              config: CalibrationConfig | None = None) -> CalibrationResult:
    """Fit ``model`` to the chain: ``calibrate_suite([model], ...)[0]``.

    The suite applies ``maturity_filter`` here too. A nested family
    (mpbin1, mpbin2) is fit after every family before it in
    :data:`MODELS` and starts from the best of their optima as well, so
    its result equals the suite's.
    """
    return calibrate_suite([model], quotes, s0, r, config)[0]


def calibrate_suite(models: Sequence[str], quotes: Sequence[OptionQuote],
                    s0: float, r: float,
                    config: CalibrationConfig | None = None
                    ) -> list[CalibrationResult]:
    """Calibrate several models, seeding richer ones from poorer optima.

    With ``maturity_filter`` set in ``config``, the quotes of more than
    ``MAX_CALIBRATION_DAYS`` = 100 trading days to maturity are dropped
    before the chain is checked; this is the one place the setting acts.
    The chain ``(quotes, s0, r)`` is then checked by building one
    :class:`ChainFile`, the one home of a chain's rules. The quotes are
    sorted once by (maturity, strike, price), so the result does not
    depend on their order. Families are fit in
    :data:`MODELS` order, each by one search from one start. crr, jr and
    tian start from an at-the-money sigma inversion made once per chain.
    If a nested family (mpbin1, mpbin2) is requested, every family before
    it is fit too, and the nested family starts from the optimum of lowest
    RMSE among them, which enforces the nesting of optimal errors
    numerically. If that optimum's SSE, n * RMSE**2 over the n quotes, is
    below ``tolerance``, the nested family skips Nelder-Mead and is
    polished alone; its ``objective_evaluations`` then count the polish
    only. Without a nested family only the requested families are
    fit. The result holds the requested models only, in :data:`MODELS`
    order.

    The chain is laid out once for every fit. The fits of crr, jr and
    tian advance in lockstep, and each round prices their pending points
    in one run of a stacked induction; the nested families follow one at
    a time, one point a round. Each result, and each evaluation count,
    is bit for bit that of fitting the family alone, and where several
    fits raise, the error of the first in :data:`MODELS` order is the one
    raised, as if the families were fit one after the other.

    Raises
    ------
    DomainError
        For an empty or unknown model list, a quote list that the
        maturity filter empties, a chain that :class:`ChainFile` rejects
        (a spot that is not positive and finite, a rate that is not
        finite, no quote, or a quote priced above ``s0``), or mpbin2 at a
        rate outside ``GAMMA_BOUNDS``: it embeds a poorer optimum at
        gamma = r.
    """
    cfg = config or CalibrationConfig()
    if len(models) == 0:
        raise DomainError(f"model list must be non-empty; expected some of {MODELS}")
    for model in models:
        _family(model)  # rejects an unknown model
    if cfg.maturity_filter:
        quotes = [quote for quote in quotes if quote.days_to_maturity <= MAX_CALIBRATION_DAYS]
        if len(quotes) == 0:
            raise DomainError(f"maturity_filter left no quote within {MAX_CALIBRATION_DAYS} days")
    ChainFile(s0, r, tuple(quotes))
    if "mpbin2" in models and not GAMMA_BOUNDS[0] < r < GAMMA_BOUNDS[1]:
        raise DomainError(f"mpbin2 embeds poorer optima at gamma = r, so the "
                          f"rate must lie inside {GAMMA_BOUNDS}, got {r}")
    quotes = sorted(quotes, key=_chain_order)
    last_nested = max((MODELS.index(m) for m in models if _FAMILIES[m].nested), default=-1)
    fitted = [model for i, model in enumerate(MODELS) if i < last_nested or model in models]
    sigma0 = implied_atm_sigma(quotes, s0, r, cfg.dt)
    chain = _Chain(quotes)
    results = _run_fits(
        {model: _fit(model, _default_start(model, sigma0, r, cfg.dt), chain, s0, r, cfg, True)
         for model in fitted if not _FAMILIES[model].nested}, chain, s0, r, cfg.dt)
    for model in fitted:
        family = _FAMILIES[model]
        if family.nested:
            best = min(results, key=lambda res: res.metrics.rmse)
            start = _seed(best.params, cfg.dt)[:len(family.params)]
            # No search from a seed of SSE below the tolerance can gain
            # more than the simplex spread at which minimize stops.
            search = len(quotes) * best.metrics.rmse ** 2 >= cfg.tolerance
            results += _run_fits({model: _fit(model, start, chain, s0, r, cfg, search)},
                                 chain, s0, r, cfg.dt)
    return [res for res in results if res.model in models]


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
