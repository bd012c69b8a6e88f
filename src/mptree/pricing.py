"""Recombining lattice construction and risk-neutral European pricing.

The risk-neutral up probability is derived from a variance-zero hedge on
the asymptotic one-step factors::

    Q = ((r - delta)*sqrt(p(1-p))*sqrt(dt) + p*sigma)
        / ((gamma - delta)*sqrt(p(1-p))*sqrt(dt) + sigma)

which is continuous in p with limits 0 and 1 at the endpoints when
gamma = delta. A one-step model that instead fixes the replication
probability from (u, d, r) alone prices independently of p on (0, 1) and
jumps at p = 0 and p = 1; :func:`discontinuity_report` exhibits those
gaps for comparison.

There is one backward induction, ``_Plan.run``, and both European
pricers run on it. A ``_Plan`` lays out, once, the work arrays and step
views of an induction over blocks of terminal values in descending
order of step count, each block joining at its own step, for any number
of trees that share the rate and step, each with its own Q. A run reads
only each tree's Q, the rate and dt, and returns one root row per tree.
:meth:`Lattice.roll_back` builds a one-block plan of one tree per call
for :func:`price_european`; calibration's chain pricer
(:func:`~mptree.calibration.model_prices`) lays out one plan per tree
count per suite, with one block of strike columns per maturity, and
runs it at every evaluation, or every round of several fits' points.
Each step does the same IEEE operations in the same order for every
column, so a chain price equals the :func:`price_european` price of its
quote bit for bit, with other trees or alone. The run checks q, takes
its discount through ``_exp`` and finds a root that overflows, tree by
tree, so neither pricer computes a discount or checks an overflow of its
own.

The tree rules live in :mod:`mptree.model`: p(dt) in
:func:`~mptree.model.p_up`, the checks of a :class:`Lattice` in
``_require_positive_dt`` and ``_require_tree`` (spot, step count, top
node, then rate), which calibration's chain pricer shares, and the guard
against an exponent that is NaN or too large for exp, ``_exp``, which
the induction's discount, :func:`discontinuity_report` and
:func:`black_scholes_call` share with the exact factors. So do the
argument rules shared with other modules: ``_require_spot`` for
:func:`delta_hedge` and :func:`discontinuity_report`, and
``_require_sigma_and_t`` for both closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import ArbitrageError, DomainError
from .model import (ModelParams, StepFactors, _exp, _require_positive_dt,
                    _require_sigma_and_t, _require_spot, _require_tree, node_values, p_up,
                    step_factors_asymptotic, step_factors_exact)
from .special import normal_cdf

__all__ = [
    "Payoff",
    "Lattice",
    "risk_neutral_prob",
    "delta_hedge",
    "price_european",
    "DiscontinuityReport",
    "discontinuity_report",
    "black_scholes_call",
]


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff of a vanilla call or put at a strike.

    An unknown ``kind`` and a negative or non-finite strike are rejected at
    construction; a zero strike is the zero-strike limit. Other terminal
    values, one row per node, go to :meth:`Lattice.roll_back` directly.
    """

    kind: Literal["call", "put"]
    strike: float = 0.0

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls(kind="call", strike=float(strike))

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls(kind="put", strike=float(strike))

    def __post_init__(self) -> None:
        if self.kind not in ("call", "put"):
            raise DomainError(f"unknown payoff kind {self.kind!r}; "
                              f"expected 'call' or 'put'")
        if not 0.0 <= self.strike < math.inf:
            raise DomainError(f"strike must be finite and >= 0, got {self.strike}")

    def evaluate(self, terminal: np.ndarray) -> np.ndarray:
        if self.kind == "call":
            return np.maximum(terminal - self.strike, 0.0)
        return np.maximum(self.strike - terminal, 0.0)


@dataclass(frozen=True)
class Lattice:
    """Recombining price lattice: node (k steps, i ups) = s0 * u^i * d^(k-i)."""

    s0: float
    n: int
    dt: float
    factors: StepFactors
    rate: float

    def __post_init__(self) -> None:
        _require_positive_dt(self.dt)
        _require_tree(self.s0, self.factors, self.n, self.rate)

    @classmethod
    def build(cls, s0: float, params: ModelParams, n: int, dt: float, rate: float,
              method: Literal["exact", "asymptotic"] = "exact") -> "Lattice":
        """Build the lattice from model parameters.

        ``method="exact"`` (the default) uses the exponential factors and
        guarantees positive node prices; ``"asymptotic"`` uses the
        first-order factors.
        """
        if method not in ("exact", "asymptotic"):
            raise DomainError(f"unknown factor method {method!r}; "
                              f"expected 'exact' or 'asymptotic'")
        make = step_factors_exact if method == "exact" else step_factors_asymptotic
        return cls(s0=s0, n=n, dt=dt, factors=make(params, dt), rate=rate)

    def node_values(self, k: int) -> np.ndarray:
        """The k+1 distinct node prices after k steps, ascending."""
        return node_values(self.s0, self.factors, k)

    def roll_back(self, q: float, values: np.ndarray) -> np.ndarray:
        """Discounted expectation at the root of values at the terminal nodes.

        ``values`` has one row per terminal node, in the order of
        :meth:`node_values`, shape ``(n+1,)`` or ``(n+1, k)``, and only
        finite entries; each of the n steps discounts by exp(-rate*dt)
        under the up probability ``q``, which must lie in [0, 1]. A
        discount too large for a float, or a root that overflows one,
        raises DomainError. The root value or row is returned; the
        arithmetic of each column is that of rolling it back alone.
        ``values`` is rolled back in float64 on a copy, the work array of
        a one-block ``_Plan`` made for this call, so the caller's array
        is never written and the result shares no memory with it.

        Q is the paper's hedge probability, derived from the asymptotic
        factors. On a lattice built with the exact factors the one-step
        martingale residual e^{-r dt}(Q u + (1-Q) d) - 1 is therefore not
        zero: it is -sigma^4 dt^2/12 for JR (-2.1e-9 per daily step at
        sigma = 0.2) and O(dt^{3/2}) when p != 1/2 (mpbin1 at sigma = 0.3,
        g = 0.45: -4.6e-7 per daily step, about -9.7e-4 on S0 = 100 over 21
        steps). A zero-strike call is thus worth S0 (1 + residual)^n, not
        exactly S0.
        """
        shape = np.shape(values)
        if shape[:1] != (self.n + 1,):
            raise DomainError(f"need {self.n + 1} terminal rows, got {shape}")
        if not np.isfinite(values).all():
            raise DomainError("terminal values must be finite")
        plan = _Plan([self.n + 1], [math.prod(shape[1:])], keep_views=False)
        block, = plan.blocks
        block[...] = np.reshape(values, block.shape)
        root, = plan.run((q,), self.rate, self.dt)
        # [()] makes the 0-d root of a 1-D ``values`` a scalar.
        return root.reshape(shape[1:])[()]


def _step_views(values: np.ndarray, tmp: np.ndarray, up: np.ndarray, down: np.ndarray,
                top: int, bottom: int) -> Iterator[tuple[np.ndarray, ...]]:
    """``(values[1:m+1], values[:m], tmp[:m], up, down)`` for m from ``top``
    down to ``bottom``, the views of the steps that leave m live rows; the
    weights ``up`` and ``down`` are 0-d, or tiles of ``tmp``'s shape cut
    to m rows like it."""
    rows = range(top, bottom - 1, -1)
    if up.ndim:
        return ((values[1:m + 1], values[:m], tmp[:m], up[:m], down[:m]) for m in rows)
    return ((values[1:m + 1], values[:m], tmp[:m], up, down) for m in rows)


class _Plan:
    """Work arrays, weights and step views of one backward induction, laid
    out once.

    The induction takes blocks of terminal values in descending order of
    step count. Block i has ``rows[i]`` rows, one per node after
    rows[i] - 1 steps, and ``cols[i]`` columns, one per claim; the first
    block's rows are the lattice's n + 1 nodes. The induction starts from
    the first block, and each later block joins it at its own step: its
    columns are appended to the rows still live. Each block gets, once, a
    contiguous float64 work array of the live columns and then its own,
    and a scratch array, so that a run allocates no array of nodes: a
    fit runs its plan at every objective evaluation. The caller writes
    terminal values into :attr:`blocks`, each block's own columns of its
    work array, and :meth:`run` copies the live rows in beside them. One
    array laid out once for all blocks would leave every step a strided
    view of short runs, which costs far more than these copies.

    A plan prices ``trees`` trees on lattices of the same rate and step,
    each with its own Q, through one :meth:`run`: each block holds
    ``cols[i]`` columns per tree, tree after tree, and the trees share
    every step's four ufunc calls. The plan picks its weights from the
    tree count: for one tree, two 0-d arrays that every step reads, and
    no map of columns to trees, so its root row is the work array's own;
    for more, two tiles per block, of its scratch array's shape, which a
    run fills with each column's Q and 1 - Q. A Q row broadcast over the
    rows would save the fill but runs the steps slower, and a single
    column of thousands of nodes runs slower on tiles than on the 0-d
    weights, so one tree keeps those.

    Each step runs on five views, ``(values[1:m+1], values[:m], tmp[:m],
    up, down)``. A plan run at every evaluation of a fit (a calibration
    chain) keeps them, made once, since slicing them anew is a large
    share of a step of a few dozen nodes. A plan run once
    (``keep_views=False``, as in :meth:`Lattice.roll_back`) generates
    them step by step instead: kept, the views of 4,096 steps would hold
    1.9 MB for nothing.

    Every run overwrites the work arrays, and the root row of one tree is
    a view of them, so a plan belongs to the one caller that made it,
    a suite's chain or a roll-back, and is never shared.
    """

    def __init__(self, rows: Sequence[int], cols: Sequence[int],
                 keep_views: bool = True, trees: int = 1) -> None:
        self.blocks: list[np.ndarray] = []
        self._layout = []
        self._up, self._down = np.empty(()), np.empty(())
        live = 0
        # The tree of every live column of a stack.
        owner = np.empty(0, dtype=np.intp)
        # A block's steps end where the next block joins, or at the root.
        for here, joins, width in zip(rows, [*rows[1:], 1], cols):
            joined, live = live, live + trees * width
            values, tmp = np.empty((here, live)), np.empty((here - 1, live))
            self.blocks.append(values[:, joined:])
            if trees == 1:
                weights, fill = (self._up, self._down), None
            else:
                owner = np.concatenate([owner, np.repeat(np.arange(trees), width)])
                weights = (np.empty_like(tmp), np.empty_like(tmp))
                fill = (*weights, owner)
            steps = (values, tmp, *weights, here - 1, joins)
            self._layout.append((values, steps, fill,
                                 list(_step_views(*steps)) if keep_views else None))
        # Each tree's root columns, block after block.
        self._trees = None if trees == 1 else [np.flatnonzero(owner == tree)
                                               for tree in range(trees)]

    def run(self, q: Sequence[float], rate: float, dt: float) -> list[np.ndarray | None]:
        """The root row of each tree: its columns, block after block, or
        None where it overflows a float.

        ``q`` holds each tree's up probability, which must lie in [0, 1],
        and every step discounts by exp(-rate*dt), which must fit a float,
        or DomainError is raised. A tree whose root overflows reads None,
        and a run in which no root is finite raises DomainError, so a run
        of one tree raises where its root overflows. Overflow and 0*inf
        are let through the steps and caught once, at the root, where
        every non-finite node ends up. A step on the first m + 1 rows is
        four in-place ufunc calls, ``tmp[:m] = v[1:m+1]*q; v[:m] *= 1 - q;
        v[:m] += tmp[:m]; v[:m] *= disc``, the same IEEE operations as
        ``disc*(q*v[1:] + (1-q)*v[:-1])`` since addition and
        multiplication commute bit for bit. Each column of several trees
        takes the operations of its tree alone, so a tree's row is the
        bits of a plan of that tree alone. That fixed order is what makes
        :func:`~mptree.calibration.model_prices` equal
        :func:`price_european` exactly. A reordering, such as folding
        ``disc`` into the weights, changes the last bits of the prices,
        and with them where some fits stop.

        The row of one tree is a view of the plan's work array; the rows
        of several are new arrays. The weights and the discount reach the
        ufuncs as float64 arrays: NumPy takes those as they are, where it
        converts a Python float and resolves its type on every call, a
        large share of a call on a few dozen nodes. The products are the
        same IEEE values.
        """
        for p in q:
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"up probability q must be in [0, 1], got {p}")
        disc = _exp("-rate*dt", -rate * dt)
        up, discount = np.array(q), np.array(disc)
        down = 1.0 - up
        self._up[()], self._down[()] = up[0], down[0]
        # Positional outputs and local names cut the per-call overhead, which
        # is a large share of a step of a few hundred nodes.
        multiply, add = np.multiply, np.add
        live = None
        with np.errstate(over="ignore", invalid="ignore"):
            for values, steps, fill, views in self._layout:
                if live is not None:
                    values[:, :live.shape[1]] = live[:len(values)]
                if fill is not None:
                    up_tile, down_tile, owner = fill
                    up_tile[...] = up[owner]
                    down_tile[...] = down[owner]
                for upper, head, scratch, up_weight, down_weight in (
                        views if views is not None else _step_views(*steps)):
                    multiply(upper, up_weight, scratch)
                    multiply(head, down_weight, head)
                    add(head, scratch, head)
                    multiply(head, discount, head)
                live = values
        root = values[0]
        rows = [root] if self._trees is None else [root[columns] for columns in self._trees]
        rows = [row if np.isfinite(row).all() else None for row in rows]
        if all(row is None for row in rows):
            raise DomainError(f"the rolled-back value overflows a float at discount "
                              f"exp(-rate*dt) = {disc}")
        return rows


def risk_neutral_prob(params: ModelParams, r: float, dt: float) -> float:
    """Risk-neutral up probability Q for one step of length dt.

    Raises
    ------
    DomainError
        If the denominator (gamma-delta)*sqrt(p(1-p))*sqrt(dt) + sigma is
        not positive.
    ArbitrageError
        If Q falls outside [0, 1]: r sits outside the one-step
        no-arbitrage band.
    """
    p = p_up(params, dt)
    spread = math.sqrt(p * (1.0 - p)) * math.sqrt(dt)
    denom = (params.gamma - params.delta) * spread + params.sigma
    if denom <= 0.0:
        raise DomainError(
            f"risk-neutral denominator {denom} is not positive; "
            f"gamma - delta too negative for this dt")
    q = ((r - params.delta) * spread + p * params.sigma) / denom
    if not 0.0 <= q <= 1.0:
        raise ArbitrageError(
            f"risk-neutral probability {q} outside [0, 1]: rate {r} violates "
            f"the one-step no-arbitrage band")
    return q


def delta_hedge(s: float, f_u: float, f_d: float, params: ModelParams,
                dt: float) -> float:
    """Stock position that zeroes the one-step portfolio variance.

    Delta = (1/s) * (f_u - f_d) / ((gamma-delta)*dt + sigma*sqrt(dt)/sqrt(p(1-p))).
    The denominator equals u - d of the asymptotic factors, so
    Delta*s*u - f_u == Delta*s*d - f_d identically.

    Raises
    ------
    DomainError
        If s is not positive and finite, u - d is zero, s*(u - d)
        underflows to zero, or Delta is not finite, besides the checks of
        :func:`~mptree.model.p_up`.
    """
    _require_spot(s)
    p = p_up(params, dt)
    denom = (params.gamma - params.delta) * dt + \
        params.sigma * math.sqrt(dt) / math.sqrt(p * (1.0 - p))
    if denom == 0.0:
        raise DomainError("degenerate hedge: asymptotic factor spread u - d is zero")
    if s * denom == 0.0:
        raise DomainError(f"degenerate hedge: price spread s*(u - d) underflows, s = {s}")
    hedge = (f_u - f_d) / (s * denom)
    if not math.isfinite(hedge):
        raise DomainError(f"hedge ratio = {hedge} is not finite")
    return hedge


def price_european(lattice: Lattice, params: ModelParams, payoff: Payoff) -> float:
    """European option value at the root by backward induction.

    The payoff at the n+1 terminal nodes is rolled back under the
    risk-neutral probability of :func:`risk_neutral_prob`; see
    :meth:`Lattice.roll_back` for the martingale residual this leaves on
    a lattice with the exact factors.
    """
    q = risk_neutral_prob(params, lattice.rate, lattice.dt)
    return float(lattice.roll_back(q, payoff.evaluate(lattice.node_values(lattice.n))))


@dataclass(frozen=True)
class DiscontinuityReport:
    """Endpoint behaviour of a one-step replication-probability pricer."""

    f0_interior: float
    f0_at_p: float
    gap_at_0: float
    gap_at_1: float


def discontinuity_report(s0: float, r: float, sigma: float, t: float,
                         payoff: Payoff, p: float) -> DiscontinuityReport:
    """Price a one-step u = exp(sigma*sqrt(t)), d = 1/u model at probability p.

    For p in (0, 1) the replication value uses q = (exp(r*t) - d)/(u - d)
    and does not depend on p at all; at p = 0 or p = 1 the option is worth
    the discounted single-branch payoff. The two gap fields quantify the
    jumps at the endpoints.

    Raises
    ------
    DomainError
        If sigma*sqrt(t) or r*t is too large for exp, s0*u or any field
        of the report is not finite, or sigma*sqrt(t) is so small that u
        rounds to d, besides the argument checks.
    """
    _require_spot(s0)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {p}")
    _require_sigma_and_t(sigma, t)
    u = _exp("sigma*sqrt(t)", sigma * math.sqrt(t))
    grow = _exp("r*t", r * t)
    if not math.isfinite(s0 * u):
        raise DomainError(f"s0*u = {s0 * u} is not finite")
    d = 1.0 / u
    if not d < u:
        raise DomainError(f"sigma*sqrt(t) is too small: u = d = {u}")
    q = (grow - d) / (u - d)
    if not 0.0 < q < 1.0:
        raise ArbitrageError(
            f"replication probability {q} outside (0, 1): rate {r} violates "
            f"no-arbitrage for this one-step model")
    disc = math.exp(-r * t)
    f_u = float(payoff.evaluate(np.array([s0 * u]))[0])
    f_d = float(payoff.evaluate(np.array([s0 * d]))[0])
    interior = disc * (q * f_u + (1.0 - q) * f_d)
    if p == 0.0:
        at_p = disc * f_d
    elif p == 1.0:
        at_p = disc * f_u
    else:
        at_p = interior
    report = DiscontinuityReport(
        f0_interior=interior,
        f0_at_p=at_p,
        gap_at_0=disc * q * (f_d - f_u),
        gap_at_1=disc * (1.0 - q) * (f_u - f_d),
    )
    for name, value in vars(report).items():
        if not math.isfinite(value):
            raise DomainError(f"{name} = {value} is not finite")
    return report


def black_scholes_call(s0: float, strike: float, r: float, sigma: float,
                       t: float) -> float:
    """Closed-form European call value; the lattice convergence reference.

    Raises
    ------
    DomainError
        If the spot, strike, sigma or t is not positive and finite,
        sigma*sqrt(t) or s0/strike rounds to zero, -r*t is NaN or too
        large for exp, or d1, d2 or the value is not finite.
    """
    # One message names both, as lognormal_cdf's "spot and drift" does.
    if not (0.0 < s0 < math.inf and 0.0 < strike < math.inf):
        raise DomainError(f"spot and strike must be positive and finite, "
                          f"got s0={s0}, strike={strike}")
    _require_sigma_and_t(sigma, t)
    srt, moneyness = sigma * math.sqrt(t), s0 / strike
    if srt == 0.0 or moneyness == 0.0:
        raise DomainError(f"sigma*sqrt(t) = {srt}, s0/strike = {moneyness}: one is zero")
    disc = _exp("-r*t", -r * t)
    d1 = (math.log(moneyness) + (r + sigma * sigma / 2.0) * t) / srt
    d2 = d1 - srt
    value = s0 * normal_cdf(d1) - strike * disc * normal_cdf(d2)
    if not all(map(math.isfinite, (d1, d2, value))):
        raise DomainError(f"d1 = {d1}, d2 = {d2} and the value {value} must be finite")
    return value
