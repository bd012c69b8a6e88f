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

:meth:`Lattice.roll_back` is the one backward induction: both
:func:`price_european` and calibration's chain pricer
(:func:`~mptree.calibration.model_prices`) price through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .errors import ArbitrageError, DomainError
from .model import (ModelParams, StepFactors, node_values, p_up,
                    step_factors_asymptotic, step_factors_exact)
from .special import normal_cdf

__all__ = [
    "Payoff",
    "Lattice",
    "risk_neutral_prob",
    "market_price_of_risk",
    "delta_hedge",
    "price_european",
    "DiscontinuityReport",
    "discontinuity_report",
    "black_scholes_call",
]


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff: vanilla call/put at a strike, or a custom mapping."""

    kind: Literal["call", "put", "custom"]
    strike: float = 0.0
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls(kind="call", strike=float(strike))

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls(kind="put", strike=float(strike))

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "Payoff":
        return cls(kind="custom", fn=fn)

    def __post_init__(self) -> None:
        if self.kind not in ("call", "put", "custom"):
            raise DomainError(f"unknown payoff kind {self.kind!r}; "
                              f"expected 'call', 'put' or 'custom'")
        if self.kind == "custom" and self.fn is None:
            raise DomainError("custom payoff requires an evaluator function")

    def evaluate(self, terminal: np.ndarray) -> np.ndarray:
        if self.kind == "call":
            return np.maximum(terminal - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - terminal, 0.0)
        return np.asarray(self.fn(terminal), dtype=float)


@dataclass(frozen=True)
class Lattice:
    """Recombining price lattice: node (k steps, i ups) = s0 * u^i * d^(k-i)."""

    s0: float
    n: int
    dt: float
    factors: StepFactors
    rate: float

    def __post_init__(self) -> None:
        if not self.s0 > 0.0:
            raise DomainError(f"spot must be positive, got {self.s0}")
        if self.n < 1:
            raise DomainError(f"step count must be >= 1, got {self.n}")
        if self.dt <= 0.0:
            raise DomainError(f"time step must be positive, got {self.dt}")

    @property
    def maturity(self) -> float:
        return self.n * self.dt

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
        :meth:`node_values`, and shape ``(n+1,)`` or ``(n+1, k)``; each of
        the n sweeps discounts by exp(-rate*dt) under the up probability
        ``q``. The root value or row is returned; the arithmetic of each
        column is that of rolling it back alone.

        Q is the paper's hedge probability, derived from the asymptotic
        factors. On a lattice built with the exact factors the one-step
        martingale residual e^{-r dt}(Q u + (1-Q) d) - 1 is therefore not
        zero: it is -sigma^4 dt^2/12 for JR (-2.1e-9 per daily step at
        sigma = 0.2) and O(dt^{3/2}) when p != 1/2 (mpbin1 at sigma = 0.3,
        g = 0.45: -4.6e-7 per daily step, about -9.7e-4 on S0 = 100 over 21
        steps). A zero-strike call is thus worth S0 (1 + residual)^n, not
        exactly S0.
        """
        if np.shape(values)[:1] != (self.n + 1,):
            raise DomainError(f"need {self.n + 1} terminal rows, got {np.shape(values)}")
        disc = math.exp(-self.rate * self.dt)
        for _ in range(self.n):
            values = disc * (q * values[1:] + (1.0 - q) * values[:-1])
        return values[0]


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


def market_price_of_risk(params: ModelParams, r: float) -> float:
    """theta = (gamma - r)/sigma; defined for gamma = delta."""
    if params.gamma != params.delta:
        raise DomainError(
            f"market price of risk requires gamma = delta, "
            f"got gamma={params.gamma}, delta={params.delta}")
    if not params.sigma > 0.0:
        raise DomainError(f"volatility sigma must be positive, got {params.sigma}")
    return (params.gamma - r) / params.sigma


def delta_hedge(s: float, f_u: float, f_d: float, params: ModelParams,
                dt: float) -> float:
    """Stock position that zeroes the one-step portfolio variance.

    Delta = (1/s) * (f_u - f_d) / ((gamma-delta)*dt + sigma*sqrt(dt)/sqrt(p(1-p))).
    The denominator equals u - d of the asymptotic factors, so
    Delta*s*u - f_u == Delta*s*d - f_d identically.
    """
    if not s > 0.0:
        raise DomainError(f"spot must be positive, got {s}")
    p = p_up(params, dt)
    denom = (params.gamma - params.delta) * dt + \
        params.sigma * math.sqrt(dt) / math.sqrt(p * (1.0 - p))
    if denom == 0.0:
        raise DomainError("degenerate hedge: asymptotic factor spread u - d is zero")
    return (f_u - f_d) / (s * denom)


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
    """
    if not s0 > 0.0:
        raise DomainError(f"spot must be positive, got {s0}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {p}")
    u = math.exp(sigma * math.sqrt(t))
    d = 1.0 / u
    grow = math.exp(r * t)
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
    return DiscontinuityReport(
        f0_interior=interior,
        f0_at_p=at_p,
        gap_at_0=disc * q * (f_d - f_u),
        gap_at_1=disc * (1.0 - q) * (f_u - f_d),
    )


def black_scholes_call(s0: float, strike: float, r: float, sigma: float,
                       t: float) -> float:
    """Closed-form European call value; the lattice convergence reference."""
    if not (s0 > 0.0 and strike > 0.0):
        raise DomainError("spot and strike must be positive")
    if not (sigma > 0.0 and t > 0.0):
        raise DomainError("sigma and t must be positive")
    srt = sigma * math.sqrt(t)
    d1 = (math.log(s0 / strike) + (r + sigma * sigma / 2.0) * t) / srt
    d2 = d1 - srt
    return s0 * normal_cdf(d1) - strike * math.exp(-r * t) * normal_cdf(d2)
