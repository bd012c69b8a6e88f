"""Terminal tree distributions, Kolmogorov distance, and rate measurement.

The terminal distribution of an n-step tree is binomial over the n+1
recombining nodes. Against the lognormal limit the sup-norm (Kolmogorov)
distance decays like 1/sqrt(n) with a p-dependent factor
(1 - 2p + 2p^2)/sqrt(p(1-p)); :func:`rate_experiment` measures both the
decay exponent and the stabilized sqrt(n)-scaled distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .errors import DomainError
from .model import ModelParams, node_values, step_factors_exact, validate_params
from .pricing import risk_neutral_prob
from .special import log_binomial_pmf, normal_cdf

__all__ = [
    "DiscreteCdf",
    "terminal_distribution",
    "lognormal_cdf",
    "kolmogorov_distance",
    "rate_constant",
    "RatePoint",
    "RateExperiment",
    "rate_experiment",
]

_CUM_TOL = 1e-12
# kolmogorov_distance evaluates F only where 1e-7 < F_n < 1 - 1e-7.
_TAIL = 1e-7


@dataclass(frozen=True)
class DiscreteCdf:
    """A discrete distribution as sorted support plus cumulative weights."""

    support: np.ndarray
    cum: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        cum = np.asarray(self.cum, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "cum", cum)
        if support.ndim != 1 or support.shape != cum.shape or support.size == 0:
            raise DomainError("support and cum must be equal-length 1-d arrays")
        if not np.all(np.diff(support) > 0.0):
            raise DomainError("support must be strictly ascending")
        if np.any(np.diff(cum) < 0.0) or cum[0] < 0.0:
            raise DomainError("cumulative probabilities must be non-decreasing")
        if abs(cum[-1] - 1.0) > _CUM_TOL:
            raise DomainError(
                f"cumulative probabilities must end at 1 within {_CUM_TOL}, "
                f"got {cum[-1]!r}")

    @property
    def weights(self) -> np.ndarray:
        return np.diff(self.cum, prepend=0.0)


def terminal_distribution(s0: float, params: ModelParams, n: int, dt: float,
                          measure: Literal["physical", "risk_neutral"] = "physical",
                          r: Optional[float] = None) -> DiscreteCdf:
    """Distribution of the n-step tree price under either measure.

    Support is :func:`~mptree.model.node_values` with exact factors; node
    weights are Binomial(n, q) with q = p(dt) (physical) or the
    risk-neutral Q (requires ``r``). At Q = 0 or Q = 1, both of which
    :func:`~mptree.pricing.risk_neutral_prob` allows, the law is the point
    mass on the bottom or the top node. Otherwise all n+1 weights come
    from one :func:`~mptree.special.log_binomial_pmf` call, in log space so
    large n does not underflow, and are then renormalized. Its cumulative-sum
    log C(n, k) carries rounding noise that grows with n: the cumulative
    weights stay within 1e-11 of the exact binomial CDF at n = 65,536.
    """
    if not s0 > 0.0:
        raise DomainError(f"spot must be positive, got {s0}")
    if n < 1:
        raise DomainError(f"step count must be >= 1, got {n}")
    factors = step_factors_exact(params, dt)
    if measure == "physical":
        q = factors.p
    elif measure == "risk_neutral":
        if r is None:
            raise DomainError("risk-neutral terminal distribution requires r")
        q = risk_neutral_prob(params, r, dt)
    else:
        raise DomainError(f"unknown measure {measure!r}")
    if 0.0 < q < 1.0:
        weights = np.exp(log_binomial_pmf(np.arange(n + 1), n, q))
        weights /= weights.sum()
    else:
        weights = np.zeros(n + 1)
        weights[n if q == 1.0 else 0] = 1.0
    return DiscreteCdf(support=node_values(s0, factors, n), cum=np.cumsum(weights))


def lognormal_cdf(x: float, s0: float, b: float, sigma: float, t: float) -> float:
    """CDF at x of s0 * exp((b - sigma^2/2) t + sigma B(t)); 0 for x <= 0."""
    if not s0 > 0.0:
        raise DomainError(f"spot must be positive, got {s0}")
    if not (sigma > 0.0 and t > 0.0):
        raise DomainError("sigma and t must be positive")
    if x <= 0.0:
        return 0.0
    z = (math.log(x / s0) - (b - sigma * sigma / 2.0) * t) / (sigma * math.sqrt(t))
    return normal_cdf(z)


def _scan(empirical: DiscreteCdf, continuous: Callable[[float], float],
          lo: int, hi: int) -> tuple[float, np.ndarray]:
    """Largest one-sided gap at support points lo..hi-1, and F there."""
    cum = empirical.cum
    f_vals = np.array([continuous(float(x)) for x in empirical.support[lo:hi]])
    right = np.abs(cum[lo:hi] - f_vals)
    left = np.abs(np.concatenate(([cum[lo - 1] if lo > 0 else 0.0],
                                  cum[lo:hi - 1])) - f_vals)
    return float(max(right.max(), left.max())), f_vals


def kolmogorov_distance(empirical: DiscreteCdf,
                        continuous: Callable[[float], float]) -> float:
    """sup_x |F_n(x) - F(x)| for a step CDF against a continuous one.

    F must be a CDF: monotone and within [0, 1]; F_n is monotone by
    construction. The supremum is then attained at a jump point of F_n,
    approached from one side or the other, so it is the largest of the
    two one-sided gaps |F_n(x_i) - F(x_i)| and |F_n(x_{i-1}) - F(x_i)|.

    F is evaluated only on the body of F_n, the support points lo..hi
    whose cumulative weight lies in (1e-7, 1 - 1e-7). Left of the body
    both CDFs are small, so every gap there is at most
    max(F_n(x_{lo-1}), F(x_lo)); right of it every gap is at most
    max(F_n(x_last) - F(x_hi), 1 - F_n(x_hi)). Each bound is one rounded
    operation on values that dominate the tail's own operands, so it
    dominates the tail's floating-point gaps too. When both bounds are
    at most the body's largest gap, that gap is bit-for-bit the result
    of scanning every support point. Otherwise, or when the body is
    empty, every support point is scanned.
    """
    cum = empirical.cum
    lo = int(np.searchsorted(cum, _TAIL, side="right"))
    hi = int(np.searchsorted(cum, 1.0 - _TAIL, side="left")) - 1
    if lo <= hi:
        dist, f_vals = _scan(empirical, continuous, lo, hi + 1)
        left_bound = max(cum[lo - 1], f_vals[0]) if lo > 0 else 0.0
        right_bound = max(cum[-1] - f_vals[-1], 1.0 - cum[hi])
        if left_bound <= dist and right_bound <= dist:
            return dist
    return _scan(empirical, continuous, 0, cum.size)[0]


def rate_constant(p: float) -> float:
    """The p-dependence of the distance bound: (1 - 2p + 2p^2)/sqrt(p(1-p))."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must be strictly inside (0, 1), got {p}")
    return (1.0 - 2.0 * p + 2.0 * p * p) / math.sqrt(p * (1.0 - p))


@dataclass(frozen=True)
class RatePoint:
    """One sweep entry: step count, distance, and sqrt(n)-scaled distance."""

    n: int
    distance: float
    scaled: float


@dataclass(frozen=True)
class RateExperiment:
    """Distance sweep over n plus the fitted log-log slope."""

    points: tuple[RatePoint, ...]
    slope: float

    def to_csv(self) -> str:
        lines = ["n,distance,scaled"]
        for pt in self.points:
            lines.append(f"{pt.n},{pt.distance!r},{pt.scaled!r}")
        lines.append(f"# slope={self.slope!r}")
        return "\n".join(lines) + "\n"


def rate_experiment(params: ModelParams, t: float,
                    n_values: Sequence[int]) -> RateExperiment:
    """Measure the Kolmogorov distance to the lognormal limit over n.

    For each n: dt = t/n, the physical terminal distribution is compared
    against the lognormal CDF with drift b = g*gamma + (1-g)*delta. The
    slope of log(distance) against log(n) is fitted by least squares.
    """
    if not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    ns = [int(n) for n in n_values]
    if len(ns) < 2:
        raise DomainError("need at least two step counts to fit a slope")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("step counts must be strictly ascending")
    b = params.mean_drift
    s0 = 1.0
    points = []
    for n in ns:
        dt = t / n
        validate_params(params, dt)
        cdf = terminal_distribution(s0, params, n, dt, measure="physical")
        dist = kolmogorov_distance(
            cdf, lambda x: lognormal_cdf(x, s0, b, params.sigma, t))
        points.append(RatePoint(n=n, distance=dist, scaled=dist * math.sqrt(n)))
    log_n = np.log([pt.n for pt in points])
    log_d = np.log([pt.distance for pt in points])
    x_centered = log_n - log_n.mean()
    slope = float(np.dot(x_centered, log_d - log_d.mean()) / np.dot(x_centered, x_centered))
    return RateExperiment(points=tuple(points), slope=slope)
