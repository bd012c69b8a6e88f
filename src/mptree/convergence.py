"""Terminal tree distributions, Kolmogorov distance, and rate measurement.

The terminal distribution of an n-step tree is binomial over the n+1
recombining nodes. Against the lognormal limit the sup-norm (Kolmogorov)
distance decays like 1/sqrt(n) with a p-dependent factor
(1 - 2p + 2p^2)/sqrt(p(1-p)); :func:`rate_experiment` measures both the
decay exponent and the stabilized sqrt(n)-scaled distances.

:func:`kolmogorov_distance` evaluates F on arrays, one call per scanned
slice of the support. :func:`lognormal_cdf` takes a float or an array, so
:func:`rate_experiment` passes it with its parameters bound.

:func:`terminal_distribution` checks its tree with the rules of
:mod:`mptree.model` that a :class:`~mptree.pricing.Lattice` uses: p(dt)
and the factors first, then the spot, the step count and the top node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .model import (ModelParams, _require_finite_nodes, _require_sigma_and_t, node_values,
                    step_factors_exact)
from .pricing import risk_neutral_prob
from .special import binomial_weights

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
        # Comparisons rather than differences: inf - inf would warn, and a
        # NaN fails every comparison.
        if not np.all(support[1:] > support[:-1]):
            raise DomainError("support must be strictly ascending")
        if not (cum[0] >= 0.0 and np.all(cum[1:] >= cum[:-1])):
            raise DomainError("cumulative probabilities must be non-NaN, >= 0 and non-decreasing")
        if abs(cum[-1] - 1.0) > _CUM_TOL:
            raise DomainError(
                f"cumulative probabilities must end at 1 within {_CUM_TOL}, "
                f"got {cum[-1]!r}")

    @property
    def weights(self) -> np.ndarray:
        return np.diff(self.cum, prepend=0.0)


def terminal_distribution(s0: float, params: ModelParams, n: int, dt: float,
                          r: float | None = None) -> DiscreteCdf:
    """Distribution of the n-step tree price: physical, or risk-neutral at ``r``.

    Support is :func:`~mptree.model.node_values` with exact factors; node
    weights are Binomial(n, q), from one
    :func:`~mptree.special.binomial_weights` call. Without ``r``, q is
    p(dt) and the law is the physical one; with ``r``, q is the
    risk-neutral Q of :func:`~mptree.pricing.risk_neutral_prob`. The
    weights are summed out from the mode over the window Hoeffding's
    (1963) bound leaves nonzero, so large n neither underflows nor
    accumulates rounding from the far tail: the cumulative weights stay
    within 1e-13 of the exact binomial CDF at n = 65,536. At Q = 0 or
    Q = 1, both of which ``risk_neutral_prob`` allows, the law is the
    point mass on the bottom or the top node.

    Raises
    ------
    DomainError
        For parameters :func:`~mptree.model.step_factors_exact` rejects,
        then for a spot that is not positive, n below 1 or an overflowing
        top node, as a :class:`~mptree.pricing.Lattice` would.
    ArbitrageError
        If ``r`` lies outside the one-step no-arbitrage band.
    """
    factors = step_factors_exact(params, dt)
    _require_finite_nodes(s0, factors, n)
    q = factors.p if r is None else risk_neutral_prob(params, r, dt)
    return DiscreteCdf(support=node_values(s0, factors, n),
                       cum=np.cumsum(binomial_weights(n, q)))


def lognormal_cdf(x: float | np.ndarray, s0: float, b: float, sigma: float,
                  t: float) -> float | np.ndarray:
    """CDF at x of s0 * exp((b - sigma^2/2) t + sigma B(t)); 0 for x <= 0.

    ``x`` is a float, giving a float, or an array, giving an array of its
    shape. Every point goes through ``math.log`` and ``math.erfc``: NumPy
    has no erfc, and np.log can differ from math.log in the last bit.

    Raises
    ------
    DomainError
        Unless s0, sigma and t are positive and finite, b is finite, the
        log-mean and log-sd are finite with a positive log-sd, and no x is
        NaN.
    """
    # The spot's two checks stay here: an infinite spot is named with the
    # drift, in one message.
    if not s0 > 0.0:
        raise DomainError(f"spot must be positive, got {s0}")
    _require_sigma_and_t(sigma, t)
    if not (s0 < math.inf and math.isfinite(b)):
        raise DomainError(f"spot and drift must be finite, got s0={s0}, b={b}")
    drift = (b - sigma * sigma / 2.0) * t
    scale = sigma * math.sqrt(t)
    if not (math.isfinite(drift) and 0.0 < scale < math.inf):
        raise DomainError(f"log-mean (b - sigma^2/2)*t = {drift} must be finite "
                          f"and log-sd sigma*sqrt(t) = {scale} positive and finite")
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("lognormal CDF argument must not be NaN")
    with np.errstate(over="ignore"):  # as in float arithmetic, overflow gives inf
        ratio = x / s0
        inside = ratio > 0.0
        count = np.count_nonzero(inside)
        z = (np.fromiter(map(math.log, ratio[inside].tolist()), float, count)
             - drift) / scale
    values = np.zeros(x.shape)
    # Phi(z) = erfc(-z/sqrt(2))/2, as in special.normal_cdf, with the division
    # done in NumPy.
    values[inside] = 0.5 * np.fromiter(
        map(math.erfc, (-z / math.sqrt(2.0)).tolist()), float, count)
    return values if values.ndim else float(values)


def _scan(empirical: DiscreteCdf, continuous: Callable[[np.ndarray], np.ndarray],
          lo: int, hi: int) -> tuple[float, np.ndarray]:
    """Largest one-sided gap at support points lo..hi-1, and F there."""
    cum = empirical.cum
    x = empirical.support[lo:hi]
    f_vals = continuous(x)
    shape = getattr(f_vals, "shape", None)
    if shape != x.shape:
        raise DomainError(f"continuous CDF must return an array of shape {x.shape}, "
                          f"got {type(f_vals).__name__} with shape {shape}")
    in_range = (f_vals >= 0.0) & (f_vals <= 1.0)
    if not in_range.all():
        raise DomainError(f"continuous CDF values must lie in [0, 1], "
                          f"got {float(f_vals[~in_range][0])!r}")
    right = np.abs(cum[lo:hi] - f_vals)
    left = np.abs(np.concatenate(([cum[lo - 1] if lo > 0 else 0.0],
                                  cum[lo:hi - 1])) - f_vals)
    return float(max(right.max(), left.max())), f_vals


def kolmogorov_distance(empirical: DiscreteCdf,
                        continuous: Callable[[np.ndarray], np.ndarray]) -> float:
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

    ``continuous`` takes the scanned support points as one 1-d float
    array, once for the body and once more for a full scan, and returns F
    at each of them as an array of the same shape. A caller whose F takes
    one point at a time vectorises it first.

    Raises
    ------
    DomainError
        If F does not return an array of the scanned points' shape, or a
        scanned value of F is NaN or outside [0, 1].
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
    if min(ns) < 1:
        raise DomainError(f"step counts must be >= 1, got {min(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("step counts must be strictly ascending")
    s0 = 1.0
    limit = partial(lognormal_cdf, s0=s0, b=params.mean_drift,
                    sigma=params.sigma, t=t)
    points = []
    for n in ns:
        cdf = terminal_distribution(s0, params, n, t / n)
        dist = kolmogorov_distance(cdf, limit)
        points.append(RatePoint(n=n, distance=dist, scaled=dist * math.sqrt(n)))
    log_n = np.log([pt.n for pt in points])
    log_d = np.log([pt.distance for pt in points])
    x_centered = log_n - log_n.mean()
    slope = float(np.dot(x_centered, log_d - log_d.mean()) / np.dot(x_centered, x_centered))
    return RateExperiment(points=tuple(points), slope=slope)
