"""Generalized binomial step model and its classical specializations.

The tree is parameterized by a five-tuple (gamma, delta, g, v, sigma):
separate annualized drifts for the up and down branches, a base up
probability g, a probability slope v so that the one-step up probability
is p = g + v*sqrt(dt), and the volatility sigma. The one-step factors
come in two flavours:

exact (gross factors are exponentials, always positive)::

    u = exp((gamma - h_u^2/2)*dt + h_u*sqrt(dt)),  h_u = sigma*sqrt((1-p)/p)
    d = exp((delta - h_d^2/2)*dt - h_d*sqrt(dt)),  h_d = sigma*sqrt(p/(1-p))

asymptotic (first-order in dt, the form the small-dt analysis uses)::

    u = 1 + gamma*dt + h_u*sqrt(dt)
    d = 1 + delta*dt - h_d*sqrt(dt)

The two agree to O(dt^(3/2)) per factor. CRR, Jarrow-Rudd, and Tian are
specific parameter choices, and a constructor is provided for each; how
closely each one's tree follows the classical closed-form factors is
stated in its docstring.

With gamma = delta = b and v = 0 the one-step gross-return moments of the
asymptotic tree reproduce the geometric Brownian motion moments
exp(j*(b + (j-1)/2*sigma^2)*dt) up to o(dt) for every order j; the first
two moments match to O(dt^2) for every g, higher ones to O(dt^2) at
g = 1/2 and O(dt^(3/2)) otherwise.

Each tree rule is written once, here. :func:`p_up` forms and checks
p(dt) for every caller, both factor forms included; it is the one check
that a tree is admissible at a step dt. ``_nodes`` is the node formula,
for :func:`node_values` and for calibration's chain pricer, which takes
every maturity's terminal nodes in one pass. ``_require_finite_nodes``
checks the spot, the step count and the top node of an n-step tree, for
:class:`~mptree.pricing.Lattice` and
:func:`~mptree.convergence.terminal_distribution`. ``_exp`` is the one
guard against an exponent that is NaN or too large for exp, for the
exact factors, :func:`gbm_moment`, and the lattice discount and closed
forms in :mod:`mptree.pricing`.

The argument rules that several modules share have one home each here
too. ``_require_spot`` (positive, then finite) serves
``_require_finite_nodes``, :class:`~mptree.calibration.ChainFile`,
:func:`~mptree.pricing.delta_hedge` and
:func:`~mptree.pricing.discontinuity_report`. ``_require_g`` (strictly
inside (0, 1)) serves :func:`p_up` and calibration's mpbin2 family,
whose delta divides by 1 - g. ``_require_finite_rate`` serves
:class:`~mptree.calibration.ChainFile` and
:class:`~mptree.pricing.Lattice`, whose discount exp(-rate*dt) an
infinite rate would zero. ``_require_sigma_and_t`` (both positive
and finite) serves :func:`~mptree.convergence.lognormal_cdf`,
:func:`~mptree.pricing.discontinuity_report` and
:func:`~mptree.pricing.black_scholes_call`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ModelParams",
    "StepFactors",
    "p_up",
    "step_factors_exact",
    "step_factors_asymptotic",
    "crr_params",
    "jarrow_rudd_params",
    "tian_params",
    "step_moment",
    "gbm_moment",
]

# Beyond this order u**j at realistic dt either overflows or has lost all
# relative precision, so moment operations refuse rather than return noise.
MAX_MOMENT_ORDER = 64
# The largest argument for which math.exp returns a finite float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ModelParams:
    """Five-parameter binomial step model.

    Attributes
    ----------
    gamma : float
        Drift of the up branch, per year.
    delta : float
        Drift of the down branch, per year.
    g : float
        Base up probability, in (0, 1).
    v : float
        Probability slope per sqrt(year); p(dt) = g + v*sqrt(dt).
    sigma : float
        Volatility per sqrt(year), positive.
    """

    gamma: float
    delta: float
    g: float
    v: float
    sigma: float

    def __post_init__(self) -> None:
        # Optimizer output arrives as NumPy scalars, whose repr() under
        # NumPy 2 is "np.float64(...)"; plain floats keep written numbers
        # parseable.
        for name in ("gamma", "delta", "g", "v", "sigma"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def mean_drift(self) -> float:
        """Instantaneous mean b = g*gamma + (1-g)*delta."""
        return self.g * self.gamma + (1.0 - self.g) * self.delta


@dataclass(frozen=True)
class StepFactors:
    """One-period gross up/down factors and the up probability."""

    u: float
    d: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.d < self.u:
            raise DomainError(
                f"step factors must satisfy 0 < d < u, got d={self.d}, u={self.u}")
        if self.u == math.inf:
            raise DomainError(f"step factors must be finite, got u={self.u}")
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"up probability must be in (0, 1), got {self.p}")


def node_values(s0: float, factors: StepFactors, k: int) -> np.ndarray:
    """The k+1 tree prices after k steps, s0 * u^i * d^(k-i) for i = 0..k.

    Computed by ``_nodes``, the one home of the node formula, as
    s0 * exp(k*ln d + i*(ln u - ln d)), one ``exp`` per node in place of
    two powers. The exponent's rounding grows with its size,
    |k ln d| + i |ln u - ln d|, so against s0 * u^i * d^(k-i) evaluated
    exactly from the same float u and d the relative error stays below
    1e-13 at k = 65,536 with sigma = 0.2 over one year. With d < u they
    ascend in i, the number of up moves.
    """
    return _nodes(s0, factors, k, np.arange(k + 1))


def _nodes(s0: float, factors: StepFactors, steps: int | np.ndarray,
           ups: np.ndarray) -> np.ndarray:
    """s0 * exp(steps*ln d + ups*(ln u - ln d)), the node formula of
    :func:`node_values`, elementwise over ``steps`` and ``ups``.

    Each node takes the same IEEE operations whether ``steps`` is a
    Python int or an array of step counts, and whether the counts are
    integers or floats, so calibration's chain pricer takes every
    maturity's terminal rows in one pass, bit for bit as
    :func:`node_values` row by row.
    """
    log_d = math.log(factors.d)
    return s0 * np.exp(steps * log_d + ups * (math.log(factors.u) - log_d))


def _require_finite_nodes(s0: float, factors: StepFactors, n: int) -> None:
    """Check an n-step tree from s0: s0 > 0, n >= 1 and every node finite.

    The largest node is s0 * u^n, or s0 itself when u <= 1, and
    :func:`node_values` takes it as s0 * exp(n ln u), so both factors must
    stay finite.

    Raises
    ------
    DomainError
        If s0 is not positive and finite, n is below 1, or u^n or
        s0 * u^n overflows.
    """
    _require_spot(s0)
    if n < 1:
        raise DomainError(f"step count must be >= 1, got {n}")
    log_s0, growth = math.log(s0), n * max(math.log(factors.u), 0.0)
    if max(growth, log_s0 + growth) > _LOG_FLOAT_MAX:
        raise DomainError(f"top node s0*u^n overflows: ln(s0) = {log_s0}, "
                          f"n*ln(u) = {growth}")


def p_up(params: ModelParams, dt: float) -> float:
    """One-step up probability p = g + v*sqrt(dt), guaranteed in (0, 1).

    Raises
    ------
    DomainError
        If dt is not positive, g is not strictly inside (0, 1), sigma is
        not positive, the mean drift is not finite, or dt is too coarse to
        keep g + v*sqrt(dt) inside (0, 1).
    """
    _require_positive_dt(dt)
    _require_g(params.g)
    _require_positive_sigma(params.sigma)
    if not math.isfinite(params.mean_drift):
        raise DomainError("mean drift g*gamma + (1-g)*delta must be finite")
    p = params.g + params.v * math.sqrt(dt)
    if not 0.0 < p < 1.0:
        raise DomainError(
            f"time step too coarse: up probability g + v*sqrt(dt) = {p} "
            f"falls outside (0, 1); shrink dt or adjust (g, v)")
    return p


def _exp(name: str, arg: float) -> float:
    """math.exp(arg), the one guard against an exponent too large for exp.

    Raises
    ------
    DomainError
        If ``arg`` is NaN or exceeds ``_LOG_FLOAT_MAX``; the message names
        it ``name``.
    """
    if not arg <= _LOG_FLOAT_MAX:  # NaN fails the comparison too
        if math.isnan(arg):
            raise DomainError(f"{name} is NaN")
        raise DomainError(f"{name} = {arg} is too large for exp")
    return math.exp(arg)


def _step_terms(params: ModelParams, dt: float) -> tuple[float, float, float, float]:
    """p, sqrt(dt), h_u = sigma*sqrt((1-p)/p) and h_d = sigma*sqrt(p/(1-p))."""
    p = p_up(params, dt)
    return (p, math.sqrt(dt), params.sigma * math.sqrt((1.0 - p) / p),
            params.sigma * math.sqrt(p / (1.0 - p)))


def step_factors_exact(params: ModelParams, dt: float) -> StepFactors:
    """Exponential-form one-step factors; gross prices stay positive.

    Raises
    ------
    DomainError
        If log u or log d is too large for exp, besides the checks of
        :func:`p_up`.
    """
    p, sqrt_dt, h_u, h_d = _step_terms(params, dt)
    log_u = (params.gamma - h_u * h_u / 2.0) * dt + h_u * sqrt_dt
    log_d = (params.delta - h_d * h_d / 2.0) * dt - h_d * sqrt_dt
    return StepFactors(u=_exp("log u", log_u), d=_exp("log d", log_d), p=p)


def step_factors_asymptotic(params: ModelParams, dt: float) -> StepFactors:
    """First-order one-step factors 1 + drift*dt +/- h*sqrt(dt).

    Raises
    ------
    DomainError
        If the down factor is not positive, which signals that dt is too
        coarse for this parameter set.
    """
    p, sqrt_dt, h_u, h_d = _step_terms(params, dt)
    u = 1.0 + params.gamma * dt + h_u * sqrt_dt
    d = 1.0 + params.delta * dt - h_d * sqrt_dt
    if d <= 0.0:
        raise DomainError(
            f"asymptotic down factor {d} is not positive: dt={dt} too coarse "
            f"for sigma={params.sigma}, p={p}")
    return StepFactors(u=u, d=d, p=p)


def crr_params(r: float, sigma: float) -> ModelParams:
    """Parameters reproducing the Cox-Ross-Rubinstein tree.

    gamma = delta = r, g = 1/2, v = (r - sigma^2/2) / (2*sigma); the
    factors then agree with u = exp(sigma*sqrt(dt)), d = 1/u to
    O(dt^(3/2)) and the probability with the classical
    (exp(r*dt) - d)/(u - d) to O(dt^(3/2)).
    """
    _require_positive_sigma(sigma)
    return ModelParams(gamma=r, delta=r, g=0.5,
                       v=(r - sigma * sigma / 2.0) / (2.0 * sigma), sigma=sigma)


def jarrow_rudd_params(r: float, sigma: float) -> ModelParams:
    """Parameters reproducing the Jarrow-Rudd (equal-probability) tree.

    gamma = delta = r, g = 1/2, v = 0; the exact factors coincide with
    exp((r - sigma^2/2)*dt +/- sigma*sqrt(dt)) identically.
    """
    _require_positive_sigma(sigma)
    return ModelParams(gamma=r, delta=r, g=0.5, v=0.0, sigma=sigma)


def tian_params(r: float, sigma: float) -> ModelParams:
    """Parameters reproducing the Tian (third-moment-matched) tree.

    gamma = delta = r, g = 1/2, v = -(3/4)*sigma. With these the
    asymptotic factors agree with Tian's (1993) closed-form factors, with
    V = exp(sigma^2*dt),
    u, d = (1/2)*exp(r*dt)*V*(V + 1 +/- sqrt(V^2 + 2V - 3)), to
    O(dt^(3/2)) and the up probability with p = (exp(r*dt) - d)/(u - d)
    to O(dt): Tian's probability expands as
    1/2 - (3/4)*sigma*sqrt(dt) + O(dt), and log u = sigma*sqrt(dt)
    + (r + sigma^2)*dt + O(dt^(3/2)), which is what gamma = r combined
    with the v-shifted radicals produces.
    """
    _require_positive_sigma(sigma)
    return ModelParams(gamma=r, delta=r, g=0.5, v=-0.75 * sigma, sigma=sigma)


def step_moment(params: ModelParams, dt: float, j: int) -> float:
    """j-th one-step gross-return moment of the asymptotic tree.

    Returns p*u^j + (1-p)*d^j with (u, d, p) from
    :func:`step_factors_asymptotic`.

    Raises
    ------
    DomainError
        If u^j overflows, besides the checks of the factors.
    """
    _require_moment_order(j)
    f = step_factors_asymptotic(params, dt)
    try:
        return f.p * f.u ** j + (1.0 - f.p) * f.d ** j
    except OverflowError:
        raise DomainError(f"u^{j} overflows: u = {f.u}") from None


def gbm_moment(b: float, sigma: float, dt: float, j: int) -> float:
    """j-th moment of the GBM gross return: exp(j*(b + (j-1)/2*sigma^2)*dt).

    Raises
    ------
    DomainError
        If dt is not positive, j is not a supported order, or the
        exponent is too large for exp.
    """
    _require_positive_dt(dt)
    _require_moment_order(j)
    return _exp("log moment", j * (b + (j - 1) / 2.0 * sigma * sigma) * dt)


def _require_spot(s0: float) -> None:
    if not s0 > 0.0:
        raise DomainError(f"spot must be positive, got {s0}")
    if s0 == math.inf:
        raise DomainError(f"spot must be finite, got {s0}")


def _require_finite_rate(rate: float) -> None:
    if not math.isfinite(rate):
        raise DomainError(f"rate must be finite, got {rate}")


def _require_g(g: float) -> None:
    if not 0.0 < g < 1.0:
        raise DomainError(f"base up probability g must lie strictly inside (0, 1), got {g}")


def _require_sigma_and_t(sigma: float, t: float) -> None:
    if not (0.0 < sigma < math.inf and 0.0 < t < math.inf):
        raise DomainError(f"sigma and t must be positive and finite, got sigma={sigma}, t={t}")


def _require_positive_sigma(sigma: float) -> None:
    if not sigma > 0.0:
        raise DomainError(f"volatility sigma must be positive, got {sigma}")


def _require_positive_dt(dt: float) -> None:
    if not dt > 0.0:
        raise DomainError(f"time step must be positive, got {dt}")


def _require_moment_order(j: int) -> None:
    if not isinstance(j, int) or j < 1:
        raise DomainError(f"moment order must be a positive integer, got {j!r}")
    if j > MAX_MOMENT_ORDER:
        raise DomainError(
            f"moment order {j} exceeds the supported maximum {MAX_MOMENT_ORDER}")
