"""Deterministic box-constrained search over transform-unconstrained parameters.

Box constraints are enforced by smooth bijections rather than clipping:
"logit" maps the real line onto (lo, hi) through a scaled sigmoid, and
"log" does the same on the log of the parameter, which suits positive
scale parameters such as a volatility. Both searches below run on these
coordinates and share one check of the start, box and transforms.

:func:`minimize` is the standard reflect/expand/contract/shrink
Nelder-Mead scheme for any scalar objective; restarts re-seed the
simplex around the best point found so far using a seeded generator, so
results are bit-identical across runs with the same inputs. They run in
one coordinate too: there a simplex cannot collapse, but on a kinked
objective a single run can stop in the poorer of two local minima.

:func:`least_squares` is Levenberg-Marquardt (Levenberg 1944; Marquardt
1963) for an objective that is a sum of squared residuals. It takes
forward-difference Jacobians, damps the normal equations by
lambda*diag(J^T J) plus a floor of 1e-12*trace(J^T J), which keeps them
solvable where J^T J is singular, and accepts only steps that lower the
sum of squares. Nelder-Mead stalls on the flat floor of such an
objective; started from its result, a few Gauss-Newton-like steps reach
an exact fit, where one exists, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["MinimizeConfig", "MinimizeResult", "minimize", "least_squares"]

# Edge length of the first simplex, in transformed coordinates.
_INITIAL_STEP = 0.25

# Levenberg-Marquardt: iteration cap, first damping and the damping past
# which no step is tried, the sum of squares that counts as an exact fit,
# and the relative forward-difference step.
_LM_ITERATIONS = 20
_LM_DAMPING_START = 1e-3
_LM_DAMPING_MAX = 1e12
_LM_EXACT_SSE = 1e-24
_LM_DIFF_STEP = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class MinimizeConfig:
    """Search settings.

    ``tolerance`` is relative to the objective scale (the larger of 1 and
    the starting value): a run stops once the simplex value spread falls
    below tolerance * scale. ``restarts`` re-runs the search from the
    incumbent with a fresh, randomly oriented simplex whose orientation
    and size come from a generator seeded with ``seed``. The three counts
    must be integers: ``max_iterations`` >= 1, ``restarts`` and ``seed``
    >= 0.
    """

    tolerance: float = 1e-10
    max_iterations: int = 2000
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance}")
        for name, least in (("max_iterations", 1), ("restarts", 0), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    value: float
    evaluations: int
    converged: bool


def _to_unconstrained(x: float, lo: float, hi: float, kind: str) -> float:
    if kind == "log":
        lo, hi, x = math.log(lo), math.log(hi), math.log(x)
    frac = (x - lo) / (hi - lo)
    # A start strictly inside the box can still round onto a bound here;
    # the clamp keeps the logit finite and moves no other start.
    frac = min(max(frac, math.ulp(0.0)), math.nextafter(1.0, 0.0))
    return math.log(frac / (1.0 - frac))


def _decoder(lo: float, hi: float, kind: str) -> Callable[[float], float]:
    """The map from an unconstrained coordinate back into (lo, hi).

    The log-bounds of a "log" coordinate and the open box's closest
    floats are taken here, once per search, and not at every decode.
    """
    base, width = (math.log(lo), math.log(hi) - math.log(lo)) if kind == "log" else (lo, hi - lo)
    # The sigmoid rounds to exactly 0 or 1 for large |y|, and the map back
    # can round onto (or, through exp, past) a bound even when frac does
    # not, so the decoded value is clamped to the open box's closest floats.
    inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)

    def decode(y: float) -> float:
        frac = 1.0 / (1.0 + math.exp(-y)) if y >= 0 else math.exp(y) / (1.0 + math.exp(y))
        x = base + width * frac
        if kind == "log":
            x = math.exp(x)
        return inner_lo if x < inner_lo else inner_hi if x > inner_hi else x
    return decode


def _unconstrained_start(bounds: Sequence[tuple[float, float]],
                         start: Sequence[float],
                         transforms: Sequence[str] | None
                         ) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """Check a search's box, start and transforms.

    Returns the map from unconstrained to natural coordinates and the
    start in unconstrained coordinates.
    """
    dims = len(bounds)
    if len(start) != dims:
        raise DomainError(f"start has {len(start)} coordinates, bounds {dims}")
    kinds = list(transforms) if transforms is not None else ["logit"] * dims
    if len(kinds) != dims:
        raise DomainError(f"transforms has {len(kinds)} entries, bounds {dims}")
    for kind in kinds:
        if kind not in ("logit", "log"):
            raise DomainError(f"unknown transform {kind!r}")
    for x, (lo, hi), kind in zip(start, bounds, kinds):
        if not lo < x < hi:
            raise DomainError(
                f"infeasible start: {x} outside ({lo}, {hi})")
        if kind == "log" and lo <= 0.0:
            raise DomainError("log transform requires a positive lower bound")

    decoders = [_decoder(lo, hi, kind) for (lo, hi), kind in zip(bounds, kinds)]

    def decode(y: np.ndarray) -> np.ndarray:
        return np.array([coordinate(yi) for coordinate, yi in zip(decoders, y.tolist())])

    y0 = np.array([_to_unconstrained(float(x), lo, hi, kind)
                   for x, (lo, hi), kind in zip(start, bounds, kinds)])
    return decode, y0


def minimize(objective: Callable[[np.ndarray], float],
             bounds: Sequence[tuple[float, float]],
             start: Sequence[float],
             transforms: Sequence[str] | None = None,
             config: MinimizeConfig | None = None) -> MinimizeResult:
    """Minimize a scalar objective over a box by transformed Nelder-Mead.

    Parameters
    ----------
    objective : callable
        Maps a parameter vector (natural units) to a finite float.
    bounds : sequence of (lo, hi)
        Open box; every iterate stays strictly inside.
    start : sequence of float
        Starting point, strictly inside the box.
    transforms : sequence of {"logit", "log"}, optional
        Per-coordinate bijection; defaults to "logit" everywhere.
    config : MinimizeConfig, optional

    Raises
    ------
    DomainError
        If the start violates the box or the objective is not finite
        there.
    """
    cfg = config or MinimizeConfig()
    decode, y0 = _unconstrained_start(bounds, start, transforms)
    dims = y0.size

    evaluations = 0

    def f(y: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return float(objective(decode(y)))

    f0 = f(y0)
    if not math.isfinite(f0):
        raise DomainError(f"objective is not finite at the start: {f0}")
    scale = max(1.0, abs(f0))
    tol = cfg.tolerance * scale

    rng = np.random.default_rng(cfg.seed)
    best_y, best_f = y0, f0
    converged = False
    for run in range(cfg.restarts + 1):
        if run == 0:
            simplex = _initial_simplex(best_y, _INITIAL_STEP)
        else:
            spread = _INITIAL_STEP * (0.5 + rng.random())
            simplex = _initial_simplex(
                best_y + rng.normal(0.0, 0.1 * spread, size=dims), spread)
            simplex[0] = best_y.copy()
        y_run, f_run, hit_tol = _nelder_mead(f, simplex, best_f, tol, cfg.max_iterations)
        if f_run < best_f:
            best_y, best_f = y_run, f_run
            converged = hit_tol
        elif run == 0:
            converged = hit_tol
    return MinimizeResult(x=decode(best_y), value=best_f,
                         evaluations=evaluations, converged=converged)


def least_squares(residuals: Callable[[np.ndarray], np.ndarray],
                  bounds: Sequence[tuple[float, float]],
                  start: Sequence[float],
                  transforms: Sequence[str] | None = None,
                  tolerance: float = MinimizeConfig.tolerance) -> MinimizeResult:
    """Minimize a sum of squared residuals over a box by Levenberg-Marquardt.

    The search runs on the same coordinates as :func:`minimize` and takes
    the same arguments, except that ``residuals`` maps a parameter vector
    to the residual vector and that ``tolerance``, the one setting it
    reads, stands in place of the config; the result's ``value`` is the
    sum of squares (SSE). The Jacobian is a forward difference, or a
    backward one where the forward point has a non-finite residual. A
    trial step counts only if its residuals are all finite and lower the
    SSE, so the result is never worse than the start.

    ``converged`` is True when the search stops because the SSE falls
    below 1e-24, because no damping up to 1e12 lowers it, because the
    Jacobian is zero, or because an accepted step lowers it by less than
    tolerance * scale * 1e-6, where scale is the larger of 1 and the
    start's SSE. It is False when the private cap of 20 iterations stops
    the search, and at any stop where a difference step decodes to the
    coordinate it left: there the box transform has saturated, so neither
    a zero Jacobian nor a small gain says anything of the residuals.

    Raises
    ------
    DomainError
        If ``tolerance`` is not finite and positive, the start violates
        the box, or the residuals are not all finite there.
    """
    MinimizeConfig(tolerance)  # rejects a tolerance that is not finite and > 0
    decode, y = _unconstrained_start(bounds, start, transforms)
    evaluations = 0

    def sse_at(point: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal evaluations
        evaluations += 1
        res = np.asarray(residuals(decode(point)), dtype=float)
        return res, float(np.dot(res, res)) if np.all(np.isfinite(res)) else math.inf

    res, sse = sse_at(y)
    if not math.isfinite(sse):
        raise DomainError(f"residuals are not finite at the start: {res}")
    min_gain = tolerance * max(1.0, sse) * 1e-6
    damping = _LM_DAMPING_START
    converged = sse < _LM_EXACT_SSE
    for _ in range(_LM_ITERATIONS):
        if converged:
            break
        jac = np.zeros((res.size, y.size))
        steps = _LM_DIFF_STEP * np.maximum(1.0, np.abs(y))
        for i, step in enumerate(np.diag(steps)):
            for sign in (1.0, -1.0):  # forward, else backward
                moved, moved_sse = sse_at(y + sign * step)
                if math.isfinite(moved_sse):
                    jac[:, i] = sign * (moved - res) / steps[i]
                    break
        normal, grad = jac.T @ jac, jac.T @ res
        if not np.any(grad):
            converged = True  # no damping can lower the SSE
            break
        floor = 1e-12 * np.trace(normal) * np.eye(y.size)
        while damping <= _LM_DAMPING_MAX:
            trial = y - np.linalg.solve(
                normal + damping * np.diag(np.diag(normal)) + floor, grad)
            trial_res, trial_sse = sse_at(trial)
            if trial_sse < sse:
                break
            damping *= 10.0
        else:
            converged = True
            break
        gain = sse - trial_sse
        y, res, sse = trial, trial_res, trial_sse
        damping /= 10.0
        converged = sse < _LM_EXACT_SSE or gain < min_gain
    # A stop is a stationary point only if every difference step moves its
    # coordinate; where the transform saturates, the step decodes to the
    # same value, so the stop says nothing of the residuals.
    steps = _LM_DIFF_STEP * np.maximum(1.0, np.abs(y))
    converged = converged and bool(np.all(decode(y + steps) != decode(y)))
    return MinimizeResult(x=decode(y), value=sse, evaluations=evaluations,
                          converged=converged)


def _initial_simplex(y0: np.ndarray, step: float) -> np.ndarray:
    dims = y0.size
    simplex = np.tile(y0, (dims + 1, 1))
    for i in range(dims):
        simplex[i + 1, i] += step if simplex[i + 1, i] >= 0 else -step
    return simplex


def _nelder_mead(f: Callable[[np.ndarray], float], simplex: np.ndarray, f_first: float,
                 tol: float, max_iterations: int) -> tuple[np.ndarray, float, bool]:
    """One simplex descent from a simplex whose first vertex has the value
    ``f_first``; returns (best point, best value, hit tolerance)."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    values = np.array([f_first] + [f(v) for v in simplex[1:]])
    hit_tol = False
    for _ in range(max_iterations):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if values[-1] - values[0] < tol:
            hit_tol = True
            break
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + rho * (reflected - centroid)
        else:
            contracted = centroid + rho * (simplex[-1] - centroid)
        f_contracted = f(contracted)
        if f_contracted < min(f_reflected, values[-1]):
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        best = simplex[0].copy()
        for i in range(1, simplex.shape[0]):
            simplex[i] = best + sigma * (simplex[i] - best)
            values[i] = f(simplex[i])
    order = np.argsort(values, kind="stable")
    return simplex[order[0]].copy(), float(values[order[0]]), hit_tol
