"""Deterministic Nelder-Mead over transform-unconstrained parameters.

Box constraints are enforced by smooth bijections rather than clipping:
"logit" maps the real line onto (lo, hi) through a scaled sigmoid, and
"log" does the same on the log of the parameter, which suits positive
scale parameters such as a volatility. The simplex search itself is the
standard reflect/expand/contract/shrink scheme; restarts re-seed the
simplex around the best point found so far using a seeded generator, so
results are bit-identical across runs with the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["MinimizeConfig", "MinimizeResult", "minimize"]

# Edge length of the first simplex, in transformed coordinates.
_INITIAL_STEP = 0.25


@dataclass(frozen=True)
class MinimizeConfig:
    """Search settings.

    ``tolerance`` is relative to the objective scale (the larger of 1 and
    the starting value): a run stops once the simplex value spread falls
    below tolerance * scale. ``restarts`` re-runs the search from the
    incumbent with a fresh, randomly oriented simplex whose orientation
    and size come from a generator seeded with ``seed``.
    """

    tolerance: float = 1e-10
    max_iterations: int = 2000
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if self.restarts < 0:
            raise DomainError(f"restarts must be >= 0, got {self.restarts}")


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


def _from_unconstrained(y: float, lo: float, hi: float, kind: str) -> float:
    frac = 1.0 / (1.0 + math.exp(-y)) if y >= 0 else math.exp(y) / (1.0 + math.exp(y))
    if kind == "log":
        x = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * frac)
    else:
        x = lo + (hi - lo) * frac
    # The sigmoid rounds to exactly 0 or 1 for large |y|, and the map back
    # can round onto (or, through exp, past) a bound even when frac does
    # not, so the decoded value is clamped to the open box's closest floats.
    inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
    return inner_lo if x < inner_lo else inner_hi if x > inner_hi else x


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

    def decode(y: np.ndarray) -> np.ndarray:
        return np.array([_from_unconstrained(float(yi), lo, hi, kind)
                         for yi, (lo, hi), kind in zip(y, bounds, kinds)])

    evaluations = 0

    def f(y: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return float(objective(decode(y)))

    y0 = np.array([_to_unconstrained(float(x), lo, hi, kind)
                   for x, (lo, hi), kind in zip(start, bounds, kinds)])
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
        y_run, f_run, hit_tol = _nelder_mead(f, simplex, tol, cfg.max_iterations)
        if f_run < best_f:
            best_y, best_f = y_run, f_run
            converged = hit_tol
        elif run == 0:
            converged = hit_tol
    return MinimizeResult(x=decode(best_y), value=best_f,
                         evaluations=evaluations, converged=converged)


def _initial_simplex(y0: np.ndarray, step: float) -> np.ndarray:
    dims = y0.size
    simplex = np.tile(y0, (dims + 1, 1))
    for i in range(dims):
        simplex[i + 1, i] += step if simplex[i + 1, i] >= 0 else -step
    return simplex


def _nelder_mead(f: Callable[[np.ndarray], float], simplex: np.ndarray,
                 tol: float, max_iterations: int) -> tuple[np.ndarray, float, bool]:
    """One simplex descent; returns (best point, best value, hit tolerance)."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    values = np.array([f(v) for v in simplex])
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
