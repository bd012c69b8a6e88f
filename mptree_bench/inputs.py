"""Seeded inputs for the four workloads.

Every generator takes a ``numpy.random.Generator`` built from the
benchmark seed and returns the jobs of one pass. The same seed gives the
same jobs; the program under test only ever sees the generated files and
arguments. The job count and the work per job are fixed by the workload,
and the seed moves only the values, so timings from different seeds stay
comparable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mptree import calibration, market_io, model

S0 = 100.0
RATE = 0.04


@dataclass(frozen=True)
class ChainJob:
    """One option chain file and the family that generated its prices."""

    shape: str
    path: Path
    truth_model: str
    truth: model.ModelParams
    quotes: int


@dataclass(frozen=True)
class ConvergeJob:
    """One ``rate_experiment`` call."""

    params: model.ModelParams
    t: float
    n_values: tuple[int, ...]


@dataclass(frozen=True)
class SeriesJob:
    """One return CSV with the counts it must produce."""

    path: Path
    value_kind: str
    p0: float
    ups: int
    total: int
    year_counts: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class PriceJob:
    """One European call priced on one lattice."""

    model: str
    factors: str
    s0: float
    strike: float
    r: float
    sigma: float
    g: float
    t: float
    n: int


# --- calibrate -------------------------------------------------------------

# (shape, strikes, days, truth family, base truth). ``ref`` is the
# reference chain of the ROADMAP; ``wide`` has long lattices and mpbin2
# truth; ``short`` has tiny lattices with many strikes per maturity, so
# per-call overhead dominates.
_CHAIN_SHAPES = (
    ("ref", (85.0, 92.5, 100.0, 107.5, 115.0), (21, 42, 63, 84), "mpbin1",
     dict(sigma=0.25, g=0.47)),
    ("wide", tuple(80.0 + 5.0 * i for i in range(9)), (10, 50, 100), "mpbin2",
     dict(sigma=0.22, g=0.45, p_dt=0.48, gamma=0.10)),
    ("short", tuple(86.0 + 2.0 * i for i in range(15)), (5, 21), "mpbin1",
     dict(sigma=0.30, g=0.53)),
)

# Relative jitter of sigma and absolute jitter of the probabilities.
_SIGMA_JITTER = 0.01
_PROB_JITTER = 0.0025


def truth_params(family: str, base: dict, rng: np.random.Generator) -> model.ModelParams:
    """Jittered generating parameters for ``family`` (mpbin1 or mpbin2)."""
    sigma = base["sigma"] * (1.0 + _SIGMA_JITTER * rng.uniform(-1.0, 1.0))
    g = base["g"] + _PROB_JITTER * rng.uniform(-1.0, 1.0)
    if family == "mpbin1":
        return model.ModelParams(gamma=RATE, delta=RATE, g=g, v=0.0, sigma=sigma)
    # mpbin2: v from the probability at one day, delta pins the mean drift at r.
    p_dt = base["p_dt"] + _PROB_JITTER * rng.uniform(-1.0, 1.0)
    gamma = base["gamma"]
    return model.ModelParams(
        gamma=gamma, delta=(RATE - g * gamma) / (1.0 - g), g=g,
        v=(p_dt - g) * math.sqrt(calibration.TRADING_DAYS_PER_YEAR), sigma=sigma)


def make_calibrate(rng: np.random.Generator, workdir: Path) -> list[ChainJob]:
    jobs = []
    for shape, strikes, days, family, base in _CHAIN_SHAPES:
        truth = truth_params(family, base, rng)
        grid = [calibration.OptionQuote(k, n, 1.0) for n in days for k in strikes]
        prices = calibration.model_prices(family, truth, grid, S0, RATE)
        # The program rejects non-positive quotes, so far out-of-the-money
        # strikes on short lattices are dropped.
        quotes = tuple(calibration.OptionQuote(q.strike, q.days_to_maturity, p)
                       for q, p in zip(grid, prices) if p > 0.0)
        path = workdir / f"chain_{shape}.csv"
        market_io.write_chain(market_io.ChainFile(S0, RATE, quotes), path)
        jobs.append(ChainJob(shape, path, family, truth, len(quotes)))
    return jobs


# --- converge --------------------------------------------------------------

_CONVERGE_G = (0.3, 0.4, 0.5, 0.6, 0.7)
_CONVERGE_N_MAX = 2 ** 16
_CONVERGE_V_N_MAX = 2 ** 15


def _doubling(n_max: int) -> tuple[int, ...]:
    return tuple(16 * 2 ** k for k in range(int(math.log2(n_max // 16)) + 1))


def make_converge(rng: np.random.Generator, workdir: Path) -> list[ConvergeJob]:
    b = 0.05 + 0.01 * rng.uniform(-1.0, 1.0)
    sigma = 0.2 * (1.0 + _SIGMA_JITTER * rng.uniform(-1.0, 1.0))
    jobs = []
    for g in _CONVERGE_G:
        g = g + _PROB_JITTER * rng.uniform(-1.0, 1.0)
        params = model.ModelParams(gamma=b, delta=b, g=g, v=0.0, sigma=sigma)
        jobs.append(ConvergeJob(params, 1.0, _doubling(_CONVERGE_N_MAX)))
    v = 0.1 * (1.0 + rng.uniform(-0.5, 0.5))
    params = model.ModelParams(gamma=b, delta=b, g=0.5, v=v, sigma=sigma)
    jobs.append(ConvergeJob(params, 1.0, _doubling(_CONVERGE_V_N_MAX)))
    return jobs


# --- estimate-p ------------------------------------------------------------

N_LONG_SERIES = 64
N_SHORT_SERIES = 64
LONG_YEARS = 30
SHORT_MAX_ROWS = 1000
# About nine exchange holidays a year take 30 years of weekdays to ~7,560 rows.
_HOLIDAY_SHARE = 9.0 / 261.0
_ZERO_SHARE = 0.01
_MIN_ABS_RETURN = 1e-6


def _business_days(rng: np.random.Generator, start_year: int, years: int) -> np.ndarray:
    days = np.arange(np.datetime64(f"{start_year}-01-01"),
                     np.datetime64(f"{start_year + years}-01-01"))
    days = days[np.is_busday(days)]
    return days[rng.random(days.size) >= _HOLIDAY_SHARE]


def _daily_returns(rng: np.random.Generator, size: int) -> np.ndarray:
    """Returns with some exact zeros and every other value clear of zero."""
    r = rng.normal(3e-4, 0.01, size)
    small = np.abs(r) < _MIN_ABS_RETURN
    r[small] = np.copysign(_MIN_ABS_RETURN, r[small])
    r[rng.random(size) < _ZERO_SHARE] = 0.0
    return r


def _series(rng: np.random.Generator, dates: np.ndarray, kind: str,
            path: Path) -> SeriesJob:
    if kind == "return":
        values = _daily_returns(rng, dates.size)
        up = values > 0.0
        return_dates = dates
    else:
        values = rng.uniform(20.0, 200.0) * np.cumprod(
            np.concatenate(([1.0], 1.0 + _daily_returns(rng, dates.size - 1))))
        up = values[1:] > values[:-1]
        return_dates = dates[1:]
    years = return_dates.astype("datetime64[Y]").astype(int) + 1970
    year_counts = tuple((int(y), int(up[years == y].sum()), int((years == y).sum()))
                        for y in np.unique(years))
    iso = np.datetime_as_string(dates)
    lines = ["date,value"]
    lines.extend(f"{d},{v!r}" for d, v in zip(iso.tolist(), values.tolist()))
    path.write_text("\n".join(lines) + "\n")
    return SeriesJob(path, kind, 0.5, int(up.sum()), int(up.size), year_counts)


def make_estimate_p(rng: np.random.Generator, workdir: Path) -> list[SeriesJob]:
    # Short lengths are evenly spread, not drawn, so the work per pass does
    # not depend on the seed.
    short_rows = np.linspace(SHORT_MAX_ROWS // 4, SHORT_MAX_ROWS, N_SHORT_SERIES)
    jobs = []
    for i in range(N_LONG_SERIES + N_SHORT_SERIES):
        kind = ("price", "return")[i % 2]
        if i < N_LONG_SERIES:
            dates = _business_days(rng, 1980 + int(rng.integers(0, 15)), LONG_YEARS)
        else:
            dates = _business_days(rng, 1990 + int(rng.integers(0, 25)), 5)
            start = int(rng.integers(0, 200))
            dates = dates[start:start + int(short_rows[i - N_LONG_SERIES])]
        jobs.append(_series(rng, dates, kind, workdir / f"returns_{i:03d}.csv"))
    return jobs


# --- price -----------------------------------------------------------------

PRICE_MODELS = ("crr", "jr", "tian", "mpbin1")
PRICE_FACTORS = ("exact", "asymptotic")
PRICE_STEPS = (256, 512, 1024, 2048, 4096)
PRICE_STRIKES_PER_CELL = 3


def make_price(rng: np.random.Generator, workdir: Path) -> list[PriceJob]:
    jobs = []
    for name in PRICE_MODELS:
        for factors in PRICE_FACTORS:
            for n in PRICE_STEPS:
                for _ in range(PRICE_STRIKES_PER_CELL):
                    jobs.append(PriceJob(
                        model=name, factors=factors, s0=S0,
                        strike=S0 * math.exp(rng.uniform(-0.2, 0.2)),
                        r=rng.uniform(0.01, 0.06), sigma=rng.uniform(0.15, 0.35),
                        g=rng.uniform(0.4, 0.6), t=rng.uniform(0.25, 2.0), n=n))
    return jobs


MAKERS = {
    "calibrate": make_calibrate,
    "converge": make_converge,
    "estimate-p": make_estimate_p,
    "price": make_price,
}


def make_jobs(workload: str, seed: int, workdir: Path) -> list:
    """The jobs of one pass of ``workload``; files are written to ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return MAKERS[workload](np.random.default_rng(seed), workdir)


def nominal_node_updates(quotes) -> int:
    """Backward-induction node updates of ``model_prices`` on ``quotes``.

    A maturity of n steps costs n(n+1)/2 updates per strike column.
    """
    per_maturity = Counter(q.days_to_maturity for q in quotes)
    return sum(n * (n + 1) // 2 * k for n, k in per_maturity.items())
