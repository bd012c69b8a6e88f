"""What one job of each workload calls, and the checks on its result.

Each job makes the calls its CLI subcommand makes, in the same order,
through the public modules of ``mptree``. Calls go through the module
attribute (``calibration.calibrate_suite``, not a local alias) so the
traced run can wrap them from outside. Checks and tallies run after the
job's timer has stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from mptree import calibration, convergence, market_io, model, pricing, stats

from . import inputs

# Classical optima embed exactly in mpbin1 and mpbin1 optima in mpbin2, but
# the embedding round-trips through the optimizer's transforms, which moves
# prices in the last digits; RMSE may therefore grow by this much (price
# units) down the nesting order and no more.
NEST_ATOL = 1e-10
SLOPE_TOL = 0.05
# |lattice - Black-Scholes| <= PRICE_TOL * S0 / n.
PRICE_TOL = 1.0
P_VALUE_ATOL = 1e-10
CI_LEVEL = 0.95


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# --- calibrate -------------------------------------------------------------

def run_calibrate(job: inputs.ChainJob):
    chain = market_io.load_chain(job.path)
    results = calibration.calibrate_suite(calibration.MODELS, chain.quotes,
                                          chain.spot, chain.rate)
    report = calibration.calibration_report_csv(results)
    return chain, results, report


def rmse_floor(market_prices, tolerance: float) -> float:
    """RMSE an exact-fit family must reach under the optimizer tolerance.

    Nelder-Mead stops once the simplex values spread less than
    ``tolerance`` times the objective scale. The start's SSE, hence the
    scale, is bounded by the sum of squared market prices.
    """
    scale = max(1.0, sum(p * p for p in market_prices))
    return math.sqrt(tolerance * scale / len(market_prices))


def check_calibrate(job: inputs.ChainJob, out) -> list[str]:
    chain, results, report = out
    names = [r.model for r in results]
    if names != list(calibration.MODELS):
        return [f"models {names}, expected {list(calibration.MODELS)}"]
    problems = []
    for r in results:
        p, m = r.params, r.metrics
        if not _finite(p.gamma, p.delta, p.g, p.v, p.sigma, m.aae, m.ape, m.arpe, m.rmse):
            problems.append(f"{r.model}: non-finite field in {r}")
    rmse = {r.model: r.metrics.rmse for r in results}
    for poorer, richer in (("crr", "mpbin1"), ("jr", "mpbin1"), ("tian", "mpbin1"),
                           ("mpbin1", "mpbin2")):
        if rmse[richer] > rmse[poorer] + NEST_ATOL:
            problems.append(f"nesting broken: {richer} rmse {rmse[richer]!r} > "
                            f"{poorer} rmse {rmse[poorer]!r}")
    floor = rmse_floor([q.market_price for q in chain.quotes],
                       calibration.CalibrationConfig().tolerance)
    if rmse[job.truth_model] > floor:
        problems.append(f"generating family {job.truth_model} rmse "
                        f"{rmse[job.truth_model]!r} above floor {floor!r}")
    if len(report.splitlines()) != len(results) + 1:
        problems.append("report does not have one row per model")
    return problems


def tally_calibrate(job: inputs.ChainJob, out) -> dict[str, float]:
    _, results, _ = out
    tally = {"calibration.rmse_sum": sum(r.metrics.rmse for r in results),
             "calibration.rmse_count": len(results),
             "calibration.objective_evals": sum(r.objective_evaluations for r in results)}
    for r in results:
        tally[f"calibration.evals.{r.model}"] = r.objective_evaluations
    return tally


# --- converge --------------------------------------------------------------

def run_converge(job: inputs.ConvergeJob):
    return convergence.rate_experiment(job.params, job.t, job.n_values)


def check_converge(job: inputs.ConvergeJob, out) -> list[str]:
    problems = []
    if tuple(pt.n for pt in out.points) != job.n_values:
        problems.append("sweep does not cover the requested step counts")
    if not all(pt.distance > 0.0 and _finite(pt.distance) for pt in out.points):
        problems.append("non-positive or non-finite distance")
    if not abs(out.slope + 0.5) <= SLOPE_TOL:
        problems.append(f"slope {out.slope!r} not within {SLOPE_TOL} of -1/2")
    return problems


def tally_converge(job: inputs.ConvergeJob, out) -> dict[str, float]:
    return {"convergence.slope_err_max": abs(out.slope + 0.5)}


# --- estimate-p ------------------------------------------------------------

def run_estimate_p(job: inputs.SeriesJob):
    series = market_io.load_returns(job.path, value_kind=job.value_kind)
    dated = series.returns()
    counts = stats.up_proportion([value for _, value in dated])
    ci = stats.proportion_ci(counts, CI_LEVEL)
    p_value = stats.exact_binomial_test(counts, job.p0)
    estimates = stats.grouped_estimates(dated, level=CI_LEVEL)
    homogeneity = (stats.homogeneity_test([e.counts for e in estimates])
                   if len(estimates) >= 2 else None)
    return counts, ci, p_value, estimates, homogeneity


def _interval_problems(label: str, p_hat: float, lo: float, hi: float) -> list[str]:
    if 0.0 <= lo <= p_hat <= hi <= 1.0:
        return []
    return [f"{label}: Wilson interval ({lo!r}, {hi!r}) does not hold {p_hat!r} "
            f"inside [0, 1]"]


def check_estimate_p(job: inputs.SeriesJob, out) -> list[str]:
    from scipy import stats as sps

    counts, (lo, hi), p_value, estimates, homogeneity = out
    problems = []
    if (counts.ups, counts.total) != (job.ups, job.total):
        problems.append(f"counts {counts.ups}/{counts.total}, expected {job.ups}/{job.total}")
    problems += _interval_problems("overall", counts.proportion, lo, hi)
    expected = sps.binomtest(job.ups, job.total, job.p0).pvalue
    if not abs(p_value - expected) <= P_VALUE_ATOL:
        problems.append(f"p-value {p_value!r}, scipy gives {expected!r}")
    got = tuple((e.year, e.counts.ups, e.counts.total) for e in estimates)
    if got != job.year_counts:
        problems.append(f"per-year counts {got} differ from {job.year_counts}")
    for e in estimates:
        problems += _interval_problems(str(e.year), e.p_hat, e.ci_low, e.ci_high)
    if len(job.year_counts) >= 2:
        table = [[ups, total - ups] for _, ups, total in job.year_counts]
        statistic, p_ref, _, _ = sps.chi2_contingency(table, correction=False)
        if homogeneity is None or not (
                math.isclose(homogeneity.statistic, statistic, rel_tol=1e-9)
                and abs(homogeneity.p_value - p_ref) <= P_VALUE_ATOL):
            problems.append(f"homogeneity {homogeneity}, scipy gives "
                            f"statistic {statistic!r}, p {p_ref!r}")
    return problems


def tally_estimate_p(job: inputs.SeriesJob, out) -> dict[str, float]:
    return {}


# --- price -----------------------------------------------------------------

def price_params(job: inputs.PriceJob) -> model.ModelParams:
    if job.model == "crr":
        return model.crr_params(job.r, job.sigma)
    if job.model == "jr":
        return model.jarrow_rudd_params(job.r, job.sigma)
    if job.model == "tian":
        return model.tian_params(job.r, job.sigma)
    return model.ModelParams(gamma=job.r, delta=job.r, g=job.g, v=0.0, sigma=job.sigma)


def run_price(job: inputs.PriceJob) -> float:
    params = price_params(job)
    lattice = pricing.Lattice.build(job.s0, params, job.n, job.t / job.n, job.r,
                                    method=job.factors)
    return pricing.price_european(lattice, params, pricing.Payoff.call(job.strike))


def _scaled_bs_error(job: inputs.PriceJob, price: float) -> float:
    bs = pricing.black_scholes_call(job.s0, job.strike, job.r, job.sigma, job.t)
    return job.n * abs(price - bs) / job.s0


def check_price(job: inputs.PriceJob, price: float) -> list[str]:
    if not _finite(price):
        return [f"non-finite price {price!r}"]
    problems = []
    lower = max(job.s0 - job.strike * math.exp(-job.r * job.t), 0.0)
    if not lower <= price <= job.s0:
        problems.append(f"price {price!r} outside static bounds [{lower!r}, {job.s0!r}]")
    error = _scaled_bs_error(job, price)
    if not error <= PRICE_TOL:
        problems.append(f"n*|price - Black-Scholes|/S0 = {error!r} exceeds {PRICE_TOL}")
    return problems


def tally_price(job: inputs.PriceJob, price: float) -> dict[str, float]:
    return {"pricing.price_err_max": _scaled_bs_error(job, price)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    tally: Callable[[Any, Any], dict[str, float]]


WORKLOADS = {w.name: w for w in (
    Workload("calibrate",
             "model_prices takes about 94% of calibrate_suite time and Nelder-Mead "
             "the rest, so this workload carries the pricing kernel and the optimizer.",
             run_calibrate, check_calibrate, tally_calibrate),
    Workload("converge",
             "Exercises convergence and special and not the pricing kernel or the "
             "optimizer, so for any kernel or optimizer change the prediction here "
             "is no change.",
             run_converge, check_converge, tally_converge),
    Workload("estimate-p",
             "Exercises file parsing and the statistics layer, both branches of the "
             "exact binomial test included, and nothing else.",
             run_estimate_p, check_estimate_p, tally_estimate_p),
    Workload("price",
             "price_european is the second O(n^2) kernel; without it a merged kernel "
             "tuned for many short-dated strikes could slow a single deep lattice "
             "unseen.",
             run_price, check_price, tally_price),
)}
