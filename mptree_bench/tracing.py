"""Traced run: spans around the public functions of each layer, from outside.

Each public function is replaced, for the length of the traced run, at the
name its caller looks it up under (``mptree.calibration.model_prices``
for the calls inside ``calibration``, and so on). A wrapper records one
span (name, start, end, parent) in memory per call; the originals come
back in ``finally``. Sub-microsecond scalar helpers get a counting
wrapper instead, and the scalar kernels in ``special`` are not wrapped at
all: their cost stays inside the ``convergence`` and ``stats`` spans.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

from mptree import calibration, convergence, market_io, pricing, stats

from .inputs import nominal_node_updates

# What ``calibrate`` scores for parameters its pricing rejects.
PENALTY = 1e15
# Tally keys ending in this suffix combine by max, all others by sum.
MAX_SUFFIX = "_max"

RAISED = object()

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("calibration.model_prices.calls", "count", "lower"),
    ("calibration.model_prices.ms", "ms", "lower"),
    ("calibration.model_prices.node_updates", "count", "lower"),
    ("calibration.model_prices.ns_per_node_update", "ns", "lower"),
    ("calibration.model_prices.wall_share", "fraction", "lower"),
    ("calibration.objective_evals", "count", "lower"),
    ("calibration.evals.crr", "count", "lower"),
    ("calibration.evals.jr", "count", "lower"),
    ("calibration.evals.tian", "count", "lower"),
    ("calibration.evals.mpbin1", "count", "lower"),
    ("calibration.evals.mpbin2", "count", "lower"),
    ("calibration.penalty_frac", "fraction", "lower"),
    ("calibration.implied_atm_sigma.calls", "count", "lower"),
    ("calibration.implied_atm_sigma.ms", "ms", "lower"),
    ("calibration.implied_atm_sigma.kernel_calls", "count", "lower"),
    ("calibration.rmse_mean", "price", "lower"),
    ("optimize.minimize.calls", "count", "lower"),
    ("optimize.minimize.self_ms", "ms", "lower"),
    ("optimize.overhead_us_per_eval", "us", "lower"),
    ("optimize.converged_frac", "fraction", "higher"),
    ("pricing.price_european.calls", "count", "lower"),
    ("pricing.price_european.ms", "ms", "lower"),
    ("pricing.price_european.node_updates", "count", "lower"),
    ("pricing.price_european.ns_per_node_update", "ns", "lower"),
    ("pricing.lattice_build.ms", "ms", "lower"),
    ("pricing.risk_neutral_prob.calls", "count", "lower"),
    ("pricing.price_err_max", "1", "lower"),
    ("model.step_factors_exact.calls", "count", "lower"),
    ("convergence.terminal_distribution.calls", "count", "lower"),
    ("convergence.terminal_distribution.ms", "ms", "lower"),
    ("convergence.kolmogorov_distance.ms", "ms", "lower"),
    ("convergence.support_points", "count", "lower"),
    ("convergence.ns_per_support_point", "ns", "lower"),
    ("convergence.slope_err_max", "1", "lower"),
    ("stats.exact_binomial_test.calls", "count", "lower"),
    ("stats.exact_binomial_test.ms.small_n", "ms", "lower"),
    ("stats.exact_binomial_test.ms.large_n", "ms", "lower"),
    ("stats.grouped_estimates.ms", "ms", "lower"),
    ("stats.homogeneity_test.ms", "ms", "lower"),
    ("market_io.load_returns.ms", "ms", "lower"),
    ("market_io.load_returns.rows", "count", "higher"),
    ("market_io.us_per_row", "us", "lower"),
    ("market_io.load_chain.ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts recorded by the wrappers of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable,
             info: Callable[[tuple, dict, Any], Any] | None = None) -> Callable:
        """``fn`` recording one span per call.

        ``info(args, kwargs, result)`` picks what the metrics need from the
        call; it runs after the span has ended. ``result`` is ``RAISED``
        when the call raised.
        """
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            result = RAISED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = Span(name, start, end, parent,
                                    None if info is None else info(args, kwargs, result))
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines; ``parent`` is a line index or -1."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({"name": span.name, "start": span.start,
                                      "end": span.end, "parent": span.parent}) + "\n")


@contextmanager
def patched(targets: Iterable[tuple[Any, str, Callable[[Callable], Callable]]]):
    """Replace ``owner.attr`` by ``make(owner.attr)`` for each target.

    Every original is put back on exit, also when the body raises. A
    target whose attribute does not exist is skipped and listed in the
    value the context yields.
    """
    saved = []
    missing = []
    try:
        for owner, attr, make in targets:
            raw = vars(owner).get(attr)
            if raw is None:
                missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
                continue
            wrapper = make(getattr(owner, attr))
            # A class attribute must not bind to instances.
            setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
            saved.append((owner, attr, raw))
        yield missing
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def layer_targets(tracer: Tracer) -> list[tuple[Any, str, Callable[[Callable], Callable]]]:
    """(owner, attribute, wrapper factory) for every traced boundary."""

    def span(name, info=None):
        return lambda fn: tracer.wrap(name, fn, info)

    def count(name):
        return lambda fn: tracer.count(name, fn)

    def minimize(fn):
        penalized = span("calibration.objective",
                         lambda a, k, res: res is RAISED or res >= PENALTY)

        def call(objective, *args, **kwargs):
            return fn(penalized(objective), *args, **kwargs)
        return tracer.wrap("optimize.minimize", call,
                           lambda a, k, res: None if res is RAISED
                           else (res.evaluations, res.converged))

    targets = [
        (calibration, "calibrate_suite", span("calibration.calibrate_suite")),
        (calibration, "calibrate", span("calibration.calibrate")),
        (calibration, "implied_atm_sigma", span("calibration.implied_atm_sigma")),
        (calibration, "minimize", minimize),
        (calibration, "model_prices",
         span("calibration.model_prices", lambda a, k, res: _arg(a, k, 2, "quotes"))),
        (calibration, "calibration_report_csv", span("calibration.calibration_report_csv")),
        (pricing.Lattice, "build", span("pricing.lattice_build")),
        (pricing, "price_european",
         span("pricing.price_european", lambda a, k, res: _arg(a, k, 0, "lattice").n)),
        (convergence, "rate_experiment", span("convergence.rate_experiment")),
        (convergence, "terminal_distribution",
         span("convergence.terminal_distribution", lambda a, k, res: _arg(a, k, 2, "n"))),
        (convergence, "kolmogorov_distance", span("convergence.kolmogorov_distance")),
        (market_io, "load_chain", span("market_io.load_chain")),
        (market_io, "load_returns",
         span("market_io.load_returns",
              lambda a, k, res: 0 if res is RAISED else len(res.rows))),
        (stats, "up_proportion", span("stats.up_proportion")),
        (stats, "proportion_ci", span("stats.proportion_ci")),
        (stats, "exact_binomial_test",
         span("stats.exact_binomial_test", lambda a, k, res: _arg(a, k, 0, "counts").total)),
        (stats, "grouped_estimates", span("stats.grouped_estimates")),
        (stats, "homogeneity_test", span("stats.homogeneity_test")),
    ]
    # Counted at every module that looks them up.
    for owner in (calibration, pricing, convergence):
        targets.append((owner, "risk_neutral_prob", count("pricing.risk_neutral_prob")))
        targets.append((owner, "step_factors_exact", count("model.step_factors_exact")))
    return targets


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


def merge_tally(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        if key.endswith(MAX_SUFFIX):
            total[key] = max(total.get(key, value), value)
        else:
            total[key] = total.get(key, 0) + value


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  passes: int, tally: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics per pass of the workload's jobs.

    Counts and times are divided by the number of passes, so counts repeat
    exactly whatever the run length. Metrics of a layer the workload does
    not reach read 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    exclusive: Counter[str] = Counter()
    for span, self_s in zip(spans, own):
        calls[span.name] += 1
        inclusive[span.name] += span.duration
        exclusive[span.name] += self_s

    def named(name):
        return [s for s in spans if s.name == name]

    def per_pass(value):
        return value / passes

    def ms(name):
        return per_pass(inclusive[name] * 1e3)

    def ratio(num, den):
        return num / den if den else 0.0

    quote_updates: dict[int, int] = {}
    kernel_updates = 0
    for span in named("calibration.model_prices"):
        # Every quote list is still referenced by its span, so ids are unique.
        key = id(span.info)
        if key not in quote_updates:
            quote_updates[key] = nominal_node_updates(span.info)
        kernel_updates += quote_updates[key]
    atm_spans = {i for i, s in enumerate(spans) if s.name == "calibration.implied_atm_sigma"}
    atm_kernel = sum(1 for s in named("calibration.model_prices") if s.parent in atm_spans)
    objective = named("calibration.objective")
    minimized = [s.info for s in named("optimize.minimize") if s.info is not None]
    evaluations = sum(n for n, _ in minimized)
    european_updates = sum(n * (n + 1) // 2 for n in
                           (s.info for s in named("pricing.price_european")))
    support = sum(n + 1 for n in (s.info for s in named("convergence.terminal_distribution")))
    exact_tests = named("stats.exact_binomial_test")
    rows = sum(s.info for s in named("market_io.load_returns"))

    metrics = {
        "calibration.model_prices.calls": per_pass(calls["calibration.model_prices"]),
        "calibration.model_prices.ms": ms("calibration.model_prices"),
        "calibration.model_prices.node_updates": per_pass(kernel_updates),
        "calibration.model_prices.ns_per_node_update":
            ratio(inclusive["calibration.model_prices"] * 1e9, kernel_updates),
        "calibration.model_prices.wall_share":
            ratio(exclusive["calibration.model_prices"], traced_wall),
        "calibration.objective_evals": per_pass(tally.get("calibration.objective_evals", 0)),
    }
    for name in calibration.MODELS:
        metrics[f"calibration.evals.{name}"] = per_pass(tally.get(f"calibration.evals.{name}", 0))
    metrics.update({
        "calibration.penalty_frac": ratio(sum(1 for s in objective if s.info), len(objective)),
        "calibration.implied_atm_sigma.calls": per_pass(calls["calibration.implied_atm_sigma"]),
        "calibration.implied_atm_sigma.ms": ms("calibration.implied_atm_sigma"),
        "calibration.implied_atm_sigma.kernel_calls": per_pass(atm_kernel),
        "calibration.rmse_mean": ratio(tally.get("calibration.rmse_sum", 0.0),
                                       tally.get("calibration.rmse_count", 0)),
        "optimize.minimize.calls": per_pass(calls["optimize.minimize"]),
        "optimize.minimize.self_ms": per_pass(exclusive["optimize.minimize"] * 1e3),
        "optimize.overhead_us_per_eval":
            ratio(exclusive["optimize.minimize"] * 1e6, evaluations),
        "optimize.converged_frac":
            ratio(sum(1 for _, ok in minimized if ok), len(minimized)),
        "pricing.price_european.calls": per_pass(calls["pricing.price_european"]),
        "pricing.price_european.ms": ms("pricing.price_european"),
        "pricing.price_european.node_updates": per_pass(european_updates),
        "pricing.price_european.ns_per_node_update":
            ratio(inclusive["pricing.price_european"] * 1e9, european_updates),
        "pricing.lattice_build.ms": ms("pricing.lattice_build"),
        "pricing.risk_neutral_prob.calls": per_pass(tracer.counts["pricing.risk_neutral_prob"]),
        "pricing.price_err_max": tally.get("pricing.price_err_max", 0.0),
        "model.step_factors_exact.calls": per_pass(tracer.counts["model.step_factors_exact"]),
        "convergence.terminal_distribution.calls":
            per_pass(calls["convergence.terminal_distribution"]),
        "convergence.terminal_distribution.ms": ms("convergence.terminal_distribution"),
        "convergence.kolmogorov_distance.ms": ms("convergence.kolmogorov_distance"),
        "convergence.support_points": per_pass(support),
        "convergence.ns_per_support_point": ratio(
            (inclusive["convergence.terminal_distribution"]
             + inclusive["convergence.kolmogorov_distance"]) * 1e9, support),
        "convergence.slope_err_max": tally.get("convergence.slope_err_max", 0.0),
        "stats.exact_binomial_test.calls": per_pass(len(exact_tests)),
        "stats.exact_binomial_test.ms.small_n":
            per_pass(sum(s.duration for s in exact_tests if s.info <= 1000) * 1e3),
        "stats.exact_binomial_test.ms.large_n":
            per_pass(sum(s.duration for s in exact_tests if s.info > 1000) * 1e3),
        "stats.grouped_estimates.ms": ms("stats.grouped_estimates"),
        "stats.homogeneity_test.ms": ms("stats.homogeneity_test"),
        "market_io.load_returns.ms": ms("market_io.load_returns"),
        "market_io.load_returns.rows": per_pass(rows),
        "market_io.us_per_row": ratio(inclusive["market_io.load_returns"] * 1e6, rows),
        "market_io.load_chain.ms": ms("market_io.load_chain"),
        "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
    })
    return metrics


def outside_spans(spans: list[Span], wall: float) -> float:
    """The part of ``wall`` that no top-level span covers."""
    return wall - sum(s.duration for s in spans if s.parent < 0)
