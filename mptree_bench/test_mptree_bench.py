"""Tests of the benchmark's own machinery: inputs, tracing and checks."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from mptree import calibration, convergence, market_io, pricing, stats
from mptree.calibration import CalibrationResult, ErrorMetrics, OptionQuote
from mptree.model import ModelParams

from mptree_bench import inputs, reference, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


def _snapshot(jobs):
    """Jobs with paths replaced by the bytes of the files they name."""
    out = []
    for job in jobs:
        fields = dataclasses.asdict(job)
        if "path" in fields:
            fields["path"] = Path(fields["path"]).read_bytes()
        out.append(fields)
    return out


@pytest.mark.parametrize("workload", sorted(inputs.MAKERS))
def test_inputs_repeat_per_seed_and_differ_across_seeds(workload, tmp_path):
    first = _snapshot(inputs.make_jobs(workload, 7, tmp_path / "a"))
    again = _snapshot(inputs.make_jobs(workload, 7, tmp_path / "b"))
    other = _snapshot(inputs.make_jobs(workload, 8, tmp_path / "c"))
    assert first == again
    assert first != other
    assert len(first) == len(other)


def test_chain_inputs_drop_only_non_positive_quotes(tmp_path):
    jobs = inputs.make_jobs("calibrate", 3, tmp_path)
    assert [j.shape for j in jobs] == ["ref", "wide", "short"]
    for job in jobs:
        chain = market_io.load_chain(job.path)
        assert len(chain.quotes) == job.quotes
        assert all(q.market_price > 0.0 for q in chain.quotes)
    assert jobs[0].quotes == 20


def test_nominal_node_updates_counts_each_strike_column():
    quotes = [OptionQuote(100.0, 3, 1.0), OptionQuote(90.0, 3, 1.0), OptionQuote(90.0, 1, 1.0)]
    assert inputs.nominal_node_updates(quotes) == 2 * 6 + 1


# --- tracing ---------------------------------------------------------------

class _Owner:
    @classmethod
    def build(cls, x):
        return ("built", x)


def test_patched_restores_originals_when_the_call_raises():
    def boom():
        raise ValueError("boom")

    module = types.SimpleNamespace(boom=boom, ok=lambda: 1)
    raw_build = vars(_Owner)["build"]
    tracer = tracing.Tracer()
    targets = [(module, "boom", lambda fn: tracer.wrap("boom", fn, lambda a, k, r: r)),
               (module, "ok", lambda fn: tracer.count("ok", fn)),
               (_Owner, "build", lambda fn: tracer.wrap("build", fn)),
               (module, "absent", lambda fn: fn)]
    with pytest.raises(ValueError):
        with tracing.patched(targets) as missing:
            assert module.boom is not boom
            assert _Owner.build(3) == ("built", 3)
            assert module.ok() == 1
            module.boom()
    assert module.boom is boom
    assert vars(_Owner)["build"] is raw_build
    assert missing == ["SimpleNamespace.absent"]
    assert [s.name for s in tracer.spans] == ["build", "boom"]
    assert tracer.spans[1].info is tracing.RAISED
    assert tracer.counts["ok"] == 1


def test_layer_targets_are_restored():
    owners = (calibration, convergence, market_io, pricing, stats, pricing.Lattice)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.layer_targets(tracer)) as missing:
            assert missing == []
            raise RuntimeError
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[key] is new[key] for key in old)


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [S("root", 0.0, 10.0, -1),
             S("a", 1.0, 3.0, 0),
             S("b", 4.0, 8.0, 0),
             S("b.child", 5.0, 6.0, 2),
             # Overlaps its sibling and runs past its parent: only the
             # uncovered part inside the parent counts.
             S("c", 7.0, 11.0, 0),
             S("other", 12.0, 13.0, -1)]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 2.0 - 4.0 - 2.0, 2.0, 3.0,
                                                       1.0, 4.0, 1.0])
    assert tracing.outside_spans(spans, 15.0) == pytest.approx(15.0 - 11.0)


def test_tracer_nests_spans_by_call_stack():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    wall = tracer.spans[0].duration
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(wall, abs=1e-12)


def test_benchmark_file_lists_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_layer_metrics_cover_the_table():
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0, 1, {})
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]


# --- reference sampler and latencies --------------------------------------

def test_sampler_times_the_kernel_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        end = time.perf_counter() + 20 * reference.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) >= 5
    assert sampler.since(0) == pytest.approx(sum(sampler.durations))
    assert sampler.since(len(sampler.durations)) == 0
    assert min(sampler.durations) <= sampler.mean() <= max(sampler.durations)
    assert reference.burst_mean() > 0.0


def test_job_latencies_scale_by_the_reference_around_each_repeat():
    nominal = reference.NOMINAL_S
    sampler = reference.Sampler()
    # The machine at the nominal speed, then at half of it.
    sampler.durations = [nominal] * 40 + [2 * nominal] * 40
    timed = run.Run(latencies={0: [3.0, 1.0], 1: [0.5, 0.7]},
                    windows={0: [(0, 40), (40, 80)], 1: [(0, 40), (40, 80)]})
    assert run.job_latencies(timed, sampler) == pytest.approx([0.425, 1.75])


def test_short_windows_widen_to_enough_samples():
    sampler = reference.Sampler()
    sampler.durations = [1.0] * 10 + [3.0] * 10 + [5.0] * 10
    assert reference.MIN_WINDOW_SAMPLES == 20
    # An empty window in the middle grows to the 20 samples around it, of
    # which the slowest is left out.
    assert sampler.mean(15, 15) == pytest.approx((5 * 1.0 + 10 * 3.0 + 4 * 5.0) / 19)
    # At an end it grows inward only.
    assert sampler.mean(0, 1) == pytest.approx((10 * 1.0 + 9 * 3.0) / 19)
    # A run with fewer samples than that uses all of them.
    sampler.durations = [1.0, 2.0, 3.0]
    assert sampler.mean(1, 1) == pytest.approx(1.5)


# --- checks ----------------------------------------------------------------

def _suite(rmse: dict[str, float]) -> list[CalibrationResult]:
    params = ModelParams(gamma=0.04, delta=0.04, g=0.5, v=0.0, sigma=0.25)
    return [CalibrationResult(model=m, params=params,
                              metrics=ErrorMetrics(aae=r, ape=r, arpe=r, rmse=r),
                              objective_evaluations=10, converged=True)
            for m, r in rmse.items()]


def _calibrate_case():
    quotes = (OptionQuote(100.0, 21, 5.0), OptionQuote(110.0, 21, 1.0))
    chain = market_io.ChainFile(100.0, 0.04, quotes)
    job = inputs.ChainJob("ref", Path("unused"), "mpbin1",
                          ModelParams(gamma=0.04, delta=0.04, g=0.5, v=0.0, sigma=0.25), 2)
    rmse = {"crr": 2e-2, "jr": 1.5e-2, "tian": 1.3e-2, "mpbin1": 8e-7, "mpbin2": 7e-7}
    return job, chain, rmse


def _report(results):
    return "header\n" + "".join("row\n" for _ in results)


def test_calibrate_check_accepts_a_nested_suite():
    job, chain, rmse = _calibrate_case()
    results = _suite(rmse)
    assert workloads.check_calibrate(job, (chain, results, _report(results))) == []


@pytest.mark.parametrize("corrupt", [
    {"crr": 8e-7, "mpbin1": 2e-2},         # swapped nesting
    {"mpbin2": 9e-7},                      # richer family worse than mpbin1
    {"mpbin1": 1e-3, "mpbin2": 1e-3},      # generating family misses the floor
    {"jr": math.nan},
])
def test_calibrate_check_rejects_corrupted_results(corrupt):
    job, chain, rmse = _calibrate_case()
    results = _suite({**rmse, **corrupt})
    assert workloads.check_calibrate(job, (chain, results, _report(results)))


def test_calibrate_check_rejects_missing_model():
    job, chain, rmse = _calibrate_case()
    results = _suite(rmse)[:-1]
    assert workloads.check_calibrate(job, (chain, results, _report(results)))


def test_converge_check_bounds_the_slope():
    job = inputs.ConvergeJob(ModelParams(gamma=0.05, delta=0.05, g=0.5, v=0.0, sigma=0.2),
                             1.0, (16, 32))
    points = (convergence.RatePoint(16, 0.1, 0.4), convergence.RatePoint(32, 0.07, 0.4))
    good = convergence.RateExperiment(points, -0.5)
    assert workloads.check_converge(job, good) == []
    assert workloads.check_converge(job, dataclasses.replace(good, slope=-0.56))
    assert workloads.check_converge(job, dataclasses.replace(good, points=points[:1]))


@pytest.fixture(scope="module")
def series_case(tmp_path_factory):
    jobs = inputs.make_jobs("estimate-p", 5, tmp_path_factory.mktemp("series"))
    # One long series (log-space exact test) and one short (exact-integer).
    return [(job, workloads.run_estimate_p(job)) for job in (jobs[0], jobs[-1])]


def test_estimate_p_check_accepts_program_output(series_case):
    assert series_case[0][0].total > 1000 >= series_case[1][0].total
    for job, out in series_case:
        assert workloads.check_estimate_p(job, out) == []


def test_estimate_p_check_rejects_corrupted_results(series_case):
    for job, out in series_case:
        counts, ci, p_value, estimates, homogeneity = out
        assert workloads.check_estimate_p(job, (counts, ci, p_value + 1e-6, estimates,
                                                homogeneity))
        wrong = stats.UpDownCounts(counts.ups - 1, counts.total)
        assert workloads.check_estimate_p(job, (wrong, ci, p_value, estimates, homogeneity))
        assert workloads.check_estimate_p(job, (counts, (ci[0], counts.proportion / 2),
                                                p_value, estimates, homogeneity))


def test_price_check_rejects_prices_outside_the_bounds(tmp_path):
    job = inputs.make_jobs("price", 2, tmp_path)[0]
    price = workloads.run_price(job)
    assert workloads.check_price(job, price) == []
    assert any("static bounds" in p for p in workloads.check_price(job, job.s0 * 1.01))
    assert any("Black-Scholes" in p
               for p in workloads.check_price(job, price + 2.0 * job.s0 / job.n))
    assert workloads.check_price(job, math.inf)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "mptree_bench", tmp_path / "mptree_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "mptree_bench/run.py", "--workload", "price",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
