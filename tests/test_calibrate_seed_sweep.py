"""The workload seed sweep in tools/ on a few seeds."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "calibrate_seed_sweep.py"
_SPEC = importlib.util.spec_from_file_location("calibrate_seed_sweep", _PATH)
calibrate_seed_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibrate_seed_sweep)


def test_sweep_passes_the_benchmark_check_on_three_seeds(capsys):
    assert calibrate_seed_sweep.main(["1", "3"]) == 0
    calibrate, converge, estimate_p, price = capsys.readouterr().out.splitlines()
    assert calibrate.startswith("seeds 1-3: 9 chains, 0 failures, ")
    assert calibrate.split()[-4] == "digest"
    assert int(calibrate.split()[-2]) > 0
    assert converge.startswith("converge: seeds 1-3: 18 jobs, 0 failures, digest ")
    assert estimate_p.startswith("estimate-p: seeds 1-3: 384 jobs, 0 failures, digest ")
    assert price.startswith("price: seeds 1-3: 360 jobs, 0 failures, digest ")


def test_sweep_prints_each_failure_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(calibrate_seed_sweep.workloads, "check_calibrate",
                        lambda job, out: [f"broken {job.truth_model}"])
    assert calibrate_seed_sweep.main(["2", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["seed 2 ref: broken mpbin1", "seed 2 wide: broken mpbin2",
                         "seed 2 short: broken mpbin1"]
    assert lines[3].startswith("seeds 2-2: 3 chains, 3 failures, ")


@pytest.mark.parametrize("argv", [[], ["1"], ["1", "x"], ["2", "1"], ["1", "2", "3"]],
                         ids=["none", "one", "not-int", "reversed", "three"])
def test_sweep_prints_its_usage_for_a_bad_argument(capsys, argv):
    assert calibrate_seed_sweep.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage: python tools/calibrate_seed_sweep.py FIRST LAST\n"


def digest_of(first, last):
    # The calibrate sweep alone; main prints its digest on the "seeds" line.
    return calibrate_seed_sweep.sweep("calibrate", first, last)[2]


def test_sweep_digest_repeats_and_follows_the_reports(monkeypatch):
    digest = digest_of(2, 2)
    assert len(digest) == 64
    assert digest_of(2, 2) == digest
    run = calibrate_seed_sweep.workloads.run_calibrate

    def altered(job):
        chain, results, report = run(job)
        return chain, results, report + "\n"
    monkeypatch.setattr(calibrate_seed_sweep.workloads, "run_calibrate", altered)
    assert digest_of(2, 2) != digest


def _next_float(x):
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize("workload, nudge", [
    ("price", _next_float),
    ("converge", lambda out: dataclasses.replace(out, slope=_next_float(out.slope))),
], ids=["price", "converge"])
def test_sweep_digest_moves_with_one_ulp_of_one_output(monkeypatch, workload, nudge):
    digest = calibrate_seed_sweep.sweep(workload, 1, 1)[2]
    name = f"run_{workload}"
    run = getattr(calibrate_seed_sweep.workloads, name)
    calls = []

    def altered(job):
        # Only the first job's output moves, by one unit in the last place.
        calls.append(job)
        return nudge(run(job)) if len(calls) == 1 else run(job)
    monkeypatch.setattr(calibrate_seed_sweep.workloads, name, altered)
    assert calibrate_seed_sweep.sweep(workload, 1, 1)[2] != digest
