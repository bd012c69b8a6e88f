"""The calibrate seed sweep in tools/ on a few seeds."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "calibrate_seed_sweep.py"
_SPEC = importlib.util.spec_from_file_location("calibrate_seed_sweep", _PATH)
calibrate_seed_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibrate_seed_sweep)


def test_sweep_passes_the_benchmark_check_on_three_seeds(capsys):
    assert calibrate_seed_sweep.main(["1", "3"]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("seeds 1-3: 9 chains, 0 failures, ")
    assert int(line.split()[-2]) > 0


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


def digest_of(capsys, first, last):
    calibrate_seed_sweep.main([str(first), str(last)])
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.split()[-4] == "digest"
    return line.split()[-3].rstrip(",")


def test_sweep_digest_repeats_and_follows_the_reports(monkeypatch, capsys):
    digest = digest_of(capsys, 2, 2)
    assert len(digest) == 64
    assert digest_of(capsys, 2, 2) == digest
    run = calibrate_seed_sweep.workloads.run_calibrate

    def altered(job):
        chain, results, report = run(job)
        return chain, results, report + "\n"
    monkeypatch.setattr(calibrate_seed_sweep.workloads, "run_calibrate", altered)
    assert digest_of(capsys, 2, 2) != digest
