"""Run every benchmark workload and its check over a range of seeds.

Each seed generates the jobs of each workload
(``mptree_bench.inputs.make_jobs``); each job is run by that workload's
``mptree_bench.workloads.run_*`` and checked by its ``check_*``, exactly
as a benchmark pass does. A change to how fits start or search can fail
the calibrate check on one seed in many, so a single benchmark run does
not show it.

usage: python tools/calibrate_seed_sweep.py FIRST LAST

Seeds FIRST..LAST are run, both included, workload by workload in the
order calibrate, converge, estimate-p, price. For each, every failing
seed and job is printed with the check's message, then one line. The
calibrate line gives the number of chains, failures, a SHA-256 digest of
every chain's ``calibration_report_csv`` in order, and objective
evaluations; each other line gives the number of jobs, failures, and a
SHA-256 digest of the ``repr`` of every job's output in order, in which
each float is its shortest round-trip repr. Two commits that print the
same digest computed every output to the same bits, so equal digests
show that a change to the pricing kernel, the fit loop or any other
layer is bit-identical on these jobs. The total wall time of each
workload's ``run_*`` calls, without making or checking the jobs, goes to
stderr, so one command compares two commits on digest, evaluations and
time. The exit code is 1 if any check failed, 2 for a bad argument.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from mptree_bench import inputs, workloads  # noqa: E402

_USAGE = "usage: python tools/calibrate_seed_sweep.py FIRST LAST"


def sweep(workload: str, first: int, last: int
          ) -> tuple[list[str], int, str, int, float]:
    """(failure lines, jobs, digest, objective evaluations, run seconds)
    of ``workload`` over seeds first..last; evaluations are 0 but for
    calibrate."""
    # Looked up on the module, so that a test can replace them.
    run = getattr(workloads, f"run_{workload.replace('-', '_')}")
    check = getattr(workloads, f"check_{workload.replace('-', '_')}")
    failures: list[str] = []
    jobs = evaluations = 0
    seconds = 0.0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(first, last + 1):
            made = inputs.make_jobs(workload, seed, Path(tmp) / str(seed))
            for index, job in enumerate(made):
                start = time.perf_counter()
                out = run(job)
                seconds += time.perf_counter() - start
                jobs += 1
                if workload == "calibrate":
                    evaluations += sum(r.objective_evaluations for r in out[1])
                    digest.update(out[2].encode())
                    label = job.shape
                else:
                    digest.update(repr(out).encode())
                    label = f"{workload} job {index}"
                failures += [f"seed {seed} {label}: {problem}" for problem in check(job, out)]
    return failures, jobs, digest.hexdigest(), evaluations, seconds


def main(argv: list[str]) -> int:
    try:
        first, last = (int(arg) for arg in argv)
    except ValueError:
        print(_USAGE, file=sys.stderr)
        return 2
    if last < first:
        print(_USAGE, file=sys.stderr)
        return 2
    failed = False
    for workload in workloads.WORKLOADS:
        failures, jobs, digest, evaluations, seconds = sweep(workload, first, last)
        failed = failed or bool(failures)
        for line in failures:
            print(line)
        if workload == "calibrate":
            print(f"seeds {first}-{last}: {jobs} chains, {len(failures)} failures, "
                  f"digest {digest}, {evaluations} evaluations")
        else:
            print(f"{workload}: seeds {first}-{last}: {jobs} jobs, {len(failures)} "
                  f"failures, digest {digest}")
        print(f"{workload} run wall time {seconds:.2f} s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
