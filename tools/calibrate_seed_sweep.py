"""Run the benchmark's calibrate job and its check over a range of seeds.

Each seed generates the benchmark's calibrate chains
(``mptree_bench.inputs.make_jobs``); each chain is fit by
``mptree_bench.workloads.run_calibrate`` and checked by
``check_calibrate``, exactly as a benchmark pass does. A change to how
fits start or search can fail that check on one seed in many, so a
single benchmark run does not show it.

usage: python tools/calibrate_seed_sweep.py FIRST LAST

Seeds FIRST..LAST are run, both included. Every failing seed and chain is
printed with the check's message, then one line with the number of
chains, failures, a SHA-256 digest of every chain's
``calibration_report_csv`` in order, and objective evaluations. Two
commits that print the same digest fit every chain to the same reported
figures, so equal digests show that a change to the pricing kernel or
the fit loop is bit-identical on these chains. The total wall time of
the ``run_calibrate`` calls (load, fit and report each chain), without
making or checking the chains, goes to stderr, so one command compares
two commits on digest, evaluations and time. The exit code is 1 if any
check failed, 2 for a bad argument.
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


def sweep(first: int, last: int) -> tuple[list[str], int, str, int, float]:
    """(failure lines, chains, report digest, objective evaluations, fit
    seconds) over seeds first..last."""
    failures: list[str] = []
    chains = evaluations = 0
    seconds = 0.0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(first, last + 1):
            for job in inputs.make_jobs("calibrate", seed, Path(tmp) / str(seed)):
                start = time.perf_counter()
                out = workloads.run_calibrate(job)
                seconds += time.perf_counter() - start
                chains += 1
                evaluations += sum(r.objective_evaluations for r in out[1])
                digest.update(out[2].encode())
                failures += [f"seed {seed} {job.shape}: {problem}"
                             for problem in workloads.check_calibrate(job, out)]
    return failures, chains, digest.hexdigest(), evaluations, seconds


def main(argv: list[str]) -> int:
    try:
        first, last = (int(arg) for arg in argv)
    except ValueError:
        print(_USAGE, file=sys.stderr)
        return 2
    if last < first:
        print(_USAGE, file=sys.stderr)
        return 2
    failures, chains, digest, evaluations, seconds = sweep(first, last)
    for line in failures:
        print(line)
    print(f"seeds {first}-{last}: {chains} chains, {len(failures)} failures, "
          f"digest {digest}, {evaluations} evaluations")
    print(f"fit wall time {seconds:.2f} s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
