"""Run one workload of the mptree benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 mptree_bench/run.py --workload {calibrate,converge,estimate-p,price}
        --seed N --seconds S --trace {0,1}

Load is a closed loop: one caller in one thread runs the jobs of a pass
back to back, each job starting when the previous one returned, and
repeats whole passes until the jobs have taken ``--seconds``. Inputs are
generated from ``--seed`` under ``.bench_work/`` and removed at exit.

With ``--trace 0`` the end-to-end metrics are reported. Job times are
scaled to a fixed machine speed, measured by ``reference.Sampler`` during
the loop: each repeat of a job is scaled by the reference kernel's mean
time around it, and a job's latency is the mean of its scaled repeats
(``job_latencies``). ``setup_s`` is the median over separate processes
that each start the interpreter, import the program and generate the
inputs, each scaled by the kernel's mean over a burst of runs right
after.

With ``--trace 1`` whole passes run untraced for half of ``--seconds``,
then the same passes run again with every layer wrapped, and the
per-layer metrics are reported per pass. The spans are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit and the environment of the run. The
exit code is not 0 if the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the load is one single-threaded caller.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# Problems printed per run; all of them count.
MAX_REPORTED_PROBLEMS = 10


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibrate", "converge", "estimate-p", "price"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="only import the program and write the inputs to DIR")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``mptree`` from it."""
    if not (SRC / "mptree" / "__init__.py").is_file():
        raise SystemExit(f"error: no mptree package under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import mptree
    if Path(mptree.__file__).resolve().parent != SRC / "mptree":
        raise SystemExit(f"error: mptree imported from {mptree.__file__}, not {SRC}")


@dataclass
class Run:
    """Jobs run by one measurement loop."""

    latencies: dict[int, list[float]] = field(default_factory=dict)
    # Per job and repeat, the range of reference samples taken during it.
    windows: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    wall: float = 0.0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tally: dict[str, float] = field(default_factory=dict)


def measure(workload, jobs, run_job, seconds: float = 0.0, passes: int = 1,
            sampler=None) -> Run:
    """Run whole passes until the jobs took ``seconds`` and ``passes`` were run.

    Only the job call is timed, less the ``sampler``'s samples taken
    during it; checks and tallies run between jobs.
    """
    from mptree_bench.tracing import merge_tally

    run = Run()
    while run.passes < passes or run.wall < seconds:
        for index, job in enumerate(jobs):
            run.attempted += 1
            samples = len(sampler.durations) if sampler is not None else 0
            start = time.perf_counter()
            try:
                out = run_job(job)
            except Exception:  # a failed job is counted, the loop goes on
                run.wall += time.perf_counter() - start
                run.failed += 1
                run.problems.append(traceback.format_exc())
                continue
            elapsed = time.perf_counter() - start
            if sampler is not None:
                elapsed -= sampler.since(samples)
            run.wall += elapsed
            problems = workload.check(job, out)
            if problems:
                run.failed += 1
                run.problems.extend(problems)
                continue
            run.latencies.setdefault(index, []).append(elapsed)
            if sampler is not None:
                run.windows.setdefault(index, []).append((samples, len(sampler.durations)))
            merge_tally(run.tally, workload.tally(job, out))
        run.passes += 1
    return run


def time_setup(args: argparse.Namespace, workdir: Path) -> tuple[float, float]:
    """Set-up time of a fresh process, unscaled and at the nominal machine speed.

    The process imports the program, makes the inputs and prints the
    clock, then the reference kernel's mean time right after; waiting for
    it to exit under a timeout would round the time up to a poll interval.
    """
    from mptree_bench import reference

    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only", str(workdir)]
    start = time.time()
    done = subprocess.run(command, check=True, timeout=120, capture_output=True, text=True)
    end, kernel_mean = (float(word) for word in done.stdout.split()[-2:])
    return end - start, (end - start) * reference.NOMINAL_S / kernel_mean


def environment(args: argparse.Namespace, jobs_per_pass: int, run: Run) -> dict:
    import numpy
    import mptree

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "mptree": mptree.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "jobs_per_pass": jobs_per_pass,
            "passes": run.passes, "jobs_attempted": run.attempted}


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def report_problems(runs: list[Run]) -> None:
    problems = [p for r in runs for p in r.problems]
    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)


def job_latencies(run: Run, sampler) -> list[float]:
    """Each job's latency at the nominal machine speed, in seconds, sorted.

    The mean over the job's repeats of each repeat's time scaled by the
    reference kernel's mean time around it.
    """
    from mptree_bench import reference

    return sorted(statistics.fmean(t * reference.NOMINAL_S / sampler.mean(*window)
                                   for t, window in zip(times, run.windows[index]))
                  for index, times in run.latencies.items())


def end_to_end(args, workload, jobs) -> tuple[dict, list[Run], list[str]]:
    from mptree_bench import reference

    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
        raw_setups, setups = zip(*(time_setup(args, Path(scratch) / str(i))
                                   for i in range(SETUP_SAMPLES)))
    with reference.Sampler() as sampler:
        run = measure(workload, jobs, workload.run, seconds=args.seconds, sampler=sampler)
    if not run.latencies:
        report_problems([run])
        raise SystemExit("error: no job completed")
    best = job_latencies(run, sampler)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(best) / sum(best), "1/s"),
        "job_p50_ms": (quantile(best, 0.5) * 1e3, "ms"),
        "job_p90_ms": (quantile(best, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(best)
    notes = [f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}; unscaled "
             f"{', '.join(f'{s:.4f}' for s in raw_setups)}",
             f"job latency samples: {n} jobs, each the mean of {run.passes} scaled "
             f"repeats; {n - int(0.9 * n)} above p90",
             f"reference kernel: {len(sampler.durations)} samples, mean "
             f"{sampler.mean() * 1e3:.4f} ms, nominal {reference.NOMINAL_S * 1e3:.4f} ms",
             f"job time over all repeats, unscaled: {run.wall:.4f} s",
             f"failed_frac = {run.failed / run.attempted} ({run.failed}/{run.attempted})"]
    for key, value in sorted(run.tally.items()):
        notes.append(f"{key} = {value}")
    return metrics, [run], notes


def per_layer(args, workload, jobs) -> tuple[dict, list[Run], list[str]]:
    from mptree_bench import tracing

    untraced = measure(workload, jobs, workload.run, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.layer_targets(tracer)) as missing:
        traced = measure(workload, jobs, tracer.wrap("bench.job", workload.run),
                         passes=untraced.passes)
    values = tracing.layer_metrics(tracer, traced.wall, untraced.wall, traced.passes,
                                   traced.tally)
    metrics = {name: (values[name], unit) for name, unit, _ in tracing.LAYER_METRICS}
    outside = tracing.outside_spans(tracer.spans, traced.wall)
    self_total = sum(tracing.self_times(tracer.spans))
    gap = self_total + outside - traced.wall
    notes = [f"traced wall {traced.wall:.6f} s = span self times {self_total:.6f} s "
             f"+ outside spans {outside:.6f} s (gap {gap:.3e} s)"]
    if missing:
        notes.append(f"not wrapped (attribute absent): {', '.join(missing)}")
    if abs(gap) > 1e-6 * traced.wall:
        traced.failed += 1
        traced.problems.append(f"span self times do not add up to the traced wall: gap {gap}")
    path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    notes.append(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics, [untraced, traced], notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    from mptree_bench import inputs
    from mptree_bench.workloads import WORKLOADS

    if args.setup_only is not None:
        inputs.make_jobs(args.workload, args.seed, Path(args.setup_only))
        end = time.time()
        from mptree_bench import reference
        print(repr(end), repr(reference.burst_mean()))
        return 0

    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
            jobs = inputs.make_jobs(args.workload, args.seed, Path(workdir))
            report = per_layer if args.trace else end_to_end
            metrics, runs, notes = report(args, workload, jobs)
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report_problems(runs)
    print(f"# env {json.dumps(environment(args, len(jobs), runs[-1]))}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
