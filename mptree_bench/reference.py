"""Machine speed, sampled by timing a fixed kernel from a timer signal.

On a shared VM the same code runs up to 2x slower from one moment to the
next, as other tenants come and go, and the fastest speed the machine
reaches drifts by 10-30% over minutes. Both reach the benchmark's own
kernel below as much as the program's code: over the same seconds, the
mean times of this kernel and of mptree's kernels keep their ratio within
a few percent while each moves by 30%. While a measurement loop runs,
``Sampler`` times that kernel every ``PERIOD_S`` from ``SIGALRM``, and the
benchmark scales each job's time by ``NOMINAL_S`` over the kernel's mean
time around it.

The kernel is not program code: a change to ``mptree`` moves the jobs'
times and not the kernel's.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
# The kernel's fastest run on the machine the bounds were set on (2 vCPUs
# of a Xeon at 2.1 GHz, Python 3.11, NumPy 2.4): times are reported as if
# the machine had run at its fastest throughout. Changing it rescales
# every reported time; it must not change between two runs compared.
NOMINAL_S = 1.5e-4
# The mean leaves out the slowest samples, which an interrupt or a
# preempted vCPU stretches to tens of times the rest.
MEAN_KEPT = 0.98
# A window of fewer samples is widened on both sides to this many: a job
# of a few milliseconds holds none of its own.
MIN_WINDOW_SAMPLES = 20
# Runs of the kernel in ``burst_mean``: about 50 ms.
BURST = 200

# A small backward induction on a few strike columns, as in the pricing
# kernels, and a scalar loop of the math-library calls the convergence
# and statistics layers make: about 0.15 ms at the nominal speed.
_STEPS = 40
_TERMINAL = np.maximum(
    100.0 * 1.01 ** np.arange(_STEPS + 1)[:, None]
    * 0.99 ** np.arange(_STEPS, -1, -1)[:, None]
    - np.linspace(90.0, 110.0, 8)[None, :], 0.0)


def kernel() -> float:
    values = _TERMINAL
    for _ in range(_STEPS):
        values = 0.99 * (0.5 * values[1:, :] + 0.5 * values[:-1, :])
    total = float(values[0, 0])
    for k in range(1, 100):
        total += math.lgamma(k + 0.5) - math.log(k) + math.erfc(k * 1e-3)
    return total


class Sampler:
    """Times ``kernel`` every ``PERIOD_S`` while the ``with`` block runs.

    The handler runs between bytecodes of whatever the main thread is
    doing, so a job's wall time includes the samples taken during it;
    ``since`` gives their sum for the caller to take off. The collector is
    held off during a sample: a collection there would time the program's
    heap, not the machine.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            self.durations.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def since(self, index: int) -> float:
        """Time spent in samples from the ``index``-th on."""
        return sum(self.durations[index:])

    def mean(self, start: int = 0, stop: int | None = None) -> float:
        """The kernel's mean time over the samples from ``start`` to ``stop``.

        The window is widened on both sides when it holds fewer than
        ``MIN_WINDOW_SAMPLES``; the slowest samples are left out.
        """
        count = len(self.durations)
        stop = count if stop is None else stop
        while stop - start < MIN_WINDOW_SAMPLES and (start > 0 or stop < count):
            start, stop = max(0, start - 1), min(count, stop + 1)
        return _trimmed_mean(self.durations[start:stop])


def _trimmed_mean(durations: list[float]) -> float:
    ordered = sorted(durations)
    return statistics.fmean(ordered[:max(1, int(MEAN_KEPT * len(ordered)))])


def burst_mean() -> float:
    """The kernel's mean time over ``BURST`` runs back to back.

    For a short-lived process, whose work is over before a timer could
    take enough samples: taken right after the work, it gives the
    machine's speed within the same second.
    """
    durations = []
    for _ in range(BURST):
        start = perf_counter()
        kernel()
        durations.append(perf_counter() - start)
    return _trimmed_mean(durations)
