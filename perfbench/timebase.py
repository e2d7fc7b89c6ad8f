"""Drift-calibrated work time.

The speed of a small shared VM drifts by tens of percent within seconds, so
a raw wall time says more about the neighbours than about the code.  A
:class:`Clock` therefore times a fixed calibration kernel next to the work,
at sub-second spacing, all through a job.  Each stretch of work between two
calibrations is divided by the mean of its neighbouring calibrations, and
the quotients are summed: the job's ``time_ref`` is its work expressed in runs
of the kernel.  Summing per-stretch quotients (rather than dividing total
work by total calibration) keeps ``time_ref`` proportional to the work: a
change that halves the steps halves it, although it also halves the number
of calibrations.

The kernel has to slow down with the work when the machine does, so it does
the same kind of work: full-grid array arithmetic for the solver workloads
(:func:`grid_kernel`), small-array interpreter-bound code for the exact-jet
workload (:func:`scalar_kernel`).
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Calibration spacing.  The machine switches between speed states that last
# from a fraction of a second to seconds, so dense single kernel runs track
# it far better than sparse repeated ones; with the ~1-3 ms kernels below
# they cost a few percent of the work time.
SPACING_S = 0.03


def grid_kernel(shape: tuple[int, ...]) -> Callable[[], float]:
    """Central differences and a regularized quotient on a fixed 3-D array.

    The operation mix (shifted slices, products, a division) and the array
    size follow one operator pass of the solver on a grid of ``shape``.  The
    results go to preallocated buffers, so the kernel's time does not depend
    on the allocator state the program leaves behind.  Grids smaller than
    64^3 repeat the pass, so that every kernel run lasts about a millisecond
    or more and timer noise stays small against it.
    """
    u = np.random.default_rng(12345).standard_normal(shape)
    c = u[1:-1, 1:-1, 1:-1]
    gx, lap, qq, tmp = (np.empty(c.shape) for _ in range(4))
    repeat = max(1, round(64 ** 3 / u.size))

    def kernel() -> float:
        for _ in range(repeat):
            np.subtract(u[2:, 1:-1, 1:-1], u[:-2, 1:-1, 1:-1], out=gx)
            np.add(u[1:-1, 1:-1, 2:], u[1:-1, 1:-1, :-2], out=lap)
            np.multiply(c, 2.0, out=tmp)
            np.subtract(lap, tmp, out=lap)
            np.multiply(gx, gx, out=qq)
            np.add(qq, 1e-6, out=qq)
            np.multiply(lap, gx, out=lap)
            np.divide(lap, qq, out=lap)
        return float(lap[0, 0, 0])

    return kernel


def scalar_kernel() -> Callable[[], float]:
    """Exact-jet-like arithmetic on length-3 vectors and 3x3 matrices."""
    xs = np.random.default_rng(12345).uniform(-1.0, 1.0, size=(32, 3))

    def kernel() -> float:
        acc = 0.0
        for x in xs:
            g = np.zeros(3)
            g[0] = 1.0
            H = np.zeros((3, 3))
            v = float(x[0]) * float(x[1])
            g = v * g + 2.0 * x
            H = v * H + np.outer(g, x) + np.outer(x, g)
            s = np.eye(3)
            A = s.T @ H @ s
            acc += float(g @ A @ g) / (1.0 + float(g @ g))
        return acc

    return kernel


@dataclass(frozen=True)
class JobTime:
    wall_s: float  # work seconds, calibrations excluded
    time_ref: float  # work in kernel runs
    calibrations: int


class Clock:
    """Splits a job into stretches of work and calibrates between them.

    A one-shot interval timer (SIGALRM) fires SPACING_S after each
    calibration; its handler ends the current stretch and runs the kernel.
    Python runs signal handlers between bytecodes of the main thread, so
    calibrations land inside long pure-Python loops such as ``np.savetxt``
    too, and the program itself needs no hooks.  With ``spacing=None`` no
    timer is armed and stretches end only at ``cut`` calls.  ``cal_total``
    is the time spent calibrating, which trace spans subtract.
    """

    def __init__(self, kernel: Callable[[], float], spacing: float | None = SPACING_S,
                 timer: Callable[[], float] = time.perf_counter):
        self.kernel = kernel
        self.spacing = spacing
        self.timer = timer
        self.cal_total = 0.0
        self.samples: list[float] = []
        self._active = False
        self._previous_handler = None
        self._cals: list[tuple[float, float]] = []  # (midpoint, kernel seconds)
        self._stretches: list[tuple[float, float]] = []  # (start, end)
        self._start = 0.0

    def _calibrate(self) -> None:
        t0 = self.timer()
        self.kernel()
        t1 = self.timer()
        self.samples.append(t1 - t0)
        self._cals.append((0.5 * (t0 + t1), t1 - t0))
        self.cal_total += t1 - t0
        self._start = t1

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self.cut()
            signal.setitimer(signal.ITIMER_REAL, self.spacing)

    def start_job(self) -> None:
        self._cals, self._stretches = [], []
        self._calibrate()
        self._active = True
        if self.spacing:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.spacing)

    def cut(self) -> None:
        """End the current stretch of work here and calibrate."""
        self._stretches.append((self._start, self.timer()))
        self._calibrate()

    def end_job(self) -> JobTime:
        self._active = False
        if self.spacing:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self.cut()
        return job_time(self._cals, self._stretches)

    def median_calibration(self) -> float:
        return statistics.median(self.samples)


def job_time(cals, stretches) -> JobTime:
    """Sum over stretches of work / mean of its neighbouring calibrations.

    Stretch i lies between calibrations i and i+1.  Its neighbourhood is
    those two plus every calibration within half the stretch's length of
    it, so a long stretch (a CSV write, say) is divided by a mean over a
    matching stretch of time rather than by two point samples.
    """
    mids = [m for m, _ in cals]
    total = 0.0
    for i, (a, b) in enumerate(stretches):
        half = 0.5 * (b - a)
        lo = min(i, bisect.bisect_left(mids, a - half))
        hi = max(i + 2, bisect.bisect_right(mids, b + half))
        window = [v for _, v in cals[lo:hi]]
        total += (b - a) / (sum(window) / len(window))
    return JobTime(
        wall_s=sum(b - a for a, b in stretches),
        time_ref=total,
        calibrations=len(cals),
    )
