"""Host-speed sampling: a fixed piece of reference work timed while the program runs.

The benchmark runs on hosts that share their cores and caches with other
tenants, and their speed drifts: on one 2-CPU host the same ``run()`` of
the same input took anywhere from 1.7 s to 3.5 s within a few hours, and
by up to 1.8x between runs minutes apart.  A wall-clock median over a few
runs cannot remove a drift that lasts longer than the runs.

So a timed worker interleaves slices of reference work with the program.
``SIGPROF`` fires after every ``INTERVAL_S`` of CPU time the process
spends, so slices are spread over the program's own progress, not over
the scheduler's time slices; its handler runs one slice and times it.
The mean slice time says how slow the host was while the program ran.
The program slows more than the slice does: over some 300 runs of the
four workloads on one 2-CPU host, as the mean slice time varied by 1.7x,
log(run time) rose 1.13 to 1.36 times as fast as log(mean slice time),
1.3 times pooled.  So ``factor() = (mean slice / REFERENCE_SLICE_S) **
SENSITIVITY``, and a program duration divided by it is that duration in
reference seconds: seconds on a host on which one slice takes
``REFERENCE_SLICE_S``.  On those runs this took the spread of the
per-invocation throughput medians from 4-10% of their median with an
exponent of 1 to 3-4%.  The program's code is not in the slice, so a
change that makes the program faster moves the normalised figure as much
as the wall-clock one.

The slice allocates no container objects (only integers), so it never
triggers the cyclic collector on the program's behalf, and it touches
nothing the program uses.  ``clock()`` leaves the slices' time out, so
program durations measured with it exclude the sampling.
"""

from __future__ import annotations

import signal
import time

#: Loop iterations in one slice of reference work.
SLICE_ITERATIONS = 750
#: CPU seconds the process spends between the end of one slice and the
#: start of the next (about 5% of the run goes to slices).
INTERVAL_S = 0.02
#: How long one slice takes on the reference host.  Its value only sets
#: the scale of the normalised figures; it must never change, or figures
#: from before and after the change stop being comparable.
REFERENCE_SLICE_S = 0.001
#: How much more the program slows than the slice: its run time grows as
#: the mean slice time to this power (measured; see above).
SENSITIVITY = 1.3
#: Fewer slices than this cannot say how fast the host was.
MIN_SLICES = 10


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total & 7


class HostSpeedSampler:
    """Runs and times slices of reference work on ``SIGPROF`` while started."""

    def __init__(self) -> None:
        self._table = {index: index for index in range(1 << 14)}
        self._cells = [_Cell() for _ in range(512)]
        self._seed = 12345
        self._previous_handler = None
        self.slices = 0
        self.slice_s = 0.0

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in slices so far."""
        return time.perf_counter() - self.slice_s

    def factor(self) -> float:
        """How much slower the program runs than on the reference host (> 1:
        a slow host), from the slices so far."""
        if self.slices < MIN_SLICES:
            raise RuntimeError(
                f"{self.slices} host-speed slices; at least {MIN_SLICES} are needed"
            )
        return (self.slice_s / self.slices / REFERENCE_SLICE_S) ** SENSITIVITY

    def _on_signal(self, signum, frame) -> None:
        started = time.perf_counter()
        self._seed = self._reference_work(self._seed)
        self.slice_s += time.perf_counter() - started
        self.slices += 1
        # One-shot timer, re-armed here: a slice is never interrupted by
        # the next one, and its own CPU time does not count towards it.
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def _reference_work(self, state: int) -> int:
        """Interpreter work of the program's kind: dict reads and writes,
        attribute updates through method calls, integer arithmetic."""
        table = self._table
        cells = self._cells
        for step in range(SLICE_ITERATIONS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state & 16383
            table[key] = (table[key] + (step & 7)) & 0xFFFF
            cells[(state >> 14) & 511].add(table[(state >> 7) & 16383] & 15)
        return state
