"""The host's speed, probed around and during solves, to take its drift out of the timings.

On a shared host the speed of one core drifts by up to 1.7 times over
seconds to minutes, and process CPU time drifts with it, so whole runs fall
into fast or slow periods.  A fixed reference kernel of pure Python, the
same kind of work as the program's (exact fractions, tuples, dicts, a
sort), slows down by the same factor: in a 80-second trace the time of a
k = 4 count ranged from 11.4 to 21.9 ms over 10-second windows while its
ratio to the kernel stayed within 5.8 to 6.2.

The speed also changes within a solve of seconds.  So ``Clock`` probes the
kernel between solves, at most every ``PROBE_EVERY`` seconds, and, from an
interval timer, every ``PROBE_EVERY`` seconds inside a solve; the time of
those probes is taken off the solve's.  Eight k = 6 counts took 2.3 to 4.2 s;
scaled by the probes just before and after each, 1.9 to 3.2 s; scaled by
the probes around and inside each, 2.0 to 2.3 s.  A solve's time is scaled
by ``NOMINAL_S`` over the mean of its probes, which gives seconds at the
speed where a probe takes ``NOMINAL_S``.  The kernel does not call the
program, so no change to the program can move it.
"""

from __future__ import annotations

import os
import signal
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.00105  # a probe on a 2-vCPU Xeon host in a fast period
PROBE_EVERY = 0.2
PROBE_REPEAT = 5


def kernel() -> int:
    """About a millisecond of exact arithmetic, hashing and sorting."""
    buckets: dict[tuple[int, int, int], int] = {}
    for i in range(1, 320):
        x = Fraction(i, 4 ** (i % 6 + 1)) + Fraction(i % 7 + 1, 3)
        key = (x.numerator % 101, x.denominator, i % 13)
        buckets[key] = buckets.get(key, 0) + 1
    return len(sorted(buckets.items(), key=lambda kv: (kv[1], kv[0])))


def probe() -> float:
    """Shortest time of ``PROBE_REPEAT`` runs of the kernel: an interrupt only lengthens one."""
    times = []
    for _ in range(PROBE_REPEAT):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return min(times)


def pin_to_current_cpu() -> None:
    """Keep this process, and the processes it starts, on the CPU it runs on now.

    The vCPUs of a shared host need not run at the same speed; a process
    that migrated during a solve would be timed on one and probed on the
    other.  Does nothing where the platform cannot tell or set it.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


class Clock:
    """Probes the kernel between and during timed sections, such as solves.

    Call ``before()`` just ahead of each timed section and ``stop()`` just
    after it, then ``after()`` once all are done.  With ``during`` an
    interval timer runs the probe every ``every`` seconds inside a section;
    ``stop()`` returns the time those probes took, which the caller takes off
    the section's time.  A section's speed is the mean of the probe just
    before it, the probes inside it and the next probe after it.
    ``normalised()`` then turns raw seconds into seconds at the nominal speed.
    """

    def __init__(self, every: float = PROBE_EVERY, during: bool = True) -> None:
        self.every = every
        self.during = during and hasattr(signal, "setitimer")
        self.probes: list[float] = []
        self.last = float("-inf")
        self.sections: list[tuple[int, int]] = []  # probe before, probes taken by the end
        self.inside = 0.0

    def _on_timer(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probes.append(probe())
        self.inside += perf_counter() - t0

    def before(self) -> None:
        if perf_counter() - self.last >= self.every:
            self.probes.append(probe())
            self.last = perf_counter()
        self.start = len(self.probes) - 1
        self.inside = 0.0
        if self.during:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> float:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sections.append((self.start, len(self.probes)))
        return self.inside

    def after(self) -> None:
        self.probes.append(probe())
        self.last = perf_counter()

    def factor(self, i: int) -> float:
        """Nominal over measured kernel time around section ``i``: below 1 when the host is slow."""
        first, end = self.sections[i]
        around = self.probes[first : end + 1]
        return NOMINAL_S / (sum(around) / len(around))

    def normalised(self, raw: list[float]) -> list[float]:
        return [t * self.factor(i) for i, t in enumerate(raw)]
