"""Host-speed calibration for timings taken on a shared, drifting machine.

On a shared cloud host the same unchanged job can take 0.41 s in one
minute and 0.72 s a few minutes later, because other tenants slow the
cores.  Comparing two commits measured at different times then mostly
compares the host with itself.  So the benchmark times a fixed pure-Python
calibration between operations.  The calibration is part of the benchmark
and the same on every commit.  A time t measured next to a calibration
time c is reported as t * REFERENCE_S / c, the time on a host that runs the
calibration in REFERENCE_S.  Each calibration sample is the fastest
of three back-to-back runs, so a first run on cold caches (right after a
job process exits) does not count.

The calibration sums exact fractions whose denominators have about 32k
bits, as the Mobius-series sums do.  A neighbour slows different kinds of
work by different amounts.  On the reference host the time of every
workload followed this calibration more closely than it followed modular
doubling on small integers, which a neighbour slowed by about twice as
much as it slowed a series job.

The calibration runs in a child interpreter of its own, started before the
first operation and kept for the whole run.  The state of the program under
test, a grown heap or a thread left running, then cannot slow the
calibration and be divided out of the program's own times.  The child may
use the CPUs the benchmark may use.  The two CPUs of a shared host slow
down independently, so a sample is the mean over those CPUs of the
calibration pinned to each one.
"""

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

_RECENT = 3  # samples in the running median
_INTERVAL_S = 1.0  # sample at most this often
_BIG = 3**20_000
# the calibration's usual time on the 2-CPU cloud host the baseline was
# measured on; any fixed value works, this one keeps scaled times close to
# times as measured there
REFERENCE_S = 0.0025


def _calibration():
    total = Fraction(0)
    for d in range(1, 40):
        total += Fraction(d, _BIG * (2 * d + 1) * (d + 5))


def _timed() -> float:
    t0 = time.perf_counter()
    _calibration()
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples from a child interpreter; close() stops it."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def close(self):
        self._child.stdin.close()
        self._child.wait()

    def sample(self):
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        self.samples.append(float(self._child.stdout.readline()))
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= _INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor taking a time measured now to the reference host speed."""
        return REFERENCE_S / statistics.median(self.samples[-_RECENT:])


def _serve():
    """Answer each line on stdin with one calibration sample in seconds."""
    cpus = sorted(os.sched_getaffinity(0))
    for _ in range(10):  # the host runs a freshly started process slowly at first
        _timed()
    for _ in sys.stdin:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(min(_timed() for _ in range(3)))
        print(statistics.fmean(times), flush=True)


if __name__ == "__main__":
    _serve()
