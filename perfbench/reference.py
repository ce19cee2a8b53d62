"""Fixed reference work that expresses timings at a constant machine speed.

On a host whose CPUs are shared with other machines, the same quandlekit
call can take 3 s in one minute and 6 s in the next, while the work done
is identical, and a fixed interpreter-and-numpy loop slows by the same
factor.  The benchmark therefore times slices of such a loop next to the
work it measures and reports each stretch of work as

    seconds * REF_S / (mean time of the slices timed during it)

in "reference seconds": seconds as they would read if a slice took REF_S.
During measured passes a `Probe` times one slice every PROBE_INTERVAL of
CPU time, inside ops too; short steps (set-up, kernel micro-timings) are
bracketed by `reference_seconds()`.  A slice uses only the interpreter
and numpy, in the same mix as quandlekit's hot paths (dict and integer
work, fancy indexing of a small int64 table), and none of quandlekit, so
a change to the program cannot move it.  Raw seconds are kept next to
the scaled ones in every result.
"""

import signal
import statistics
import time

import numpy as np

REF_S = 0.0011             # about one slice's time on a quiet 2.1 GHz Xeon
PROBE_INTERVAL = 0.1       # seconds of process CPU time between slices
_TABLE = np.arange(32 * 32).reshape(32, 32) % 32


def _slice():
    d = {}
    for i in range(8000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    _TABLE[_TABLE[:, None, :], _TABLE[None, :, :]]


def _timed_slice():
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def reference_seconds(repeat=15):
    """Median time of one slice over `repeat` slices."""
    return statistics.median(_timed_slice() for _ in range(repeat))


def scale(before, after):
    """Factor that turns seconds measured between two reference timings
    into reference seconds."""
    return REF_S / ((before + after) / 2)


class Probe:
    """Times one slice every PROBE_INTERVAL of CPU time (SIGVTALRM, no
    thread).  `spent` is the total time slices took, for callers to
    subtract from what they measure; `take()` returns the slice times since
    the last call."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def _on_signal(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(_timed_slice())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGVTALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL, PROBE_INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def take(self):
        samples, self.samples = self.samples, []
        return samples
