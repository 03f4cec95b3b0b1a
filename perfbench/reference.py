"""Machine-speed reference: a fixed pure-Python kernel timed between operations.

The host is shared, and the speed of one core changes by up to 1.6x from one
10 s window to the next, for interpreted code and numpy alike.  So every
time the benchmark gates on is scaled to a fixed reference speed:

    scaled = wall * NOMINAL_S / slice

where `slice` is the median time of the reference kernel measured within
`WINDOW_S` of the interval.  The kernel lives in the benchmark, not the
library, so a change to the library moves scaled times exactly as it would
move wall times on a machine of constant speed.  `NOMINAL_S` is about the
slice's time at the fastest speed seen on a 2-vCPU Intel Xeon under CPython
3.11, so scaled times read close to wall times there when it is not loaded.
"""

import bisect
import statistics
import time

clock = time.perf_counter

SLICE_LOOPS = 6000
NOMINAL_S = 0.45e-3         # seconds per slice, see above
PROBE_SLICES = 3            # a probe is the median of this many slices
PROBE_EVERY_S = 0.05        # between operations, at most this often
PROBE_MAX = 20              # after a long operation, one probe per PROBE_EVERY_S, up to this
WINDOW_S = 1.0


def _slice():
    x = 0
    for i in range(SLICE_LOOPS):
        x = (x * 31 + i) % 1000003
    return x


class Reference:
    """Probes of the kernel, by time, and the scale factor they give."""

    def __init__(self):
        self.times = []         # when each probe ended
        self.slices = []        # its median slice time, seconds
        self._last = -float("inf")

    def probe(self, count=1):
        for _ in range(count):
            ts = []
            for _ in range(PROBE_SLICES):
                t0 = clock()
                _slice()
                ts.append(clock() - t0)
            self._last = clock()
            self.times.append(self._last)
            self.slices.append(statistics.median(ts))

    def maybe_probe(self):
        due = int((clock() - self._last) / PROBE_EVERY_S)
        if due:
            self.probe(min(due, PROBE_MAX))

    def scale(self, start, end):
        """NOMINAL_S over the median slice of the probes within WINDOW_S of
        [start, end], and always the nearest probe on each side."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.times, start) - 1))
        hi = max(hi, min(len(self.times), bisect.bisect_right(self.times, end) + 1))
        return NOMINAL_S / statistics.median(self.slices[lo:hi])

    def speed(self):
        """Median machine speed over all probes, as a share of the nominal."""
        return NOMINAL_S / statistics.median(self.slices)
