"""Reference timing that follows the host's speed.

On a shared virtual machine the CPU speed available to one core drifts:
by up to a factor of two over seconds to minutes, as other tenants load
the host, and each core drifts on its own. A fixed reference task
written in the same style as the package (tuple cell swaps and dict
lookups), run on the same core every few tens of milliseconds, slows
down with it. Each timing the benchmark reports is scaled by

    REFERENCE_S / (median reference time sampled during and around it)

that is, reported at the speed at which the reference task takes
REFERENCE_S; the time spent sampling is taken out of the timing first.
The program's own cost is left whole: a change that makes an operation
slower moves its scaled time by the same share.
"""

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

# The reference task's time on a 2-core x86-64 VM (Python 3.11) in its
# faster periods; scaled times then read as wall times there.
REFERENCE_S = 0.0007
INTERVAL_S = 0.04  # time between samples
MARGIN_S = 0.25  # samples this close to a timing also count for it

clock = time.perf_counter


def reference_task(loops=1500):
    seen = {}
    cells = list(range(8))
    for i in range(loops):
        j = i & 7
        k = j ^ (1 << (i % 3))
        cells[j], cells[k] = cells[k], cells[j]
        key = tuple(cells)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Gauge:
    def __init__(self):
        self.at = []  # start of each sample, increasing
        self.took = []  # its duration
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a timer signal that arrived during a sample
            return
        self._busy = True
        t0 = clock()
        reference_task()
        self.at.append(t0)
        self.took.append(clock() - t0)
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample every INTERVAL_S from a timer signal while the body
        runs in this process."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, t0, t1):
        return slice(bisect.bisect_left(self.at, t0),
                     bisect.bisect_left(self.at, t1))

    def net(self, t0, t1) -> float:
        """Seconds from t0 to t1 less the sampling done in between."""
        return t1 - t0 - sum(self.took[self._between(t0, t1)])

    def factor(self, t0, t1, margin=MARGIN_S) -> float:
        near = self.took[self._between(t0 - margin, t1 + margin)]
        return REFERENCE_S / statistics.median(near or self.took)

    def run_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.took)
