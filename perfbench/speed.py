"""Speed meter: the machine's speed of the moment, sampled while ops run.

On a shared machine the CPU's speed drifts by 10-20% within seconds and
over minutes, far more than the changes the benchmark must resolve.  The
normalized end-to-end metrics rescale each op's latency by the speed
measured next to it, so that drift cancels and a change to the program
does not.
"""

import bisect
import math
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.005   # one sample of the kernels per 5 ms of wall time
WINDOW_S = 0.1     # samples this close to an op set its speed


def float_kernel():
    """Integer and float arithmetic in a plain loop."""
    x, n = 0.5, 0
    for k in range(1, 300):
        x = x * 0.999 + k * 1e-3
        n = (n * 31 + k) & 0xFFFF
    return x, n


def object_kernel():
    """Big-integer fractions and short-lived containers."""
    total = Fraction(0)
    for k in range(1, 12):
        total += Fraction(math.factorial(k + 10),
                          math.factorial(k) * (2 * k + 1))
    d = {}
    for k in range(60):
        d[k] = [k, float(k), (k, k + 1)]
    return total, len(d)


# (kernel, its time at the reference speed).  The speed meter's work
# should resemble the workload's: figures is float geometry; the exact
# sums and mpmath of the symbol workloads allocate big integers and
# small objects.
_FLOAT = (float_kernel, 5e-5)
_OBJECT = (object_kernel, 8e-5)
KERNELS = {"symbols-small": (_FLOAT, _OBJECT),
           "sweep-large": (_FLOAT, _OBJECT),
           "figures": (_FLOAT,)}


class SpeedMeter:
    """Samples the machine's speed while the timed ops run.

    Every PERIOD_S of wall time a SIGALRM handler times one call of each
    kernel; `spent` totals the handler's time, which callers subtract
    from their op latencies.  `scale_around` is the factor that rescales
    an op to the reference speed: the kernels' reference time over their
    median time next to the op.
    """

    def __init__(self, kernels):
        self.kernels = [k for k, _ in kernels]
        self.ref_s = sum(ref for _, ref in kernels)
        self.at = []
        self.cost = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.cost.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._sample(None, None)   # so that no run is without a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale_around(self, t0, t1):
        """Reference over median kernel time, from the samples within
        WINDOW_S of [t0, t1], or from all when there are none."""
        i = bisect.bisect_left(self.at, t0 - WINDOW_S)
        j = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return self.ref_s / statistics.median(self.cost[i:j] if j > i
                                              else self.cost)
