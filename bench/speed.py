"""Machine-speed probe used to normalize the benchmark's timings.

A shared virtual-machine CPU can change speed by a factor of two within
seconds (a fixed pure-Python loop alternates between about 65 and 105 ms),
and a 25 s run does not average that out: one grey Gram check varied by
25 % (quartile spread) over 28 repeats.  Rescaling each operation's time to
the speed at which a short reference kernel takes NOMINAL_S cut that to
15 % with the kernel timed before and after the operation, and to 8 % with
samples taken during it as well.

Samples during an operation come from a SIGALRM interval timer whose
handler runs the kernel once (about 1 ms every 50 ms).  The handler's time
is subtracted from the operation's latency.  Python runs the handler
between bytecodes, so a long native call delays a sample but is not
interrupted.

Not every kind of work slows down as much as the pure-Python kernel does.
Work done in numpy and the imports of set-up scale with the kernel's time
to a power below one, so normalized() takes that power as an exponent.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

ITERATIONS = 4_000
NOMINAL_S = 0.001      # kernel time that defines one normalized second
PERIOD_S = 0.05        # sampling interval during an operation
BOUNDARY_REPEATS = 5


def kernel() -> float:
    """Seconds for a fixed pure-Python float loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, ITERATIONS + 1):
        acc += math.log(i) * math.exp(-1e-5 * i)
    dt = time.perf_counter() - t0
    if not acc > 0:
        raise ArithmeticError("reference kernel lost its result")
    return dt


def boundary() -> float:
    """Mean kernel time over a few back-to-back repeats."""
    return statistics.fmean(kernel() for _ in range(BOUNDARY_REPEATS))


class Probe:
    """Samples the kernel on a timer while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def normalized(seconds: float, kernel_s: float, exponent: float = 1.0) -> float:
    """seconds rescaled to the speed at which the kernel takes NOMINAL_S.

    ``exponent`` is how strongly the timed work follows the kernel's speed:
    1 for work that slows down exactly as the kernel does.
    """
    return seconds * (NOMINAL_S / kernel_s) ** exponent
