"""Calibration kernel that cancels machine-speed drift out of timings.

Shared virtual machines change speed from second to second: the same code
and seed can run 50% faster in one run than in the next, and the kernel
below runs 20% faster in one tenth of a second than in the next.  The harness
times this fixed, benchmark-owned kernel just before and just after every
unit and, through :class:`Sampler`, every :data:`TICK_S` seconds while the
unit runs, and scales the unit's timings by ``REFERENCE_MS / calib_ms``, the
median of those samples.  A machine that ran the kernel slowly ran the unit
slowly too, so the scaled figure reads as if both had run at the reference
speed.  Bracketing alone misses the speed changes inside a unit of seconds.

The kernel mixes the operations the library spends its time on: interpreted
integer arithmetic, list and dict traffic, attribute calls, and a short NumPy
call.  It allocates little and touches no file.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Median kernel time on the reference machine (2-core x86-64 VM, CPython
#: 3.11, NumPy 2.x).  Scaling by it makes corrected figures read in that
#: machine's units; raw figures are reported beside them.
REFERENCE_MS = 0.6

#: Kernel repetitions per measurement; the median damps single preemptions.
REPEATS = 5

_ARRAY = np.arange(4096, dtype=np.int64)


def kernel() -> int:
    """One fixed unit of mixed interpreter and NumPy work."""
    table: dict[int, int] = {}
    values: list[int] = []
    acc = 7
    for index in range(1500):
        acc = (acc * 1103515245 + index) & 0xFFFF
        table[acc & 511] = index
        values.append(acc)
    values.sort()
    total = sum(table.values()) + len(values)
    total += int(np.cumsum(_ARRAY[: len(values)]).sum() & 0xFF)
    return total


def measure() -> float:
    """Median kernel time in milliseconds over :data:`REPEATS` runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


#: Seconds between kernel samples taken while a unit runs.
TICK_S = 0.05


class Sampler:
    """Times the kernel on a ``SIGALRM`` interval timer while active.

    The handler runs in the main thread between bytecodes, so the program's
    own state is untouched; its time (``spent``, about 1% of the unit) is
    taken out of the unit's timings by the harness.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.spent = 0.0
        self._previous: object = None

    def _tick(self, _signum: int, _frame: object) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples_ms.append(elapsed * 1e3)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
