"""Time one fresh-process set-up of a workload.

Prints the set-up's seconds and then the calibration kernel's milliseconds,
measured in the same process just after it, on one line of stdout.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>`` with ``src``
and ``perfbench`` on ``PYTHONPATH``.  The timed span is the import of
``repro`` (and of the workload definitions that import it) plus the
construction of the first unit's program objects; generating that unit's
inputs is excluded, as it is from every unit's timing.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (the import is what is timed)

imported = time.perf_counter() - start
workload = workloads.WORKLOADS[sys.argv[1]]
inputs = workload.inputs(int(sys.argv[2]), 0)
start = time.perf_counter()
workload.build(inputs)
seconds = imported + time.perf_counter() - start

# The calibration kernel, timed in this process after the set-up, reads the
# speed of the CPU the set-up ran on; the harness scales by it.
import calib  # noqa: E402

print(seconds, calib.measure())
