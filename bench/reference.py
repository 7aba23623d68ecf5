"""Machine-speed reference for the benchmark's timings.

The benchmark shares a host with other tenants, and the speed it gets from
the host drifts by up to half within minutes.  A fixed loop of the
benchmark's own, timed next to the program, measures that speed; timings
are scaled by REFERENCE_S / (the loop's time), which gives what they would
have been had the machine run at the speed where the loop takes
REFERENCE_S.  A change to the program does not change the loop, so a slower
program still reads slower.
"""

import statistics
import time

# About the loop's time in a fresh interpreter on the 2-vCPU Xeon the
# bounds were set on (Python 3.11, numpy 2.4): the speed every scaled timing
# refers to.  Right after an operation the loop runs slower, on caches the
# program left, so scaled operation timings read below wall time.
REFERENCE_S = 0.0025


def reference_seconds():
    """Wall time of a fixed mix like the program's own work: small numpy
    arrays, Python loops and float formatting."""
    import numpy as np  # not at module top: run.py pins BLAS threads first

    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 400)
    s = 0.0
    for i in range(300):
        s += float(np.sqrt(x * x + i).sum())
        s += sum(j * 0.5 for j in range(40))
        _ = "%.6e,%.6e" % (s, i)
    return time.perf_counter() - t0


def speed(refs):
    """Scale factor for timings taken next to the reference times `refs`."""
    return REFERENCE_S / statistics.median(refs)
