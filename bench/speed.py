"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared virtual machine the CPU slows down and speeds up by a quarter
or more over tens of seconds.  That drift, not the program, then sets the
run-to-run spread of every wall time.  The kernel uses neither the package
nor anything it produced.  It is timed next to every measurement of a run,
and the run's times are scaled by ``NOMINAL_S / median(kernel times)``:
they are reported at the speed at which the kernel takes ``NOMINAL_S``.
On a shared 2-core virtual machine this halved the run-to-run spread;
the kernel tracks the drift only in part.
"""

import statistics
import time

import numpy as np

# kernel passes around a warm operation that set its local speed
WINDOW = 9

# median kernel time on the shared 2-core virtual machine the bounds were set on
NOMINAL_S = 0.005

_DATA = np.random.default_rng(0).random(20_000)


def probe() -> float:
    """Seconds one pass of the reference kernel takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i % 7
    for _ in range(8):
        np.sort(_DATA)
    return time.perf_counter() - start


def factor(probes: list[float]) -> float:
    """Scale that turns this run's wall times into times at nominal speed."""
    return NOMINAL_S / statistics.median(probes)


def steady(times: list, probes: list[float]) -> list:
    """Operation times at the run's median speed, from the passes around each.

    ``probes[i]`` is the kernel pass timed just before operation i.
    Operation i is scaled by median(probes) / (median of the WINDOW passes
    centred on it), which takes out slowdowns of a few seconds that a
    run-wide factor cannot.  A failed operation (None) stays None.
    """
    run = statistics.median(probes)
    h = WINDOW // 2
    return [None if t is None else t * run / statistics.median(probes[max(0, i - h):i + h + 1])
            for i, t in enumerate(times)]
