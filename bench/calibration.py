"""The CPU probe that calibrates timings against host contention.

Standard library only: ``one_round.py`` runs the probe before it imports
anything else, to calibrate its set-up time.

The reference machine is a 2-CPU guest on a shared host.  Other tenants
slow its CPUs by up to about 2x, in bursts that last from a fraction of
a second to minutes, so the wall-clock latency of one workload moves by
30-60% from run to run with no change to the code.  The slowdown hits a
fixed piece of Python by about the same factor as it hits a request at
the same moment.

So the closed loops time :func:`probe` before every request and after
the last one.  A request's *calibrated* latency is its latency times
``REFERENCE_S`` over the mean of the two probes around it: its latency at
the CPU speed the probe measures on the reference machine with the host
quiet.  Set-up is calibrated the same way, by the medians of a few
probes just before and just after it.  The probe uses no library code,
so no change to the library moves it.  A change that leaves work running
between requests slows the probe too, and so reads better calibrated
than it is: compare the wall-clock figures, which every run prints
beside the calibrated ones.
"""

from __future__ import annotations

import statistics
import time

#: The probe's duration on the reference machine with the host quiet.
REFERENCE_S = 0.82e-3


def probe(clock=time.perf_counter):
    """Run the fixed probe loop once; returns its duration in seconds."""
    start = clock()
    table = {}
    for i in range(8000):
        key = i % 97
        table[key] = table.get(key, 0) + i
    return clock() - start


def probe_median(runs=3):
    """The median duration of ``runs`` probes in a row."""
    return statistics.median(probe() for _ in range(runs))


def calibrated(seconds, probe_s):
    """``seconds`` at the reference speed, given the probe time around
    them."""
    return seconds * REFERENCE_S / probe_s
