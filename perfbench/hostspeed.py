"""Run on the least contended of the CPUs this process may use.

The benchmark gets a few vCPUs of a shared host.  Other tenants' load makes
one vCPU run the same code up to 1.6 times slower than another, in
stretches from seconds to minutes, and the vCPUs change state independently.
Before each measured interval the benchmark times a short fixed loop on
every allowed CPU and pins itself to the fastest, so fewer intervals fall
into a slow stretch.  This changes only where the process runs, never what
it runs or how the interval is timed.
"""

from __future__ import annotations

import os
import time

ALLOWED = sorted(os.sched_getaffinity(0))


def _loop_seconds():
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_fastest_cpu():
    """Pin this process to the allowed CPU that runs the loop fastest now."""
    if len(ALLOWED) < 2:
        return
    timings = []
    for cpu in ALLOWED:
        os.sched_setaffinity(0, {cpu})
        timings.append((_loop_seconds(), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def unpin():
    """Allow every CPU again, so that child processes may use them all."""
    os.sched_setaffinity(0, ALLOWED)
