"""Host speed gauge: rescale a child's wall time to a host of fixed speed.

The benchmark's host is shared, and the speed of one CPU swings by up
to two times from one second or minute to the next; the child's CPU
time swings with its wall time, so the child is not waiting but
running slower.  The runner therefore pins itself, and so every child
it starts, to one CPU.  While a child runs, a gauge thread on that same
CPU times a fixed unit of pure-Python work every :data:`PERIOD`
seconds; the CPU's scheduler lets the woken thread in between the
child's instructions.  A child that took ``wall`` seconds while the
median unit took ``u`` seconds took ``wall * REFERENCE_S / u`` seconds
on the reference host, one where a unit takes :data:`REFERENCE_S`.

The unit depends on nothing under ``src/``, so a change to the program
moves rescaled times as it moves wall times, and never the unit.  The
gauge costs the child about 2 % of its CPU, the same on every commit.
A gauge on the *other* CPU follows the child's speed much worse, so the
swings are the CPU's own, not the host's as a whole.
"""

import os
import statistics
import threading
import time

#: Seconds between units.
PERIOD = 0.02

#: Seconds one unit takes on the reference host: about its median on
#: a 2-CPU development container.
REFERENCE_S = 0.00036

_DATA = tuple(range(2000))


def unit():
    """Time one fixed unit of dictionary work."""
    start = time.perf_counter()
    counts = {}
    for value in _DATA:
        counts[value & 255] = counts.get(value & 255, 0) + value
    return time.perf_counter() - start


def pin_to_one_cpu():
    """Pin the calling thread, and so the threads and children it
    starts from now on, to the highest CPU it may run on; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Gauge:
    """Times units in a thread from entry to exit; ``factor()`` then
    turns a wall time measured in between into reference seconds."""

    def __init__(self):
        self.units = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            self.units.append(unit())
            if self._stop.wait(PERIOD):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def factor(self):
        return REFERENCE_S / statistics.median(self.units)
