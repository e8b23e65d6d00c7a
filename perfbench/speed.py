"""The machine's speed, measured by a fixed pure-Python kernel.

On a shared virtual machine (measured: a 2-vCPU 2.1 GHz Xeon VM) other
tenants slow every process by up to 2x, for seconds to minutes at a
time, and a whole run can fall inside one slow spell.  The slowdown is
close to uniform across Python code: in paired runs, case times scaled
by the kernel's speed moved by 2-7% where the raw times moved by
24-42%.  So the benchmark times the kernel before each case (at most
EVERY_S seconds before it) and right after each case longer than
AFTER_S, and reports every time scaled to the speed at which the kernel
takes REF_S.

The kernel does only what the library does most (tuple keys, dict
updates, big integers, sorting) and calls nothing in the library, so a
change to the library cannot change its time.
"""

from __future__ import annotations

import time

# the kernel's fastest time on a quiet 2.1 GHz Xeon vCPU; scaled times
# read as seconds at that speed
REF_S = 0.0006
# the longest gap between two samples of the speed
EVERY_S = 0.02
# cases that take longer are followed by a fresh sample
AFTER_S = 0.005


def _kernel() -> float:
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(1500):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + (i << 70)
        if i % 300 == 0:
            sorted(d)
    return time.perf_counter() - t0


def sample() -> float:
    """The kernel's time now: the fastest of three runs (about 2 ms)."""
    return min(_kernel(), _kernel(), _kernel())


def scale(seconds: float, before: float, after: float) -> float:
    """A time measured between two kernel samples, at reference speed.

    The faster sample sets the speed, so a burst that slows a sample but
    not the case cannot make the case look faster than it ran; a case's
    fastest pass then drops the bursts that slowed the case itself.
    """
    return seconds * REF_S / min(before, after)
