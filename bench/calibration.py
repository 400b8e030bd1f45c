"""A fixed pure-Python task whose time tracks the machine's current speed.

On a shared 2-core virtual machine, speed drifts by about 20% over tens of
seconds and jumps for shorter spells, so measured times are scaled to a
machine on which calibration_s() takes REFERENCE_S.
This module never imports opine, so a change to opine cannot move it.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.010


class _Item:
    __slots__ = ("key", "name", "links")

    def __init__(self, key, name):
        self.key = key
        self.name = name
        self.links = {}


def calibration_s() -> float:
    """Time one run of the task.

    Like the engine, it allocates small objects, probes dicts, builds tuples
    and formats strings.  The collector is off so that the heap left by
    earlier work does not enter the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table: dict[tuple, list] = {}
    for i in range(6000):
        item = _Item(i, str(i))
        table.setdefault((i % 97, i & 7), []).append(item)
        item.links["peers"] = len(table.get((i % 89, 0), ()))
    keys = sorted(table, key=lambda k: (k[1], k[0]))
    " ".join(f"{a}:{b}" for a, b in keys)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed
