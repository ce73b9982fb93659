"""Wall times scaled to a nominal host speed.

The benchmark runs on shared machines whose CPU speed drifts under load
from other tenants: on the 2-CPU machine it was tuned on, with its own
container idle, the reference kernel below took 0.0105 s in one minute
and 0.017 s in the next, and the program's operations slowed in step, so
raw wall times of identical runs spread by 22-28% between quartiles.

A fixed reference kernel (subgroup closures in the table of an XOR group:
the same kind of dict, set and list work as the program's, but none of
its code) is timed before and after every measured operation, on the one
CPU the process and its children are pinned to. Each wall time is
multiplied by KERNEL_NOMINAL_S over the mean kernel time around it, which
gives seconds at the nominal host speed. Callers keep the raw times too.
"""

from __future__ import annotations

import os
import time

KERNEL_NOMINAL_S = 0.0105
KERNEL_REPEATS = 3
_N = 128
_TABLE = tuple(tuple(a ^ b for b in range(_N)) for a in range(_N))


def reference_kernel() -> int:
    """Close about 4000 three-generator subsets; returns the subgroup count."""
    subgroups: dict[frozenset[int], int] = {}
    for a in range(1, _N):
        for b in range(a + 1, _N, 2):
            gens = (a, b, a * b % _N)
            found = [0]
            seen = {0}
            i = 0
            while i < len(found):
                row = _TABLE[found[i]]
                for g in gens:
                    y = row[g]
                    if y not in seen:
                        seen.add(y)
                        found.append(y)
                i += 1
            key = frozenset(seen)
            subgroups[key] = subgroups.get(key, 0) + 1
    return len(subgroups)


def pin_to_one_cpu() -> int | None:
    """Keep this process and the children it starts on one CPU, so the
    kernel is timed on the CPU the measured work ran on. Returns the CPU,
    or None where the platform does not allow it."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def kernel_s() -> float:
    """Fastest of a few runs of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Times operations and the host speed around each of them."""

    def __init__(self) -> None:
        self._last = kernel_s()
        self.factors: list[float] = []

    def time(self, fn):
        """Run fn(); return its result, the raw wall seconds, and the factor
        that scales them to the nominal host speed."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        before, self._last = self._last, kernel_s()
        factor = 2 * KERNEL_NOMINAL_S / (before + self._last)
        self.factors.append(factor)
        return result, raw, factor
