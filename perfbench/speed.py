"""Host-speed probe: a fixed pure-Python work unit timed inside the
measured process, so timings can be put at one reference speed.

A shared host does not give a process a steady core: the same
interpreter work runs up to ~1.7x slower for tens of seconds at a time,
and each virtual CPU changes speed on its own, so a probe in another
process says nothing about the measured one.  So the probe runs in the
measured process itself, on a ``SIGALRM`` interval timer: every
:data:`PERIOD_S` the handler runs :func:`reference` (a fixed unit of
dict, tuple, set and call work, nothing from ``src/``) and records
``(start, wall seconds, thread CPU seconds)``.  The samples are written
out when the process ends.

:func:`scale` is the mean CPU time of the unit in a window over
:data:`REFERENCE_S`: above 1 when the host ran slower than the reference
speed.  A time divided by it (a rate multiplied by it) is the time at
the reference speed; a change to the program moves it, the host's fast
and slow phases do not.  The unit's CPU time, not its wall time, is the
measure: a stretch the virtual CPU was not running at all (stolen by the
host) lands on one sample in fifty, and would swing the mean.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
from time import perf_counter, thread_time
from typing import List, Sequence, Tuple

#: seconds between probes
PERIOD_S = 0.05
#: CPU seconds :func:`reference` takes at the reference speed (a fixed
#: constant, about its time on a fast phase of a 2-vCPU Xeon VM)
REFERENCE_S = 0.001
#: fewest samples a speed estimate rests on
MIN_SAMPLES = 3

#: ``(start, wall seconds, CPU seconds)`` of one probe
Sample = Tuple[float, float, float]


def reference() -> int:
    """The fixed work unit: interpreter work of the kind the program does
    (small dicts, tuples, frozensets, calls)."""
    table: dict = {}
    total = 0
    for i in range(1500):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + 1
        total += len(frozenset((i, i >> 1, key)))
    return total + len(table)


class Probe:
    """Times :func:`reference` every :data:`PERIOD_S` of wall time."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.work = reference

    def _tick(self, _signum, _frame) -> None:
        # The unit's allocations must not set off a collection of the
        # program's heap: that would time the heap, not the host.
        collecting = gc.isenabled()
        gc.disable()
        start, cpu = perf_counter(), thread_time()
        self.work()
        took, took_cpu = perf_counter() - start, thread_time() - cpu
        if collecting:
            gc.enable()
        self.samples.append((start, took, took_cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.samples, handle)


def load(path: str) -> List[Sample]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(row) for row in json.load(handle)]


def _window(samples: Sequence[Sample], start: float, end: float,
            least: int = 0) -> Sequence[Sample]:
    """The samples taken in ``[start, end)``, extended past ``end`` to
    ``least`` samples where the window holds fewer."""
    lo = bisect.bisect_left(samples, (start,))
    hi = bisect.bisect_left(samples, (end,))
    return samples[lo:max(hi, lo + least)]


def scale(samples: Sequence[Sample], start: float, end: float) -> float:
    """Mean CPU time of the unit in ``[start, end)`` (at least
    :data:`MIN_SAMPLES` samples) over :data:`REFERENCE_S`.  The mean, not
    the median: the host can switch speed within a window, and the work
    done in it follows the mean."""
    window = _window(samples, start, end, MIN_SAMPLES)
    if len(window) < MIN_SAMPLES:
        raise RuntimeError(f"too few speed probe samples from {start:.3f} s on")
    return statistics.mean(cpu for _s, _wall, cpu in window) / REFERENCE_S


def probe_seconds(samples: Sequence[Sample], start: float, end: float) -> float:
    """Wall seconds the probe itself took in ``[start, end)``."""
    return sum(wall for _s, wall, _cpu in _window(samples, start, end))
