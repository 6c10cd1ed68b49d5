"""The run's own speed index: how slow the machine is *right now*.

The reference box is a 2-vCPU microVM on a shared host: the same Python
code runs 1.6-1.8x slower in spells that last from seconds to tens of
minutes (measured with nothing else running: the kernel below took 1.6 ms
or 2.8 ms and nothing in between, on either CPU, pinned or not).  By the
wall clock every timing in this suite is bimodal, whole ten-pass series
land in one mode or the other, and no bound under 70 % could tell a
regression from a neighbour.

So the benchmark interleaves a fixed *kernel* with everything it times —
stdlib-only work shaped like a page-cache hit (split a URL, parse its
query, build a request record, derive the key, touch an LRU under a
lock), never a line of ``src/`` — and divides each timing by the
kernel's slowdown over the same stretch of wall time.  The kernel is
timed in *thread CPU seconds*, so waiting for the GIL behind a miss
thread does not count as the machine being slow.

What this rests on.  A neighbour must move kernel and program alike: a
ten-pass series run entirely in the slow mode and one run in the fast
mode had the same median ``sat_rps`` at reference speed within 3 % (and
44 % apart by the wall clock).  And the program must not move the kernel
— if its own cache or GIL pressure slowed the kernel, dividing by the
kernel would hide part of a regression.
``bench/speed_check.py`` is that experiment: idle, saturated and storm
stretches interleaved in one process, kernel sampled as here.  Measured:
the kernel costs 1-4 % more beside saturation traffic than beside an idle
gateway, 6-8 % less right after a storm burst (no sleep before it), on
every workload.  Run it again after a change that adds threads or working
set; if the ratios move, the index is unsafe for that comparison and the
wall-clock values — printed beside the normalised ones, kept in each
pass's ``detail.raw`` and in the suite file — are the ones to read.

``REFERENCE_S`` is a unit, not a claim about a box: it cancels in every
comparison of two runs and only fixes what "1.0" means.
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time
import urllib.parse
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict

#: Thread CPU seconds of one kernel() that count as slowdown 1.0 (about
#: what the reference box takes undisturbed, beside other work).
REFERENCE_S = 0.002
#: Samples this far outside a window still describe it (seconds).
PAD_S = 0.3

_URLS = [f"/cat?c={n % 100}&max={250 + n % 5 * 150}" for n in range(200)]
_LRU: "OrderedDict[str, int]" = OrderedDict((url, n) for n, url in enumerate(_URLS))
_LOCK = threading.RLock()


@dataclass
class _Request:
    path: str = "/"
    get: Dict[str, str] = field(default_factory=dict)
    post: Dict[str, str] = field(default_factory=dict)
    cookies: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)


async def _hit(url: str) -> str:
    parts = urllib.parse.urlsplit(url)
    request = _Request(path=parts.path, get=dict(urllib.parse.parse_qsl(parts.query)))
    key = request.path + "?" + urllib.parse.urlencode(sorted(request.get.items()))
    with _LOCK:
        _LRU.move_to_end(url)
    return key


def kernel() -> float:
    """One fixed unit of work; returns the thread CPU seconds it took."""
    began = time.thread_time()
    for url in _URLS:
        try:
            _hit(url).send(None)  # never suspends: runs to completion
        except StopIteration:
            continue
    return time.thread_time() - began


class SpeedLog:
    """Kernel samples over the run, and the slowdown of any stretch of it."""

    def __init__(self) -> None:
        self.at = array("d")
        self.cost = array("d")

    def sample(self) -> None:
        cost = kernel()
        self.at.append(time.perf_counter())
        self.cost.append(cost)

    async def keep_sampling(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel cost over [start, end] (padded) / reference:
        1.0 at reference speed, 1.7 with a busy neighbour.  Falls back to
        the nearest sample when the stretch holds none."""
        low = bisect_left(self.at, start - PAD_S)
        high = bisect_right(self.at, end + PAD_S)
        if low >= high:
            if not self.at:
                return 1.0
            nearest = min(max(low - 1, 0), len(self.at) - 1)
            low, high = nearest, nearest + 1
        return statistics.median(self.cost[low:high]) / REFERENCE_S

    def overall(self) -> float:
        return statistics.median(self.cost) / REFERENCE_S if self.cost else 1.0
