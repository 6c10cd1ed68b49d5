"""The benchmark's own load drivers: open loop, closed loop, updates, storm.

All of them run on the gateway's event-loop thread and reach the program
only through ``await get(url)`` (``AsyncGateway.get``), ``site.update``
and the pump's tick.  Nothing here is imported from ``src/``, so a later
change cannot move a number by editing the generator.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

from bench.workloads import Update

_now = time.perf_counter

Get = Callable[[str], Awaitable[object]]


def _ok(response: object) -> bool:
    return getattr(response, "status", None) == 200 and bool(
        getattr(response, "body", "")
    )


@dataclass
class PacedResult:
    sent: int = 0
    within: int = 0
    failed: int = 0
    first_error: Optional[str] = None
    #: Completion minus *due* time of every good response (seconds) ...
    latency: array = field(default_factory=lambda: array("d"))
    #: ... and when it completed (perf_counter), in the same order.
    done_at: array = field(default_factory=lambda: array("d"))
    #: How late each arrival was issued (seconds).
    lateness: array = field(default_factory=lambda: array("d"))
    #: (url, body) of one response in ``sample_every``.
    samples: List[Tuple[str, str]] = field(default_factory=list)


async def paced(
    get: Get,
    urls: Sequence[str],
    rate: float,
    limit_s: float,
    sample_every: int,
) -> PacedResult:
    """Open loop: ``urls[i]`` is due at ``start + i / rate`` whatever the
    program does; one task per arrival; latency is charged from the due
    time, so a stall shows as the backlog it causes.  The generator
    sleeps to the next due arrival and never spins — a spinning loop
    thread convoys the GIL against the miss threads.
    """
    result = PacedResult()
    interval = 1.0 / rate
    tasks: List[asyncio.Task] = []

    async def one(number: int, due: float) -> None:
        try:
            response = await get(urls[number])
        except Exception as exc:  # a request the program failed is a result
            result.failed += 1
            result.first_error = result.first_error or repr(exc)
            return
        done = _now()
        if not _ok(response):
            result.failed += 1
            return
        result.latency.append(done - due)
        result.done_at.append(done)
        if done - due <= limit_s:
            result.within += 1
        if number % sample_every == 0:
            result.samples.append((urls[number], response.body))

    start = _now() + 0.005
    number, total = 0, len(urls)
    while number < total:
        # sleep(0) when behind: issued tasks only run once the generator yields
        await asyncio.sleep(max(0.0, start + number * interval - _now()))
        now = _now()
        while number < total:
            due = start + number * interval
            if due > now:
                break
            result.lateness.append(now - due)
            tasks.append(asyncio.ensure_future(one(number, due)))
            number += 1
            now = _now()
        if len(tasks) > 4096:  # one() never raises; finished tasks can go
            tasks = [task for task in tasks if not task.done()]
    await asyncio.gather(*tasks)
    result.sent = total
    return result


@dataclass
class SatResult:
    sent: int = 0
    failed: int = 0
    first_error: Optional[str] = None
    #: perf_counter at the start of slice 0.
    start: float = 0.0
    slice_s: float = 0.0
    #: Good responses completed in each whole slice.
    slices: List[int] = field(default_factory=list)


async def saturate(
    get: Get,
    rings: Sequence[Sequence[str]],
    seconds: float,
    slice_s: float,
    yield_every: int,
    on_slice: Optional[Callable[[int], None]] = None,
) -> SatResult:
    """Closed loop: one client per ring issuing back to back, yielding to
    the loop every ``yield_every`` requests so tick and bus tasks run (a
    hit never suspends).  ``on_slice(i)`` fires when slice ``i`` begins.
    """
    start = _now()
    whole = int(seconds / slice_s + 1e-9)
    end = start + seconds
    result = SatResult(start=start, slice_s=slice_s, slices=[0] * (whole + 1))
    current = [0]

    async def client(ring: Sequence[str]) -> None:
        size = len(ring)
        number = 0
        while True:
            try:
                response = await get(ring[number % size])
            except Exception as exc:  # counted, not fatal: see paced()
                response = None
                result.first_error = result.first_error or repr(exc)
            number += 1
            now = _now()
            if now >= end:
                break
            result.sent += 1
            index = int((now - start) / slice_s)
            if index != current[0]:
                current[0] = index
                if on_slice is not None:
                    on_slice(index)
            if response is not None and _ok(response):
                result.slices[index] += 1
            else:
                result.failed += 1
            if number % yield_every == 0:
                await asyncio.sleep(0)

    await asyncio.gather(*(client(ring) for ring in rings))
    del result.slices[whole:]  # a last slice cut short by the deadline
    return result


async def warm(get: Get, urls: Sequence[str], clients: int) -> int:
    """Generate every page of ``urls`` once, ``clients`` at a time, in
    order (client k takes urls k, k+clients, ...); returns failures."""
    failed = [0]

    async def client(offset: int) -> None:
        for url in urls[offset::clients]:
            if not _ok(await get(url)):
                failed[0] += 1

    await asyncio.gather(*(client(offset) for offset in range(clients)))
    return failed[0]


async def commit_stream(
    update: Callable[[str, Sequence[object]], object],
    committed: Callable[[float], None],
    updates: Sequence[Update],
    rate: float,
    dml: array,
    ticked: asyncio.Event,
) -> None:
    """Commits beside the traffic, on the serving loop: one per ``1 /
    rate`` seconds, each held until the tick in progress (``ticked`` is
    set whenever a tick ends) is over.  Every commit then waits a whole
    tick interval for its drain — the worst case for staleness, and the
    same case every time instead of a uniform draw from [0, interval]."""
    start = _now()
    for number, (sql, params) in enumerate(updates):
        await asyncio.sleep(max(0.0, start + number / rate - _now()))
        ticked.clear()
        await ticked.wait()
        began = _now()
        update(sql, params)
        returned = _now()
        dml.append(returned - began)
        committed(returned)


def storm(
    update: Callable[[str, Sequence[object]], object],
    committed: Callable[[float], None],
    drain: Callable[[], None],
    updates: Sequence[Update],
    burst: int,
    dml: array,
    after_burst: Optional[Callable[[int], None]] = None,
) -> List[Tuple[float, float]]:
    """Closed loop, no traffic: commit ``burst`` updates, drain, repeat.
    Returns (start, seconds) of every burst, first commit to end of drain;
    ``after_burst`` (the checks' bookkeeping) runs between bursts, untimed."""
    bursts = []
    for first in range(0, len(updates), burst):
        began = _now()
        for sql, params in updates[first : first + burst]:
            before = _now()
            update(sql, params)
            returned = _now()
            dml.append(returned - before)
            committed(returned)
        drain()
        bursts.append((began, _now() - began))
        if after_burst is not None:
            after_burst(first + burst)
    return bursts
