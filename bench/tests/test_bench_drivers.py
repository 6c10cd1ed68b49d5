"""The load drivers measure what they claim to, shown on fake gateways."""

import asyncio
import time
from array import array
from types import SimpleNamespace

from bench import drivers

GOOD = SimpleNamespace(status=200, body="<html/>")


def test_open_loop_latency_is_charged_from_due_time():
    """A 100 ms stall must show as the backlog it causes — every arrival
    that fell due during the stall is late — not as one slow request."""
    calls = []

    async def get(url):
        calls.append(url)
        if len(calls) == 20:
            time.sleep(0.1)  # blocks the loop, like a long tick would
        return GOOD

    result = asyncio.run(drivers.paced(get, ["/u"] * 400, 1000.0, 0.02, 50))
    assert result.sent == 400 and result.failed == 0
    late = [value for value in result.latency if value > 0.02]
    # 100 ms at 1000 req/s: about 80 arrivals wait more than 20 ms
    assert 50 <= len(late) <= 130
    assert max(result.latency) >= 0.09
    assert result.within == 400 - len(late)
    assert max(result.lateness) >= 0.09


def test_open_loop_counts_failures_and_bad_responses_as_missing_the_limit():
    async def get(url):
        if url == "/boom":
            raise RuntimeError("no")
        return SimpleNamespace(status=503, body="shed") if url == "/shed" else GOOD

    urls = ["/ok", "/boom", "/shed", "/ok"]
    result = asyncio.run(drivers.paced(get, urls, 2000.0, 0.02, 1))
    assert (result.sent, result.failed, result.within) == (4, 2, 2)
    assert "RuntimeError" in result.first_error


def test_closed_loop_clients_yield_so_a_tick_still_fires():
    """A pure-hit run never suspends inside get(); without the periodic
    sleep(0) a tick task on the same loop would starve."""
    ticks = []

    async def get(url):
        return GOOD

    async def main():
        async def ticker():
            while True:
                await asyncio.sleep(0.005)
                ticks.append(time.perf_counter())

        task = asyncio.ensure_future(ticker())
        result = await drivers.saturate(get, [["/a"], ["/b"]], 0.3, 0.05, 64)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return result

    result = asyncio.run(main())
    assert len(ticks) >= 20
    assert result.failed == 0 and sum(result.slices) > 1000
    assert len(result.slices) == 6


def test_closed_loop_announces_each_slice_once():
    seen = []

    async def get(url):
        await asyncio.sleep(0.001)
        return GOOD

    asyncio.run(drivers.saturate(get, [["/a"], ["/b"]], 0.2, 0.05, 64, seen.append))
    assert seen == sorted(set(seen)) and seen[0] == 1


def test_storm_commits_in_bursts_and_excludes_bookkeeping_time():
    log = []
    updates = [(f"sql{n}", (n,)) for n in range(10)]  # bursts of 4, 4 and 2
    dml = array("d")
    bursts = drivers.storm(
        lambda sql, params: log.append(sql),
        lambda returned: log.append("committed"),
        lambda: log.append("drain"),
        updates,
        4,
        dml,
        after_burst=lambda done: time.sleep(0.02),
    )
    assert log.count("drain") == 3 and len(dml) == 10
    assert log[:9] == ["sql0", "committed", "sql1", "committed", "sql2",
                       "committed", "sql3", "committed", "drain"]
    assert len(bursts) == 3
    assert sum(seconds for _start, seconds in bursts) < 0.02  # sleeps not counted
    assert bursts[1][0] - bursts[0][0] >= 0.02


def test_commit_stream_commits_right_after_a_tick_ends():
    """Each commit is held until the tick in progress is over, so it
    always waits one whole interval for its drain."""
    marks = []

    async def main():
        ticked = asyncio.Event()

        async def ticker():
            while True:
                await asyncio.sleep(0.02)
                marks.append(("tick", time.perf_counter()))
                ticked.set()

        task = asyncio.ensure_future(ticker())
        dml = array("d")
        await drivers.commit_stream(
            lambda sql, params: None,
            lambda returned: marks.append(("commit", returned)),
            [("sql", ())] * 5,
            100.0,
            dml,
            ticked,
        )
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return dml

    dml = asyncio.run(main())
    assert len(dml) == 5
    for position, (kind, at) in enumerate(marks):
        if kind == "commit":
            before_kind, before_at = marks[position - 1]
            assert before_kind == "tick" and at - before_at < 0.005
