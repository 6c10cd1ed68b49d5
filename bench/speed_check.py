#!/usr/bin/env python3
"""Does the program's own load move the speed kernel?

    python3 bench/speed_check.py [--seed 7]

``speed.py`` divides every timing by the cost of a fixed kernel run beside
it.  That is sound only while the program does not move the kernel: if
its cache or GIL pressure slowed the kernel too, the division would hide
part of a regression.  This is the experiment that says whether it does,
to be run again after any change that adds threads or working set.

Per workload: set up as a pass does, then alternate eight times one
second with the gateway idle (its tick still running), one second of
closed-loop saturation and six storm bursts, all in one process, the
kernel sampled as a pass samples it (every 0.1 s on the loop; after each
burst in the storm).  Adjacent stretches share the box's mode, so the
verdict is the median over rounds of the paired ratios, not a ratio of
medians.  Prints the kernel's cost in each condition and the two ratios;
1.0 means the load does not move the kernel.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 8
STRETCH_S = 1.0
#: Bursts per round: ROUNDS of them fit the 300 updates a storm holds.
STORM_BURSTS = 6


async def check(workload, seed: int) -> None:
    from bench import drivers, session
    from bench.speed import SpeedLog
    from bench.workloads import BURST, FULL, SLICE_S, SPEED_INTERVAL_S, YIELD_EVERY

    speed = SpeedLog()
    config = session.Config(workload, FULL, seed, seconds=20.0, trace=False)
    bed, gateway, inputs, _failed = await session._setup(config, speed)
    sampler = asyncio.ensure_future(speed.keep_sampling(SPEED_INTERVAL_S))
    updates = iter(inputs.storm_updates)
    cost = {"idle": [], "saturated": [], "storm": []}

    def record(condition: str, since: float) -> None:
        at = time.perf_counter()
        cost[condition].append(
            statistics.median(c for t, c in zip(speed.at, speed.cost) if since <= t <= at)
        )

    for _round in range(ROUNDS):
        since = time.perf_counter()
        await asyncio.sleep(STRETCH_S)
        record("idle", since)
        since = time.perf_counter()
        await drivers.saturate(gateway.get, inputs.rings, STRETCH_S, SLICE_S, YIELD_EVERY)
        record("saturated", since)
        since = time.perf_counter()
        for _burst in range(STORM_BURSTS):
            for _commit in range(BURST):
                bed.site.update(*next(updates))
            bed.pump.tick()
            speed.sample()
        record("storm", since)
    sampler.cancel()
    await asyncio.gather(sampler, return_exceptions=True)
    await gateway.stop()

    ms = {name: 1e3 * statistics.median(values) for name, values in cost.items()}
    ratio = {
        name: statistics.median(loaded / idle for loaded, idle in zip(cost[name], cost["idle"]))
        for name in ("saturated", "storm")
    }
    print(
        f"{workload.name:<13} kernel ms: idle {ms['idle']:.2f}  saturated "
        f"{ms['saturated']:.2f}  storm {ms['storm']:.2f}   "
        f"saturated/idle {ratio['saturated']:.3f}  storm/idle {ratio['storm']:.3f}"
    )


def main() -> int:
    from bench import session
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    session.pin_to_one_cpu()
    for workload in WORKLOADS:
        asyncio.run(check(workload, args.seed))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
