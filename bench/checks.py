"""Output checks: each compares what the program served or ejected with a
fresh regeneration made by the benchmark's own oracle (``Bed.fresh_body``).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro import CachePortal
from repro.serve import AsyncGateway

from bench import drivers
from bench.site import Bed, build_site_only
from bench.workloads import BURST, CLIENTS, MISS_WORKERS, Inputs, Scale, Workload

_now = time.perf_counter


def key_to_url(bed: Bed, urls: Iterable[str]) -> Dict[str, str]:
    return {bed.url_key(url): url for url in urls}


def cached_bodies(bed: Bed) -> Dict[str, str]:
    return {entry.url_key: entry.response.body for entry in bed.site.web_cache.entries()}


def stale_pages(bed: Bed, urls_by_key: Dict[str, str]) -> int:
    """Cached pages whose body differs from a regeneration.  Call at
    quiescence: gateway stopped with drain, final tick run, bus empty."""
    return sum(
        1
        for key, body in cached_bodies(bed).items()
        if body != bed.fresh_body(urls_by_key[key])
    )


def wrong_samples(bed: Bed, samples: Sequence[Tuple[str, str]]) -> int:
    """Sampled response bodies that differ from a regeneration; valid
    only while no update has committed since they were served."""
    return sum(1 for url, body in dict(samples).items() if body != bed.fresh_body(url))


def over_ejected(
    bed: Bed, before: Dict[str, str], ejected: Set[str], urls_by_key: Dict[str, str]
) -> int:
    """Ejected pages that regenerate to the bytes cached before the storm."""
    return sum(
        1 for key in ejected if bed.fresh_body(urls_by_key[key]) == before[key]
    )


async def sync_twin(
    workload: Workload, scale: Scale, seed: int, inputs: Inputs, updates: int
) -> Tuple[float, List[str]]:
    """Replay the first ``updates`` storm updates on a twin site through
    the *synchronous* consumer, one ``run_invalidation_cycle`` per burst.
    Returns (cycle ms per update, sorted keys the twin ejected)."""
    _database, site, _servlets = build_site_only(workload, scale, seed)
    portal = CachePortal(site)
    gateway = AsyncGateway(site, workers=MISS_WORKERS)
    await gateway.start()
    try:
        await drivers.warm(gateway.get, inputs.warm, CLIENTS)
    finally:
        await gateway.stop()
    portal.run_invalidation_cycle()  # registers the warm set
    before = set(site.web_cache.keys())
    spent = 0.0
    replay = inputs.storm_updates[:updates]
    for first in range(0, len(replay), BURST):
        for sql, params in replay[first : first + BURST]:
            site.update(sql, params)
        began = _now()
        portal.run_invalidation_cycle()
        spent += _now() - began
    ejected = before - set(site.web_cache.keys())
    return 1e3 * spent / max(1, len(replay)), sorted(ejected)
