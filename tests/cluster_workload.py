"""Zipfian serving workloads for the cache cluster: one seeded workload,
reused by ``tests/cluster`` and ``benchmarks/bench_cache_cluster.py``.

The workload models the paper's Configuration III front end at cluster
scale: a large URL population with a Zipfian hot set (web traffic is
head-heavy), gets that regenerate on miss, eject bursts delivered
through the :class:`~repro.stream.bus.EjectBus` (routed to owning
shards, or broadcast as the control arm), and optional shard
kill/restart mid-workload to measure how much of the hot set a warm
restore preserves.

Everything is seeded: key draws, page sizes, eject picks, and the kill
victim all come from ``random.Random(seed)`` streams, so two arms with
the same seed see byte-identical traffic — which is what makes the
routed-vs-broadcast parity check and the warm-vs-cold comparison
meaningful.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics
from repro.web.http import CacheControl, HttpResponse
from repro.cluster.cluster import CacheCluster
from repro.cluster.router import ShardEjectRouter, attach_cluster_to_bus


@dataclass
class ClusterWorkloadConfig:
    """Knobs for one cluster workload run."""

    shards: int = 4
    vnodes: int = 128
    hot_bytes: int = 256 * 1024
    cold_entries: int = 2048
    replicas: int = 1
    #: Distinct URL keys in the population.
    keys: int = 5000
    #: Zipf skew (1.0–1.2 is typical web traffic).
    zipf_s: float = 1.1
    #: Get requests in the warmup pass (fills the caches).
    warmup: int = 5000
    #: Get requests in each measured pass.
    requests: int = 10000
    #: Eject orders published through the bus after the first pass.
    ejects: int = 2000
    #: Bus batch size for publishes (coalescing window).
    eject_batch: int = 64
    seed: int = 7
    #: Deliver ejects shard-targeted (False = broadcast control arm).
    routed: bool = True
    #: Shards to kill after the first measured pass (0 disables).
    kill_shards: int = 0
    #: "warm" restores each killed shard from its snapshot; "cold"
    #: restarts it empty (the control arm for the recovery criterion).
    restart: str = "warm"
    checkpoint_dir: Optional[str] = None


class ZipfianKeys:
    """Seeded Zipfian sampler over ``/page?id=i`` URL keys."""

    def __init__(self, count: int, s: float, rng: random.Random) -> None:
        self.count = count
        self.rng = rng
        weights = [1.0 / (rank**s) for rank in range(1, count + 1)]
        total = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight
            cumulative.append(running / total)
        self._cumulative = cumulative

    def draw(self) -> int:
        return bisect.bisect_left(self._cumulative, self.rng.random())

    def url(self, index: int) -> str:
        return f"/page?id={index}"


def make_page(index: int, version: int = 0) -> HttpResponse:
    """Deterministic page body for key ``index`` (sizes vary per key so
    the byte budget, not the entry count, is the binding constraint)."""
    filler = "x" * (200 + (index % 7) * 100)
    return HttpResponse(
        body=f"<html>page {index} v{version} {filler}</html>",
        cache_control=CacheControl.cacheportal_private(),
    )


def cluster_contents(cluster: CacheCluster) -> Dict[str, str]:
    """Every cached page body by URL key (the parity fingerprint).

    Reads through :meth:`CacheShard.snapshot_state` rather than ``get``
    so the probe itself does not promote pages or skew stats.
    """
    contents: Dict[str, str] = {}
    for shard in cluster.shards:
        for spec in shard.snapshot_state()["entries"]:
            contents[spec["url_key"]] = spec["body"]
    return contents


@dataclass
class ClusterWorkloadResult:
    """Everything one run measured (flatten with ``dataclasses.asdict``)."""

    config: ClusterWorkloadConfig
    hit_ratio_pass1: float = 0.0
    hit_ratio_pass2: float = 0.0
    pages_cached: int = 0
    bytes_used: int = 0
    eject_latency_mean_ms: float = 0.0
    eject_latency_max_ms: float = 0.0
    deliveries_ok: int = 0
    ejects_routed: int = 0
    ejects_broadcast: int = 0
    routed_deliveries_saved: int = 0
    pages_removed: int = 0
    killed: List[str] = field(default_factory=list)
    pages_lost: int = 0
    pages_restored: int = 0
    pages_dropped_on_restore: int = 0
    cluster_status: Dict[str, object] = field(default_factory=dict)


def _serve_pass(
    cluster: CacheCluster, sampler: ZipfianKeys, requests: int
) -> float:
    """One pass of Zipfian gets (miss → regenerate + put); hit ratio."""
    hits = 0
    for _ in range(requests):
        index = sampler.draw()
        url = sampler.url(index)
        if cluster.get(url) is not None:
            hits += 1
        else:
            cluster.put(url, make_page(index))
    return hits / requests if requests else 0.0


def _eject_burst(
    cluster: CacheCluster,
    bus: EjectBus,
    sampler: ZipfianKeys,
    config: ClusterWorkloadConfig,
) -> None:
    """Publish eject orders in batches and pump deliveries to completion."""
    pending: List[str] = []
    for _ in range(config.ejects):
        pending.append(sampler.url(sampler.draw()))
        if len(pending) >= config.eject_batch:
            bus.publish(pending, origin_ts=time.monotonic())
            bus.pump()
            pending = []
    if pending:
        bus.publish(pending, origin_ts=time.monotonic())
    while bus.outstanding:
        next_due = bus.pump()
        if bus.outstanding and next_due is not None:
            time.sleep(max(0.0, min(next_due - time.monotonic(), 0.01)))


def run_cluster_workload(
    config: ClusterWorkloadConfig,
    cluster: Optional[CacheCluster] = None,
) -> ClusterWorkloadResult:
    """Run warmup → pass 1 → eject burst → (kill/restart) → pass 2."""
    result = ClusterWorkloadResult(config=config)
    if cluster is None:
        cluster = CacheCluster(
            num_shards=config.shards,
            vnodes=config.vnodes,
            hot_bytes=config.hot_bytes,
            cold_entries=config.cold_entries,
            replicas=config.replicas,
            checkpoint_dir=config.checkpoint_dir,
        )

    metrics = PipelineMetrics()
    bus = EjectBus(metrics=metrics)
    if config.routed:
        attach_cluster_to_bus(bus, cluster)
    else:
        # Broadcast control arm: every shard still gets its own target
        # (per-shard breakers), but no router narrows the fan-out.
        ShardEjectRouter(cluster).attach(bus)
        bus.set_router(None)

    rng = random.Random(config.seed)
    sampler = ZipfianKeys(config.keys, config.zipf_s, rng)
    kill_rng = random.Random(config.seed ^ 0x5EED)

    _serve_pass(cluster, sampler, config.warmup)
    result.hit_ratio_pass1 = _serve_pass(cluster, sampler, config.requests)

    _eject_burst(cluster, bus, sampler, config)

    if config.kill_shards > 0:
        cluster.checkpoint_all()
        victims = kill_rng.sample(
            [shard.name for shard in cluster.shards],
            min(config.kill_shards, len(cluster.shards)),
        )
        for name in victims:
            result.pages_lost += cluster.kill_shard(name)
        result.killed = victims
        for name in victims:
            report = cluster.restart_shard(name, warm=config.restart == "warm")
            if report is not None:
                result.pages_restored += report.pages_restored
                result.pages_dropped_on_restore += report.pages_dropped

    result.hit_ratio_pass2 = _serve_pass(cluster, sampler, config.requests)

    snapshot = metrics.snapshot(bus_outstanding=bus.outstanding)["bus"]
    result.eject_latency_mean_ms = snapshot["eject_latency_mean_ms"]
    result.eject_latency_max_ms = snapshot["eject_latency_max_ms"]
    result.deliveries_ok = snapshot["deliveries_ok"]
    result.ejects_routed = snapshot["ejects_routed"]
    result.ejects_broadcast = snapshot["ejects_broadcast"]
    result.routed_deliveries_saved = snapshot["routed_deliveries_saved"]
    result.pages_removed = snapshot["pages_removed"]
    result.pages_cached = len(cluster)
    result.bytes_used = cluster.bytes_used
    result.cluster_status = cluster.status()
    return result
