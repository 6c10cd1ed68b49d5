"""Shard-targeted eject fan-out: routing counters, per-shard fault
isolation, and the routed-vs-broadcast parity guarantee."""

import random

import pytest

from repro.cluster import CacheCluster, attach_cluster_to_bus
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics

from cluster_workload import (
    ClusterWorkloadConfig,
    cluster_contents,
    make_page,
    run_cluster_workload,
)


@pytest.fixture
def rig(tmp_path):
    cluster = CacheCluster(num_shards=4, checkpoint_dir=tmp_path)
    metrics = PipelineMetrics()
    bus = EjectBus(metrics=metrics)
    router = attach_cluster_to_bus(bus, cluster)
    return cluster, bus, metrics, router


def test_ejects_deliver_only_to_owning_shards(rig):
    cluster, bus, metrics, router = rig
    for i in range(40):
        cluster.put(f"/page?id={i}", make_page(i))
    keys = [f"/page?id={i}" for i in range(40)]
    bus.publish(keys, origin_ts=None)
    bus.pump()
    snap = metrics.snapshot(bus_outstanding=bus.outstanding)["bus"]
    assert snap["ejects_routed"] == 40
    assert snap["ejects_broadcast"] == 0
    # 4 shards, 1 owner each: 3 deliveries saved per eject
    assert snap["routed_deliveries_saved"] == 40 * 3
    assert snap["deliveries_ok"] == 40
    assert snap["pages_removed"] == 40
    assert len(cluster) == 0
    # per-shard delivery counters only moved on owners
    for target in bus.targets():
        shard_name = target.name.removeprefix(router.prefix)
        owned = sum(1 for k in keys if cluster.ring.owner(k) == shard_name)
        assert target.delivered == owned


def test_membership_change_routes_to_current_owner(rig):
    """Routing resolves at fan-out time: a shard added between publish
    and pump receives the ejects for keys it now owns."""
    cluster, bus, metrics, router = rig
    keys = [f"/page?id={i}" for i in range(60)]
    bus.publish(keys)
    cluster.add_shard("s99")
    router.attach(bus)  # register the newcomer's bus target
    bus.pump()
    snap = metrics.snapshot(bus_outstanding=bus.outstanding)["bus"]
    assert snap["ejects_routed"] == 60
    assert snap["routing_unknown_targets"] == 0
    newcomer = next(t for t in bus.targets() if t.name == "shard:s99")
    assert newcomer.delivered > 0


def test_unknown_targets_are_counted_not_fatal(rig):
    cluster, bus, metrics, router = rig
    victim = cluster.shards[0].name
    cluster.remove_shard(victim)  # bus target for it stays registered...
    bus_names = {t.name for t in bus.targets()}
    assert f"shard:{victim}" in bus_names
    # ...but ejects route fine; keys now owned by survivors
    bus.publish([f"/page?id={i}" for i in range(30)])
    bus.pump()
    snap = metrics.snapshot(bus_outstanding=bus.outstanding)["bus"]
    assert snap["ejects_routed"] == 30
    assert bus.outstanding == 0


def test_extra_targets_receive_every_eject(tmp_path):
    from repro.web.cache import WebCache

    cluster = CacheCluster(num_shards=3, checkpoint_dir=tmp_path)
    edge = WebCache(capacity=64)
    bus = EjectBus()
    bus.register("edge", edge)
    attach_cluster_to_bus(bus, cluster, extra_targets=["edge"])
    for i in range(10):
        key = f"/page?id={i}"
        cluster.put(key, make_page(i))
        edge.put(key, make_page(i))
    bus.publish([f"/page?id={i}" for i in range(10)])
    bus.pump()
    assert len(cluster) == 0
    assert len(edge) == 0  # the vertical tier was not starved by routing


def test_per_shard_fault_isolation(tmp_path):
    """A flaky shard only delays its own ejects: the other shards'
    deliveries complete on the first pump."""
    from repro.cluster.shard import CacheShard

    class FlakyShard(CacheShard):
        def __init__(self, name, journal):
            super().__init__(name, journal=journal)
            self.rng = random.Random(13)

        def handle_message(self, request, url_key):
            if self.name == "s00" and self.rng.random() < 1.0:
                raise ConnectionError("shard down")
            return super().handle_message(request, url_key)

    cluster = CacheCluster(
        num_shards=3, checkpoint_dir=tmp_path, shard_factory=FlakyShard
    )
    metrics = PipelineMetrics()
    bus = EjectBus(metrics=metrics)
    attach_cluster_to_bus(bus, cluster)
    keys = [f"/page?id={i}" for i in range(30)]
    for i, key in enumerate(keys):
        cluster.put(key, make_page(i))
    bus.publish(keys)
    bus.pump()
    snap = metrics.snapshot(bus_outstanding=bus.outstanding)["bus"]
    healthy = sum(1 for k in keys if cluster.ring.owner(k) != "s00")
    assert snap["deliveries_ok"] >= healthy
    assert snap["deliveries_failed"] > 0
    # only s00's pages are still outstanding (retrying)
    for key in keys:
        if cluster.ring.owner(key) != "s00":
            assert key not in cluster


def test_routed_and_broadcast_leave_byte_identical_contents(tmp_path):
    """The parity acceptance criterion: same seeded workload, routed vs
    broadcast delivery, byte-identical surviving cache contents."""
    base = dict(
        shards=4, keys=400, warmup=800, requests=1200, ejects=300, seed=21
    )
    routed_cluster = CacheCluster(num_shards=4, cold_entries=2048)
    bcast_cluster = CacheCluster(num_shards=4, cold_entries=2048)
    routed = run_cluster_workload(
        ClusterWorkloadConfig(routed=True, checkpoint_dir=tmp_path / "r", **base),
        cluster=routed_cluster,
    )
    bcast = run_cluster_workload(
        ClusterWorkloadConfig(routed=False, checkpoint_dir=tmp_path / "b", **base),
        cluster=bcast_cluster,
    )
    assert routed.ejects_routed > 0 and routed.ejects_broadcast == 0
    assert bcast.ejects_broadcast > 0 and bcast.ejects_routed == 0
    assert routed.routed_deliveries_saved > 0
    assert routed.hit_ratio_pass2 == pytest.approx(bcast.hit_ratio_pass2)
    assert cluster_contents(routed_cluster) == cluster_contents(bcast_cluster)
