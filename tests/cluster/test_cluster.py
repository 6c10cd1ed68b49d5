"""Cluster facade: WebCache-protocol drop-in, replicas, membership,
kill/restart, and whole-cluster checkpointing."""

import pytest

from repro.cluster import CacheCluster
from repro.core import recovery
from repro.errors import ClusterError

from cluster_workload import make_page


@pytest.fixture
def cluster(tmp_path):
    return CacheCluster(num_shards=4, checkpoint_dir=tmp_path)


def fill(cluster, count=100):
    for i in range(count):
        cluster.put(f"/page?id={i}", make_page(i))


class TestProtocol:
    def test_put_get_eject_roundtrip(self, cluster):
        fill(cluster, 50)
        assert len(cluster) == 50
        assert cluster.get("/page?id=7").body == make_page(7).body
        assert "/page?id=7" in cluster
        assert cluster.eject("/page?id=7")
        assert cluster.get("/page?id=7") is None
        assert not cluster.eject("/page?id=7")

    def test_keys_and_clear(self, cluster):
        fill(cluster, 20)
        assert sorted(cluster.keys()) == sorted(f"/page?id={i}" for i in range(20))
        cluster.clear()
        assert len(cluster) == 0 and cluster.bytes_used == 0

    def test_handle_message_ejects(self, cluster):
        from repro.web.http import make_eject_request

        fill(cluster, 5)
        assert cluster.handle_message(make_eject_request("/page?id=3"), "/page?id=3")
        assert cluster.get("/page?id=3") is None

    def test_aggregated_stats_shape(self, cluster):
        fill(cluster, 30)
        cluster.get("/page?id=1")
        cluster.get("/page?id=999")  # miss
        stats = cluster.stats
        assert stats.hits >= 1 and stats.misses >= 1
        assert stats.stores >= 30
        assert stats.bytes_used == cluster.bytes_used
        assert cluster.capacity > 0  # portal.status() reads this

    def test_pages_land_on_ring_owner(self, cluster):
        fill(cluster, 40)
        for i in range(40):
            key = f"/page?id={i}"
            owner = cluster.ring.owner(key)
            assert key in cluster.shard(owner)

    def test_works_as_a_site_page_cache(self, tmp_path):
        """The drop-in claim: build_site + CachePortal over a cluster."""
        from repro import CachePortal, Configuration, Database, KeySpec, build_site
        from repro.web import QueryPageServlet
        from repro.web.servlet import QueryBinding

        db = Database()
        db.execute("CREATE TABLE product (name TEXT, price INT)")
        db.execute("INSERT INTO product VALUES ('phone', 800), ('desk', 300)")
        servlet = QueryPageServlet(
            name="catalog",
            path="/catalog",
            queries=[(
                "SELECT name, price FROM product WHERE price < ?",
                [QueryBinding("get", "max_price", int)],
            )],
            key_spec=KeySpec.make(get_keys=["max_price"]),
        )
        site = build_site(
            Configuration.WEB_CACHE, [servlet], database=db,
            web_cache=CacheCluster(num_shards=3, checkpoint_dir=tmp_path),
        )
        portal = CachePortal(site)
        url = "/catalog?max_price=1000"
        site.get(url)
        site.get(url)
        assert site.stats.page_cache_hits == 1
        db.execute("INSERT INTO product VALUES ('tablet', 450)")
        report = portal.run_invalidation_cycle()
        assert report.urls_ejected == 1
        assert "tablet" in site.get(url).body
        status = portal.status()
        assert "cluster" in status["cache"]
        assert len(status["cache"]["cluster"]["shards"]) == 3


class TestReplicas:
    def test_replicated_puts_survive_primary_loss(self, tmp_path):
        cluster = CacheCluster(num_shards=4, replicas=2, checkpoint_dir=tmp_path)
        fill(cluster, 60)
        key = "/page?id=11"
        primary = cluster.ring.owner(key)
        cluster.kill_shard(primary)
        # the replica still serves it
        assert cluster.get(key) is not None

    def test_eject_reaches_every_replica(self, tmp_path):
        cluster = CacheCluster(num_shards=4, replicas=2, checkpoint_dir=tmp_path)
        key = "/page?id=5"
        cluster.put(key, make_page(5))
        owners = cluster.ring.owners(key, 2)
        assert all(key in cluster.shard(name) for name in owners)
        cluster.eject(key)
        assert all(key not in cluster.shard(name) for name in owners)


class TestMembership:
    def test_add_and_remove_shard(self, cluster):
        fill(cluster, 80)
        cluster.add_shard("s99")
        fill(cluster, 80)  # re-put so the newcomer owns its share
        assert len(cluster.shard("s99")) > 0
        dropped = cluster.remove_shard("s99")
        assert dropped >= 0
        assert "s99" not in cluster.ring
        with pytest.raises(ClusterError):
            cluster.shard("s99")

    def test_duplicate_add_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.add_shard("s00")

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ClusterError):
            CacheCluster(num_shards=0, checkpoint_dir=tmp_path)
        with pytest.raises(ClusterError):
            CacheCluster(num_shards=2, replicas=0, checkpoint_dir=tmp_path)


class TestKillRestart:
    def test_warm_restart_recovers_pages(self, cluster):
        fill(cluster, 100)
        cluster.checkpoint_all()
        victim = cluster.ring.owner("/page?id=0")
        held = len(cluster.shard(victim))
        lost = cluster.kill_shard(victim)
        assert lost == held and len(cluster.shard(victim)) == 0
        report = cluster.restart_shard(victim, warm=True)
        assert report.pages_restored == held
        assert cluster.get("/page?id=0") is not None

    def test_warm_restart_honours_post_snapshot_ejects(self, cluster):
        fill(cluster, 100)
        cluster.checkpoint_all()
        key = "/page?id=42"
        victim = cluster.ring.owner(key)
        cluster.eject(key)  # after the snapshot
        cluster.kill_shard(victim)
        report = cluster.restart_shard(victim, warm=True)
        assert report.pages_dropped >= 1
        assert cluster.get(key) is None

    def test_cold_restart_returns_none(self, cluster):
        fill(cluster, 20)
        cluster.checkpoint_all()
        victim = cluster.shards[0].name
        cluster.kill_shard(victim)
        assert cluster.restart_shard(victim, warm=False) is None
        assert len(cluster.shard(victim)) == 0

    def test_restart_without_snapshot_is_cold(self, cluster):
        fill(cluster, 20)
        victim = cluster.shards[0].name
        cluster.kill_shard(victim)
        assert cluster.restart_shard(victim, warm=True) is None


class TestWholeClusterCheckpoint:
    def test_recovery_envelope_roundtrip(self, cluster, tmp_path):
        fill(cluster, 60)
        path = tmp_path / "cluster.ckpt"
        recovery.checkpoint_cluster(cluster, path)
        other = CacheCluster(num_shards=1, checkpoint_dir=tmp_path / "other")
        outcome = recovery.recover_cluster(other, path)
        assert outcome["shards_restored"] == 4
        assert outcome["pages_restored"] == 60
        assert sorted(other.keys()) == sorted(cluster.keys())
        for i in range(60):
            assert other.get(f"/page?id={i}").body == make_page(i).body

    def test_envelope_kind_is_validated(self, cluster, tmp_path):
        path = tmp_path / "wrong.ckpt"
        recovery.write_checkpoint(path, {"kind": "portal"})
        with pytest.raises(recovery.CheckpointError):
            recovery.recover_cluster(cluster, path)

    def test_journal_survives_whole_cluster_roundtrip(self, cluster, tmp_path):
        fill(cluster, 10)
        cluster.eject("/page?id=3")
        path = tmp_path / "cluster.ckpt"
        recovery.checkpoint_cluster(cluster, path)
        other = CacheCluster(num_shards=4, checkpoint_dir=tmp_path / "o")
        recovery.recover_cluster(other, path)
        assert other.journal.seq == cluster.journal.seq
