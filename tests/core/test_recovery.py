"""Tests for checkpoint/recovery (repro.core.recovery).

Covers the on-disk format (atomicity, versioning, checksums), portal
round-tripping (registry stats and predicate-index verdict parity —
derived state must rebuild identically from replayed source state),
the three staleness holes restore closes, and the pipeline variant
with tailer-cursor and eject-bus state.
"""

import json

import pytest

from repro.core import CachePortal
from repro.core.recovery import (
    CheckpointError,
    read_checkpoint,
    restore_pipeline,
    snapshot_pipeline,
    write_checkpoint,
)
from repro.core.invalidator.predindex import PredicateIndex
from repro.core.invalidator.registration import QueryTypeRegistry
from repro.db import Database
from repro.web import Configuration, build_site
from repro.web.http import HttpRequest

from helpers import car_servlets, make_car_db
from test_grouping import QUERY_INSTANCES, UPDATE_RECORDS


def make_portal(db=None, **db_kwargs):
    database = db if db is not None else make_car_db()
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=database, num_servers=2
    )
    return site, CachePortal(site)


def make_bounded_car_db(capacity):
    db = Database(log_capacity=capacity)
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
    db.execute("INSERT INTO car VALUES ('Toyota','Avalon',25000)")
    db.execute("INSERT INTO mileage VALUES ('Avalon',28)")
    return db


def crash_restart(site, portal):
    """The crash model: portal state dies, cache/site/database survive."""
    portal.sniffer.uninstall()
    return CachePortal(site)


def fresh_body(site, url):
    return site.balancer.servers[0].handle(HttpRequest.from_url(url)).body


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        payload = {"hello": [1, 2, {"x": None}]}
        checksum = write_checkpoint(path, payload)
        assert isinstance(checksum, str) and len(checksum) == 64
        assert read_checkpoint(path) == payload

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"x": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "nope.ckpt")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_checkpoint(path)

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"x": 1})
        envelope = json.loads(path.read_text())
        envelope["format"] = 999
        path.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            read_checkpoint(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"cursor_lsn": 10})
        envelope = json.loads(path.read_text())
        envelope["payload"]["cursor_lsn"] = 99  # tamper
        path.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"gen": 1})
        write_checkpoint(path, {"gen": 2})
        assert read_checkpoint(path) == {"gen": 2}


class TestPortalRoundTrip:
    def test_registry_and_map_survive_restart(self, tmp_path):
        site, portal = make_portal()
        site.get("/catalog?max_price=21000")
        site.get("/efficient?min_epa=20")
        portal.run_invalidation_cycle()
        before = portal.pipeline.registry.stats()
        map_before = sorted(portal.qiurl_map.urls())
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)

        portal = crash_restart(site, portal)
        assert portal.pipeline.registry.stats()["query_instances"] == 0
        report = portal.restore(path)
        assert portal.pipeline.registry.stats() == before
        assert sorted(portal.qiurl_map.urls()) == map_before
        assert report.types_restored == before["query_types"]
        assert report.instances_restored == before["query_instances"]
        assert report.path == str(path)
        assert not report.log_truncated

    def test_type_stats_and_knobs_survive(self, tmp_path):
        site, portal = make_portal()
        site.get("/catalog?max_price=21000")
        db = site.database
        db.execute("INSERT INTO car VALUES ('Kia','Rio',14000)")
        portal.run_invalidation_cycle()
        registry = portal.pipeline.registry
        (query_type,) = registry.types()
        query_type.priority = 5
        query_type.cost = 2.5
        stats_before = (
            query_type.stats.instances_seen,
            query_type.stats.updates_seen,
            query_type.stats.invalidations,
        )
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)

        portal = crash_restart(site, portal)
        portal.restore(path)
        (restored,) = portal.pipeline.registry.types()
        assert restored.signature == query_type.signature
        assert restored.priority == 5 and restored.cost == 2.5
        assert (
            restored.stats.instances_seen,
            restored.stats.updates_seen,
            restored.stats.invalidations,
        ) == stats_before

    def test_cursor_replays_updates_logged_after_checkpoint(self, tmp_path):
        site, portal = make_portal()
        url = "/catalog?max_price=21000"
        site.get(url)
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)

        # The update lands while the portal is dead: only the restored
        # cursor gives the next cycle a chance to see it.
        site.database.execute("INSERT INTO car VALUES ('Kia','Rio',14000)")
        portal = crash_restart(site, portal)
        portal.restore(path)
        portal.run_invalidation_cycle()
        for key in site.web_cache.keys():
            assert site.web_cache.get(key).body == fresh_body(site, url)

    def test_orphan_pages_are_ejected_on_restore(self, tmp_path):
        site, portal = make_portal()
        site.get("/catalog?max_price=21000")
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)

        # Cached after the checkpoint: no QI/URL row in the snapshot, so
        # no update could ever eject it — restore must.
        site.get("/efficient?min_epa=20")
        assert len(site.web_cache.keys()) == 2
        portal = crash_restart(site, portal)
        report = portal.restore(path)
        assert report.orphans_ejected == 1
        remaining = site.web_cache.keys()
        assert len(remaining) == 1 and "max_price=21000" in remaining[0]

    def test_reconcile_caches_opt_out(self, tmp_path):
        site, portal = make_portal()
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)
        site.get("/efficient?min_epa=20")
        portal = crash_restart(site, portal)
        report = portal.restore(path, reconcile_caches=False)
        assert report.orphans_ejected == 0
        assert len(site.web_cache.keys()) == 1


class TestTruncatedLogOnRestore:
    def test_flush_all_fires_when_log_wrapped_past_checkpoint(self, tmp_path):
        db = make_bounded_car_db(capacity=4)
        site, portal = make_portal(db=db)
        url = "/catalog?max_price=30000"
        site.get(url)
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)

        # Wrap the bounded log well past the checkpointed cursor while
        # the portal is dead; the lost changes are unknowable.
        for i in range(8):
            db.execute(f"INSERT INTO car VALUES ('M{i}','X{i}',{1000 + i})")
        portal = crash_restart(site, portal)
        report = portal.restore(path)
        assert report.log_truncated
        assert report.lost_range is not None
        lost_from, lost_to = report.lost_range
        assert lost_from == report.cursor_lsn + 1
        assert lost_to >= lost_from
        assert report.flushed_urls >= 1
        # The flush-all valve ejected every watched page: nothing stale
        # can survive, and the registry watches nothing dead.
        assert site.web_cache.keys() == []
        assert portal.pipeline.registry.stats()["query_instances"] == 0
        # The portal is live again: reload and invalidate normally.
        site.get(url)
        portal.run_invalidation_cycle()
        db.execute("INSERT INTO car VALUES ('Kia','Rio',14000)")
        portal.run_invalidation_cycle()
        for key in site.web_cache.keys():
            assert site.web_cache.get(key).body == fresh_body(site, url)

    def test_no_flush_when_cursor_still_in_log(self, tmp_path):
        db = make_bounded_car_db(capacity=64)
        site, portal = make_portal(db=db)
        site.get("/catalog?max_price=30000")
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)
        db.execute("INSERT INTO car VALUES ('Kia','Rio',14000)")
        portal = crash_restart(site, portal)
        report = portal.restore(path)
        assert not report.log_truncated and report.flushed_urls == 0


class TestUndeliveredEjects:
    """An eject some cache missed is retried across a restart: the bus's
    undelivered ejects are durable state, like the cursor they were
    computed from."""

    @staticmethod
    def flaky_portal(db, fail_first=1):
        from repro.web.cache import FlakyCache

        site = build_site(
            Configuration.WEB_CACHE,
            car_servlets(),
            database=db,
            web_cache=FlakyCache(capacity=100, fail_first=fail_first),
        )
        return site, CachePortal(site)

    @staticmethod
    def undelivered(portal):
        return portal.pipeline.bus.snapshot_state()["undelivered"]

    def test_failed_eject_is_resent_after_restore(self, tmp_path):
        db = make_car_db()
        site, portal = self.flaky_portal(db)
        url = "/catalog?max_price=30000"
        site.get(url)
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        portal.run_invalidation_cycle()
        assert len(self.undelivered(portal)) == 1
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)
        portal = crash_restart(site, portal)
        report = portal.restore(path)
        for _ in range(3):
            portal.run_invalidation_cycle()
        assert "Rio" in site.get(url).body
        assert not self.undelivered(portal)
        assert report.ejects_republished == 1

    def test_checkpoint_without_retry_set_restores(self, tmp_path):
        site, portal = make_portal()
        site.get("/catalog?max_price=30000")
        portal.run_invalidation_cycle()
        payload = snapshot_pipeline(portal.pipeline)
        del payload["bus"]
        path = tmp_path / "old.ckpt"
        write_checkpoint(path, payload)
        portal = crash_restart(site, portal)
        report = portal.restore(path)
        assert report.ejects_republished == 0
        assert report.instances_restored == 1

    def test_portal_checkpoint_retry_set_is_republished(self, tmp_path):
        """Portal checkpoints of earlier releases carried a null bus and
        their retry set under ``undelivered``."""
        site, portal = make_portal()
        url = "/catalog?max_price=30000"
        site.get(url)
        portal.run_invalidation_cycle()
        payload = snapshot_pipeline(portal.pipeline)
        payload.update(kind="portal", bus=None, undelivered=[site.web_cache.keys()[0]])
        path = tmp_path / "old.ckpt"
        write_checkpoint(path, payload)
        portal = crash_restart(site, portal)
        report = portal.restore(path, reconcile_caches=False)
        assert report.ejects_republished == 1
        portal.run_invalidation_cycle()
        assert len(site.web_cache) == 0

    def test_failed_flush_eject_is_retried(self, tmp_path):
        db = make_bounded_car_db(capacity=4)
        site, portal = self.flaky_portal(db)
        url = "/catalog?max_price=30000"
        site.get(url)
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)
        for i in range(8):
            db.execute(f"INSERT INTO car VALUES ('M{i}','X{i}',{1000 + i})")
        portal = crash_restart(site, portal)
        now = [0.0]
        portal.pipeline.bus.clock = lambda: now[0]
        # Without reconciliation: the orphan sweep would eject the page
        # directly, hiding whether the flush eject itself is retried.
        report = portal.restore(path, reconcile_caches=False)
        assert report.log_truncated and report.flushed_urls == 1
        # The flush eject hit the cache's one fault: it stays queued ...
        assert len(site.web_cache) == 1
        assert self.undelivered(portal) == site.web_cache.keys()
        # ... through a cycle inside its retry backoff ...
        portal.run_invalidation_cycle()
        assert len(site.web_cache) == 1
        assert self.undelivered(portal) == site.web_cache.keys()
        # ... and a cycle after the retry is due delivers it.
        now[0] += 1.0
        portal.run_invalidation_cycle()
        assert len(site.web_cache) == 0
        assert not self.undelivered(portal)


class TestPredicateIndexParity:
    """The index is derived state: a restored registry must rebuild it to
    byte-identical probe verdicts, never deserialize it."""

    def test_probe_parity_over_grouping_corpus(self):
        original = QueryTypeRegistry()
        original_index = PredicateIndex().attach_to(original)
        for i, sql in enumerate(QUERY_INSTANCES):
            original.observe_instance(sql, f"u{i}")

        restored = QueryTypeRegistry()
        restored_index = PredicateIndex().attach_to(restored)
        restored.restore_state(original.snapshot_state())
        assert restored.stats() == original.stats()

        for update in UPDATE_RECORDS:
            left = original_index.probe(update.table, update)
            right = restored_index.probe(update.table, update)
            by_id_left = {
                inst.instance_id: inst.sql for inst in original.instances()
            }
            by_id_right = {
                inst.instance_id: inst.sql for inst in restored.instances()
            }
            assert {by_id_left[i] for i in left.candidate_ids} == {
                by_id_right[i] for i in right.candidate_ids
            }, update

    def test_round_trip_twice_is_stable(self):
        registry = QueryTypeRegistry()
        for i, sql in enumerate(QUERY_INSTANCES):
            registry.observe_instance(sql, f"u{i}")
        snap1 = registry.snapshot_state()
        registry.restore_state(snap1)
        snap2 = registry.snapshot_state()
        assert snap1 == snap2


class TestInMemorySnapshotHelpers:
    def test_snapshot_restore_without_disk(self):
        site, portal = make_portal()
        site.get("/catalog?max_price=21000")
        portal.run_invalidation_cycle()
        payload = snapshot_pipeline(portal.pipeline)
        portal = crash_restart(site, portal)
        report = restore_pipeline(portal.pipeline, payload)
        assert report.instances_restored >= 1
        assert report.path is None
