"""End-to-end tests for the streaming invalidation pipeline."""

import threading

import pytest

from helpers import car_servlets, make_car_db
from reference_cycle import ReferenceInvalidator
from repro import CachePortal, Configuration, Database, build_site
from repro.core.invalidator import InvalidationPolicy
from repro.web.cache import FlakyCache, WebCache
from repro.stream import EjectBus, StreamingInvalidationPipeline


class RecordingCache(WebCache):
    """WebCache that logs the order eject messages arrive in, and the
    thread each arrived on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.eject_sequence = []
        self.eject_threads = set()

    def handle_message(self, request, url_key):
        control = request.cache_control
        if control is not None and control.has("eject"):
            self.eject_sequence.append(url_key)
            self.eject_threads.add(threading.current_thread())
        return super().handle_message(request, url_key)


def portal_site(**portal_kwargs):
    db = make_car_db()
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=db, num_servers=2
    )
    return db, site, CachePortal(site, **portal_kwargs)


class TestPortalIntegration:
    def test_update_ejects_affected_page(self):
        db, site, portal = portal_site()
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        url = "/catalog?max_price=30000"
        site.get(url)
        assert len(site.web_cache) == 1
        db.execute("INSERT INTO car VALUES ('Kia','Rio',12000)")
        pipeline.process_available()
        assert len(site.web_cache) == 0
        assert "Rio" in site.get(url).body

    def test_unaffected_page_survives(self):
        db, site, portal = portal_site()
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        url = "/catalog?max_price=20000"
        site.get(url)
        # price above the page's threshold: independence check says safe
        db.execute("INSERT INTO car VALUES ('Rolls','Phantom',450000)")
        pipeline.process_available()
        assert len(site.web_cache) == 1
        stats = pipeline.stats()
        assert stats["workers"]["unaffected"] >= 1
        assert stats["bus"]["deliveries_ok"] == 0

    def test_join_query_goes_through_polling(self):
        db, site, portal = portal_site()
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        site.get("/efficient?min_epa=20")
        db.execute("INSERT INTO car VALUES ('Saturn','SL2',14000)")
        pipeline.process_available()
        stats = pipeline.stats()
        assert stats["workers"]["polls_executed"] >= 1

    def test_matches_synchronous_invalidator(self):
        """Same workload, same surviving pages as the reference cycle of
        the paper's invalidator (``tests/reference_cycle.py``)."""

        def run(reference):
            db, site, portal = portal_site()
            pipeline = StreamingInvalidationPipeline.for_portal(portal)
            urls = [
                "/catalog?max_price=15000",
                "/catalog?max_price=30000",
                "/efficient?min_epa=20",
            ]
            for url in urls:
                site.get(url)
            db.execute("INSERT INTO car VALUES ('Kia','Rio',16000)")
            db.execute("DELETE FROM mileage WHERE model = 'Civic'")
            if reference:
                portal.run_sniffer()
                ReferenceInvalidator(pipeline).run_cycle()
            else:
                pipeline.process_available()
            return sorted(site.web_cache.keys())

        assert run(reference=False) == run(reference=True)

    def test_zero_polling_budget_over_invalidates(self):
        db, site, portal = portal_site(polling_budget=0)
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        site.get("/efficient?min_epa=20")
        db.execute("INSERT INTO car VALUES ('Saturn','SL2',14000)")
        pipeline.process_available()
        stats = pipeline.stats()
        assert stats["workers"]["polls_executed"] == 0
        assert stats["workers"]["over_invalidated"] >= 1
        assert len(site.web_cache) == 0  # ejected without polling


class TestOnePortalOneConsumer:
    def test_portal_settings_reach_the_consumer(self):
        policy = InvalidationPolicy(max_update_frequency=5.0)
        db, site, portal = portal_site(
            polling_budget=0,
            version_keys=False,
            conflict_matrix=False,
            safety_enforcement=False,
            policy=policy,
        )
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        assert pipeline is portal.pipeline
        tiers = pipeline.tiers
        assert tiers.polling_budget == 0
        assert pipeline.worker.lane.scheduler.polling_budget == 0
        assert tiers.version_index is None
        assert tiers.conflict_matrix is None
        assert not tiers.safety.enabled
        assert tiers.policy_engine.policy is policy
        assert tiers.servlet_deadline == portal._servlet_deadline
        assert pipeline.pre_ingest == portal.run_sniffer
        assert [target.cache for target in pipeline.bus.targets()] == [site.web_cache]

    def test_the_portal_cycle_is_the_pipeline_cycle(self):
        db, site, portal = portal_site()
        site.get("/catalog?max_price=30000")
        db.execute("INSERT INTO car VALUES ('Kia','Rio',12000)")
        report = portal.run_invalidation_cycle()
        assert report.urls_ejected == 1 and report.records_processed == 1
        assert portal.pipeline.last_report is report
        assert portal.pipeline.cycles_run == 1
        assert portal.pipeline.stats()["workers"]["affected"] == report.affected

    def test_cacheability_veto_asks_the_pipeline(self):
        db, site, portal = portal_site()
        portal.pipeline.policy_engine.mark_servlet_uncacheable("catalog")
        site.get("/catalog?max_price=30000")
        assert len(site.web_cache) == 0


class TestOrdering:
    NUM_RELATIONS = 6
    UPDATES_PER_RELATION = 15

    def _build(self):
        db = Database()
        caches = [RecordingCache(), RecordingCache()]
        pipeline = StreamingInvalidationPipeline(db, caches, batch_size=7)
        for rel in range(self.NUM_RELATIONS):
            db.execute(f"CREATE TABLE rel{rel} (price INT)")
            for step in range(self.UPDATES_PER_RELATION):
                pipeline.registry.observe_instance(
                    f"SELECT price FROM rel{rel} WHERE price = {step}",
                    f"/rel{rel}/page{step:02d}",
                )
        return db, caches, pipeline

    def test_per_relation_order_preserved(self):
        """Acceptance: per-relation eject ordering.  Updates to one
        relation interleave with five others across tail batches, but
        each relation's ejects must arrive in its own update order."""
        db, caches, pipeline = self._build()
        # interleave updates round-robin across relations
        for step in range(self.UPDATES_PER_RELATION):
            for rel in range(self.NUM_RELATIONS):
                db.execute(f"INSERT INTO rel{rel} VALUES ({step})")
        assert pipeline.drain(timeout=30.0)
        for cache in caches:
            for rel in range(self.NUM_RELATIONS):
                seen = [
                    url
                    for url in cache.eject_sequence
                    if url.startswith(f"/rel{rel}/")
                ]
                expected = [
                    f"/rel{rel}/page{step:02d}"
                    for step in range(self.UPDATES_PER_RELATION)
                ]
                assert seen == expected, f"rel{rel} ejects out of order"

    def test_every_watched_page_ejected_exactly_once(self):
        db, caches, pipeline = self._build()
        for step in range(self.UPDATES_PER_RELATION):
            for rel in range(self.NUM_RELATIONS):
                db.execute(f"INSERT INTO rel{rel} VALUES ({step})")
        assert pipeline.drain(timeout=30.0)
        total = self.NUM_RELATIONS * self.UPDATES_PER_RELATION
        for cache in caches:
            assert len(cache.eject_sequence) == total
            assert len(set(cache.eject_sequence)) == total


class TestFaultTolerance:
    def test_flaky_cache_backs_off_and_dead_letters_without_stalling(self):
        """Acceptance: a flaky cache triggers backoff + dead-lettering
        while healthy caches keep draining."""
        db = Database()
        db.execute("CREATE TABLE item (price INT)")
        healthy = WebCache()
        flaky = FlakyCache(fail_first=10**9)
        pipeline = StreamingInvalidationPipeline(db)
        pipeline.bus.max_attempts = 3
        pipeline.bus.backoff_base = 0.001
        pipeline.bus.breaker_threshold = 2
        pipeline.bus.breaker_cooldown = 0.005
        pipeline.register_cache("healthy", healthy)
        pipeline.register_cache("flaky", flaky)
        urls = []
        for step in range(10):
            url = f"/item/{step}"
            urls.append(url)
            pipeline.registry.observe_instance(
                f"SELECT price FROM item WHERE price = {step}", url
            )
        for step in range(10):
            db.execute(f"INSERT INTO item VALUES ({step})")
        assert pipeline.drain(timeout=30.0), "flaky cache stalled the pipeline"
        stats = pipeline.stats()
        assert stats["bus"]["retries"] > 0
        assert stats["bus"]["breaker_opens"] >= 1
        assert stats["bus"]["dead_letters"] == len(urls)
        assert all(d["cache"] == "flaky" for d in stats["dead_letters"])
        healthy_target = [
            t for t in pipeline.bus.targets() if t.name == "healthy"
        ][0]
        assert healthy_target.delivered == len(urls)
        assert healthy_target.failed_attempts == 0


class TestTickNeverSleeps:
    def test_backoff_is_left_to_later_ticks_and_drain(self, monkeypatch):
        """A failing cache's retry backoff never blocks the tick: only
        ``drain`` waits, until the bus's next retry is due."""
        import repro.stream.pipeline as pipeline_module

        db = Database()
        db.execute("CREATE TABLE item (price INT)")
        bus = EjectBus(backoff_base=0.05)
        pipeline = StreamingInvalidationPipeline(db, bus=bus)
        flaky = FlakyCache(fail_first=3)
        pipeline.register_cache("flaky", flaky)
        pipeline.registry.observe_instance(
            "SELECT price FROM item WHERE price = 1", "/item/1"
        )
        db.execute("INSERT INTO item VALUES (1)")
        slept = []
        real_sleep = pipeline_module.time.sleep
        monkeypatch.setattr(pipeline_module.time, "sleep", slept.append)
        pipeline.process_available()
        pipeline.process_available()
        assert slept == []
        assert bus.outstanding == 1 and flaky.messages_failed >= 1
        monkeypatch.setattr(pipeline_module.time, "sleep", real_sleep)
        assert pipeline.drain(timeout=10.0)
        assert bus.outstanding == 0 and not bus.dead_letters
        assert flaky.messages_failed == 3


class TestSafetyValve:
    def test_log_truncation_flushes_every_watched_page(self):
        db = Database()
        db.update_log.capacity = 3
        db.execute("CREATE TABLE item (price INT)")
        cache = WebCache()
        pipeline = StreamingInvalidationPipeline(db, [cache])
        watched = []
        for step in range(5):
            url = f"/item/{step}"
            watched.append(url)
            pipeline.registry.observe_instance(
                f"SELECT price FROM item WHERE price = {step}", url
            )
        # more updates than the log retains, none consumed yet
        for value in range(100, 110):
            db.execute(f"INSERT INTO item VALUES ({value})")
        pipeline.process_available()
        stats = pipeline.stats()
        assert stats["tailer"]["truncations"] == 1
        # unknowable changes: every watched page was ejected
        assert stats["bus"]["deliveries_ok"] == len(watched)
        assert len(pipeline.registry) == 0

    def test_resumes_cleanly_after_truncation(self):
        db = Database()
        db.update_log.capacity = 3
        db.execute("CREATE TABLE item (price INT)")
        pipeline = StreamingInvalidationPipeline(db, [WebCache()])
        for value in range(100, 110):
            db.execute(f"INSERT INTO item VALUES ({value})")
        pipeline.process_available()
        pipeline.registry.observe_instance(
            "SELECT price FROM item WHERE price = 7", "/item/7"
        )
        db.execute("INSERT INTO item VALUES (7)")
        pipeline.process_available()
        assert pipeline.stats()["bus"]["deliveries_ok"] == 1


class TestStats:
    def test_snapshot_shape(self):
        db, site, portal = portal_site()
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        site.get("/catalog?max_price=30000")
        db.execute("INSERT INTO car VALUES ('Kia','Rio',12000)")
        pipeline.process_available()
        stats = pipeline.stats()
        assert set(stats) >= {
            "tailer", "workers", "bus", "registry", "lane", "dead_letters",
        }
        assert stats["tailer"]["lag_records"] == 0
        assert set(stats["lane"]) == {
            "scheduler_cycles", "over_invalidated", "budget_utilization",
        }
        assert stats["bus"]["eject_latency_mean_ms"] >= 0.0

    def test_offline_registration_entry_point(self):
        db = Database()
        db.execute("CREATE TABLE item (price INT)")
        pipeline = StreamingInvalidationPipeline(db)
        query_type = pipeline.register_query_type(
            "SELECT price FROM item WHERE price < ?", name="cheap"
        )
        assert query_type.name == "cheap"
        assert pipeline.stats()["registry"]["query_types"] == 1


class TestCheckpointRecovery:
    def test_round_trip_restores_registry_and_cursor(self, tmp_path):
        db, site, portal = portal_site()
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        site.get("/catalog?max_price=30000")
        site.get("/efficient?min_epa=20")
        pipeline.process_available()
        before = pipeline.stats()["registry"]
        cursor = pipeline.tailer.checkpoint()
        path = tmp_path / "pipe.ckpt"
        pipeline.checkpoint(path)

        # Crash: a brand-new portal + pipeline over the surviving site.
        portal.sniffer.uninstall()
        portal2 = CachePortal(site)
        pipeline2 = StreamingInvalidationPipeline.for_portal(portal2)
        report = pipeline2.restore(path)
        assert pipeline2.stats()["registry"] == before
        assert pipeline2.tailer.checkpoint() == cursor
        assert report.instances_restored == before["query_instances"]
        assert not report.log_truncated

    def test_restored_pipeline_replays_missed_updates(self, tmp_path):
        db, site, portal = portal_site()
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        url = "/catalog?max_price=30000"
        site.get(url)
        pipeline.process_available()
        path = tmp_path / "pipe.ckpt"
        pipeline.checkpoint(path)

        # Update lands while the pipeline is dead.
        db.execute("INSERT INTO car VALUES ('Kia','Rio',12000)")
        portal.sniffer.uninstall()
        portal2 = CachePortal(site)
        pipeline2 = StreamingInvalidationPipeline.for_portal(portal2)
        pipeline2.restore(path)
        pipeline2.process_available()
        assert len(site.web_cache) == 0
        assert "Rio" in site.get(url).body

    def test_truncated_log_triggers_flush_everything(self, tmp_path):
        db, site, portal = portal_site()
        db.update_log.capacity = 4
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        site.get("/catalog?max_price=30000")
        pipeline.process_available()
        path = tmp_path / "pipe.ckpt"
        pipeline.checkpoint(path)

        for i in range(8):
            db.execute(f"INSERT INTO car VALUES ('M{i}','X{i}',{1000 + i})")
        portal.sniffer.uninstall()
        portal2 = CachePortal(site)
        pipeline2 = StreamingInvalidationPipeline.for_portal(portal2)
        report = pipeline2.restore(path)
        assert report.log_truncated
        assert report.lost_range is not None
        assert report.flushed_urls >= 1
        pipeline2.process_available()
        assert len(site.web_cache) == 0
        assert pipeline2.stats()["tailer"]["last_lost_range"] == list(
            report.lost_range
        )

    def test_orphan_pages_ejected_on_restore(self, tmp_path):
        db, site, portal = portal_site()
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        site.get("/catalog?max_price=30000")
        pipeline.process_available()
        path = tmp_path / "pipe.ckpt"
        pipeline.checkpoint(path)

        site.get("/efficient?min_epa=20")  # cached after the checkpoint
        assert len(site.web_cache) == 2
        portal.sniffer.uninstall()
        portal2 = CachePortal(site)
        pipeline2 = StreamingInvalidationPipeline.for_portal(portal2)
        report = pipeline2.restore(path)
        assert report.orphans_ejected == 1
        assert len(site.web_cache) == 1


class TestThreadless:
    def test_drain_delivers_on_the_calling_thread(self):
        db = Database()
        db.execute("CREATE TABLE item (price INT)")
        cache = RecordingCache()
        pipeline = StreamingInvalidationPipeline(db, [cache])
        for step in range(5):
            pipeline.registry.observe_instance(
                f"SELECT price FROM item WHERE price = {step}", f"/item/{step}"
            )
        before = threading.active_count()
        for step in range(5):
            db.execute(f"INSERT INTO item VALUES ({step})")
        assert pipeline.drain(timeout=30.0)
        assert threading.active_count() == before
        assert cache.eject_sequence == [f"/item/{step}" for step in range(5)]
        assert cache.eject_threads == {threading.current_thread()}
