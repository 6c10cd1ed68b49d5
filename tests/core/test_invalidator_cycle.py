"""Cycle-level tests for the invalidation cycle (`run_cycle`)."""

import pytest

from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.core.qiurl import QIURLMap
from repro.stream import StreamingInvalidationPipeline

from helpers import make_car_db


def cacheable(body="page"):
    return HttpResponse(body=body, cache_control=CacheControl.cacheportal_private())


def setup(polling_budget=None):
    db = make_car_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(
        db, [cache], qiurl, polling_budget=polling_budget
    )
    return db, cache, qiurl, invalidator


def cache_page(cache, qiurl, url, sql):
    cache.put(url, cacheable())
    qiurl.add(sql, url, "servlet")


class TestCycleBasics:
    def test_empty_cycle(self):
        db, cache, qiurl, invalidator = setup()
        report = invalidator.run_cycle()
        assert report.records_processed == 0
        assert report.urls_ejected == 0

    def test_pre_install_updates_ignored(self):
        """Updates logged before the invalidator existed never eject."""
        db = make_car_db()  # the seed DML is already in the log
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
        cache_page(cache, qiurl, "u1", "SELECT * FROM car WHERE price < 99999")
        report = invalidator.run_cycle()
        assert report.records_processed == 0
        assert "u1" in cache

    def test_affected_page_ejected(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u1", "SELECT * FROM car WHERE price < 20000")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()
        assert report.affected == 1
        assert report.urls_ejected == 1
        assert "u1" not in cache

    def test_unaffected_page_survives(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u1", "SELECT * FROM car WHERE price < 20000")
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.unaffected == 1
        assert "u1" in cache

    def test_cursor_advances(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u1", "SELECT * FROM car WHERE price < 20000")
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        invalidator.run_cycle()
        report = invalidator.run_cycle()
        assert report.records_processed == 0

    def test_multiple_pages_same_query(self):
        db, cache, qiurl, invalidator = setup()
        sql = "SELECT * FROM car WHERE price < 20000"
        cache_page(cache, qiurl, "u1", sql)
        cache_page(cache, qiurl, "u2", sql)
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()
        assert report.urls_ejected == 2
        assert len(cache) == 0

    def test_ejected_urls_dropped_from_registry(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u1", "SELECT * FROM car WHERE price < 20000")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        invalidator.run_cycle()
        assert len(invalidator.registry) == 0
        assert len(qiurl) == 0

    def test_multiple_caches_notified(self):
        db = make_car_db()
        caches = [WebCache(), WebCache()]
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, caches, qiurl)
        for cache in caches:
            cache.put("u1", cacheable())
        qiurl.add("SELECT * FROM car WHERE price < 20000", "u1", "s")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()
        assert report.pages_removed == 2


class TestPollingPath:
    JOIN_SQL = (
        "SELECT car.maker FROM car, mileage "
        "WHERE car.model = mileage.model AND mileage.epa > 30"
    )

    def test_poll_confirms_invalidation(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u1", self.JOIN_SQL)
        # Rio joins with a (new) mileage row with epa 40: page is stale.
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        db.execute("INSERT INTO mileage VALUES ('Rio', 40)")
        report = invalidator.run_cycle()
        assert report.polls_executed >= 1
        assert "u1" not in cache

    def test_poll_averts_invalidation(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u1", self.JOIN_SQL)
        # Ghost has no mileage row: the join produces nothing new.
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.polls_executed == 1
        assert report.polls_impacted == 0
        assert "u1" in cache

    def test_budget_zero_over_invalidates(self):
        db, cache, qiurl, invalidator = setup(polling_budget=0)
        cache_page(cache, qiurl, "u1", self.JOIN_SQL)
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.polls_executed == 0
        assert report.over_invalidated == 1
        assert "u1" not in cache  # safety preserved, precision lost

    def test_budget_partial(self):
        # Two polling templates (``>`` vs ``>=``): same-template polls
        # would share one round trip and a budget of 1 would admit both.
        db, cache, qiurl, invalidator = setup(polling_budget=1)
        cache_page(cache, qiurl, "u1", self.JOIN_SQL)
        cache_page(
            cache, qiurl, "u2",
            "SELECT car.maker FROM car, mileage "
            "WHERE car.model = mileage.model AND mileage.epa >= 90",
        )
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.polls_executed == 1
        assert report.over_invalidated == 1

    def test_identical_polls_coalesced(self):
        db, cache, qiurl, invalidator = setup()
        # Two URLs from the same instance → one poll decides both.
        cache_page(cache, qiurl, "u1", self.JOIN_SQL)
        cache_page(cache, qiurl, "u2", self.JOIN_SQL)
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.polls_executed == 1


class TestStatistics:
    def test_stats_accumulate(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u1", "SELECT * FROM car WHERE price < 20000")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        invalidator.run_cycle()
        types = invalidator.registry.types()
        assert types[0].stats.updates_seen == 1
        assert types[0].stats.invalidations == 1

    def test_offline_registration_via_invalidator(self):
        db, cache, qiurl, invalidator = setup()
        qt = invalidator.register_query_type(
            "SELECT * FROM car WHERE price < $1", "cheap"
        )
        cache_page(cache, qiurl, "u1", "SELECT * FROM car WHERE price < 500")
        invalidator.run_cycle()
        instance = invalidator.registry.instances()[0]
        assert instance.query_type is qt
