"""Tests for the log-truncation safety valve (failure injection).

A bounded update log can wrap past the invalidator's cursor — e.g. the
invalidator stalled while the site kept writing.  The missed changes are
unknowable, so the only safe response is to eject every watched page.
"""

import pytest

from repro.db import Database
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap


def cacheable():
    return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())


def build(log_capacity):
    db = Database(log_capacity=log_capacity)
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("INSERT INTO car VALUES ('Honda', 'Civic', 18000)")
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
    for index, sql in enumerate(
        ["SELECT * FROM car WHERE price < 20000", "SELECT * FROM car WHERE price < 99999"]
    ):
        cache.put(f"u{index}", cacheable())
        qiurl.add(sql, f"u{index}", "s")
    return db, cache, invalidator


class TestTruncationSafetyValve:
    def overflow(self, db, count=10):
        for i in range(count):
            db.execute(f"INSERT INTO car VALUES ('X{i}', 'Y{i}', {900000 + i})")

    def test_truncation_flushes_everything(self):
        db, cache, invalidator = build(log_capacity=3)
        self.overflow(db)  # way past the capacity: cursor left behind
        report = invalidator.run_cycle()
        assert report.updates_lost
        assert report.urls_ejected == 2
        assert len(cache) == 0
        assert len(invalidator.registry) == 0

    def test_recovery_after_flush(self):
        """After the flush the cursor resyncs; the next cycle is normal."""
        db, cache, invalidator = build(log_capacity=3)
        self.overflow(db)
        invalidator.run_cycle()
        # Re-cache and re-map one page, then a normal (small) update round.
        cache.put("u_new", cacheable())
        invalidator.qiurl_map.add(
            "SELECT * FROM car WHERE price < 5000", "u_new", "s"
        )
        report = invalidator.run_cycle()
        assert not report.updates_lost
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 1000)")
        report = invalidator.run_cycle()
        assert not report.updates_lost
        assert report.urls_ejected == 1
        assert "u_new" not in cache

    def test_no_truncation_when_keeping_up(self):
        db, cache, invalidator = build(log_capacity=100)
        self.overflow(db, count=5)
        report = invalidator.run_cycle()
        assert not report.updates_lost
        assert report.records_processed == 5
        # All overflow rows cost 900000+: both cached pages' price
        # predicates (<20000, <99999) provably fail — nothing ejected.
        assert len(cache) == 2

    def test_processor_counts_truncations(self):
        db, cache, invalidator = build(log_capacity=2)
        self.overflow(db)
        invalidator.run_cycle()
        assert invalidator.tailer.truncations == 1


class TestGroupByValidation:
    def test_ungrouped_column_rejected(self, car_db):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="GROUP BY"):
            car_db.query("SELECT model, COUNT(*) FROM car GROUP BY maker")

    def test_ungrouped_column_without_group_by_rejected(self, car_db):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="GROUP BY"):
            car_db.query("SELECT maker, COUNT(*) FROM car")

    def test_qualified_reference_to_grouped_column_allowed(self, car_db):
        rows = car_db.query(
            "SELECT car.maker, COUNT(*) FROM car GROUP BY maker ORDER BY car.maker"
        )
        assert len(rows) == 4

    def test_expression_over_grouped_column_allowed(self, car_db):
        rows = car_db.query(
            "SELECT UPPER(maker), COUNT(*) FROM car GROUP BY maker"
        )
        assert ("HONDA", 1) in rows

    def test_having_ungrouped_column_rejected(self, car_db):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="GROUP BY"):
            car_db.query(
                "SELECT maker FROM car GROUP BY maker HAVING price > 10"
            )

    def test_star_in_aggregate_query_rejected(self, car_db):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            car_db.query("SELECT *, COUNT(*) FROM car GROUP BY maker")
