"""Tests: query-type polling costs self-tune from measured work (§4.1.1)."""

import pytest

from repro.db import Database
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap


def cacheable():
    return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())


def build_db(mileage_rows):
    db = Database()
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
    for i in range(mileage_rows):
        db.execute(f"INSERT INTO mileage VALUES ('model{i}', {i % 40})")
    return db


JOIN_SQL = (
    "SELECT car.maker FROM car, mileage "
    "WHERE car.model = mileage.model AND mileage.epa > 39"
)


def run_cycle_once(mileage_rows):
    db = build_db(mileage_rows)
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
    cache.put("u1", cacheable())
    qiurl.add(JOIN_SQL, "u1", "s")
    db.execute("INSERT INTO car VALUES ('Kia', 'fresh', 1)")
    invalidator.run_cycle()
    return invalidator.registry.types()[0]


class TestCostSelfTuning:
    def test_cost_updates_after_polling(self):
        query_type = run_cycle_once(mileage_rows=200)
        assert query_type.cost != 1.0  # moved off the default
        assert query_type.cost > 1.0

    def test_bigger_tables_mean_bigger_costs(self):
        small = run_cycle_once(mileage_rows=50)
        large = run_cycle_once(mileage_rows=2000)
        assert large.cost > small.cost

    def test_cost_is_ema_not_last_sample(self):
        """Repeated polls converge smoothly: after one cycle the cost is
        a blend of the default and the measured work."""
        db = build_db(mileage_rows=300)
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
        cache.put("u1", cacheable())
        qiurl.add(JOIN_SQL, "u1", "s")
        db.execute("INSERT INTO car VALUES ('Kia', 'f1', 1)")
        invalidator.run_cycle()
        first_cost = invalidator.registry.types()[0].cost
        # Re-cache the page and poll again with a different tuple.
        cache.put("u1", cacheable())
        qiurl.add(JOIN_SQL, "u1", "s")
        db.execute("INSERT INTO car VALUES ('Kia', 'f2', 1)")
        invalidator.run_cycle()
        second_cost = invalidator.registry.types()[0].cost
        assert second_cost > first_cost  # converging towards measured work

    def test_unaffected_cycles_leave_cost_alone(self):
        db = build_db(mileage_rows=100)
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
        cache.put("u1", cacheable())
        qiurl.add("SELECT * FROM mileage WHERE epa > 100", "u1", "s")
        db.execute("INSERT INTO mileage VALUES ('x', 5)")  # fails locally
        invalidator.run_cycle()
        assert invalidator.registry.types()[0].cost == 1.0
