"""Integration: the paper's §5.2 application, driven end to end.

A compact version of ``examples/ecommerce_site.py`` as a regression test:
the 500+2500-tuple schema, the three page classes, a churning update
stream, and one invalidation cycle per round.  Asserts the health
properties the example demonstrates.
"""

import random

import pytest

from repro.db import Database
from repro.web import Configuration, KeySpec, QueryPageServlet, build_site
from repro.web.http import HttpRequest
from repro.web.servlet import QueryBinding
from repro.sim.workload import build_paper_schema_sql
from repro.core import CachePortal


def build_database():
    db = Database()
    for statement in build_paper_schema_sql(small_rows=200, large_rows=1000):
        db.execute(statement)
    return db


def build_servlets():
    return [
        QueryPageServlet(
            name="light", path="/light",
            queries=[("SELECT * FROM small_items WHERE payload = ?",
                      [QueryBinding("get", "p", int)])],
            key_spec=KeySpec.make(get_keys=["p"]),
        ),
        QueryPageServlet(
            name="heavy", path="/heavy",
            queries=[(
                "SELECT small_items.id, large_items.id FROM small_items, large_items "
                "WHERE small_items.join_attr = large_items.join_attr "
                "AND small_items.join_attr = ?",
                [QueryBinding("get", "j", int)],
            )],
            key_spec=KeySpec.make(get_keys=["j"]),
        ),
    ]


@pytest.fixture(scope="module")
def run_outcome():
    rng = random.Random(3)
    db = build_database()
    site = build_site(
        Configuration.WEB_CACHE, build_servlets(), database=db, num_servers=2,
        web_cache_capacity=64,
    )
    portal = CachePortal(site)
    next_id = 1_000_000
    reports = []
    for round_number in range(10):
        for _ in range(8):
            site.get(f"/light?p={rng.randrange(10)}")
            site.get(f"/heavy?j={rng.randrange(10)}")
        for _ in range(3):
            join_attr = rng.randrange(10)
            db.execute(
                f"INSERT INTO small_items VALUES ({next_id}, {join_attr}, {join_attr})"
            )
            next_id += 1
            db.execute(f"DELETE FROM large_items WHERE id = {rng.randrange(1000)}")
        reports.append(portal.run_invalidation_cycle())
    return site, portal, db, reports


class TestPaperWorkload:
    def test_cache_does_real_work(self, run_outcome):
        site, *_ = run_outcome
        assert site.web_cache.stats.hit_ratio > 0.2
        assert site.stats.page_cache_hits > 10

    def test_invalidation_is_selective(self, run_outcome):
        _site, _portal, _db, reports = run_outcome
        checked = sum(r.pairs_checked for r in reports)
        unaffected = sum(r.unaffected for r in reports)
        ejected = sum(r.urls_ejected for r in reports)
        assert checked > 50
        assert unaffected > 0  # the independence check is earning its keep
        assert 0 < ejected < checked

    def test_no_stale_pages_at_the_end(self, run_outcome):
        site, portal, _db, _reports = run_outcome
        portal.run_invalidation_cycle()
        for key in site.web_cache.keys():
            cached = site.web_cache.get(key)
            path_query = key.split("/", 1)[1]
            fresh = site.balancer.servers[0].handle(
                HttpRequest.from_url("/" + path_query)
            )
            assert cached.body == fresh.body, f"stale page at {key}"

    def test_status_counters_consistent(self, run_outcome):
        site, portal, _db, reports = run_outcome
        status = portal.status()
        # Other tests in this module may run extra cycles on the shared
        # fixture, so lower-bound only.
        assert status["invalidator"]["cycles_run"] >= len(reports)
        assert status["cache"]["pages"] == len(site.web_cache)
        assert status["sniffer"]["requests_mapped"] > 0

    def test_invalidation_time_statistics_recorded(self, run_outcome):
        _site, portal, _db, _reports = run_outcome
        types_with_invalidations = [
            qt for qt in portal.pipeline.registry.types()
            if qt.stats.invalidations
        ]
        assert types_with_invalidations
        for qt in types_with_invalidations:
            assert qt.stats.average_invalidation_time > 0
            assert (
                qt.stats.max_invalidation_time
                >= qt.stats.average_invalidation_time
            )
