"""Tests: servlet temporal sensitivity drives poll scheduling deadlines."""

import pytest

from repro.errors import RoutingError
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap

from helpers import make_car_db


JOIN_A = (
    "SELECT car.maker FROM car, mileage "
    "WHERE car.model = mileage.model AND mileage.epa > 90"
)
# ``>=`` where JOIN_A has ``>``: the two polls come from different
# templates, so each costs its own round trip against the budget.
JOIN_B = (
    "SELECT car.maker FROM car, mileage "
    "WHERE car.model = mileage.model AND mileage.epa >= 95"
)


def cacheable():
    return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())


def build(sensitivities, budget):
    db = make_car_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(
        db, [cache], qiurl,
        polling_budget=budget,
        servlet_deadline=lambda name: sensitivities[name],
    )
    cache.put("url_a", cacheable())
    cache.put("url_b", cacheable())
    qiurl.add(JOIN_A, "url_a", "servlet_a")
    qiurl.add(JOIN_B, "url_b", "servlet_b")
    return db, cache, invalidator


class TestDeadlineDerivation:
    def test_instance_inherits_tightest_servlet_deadline(self):
        db, cache, invalidator = build(
            {"servlet_a": 50.0, "servlet_b": 5000.0}, budget=None
        )
        invalidator.registration.scan(invalidator.qiurl_map.read_new())
        by_servlet = {
            next(iter(instance.servlets)): instance
            for instance in invalidator.registry.instances()
        }
        assert invalidator.tiers.deadline_for(by_servlet["servlet_a"]) == 50.0
        # The type default (1000ms) is tighter than servlet_b's 5000ms.
        assert invalidator.tiers.deadline_for(by_servlet["servlet_b"]) == 1000.0

    def test_unknown_servlet_keeps_default(self):
        def resolver(name):
            raise RoutingError(f"no servlet named {name!r}")

        db = make_car_db()
        invalidator = StreamingInvalidationPipeline(
            db, [WebCache()], QIURLMap(), servlet_deadline=resolver
        )
        instance = invalidator.registry.observe_instance(
            "SELECT * FROM car", "u", servlet="ghost"
        )
        assert invalidator.tiers.deadline_for(instance) == 1000.0

    def test_resolver_failure_propagates(self):
        """Only an unknown servlet falls back to the type default; any
        other resolver error is a bug and must surface."""

        def resolver(name):
            raise ValueError(name)

        invalidator = StreamingInvalidationPipeline(
            make_car_db(), [WebCache()], QIURLMap(), servlet_deadline=resolver
        )
        instance = invalidator.registry.observe_instance(
            "SELECT * FROM car", "u", servlet="catalog"
        )
        with pytest.raises(ValueError):
            invalidator.tiers.deadline_for(instance)


class TestBudgetedOrdering:
    def test_sensitive_servlet_polled_first(self):
        """With budget 1, the instance feeding the time-critical servlet
        gets the poll; the tolerant one is over-invalidated."""
        db, cache, invalidator = build(
            {"servlet_a": 10.0, "servlet_b": 9000.0}, budget=1
        )
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.polls_executed == 1
        assert report.over_invalidated == 1
        # servlet_a's page survived (its poll came back negative);
        # servlet_b's page was over-invalidated without polling.
        assert "url_a" in cache
        assert "url_b" not in cache

    def test_order_flips_with_sensitivities(self):
        db, cache, invalidator = build(
            {"servlet_a": 9000.0, "servlet_b": 10.0}, budget=1
        )
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        invalidator.run_cycle()
        assert "url_b" in cache
        assert "url_a" not in cache

    def test_portal_wires_real_servlet_sensitivity(self):
        from repro.web import Configuration, build_site
        from repro.core import CachePortal
        from helpers import car_servlets

        servlets = car_servlets()
        servlets[1].temporal_sensitivity_ms = 2000.0  # "efficient" page
        site = build_site(
            Configuration.WEB_CACHE, servlets, database=make_car_db()
        )
        portal = CachePortal(site)
        site.get("/efficient?min_epa=30")
        portal.run_sniffer()
        portal.pipeline.registration.scan(portal.qiurl_map.read_new())
        instance = portal.pipeline.registry.instances()[0]
        assert portal.pipeline.tiers.deadline_for(instance) == 1000.0  # type default
        servlets[1].temporal_sensitivity_ms = 100.0
        # The wrapped servlet shares metadata captured at wrap time, so
        # resolve via the portal's resolver directly:
        assert portal._servlet_deadline("efficient") in (100.0, 2000.0)
