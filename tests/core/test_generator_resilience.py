"""Failure injection: eject delivery survives a broken cache."""

import pytest

from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.core.invalidator.generator import InvalidationMessageGenerator


def cacheable():
    return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())


class BrokenCache(WebCache):
    """Simulates an unreachable cache node."""

    def handle_message(self, request, url_key):
        raise ConnectionError("cache node is down")


class TestEjectResilience:
    def test_healthy_caches_still_ejected(self):
        healthy_a, broken, healthy_b = WebCache(), BrokenCache(), WebCache()
        for cache in (healthy_a, broken, healthy_b):
            WebCache.put(cache, "k", cacheable())
        generator = InvalidationMessageGenerator([healthy_a, broken, healthy_b])
        outcomes = generator.invalidate(["k"])
        assert "k" not in healthy_a
        assert "k" not in healthy_b
        assert outcomes[0].pages_removed == 2
        assert outcomes[0].delivery_failures == 1
        assert generator.delivery_failures == 1

    def test_all_healthy_means_no_failures(self):
        cache = WebCache()
        cache.put("k", cacheable())
        generator = InvalidationMessageGenerator([cache])
        outcomes = generator.invalidate(["k"])
        assert outcomes[0].delivery_failures == 0

    def test_failures_counted_per_url(self):
        broken = BrokenCache()
        generator = InvalidationMessageGenerator([broken])
        outcomes = generator.invalidate(["a", "b", "c"])
        assert all(outcome.delivery_failures == 1 for outcome in outcomes)
        assert generator.delivery_failures == 3

    def test_invalidator_cycle_survives_broken_cache(self):
        from repro.core import Invalidator
        from repro.core.qiurl import QIURLMap
        from helpers import make_car_db

        db = make_car_db()
        healthy, broken = WebCache(), BrokenCache()
        WebCache.put(healthy, "u1", cacheable())
        WebCache.put(broken, "u1", cacheable())
        qiurl = QIURLMap()
        invalidator = Invalidator(db, [healthy, broken], qiurl)
        qiurl.add("SELECT * FROM car WHERE price < 20000", "u1", "s")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()  # must not raise
        assert report.urls_ejected == 1
        assert "u1" not in healthy
        assert invalidator.messages.delivery_failures == 1

    def test_failed_eject_is_resent_until_delivered(self):
        """A page whose eject a cache missed stays registered and its
        eject goes out again next cycle, so the page cannot stay stale."""
        from repro import CachePortal, Configuration, Database, KeySpec, build_site
        from repro.web import QueryPageServlet
        from repro.web.cache import FlakyCache
        from repro.web.servlet import QueryBinding

        db = Database()
        db.execute("CREATE TABLE product (name TEXT, category TEXT, price INT)")
        db.execute("INSERT INTO product VALUES ('phone', 'electronics', 800)")
        catalog = QueryPageServlet(
            name="catalog",
            path="/catalog",
            queries=[
                (
                    "SELECT name, price FROM product WHERE category = ? AND price < ?",
                    [QueryBinding("get", "category"), QueryBinding("get", "max_price", int)],
                )
            ],
            key_spec=KeySpec.make(get_keys=["category", "max_price"]),
        )
        site = build_site(
            Configuration.WEB_CACHE,
            [catalog],
            database=db,
            web_cache=FlakyCache(capacity=100, fail_first=1),
        )
        portal = CachePortal(site)
        url = "/catalog?category=electronics&max_price=1000"
        site.get(url)
        db.execute("INSERT INTO product VALUES ('tablet', 'electronics', 450)")
        portal.run_invalidation_cycle()
        assert portal.invalidator.messages.delivery_failures == 1
        assert portal.invalidator.registry.instances()  # still watched
        portal.run_invalidation_cycle()  # the eject goes out again
        db.execute("INSERT INTO product VALUES ('watch', 'electronics', 300)")
        portal.run_invalidation_cycle()
        body = site.get(url).body
        assert "tablet" in body and "watch" in body
