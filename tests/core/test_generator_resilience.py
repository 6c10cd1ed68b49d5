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
        from repro.stream import StreamingInvalidationPipeline
        from repro.core.qiurl import QIURLMap
        from helpers import make_car_db

        db = make_car_db()
        healthy, broken = WebCache(), BrokenCache()
        WebCache.put(healthy, "u1", cacheable())
        WebCache.put(broken, "u1", cacheable())
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [healthy, broken], qiurl)
        qiurl.add("SELECT * FROM car WHERE price < 20000", "u1", "s")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()  # must not raise
        assert report.urls_ejected == 1
        assert "u1" not in healthy
        assert invalidator.metrics.deliveries_failed == 1

    def test_failed_eject_is_resent_until_delivered(self):
        """A page whose eject a cache missed is ejected on a later cycle,
        once the bus's retry backoff has run out, and is never served
        stale after that."""
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
        bus = portal.pipeline.bus
        now = [0.0]
        bus.clock = lambda: now[0]
        url = "/catalog?category=electronics&max_price=1000"
        site.get(url)
        db.execute("INSERT INTO product VALUES ('tablet', 'electronics', 450)")
        portal.run_invalidation_cycle()
        assert portal.pipeline.metrics.deliveries_failed == 1
        assert bus.outstanding == 1  # queued for retry, not dropped
        portal.run_invalidation_cycle()  # backoff not over: nothing sent
        assert bus.outstanding == 1 and len(site.web_cache) == 1
        now[0] += bus.backoff_base
        portal.run_invalidation_cycle()  # the retry is due: delivered
        assert bus.outstanding == 0 and not bus.dead_letters
        assert len(site.web_cache) == 0
        assert "tablet" in site.get(url).body
        db.execute("INSERT INTO product VALUES ('watch', 'electronics', 300)")
        portal.run_invalidation_cycle()
        body = site.get(url).body
        assert "tablet" in body and "watch" in body
