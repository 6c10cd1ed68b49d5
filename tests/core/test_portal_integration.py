"""End-to-end integration tests for the CachePortal facade."""

import pytest

from repro.errors import CachePortalError
from repro.web import Configuration, build_site
from repro.core import CachePortal, InvalidationPolicy

from helpers import car_servlets, make_car_db


@pytest.fixture
def portal_site():
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=make_car_db(), num_servers=2
    )
    portal = CachePortal(site)
    return site, portal


class TestDeployment:
    def test_requires_web_cache_configuration(self):
        site = build_site(
            Configuration.DATA_CACHE, car_servlets(), database=make_car_db()
        )
        with pytest.raises(CachePortalError):
            CachePortal(site)

    def test_pages_become_cacheable(self, portal_site):
        site, portal = portal_site
        site.get("/catalog?max_price=21000")
        assert len(site.web_cache) == 1
        response = site.get("/catalog?max_price=21000")
        assert site.stats.page_cache_hits == 1
        assert "Civic" in response.body

    def test_no_servlet_changes_needed(self, portal_site):
        """The servlets are the stock ones from the helpers module —
        deployment only wrapped them."""
        site, portal = portal_site
        for app_server in site.app_servers:
            for servlet in app_server.servlets.all():
                assert servlet.inner.__class__.__name__ == "QueryPageServlet"


class TestFreshness:
    def test_stale_page_ejected_and_regenerated(self, portal_site):
        site, portal = portal_site
        old = site.get("/catalog?max_price=30000").body
        assert "Rio" not in old
        site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = portal.run_invalidation_cycle()
        assert report.urls_ejected == 1
        fresh = site.get("/catalog?max_price=30000").body
        assert "Rio" in fresh

    def test_unrelated_page_stays_cached(self, portal_site):
        site, portal = portal_site
        site.get("/catalog?max_price=19000")  # Civic only
        site.get("/efficient?min_epa=30")
        portal.run_invalidation_cycle()
        # A luxury insert affects neither page (price >= 19000, no mileage).
        site.database.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = portal.run_invalidation_cycle()
        assert report.urls_ejected == 0
        assert len(site.web_cache) == 2

    def test_join_page_invalidated_via_polling(self, portal_site):
        site, portal = portal_site
        old = site.get("/efficient?min_epa=30").body
        assert "Rio" not in old
        site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        site.database.execute("INSERT INTO mileage VALUES ('Rio', 40)")
        report = portal.run_invalidation_cycle()
        assert report.urls_ejected >= 1
        fresh = site.get("/efficient?min_epa=30").body
        assert "Rio" in fresh

    def test_updates_between_cycles_batched(self, portal_site):
        site, portal = portal_site
        site.get("/catalog?max_price=30000")
        for i in range(5):
            site.database.execute(
                f"INSERT INTO car VALUES ('M{i}', 'X{i}', {10000 + i})"
            )
        report = portal.run_invalidation_cycle()
        assert report.records_processed == 5
        assert report.urls_ejected == 1

    def test_no_updates_cycle_is_cheap(self, portal_site):
        site, portal = portal_site
        site.get("/catalog?max_price=30000")
        report = portal.run_invalidation_cycle()
        assert report.records_processed == 0
        assert report.polls_executed == 0


class TestSafetyGuarantee:
    def test_never_serves_stale_after_cycle(self, portal_site):
        """The core safety property over a scripted workload: after every
        invalidation cycle, re-requesting any page gives the same body as
        regenerating it from scratch."""
        site, portal = portal_site
        urls = [
            "/catalog?max_price=21000",
            "/catalog?max_price=30000",
            "/efficient?min_epa=20",
        ]
        updates = [
            "INSERT INTO car VALUES ('Kia', 'Rio', 14000)",
            "INSERT INTO mileage VALUES ('Rio', 45)",
            "DELETE FROM car WHERE model = 'Civic'",
            "UPDATE car SET price = 29000 WHERE model = 'Avalon'",
            "DELETE FROM mileage WHERE model = 'Eclipse'",
        ]
        for url in urls:
            site.get(url)
        for update in updates:
            site.database.execute(update)
            portal.run_invalidation_cycle()
            for url in urls:
                served = site.get(url).body
                site.web_cache.eject_many(site.web_cache.keys())
                regenerated = site.get(url).body
                assert served == regenerated, f"stale page at {url} after {update}"
                portal.run_invalidation_cycle()  # re-sniff the regenerated pages


class TestPolicyIntegration:
    def test_hot_query_type_stops_being_cached(self):
        site = build_site(
            Configuration.WEB_CACHE, car_servlets(), database=make_car_db()
        )
        portal = CachePortal(
            site,
            policy=InvalidationPolicy(max_invalidation_ratio=0.5, min_observations=3),
        )
        # Every update invalidates the catalog page: ratio 1.0 > 0.5.
        for i in range(5):
            site.get("/catalog?max_price=99999")
            portal.run_sniffer()
            site.database.execute(f"INSERT INTO car VALUES ('M{i}', 'X{i}', 1)")
            portal.run_invalidation_cycle()
        # After discovery kicks in, the servlet's pages stop being cached.
        disabled = [
            qt for qt in portal.pipeline.registry.types() if not qt.cacheable
        ]
        assert disabled
