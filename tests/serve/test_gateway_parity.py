"""Async/sync parity: the gateway must be ``Site.handle`` response-for-response.

The tentpole's correctness bar: running the same request battery through
``AsyncGateway.handle`` and through the synchronous ``Site.handle`` must
produce the same bodies, the same statuses, the same ``Cache-Control:
eject`` headers, the same cache contents — and after ``run_sniffer()``,
the same QI/URL registrations row for row.
"""

import asyncio

import pytest

from repro.core import CachePortal
from repro.serve import AsyncGateway
from repro.web import Configuration, build_site
from repro.web.http import HttpRequest

from helpers import car_servlets, make_car_db

#: The request battery: cacheable pages (repeated, so both hit and miss
#: paths are exercised), both servlets, and an unroutable path.
BATTERY = [
    "/catalog?max_price=21000",
    "/catalog?max_price=30000",
    "/catalog?max_price=21000",  # repeat → page-cache hit
    "/efficient?min_epa=30",
    "/efficient?min_epa=20",
    "/efficient?min_epa=30",  # repeat → hit
    "/nosuchpage",  # unroutable → app-server 404
    "/catalog?max_price=30000",  # repeat → hit
]


def make_instrumented_site():
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=make_car_db(), num_servers=2
    )
    portal = CachePortal(site)
    return site, portal


def run_sync_battery(site):
    return [site.handle(HttpRequest.from_url(url)) for url in BATTERY]


def run_async_battery(site):
    async def drive():
        async with AsyncGateway(site, workers=2) as gateway:
            return [
                await gateway.handle(HttpRequest.from_url(url)) for url in BATTERY
            ]

    return asyncio.run(drive())


@pytest.fixture
def parity_runs():
    sync_site, sync_portal = make_instrumented_site()
    async_site, async_portal = make_instrumented_site()
    sync_responses = run_sync_battery(sync_site)
    async_responses = run_async_battery(async_site)
    return (
        sync_site,
        sync_portal,
        sync_responses,
        async_site,
        async_portal,
        async_responses,
    )


class TestResponseParity:
    def test_bodies_and_statuses_match(self, parity_runs):
        _, _, sync_responses, _, _, async_responses = parity_runs
        for url, sync_resp, async_resp in zip(BATTERY, sync_responses, async_responses):
            assert async_resp.status == sync_resp.status, url
            assert async_resp.body == sync_resp.body, url

    def test_cache_control_headers_match(self, parity_runs):
        """Cacheable pages carry the same ``Cache-Control: eject`` render."""
        _, _, sync_responses, _, _, async_responses = parity_runs
        renders = [
            (s.cache_control.render(), a.cache_control.render())
            for s, a in zip(sync_responses, async_responses)
        ]
        for url, (sync_render, async_render) in zip(BATTERY, renders):
            assert async_render == sync_render, url
        # Sanity: the battery actually exercised portal-controlled pages
        # (the sniffer stamps its ownership on cacheable responses).
        assert any("cacheportal" in sync_render for sync_render, _ in renders)

    def test_cache_contents_match(self, parity_runs):
        sync_site, _, _, async_site, _, _ = parity_runs
        assert sorted(async_site.web_cache.keys()) == sorted(sync_site.web_cache.keys())

    def test_site_stats_match(self, parity_runs):
        sync_site, _, _, async_site, _, _ = parity_runs
        assert async_site.stats.requests == sync_site.stats.requests
        assert async_site.stats.page_cache_hits == sync_site.stats.page_cache_hits
        assert async_site.stats.page_cache_misses == sync_site.stats.page_cache_misses


class TestSnifferParity:
    def test_qiurl_registrations_identical(self, parity_runs):
        """run_sniffer() output is bit-identical across the two paths."""
        _, sync_portal, _, _, async_portal, _ = parity_runs
        assert sync_portal.run_sniffer() == async_portal.run_sniffer()

        def rows(portal):
            return [
                (e.entry_id, e.sql, e.url_key, e.servlet, e.mapped_at)
                for e in portal.qiurl_map.all_entries()
            ]

        assert rows(async_portal) == rows(sync_portal)

    def test_invalidation_cycle_parity(self, parity_runs):
        """Same update → same ejects on both paths, and both serve fresh."""
        (
            sync_site,
            sync_portal,
            _,
            async_site,
            async_portal,
            _,
        ) = parity_runs
        for site in (sync_site, async_site):
            site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        sync_report = sync_portal.run_invalidation_cycle()
        async_report = async_portal.run_invalidation_cycle()
        assert async_report.urls_ejected == sync_report.urls_ejected
        assert "Rio" in sync_site.get("/catalog?max_price=30000").body

        async def fresh():
            async with AsyncGateway(async_site, workers=2) as gateway:
                return await gateway.get("/catalog?max_price=30000")

        assert "Rio" in asyncio.run(fresh()).body


class TestFastPath:
    def test_try_hit_serves_cached_page_without_workers(self):
        """The hit lane needs no worker round-trip (and no running gateway)."""
        site, _ = make_instrumented_site()
        warm = site.get("/catalog?max_price=21000")
        gateway = AsyncGateway(site, workers=1)
        key = gateway.key_for(HttpRequest.from_url("/catalog?max_price=21000"))
        cached = gateway.try_hit(key)
        assert cached is not None
        assert cached.body == warm.body
        assert gateway.stats.hits == 1

    def test_duplicate_misses_coalesce_onto_one_regeneration(self):
        """Dog-pile protection: concurrent misses for one key do servlet
        work once; every waiter still receives the (identical) response."""
        site, _ = make_instrumented_site()
        url = "/catalog?max_price=26000"
        request = HttpRequest.from_url(url)
        responses = []

        async def drive():
            gateway = AsyncGateway(site, workers=2)
            await gateway.start()
            key = gateway.key_for(request)
            for _ in range(5):
                accepted = gateway.submit_miss(
                    key,
                    lambda: request,
                    lambda response: responses.append(response),
                )
                assert accepted
            await gateway.stop()
            return gateway

        gateway = asyncio.run(drive())
        # Five requests missed, but four coalesced onto the first's
        # regeneration: the queue saw one item, the servlet ran once.
        assert gateway.stats.misses == 5
        assert gateway.stats.coalesced == 4
        assert gateway.stats.queue_depth_peak == 1
        assert site.web_cache.stats.stores == 1
        assert len(responses) == 5
        assert len({id(response) for response in responses}) == 1
        assert responses[0].status == 200
        # The key is no longer pending: a later miss regenerates anew.
        assert not gateway._pending

    def test_queue_depth_peak_is_the_lifetime_maximum(self):
        """A later, shallower burst and a warm replay leave the peak at
        the deepest queue the gateway has seen."""
        site, _ = make_instrumented_site()
        urls = [f"/catalog?max_price={20000 + i}" for i in range(3)]

        async def drive():
            gateway = AsyncGateway(site, workers=1)
            await gateway.start()
            for url in urls:
                request = HttpRequest.from_url(url)
                assert gateway.submit_miss(gateway.key_for(request), lambda r=request: r)
            await gateway.join()
            deep_peak = gateway.stats.queue_depth_peak
            await gateway.get("/catalog?max_price=30000")  # a one-miss burst
            for url in urls:  # a warm replay: all hits, nothing queues
                await gateway.get(url)
            await gateway.stop()
            return gateway, deep_peak

        gateway, deep_peak = asyncio.run(drive())
        assert deep_peak == len(urls)
        assert gateway.stats.misses == len(urls) + 1
        assert gateway.stats.hits == len(urls)
        assert gateway.stats.queue_depth_peak == deep_peak

    def test_concurrent_misses_pair_queries_to_their_own_request(self):
        """Tokens keep request↔query pairing exact under real concurrency.

        Eight distinct pages are generated concurrently on the miss lane;
        afterwards every QI/URL row must bind a query to the URL whose
        servlet issued it — the catalog query never maps to an
        /efficient page or vice versa.
        """
        site, portal = make_instrumented_site()
        urls = [f"/catalog?max_price={20000 + i}" for i in range(4)] + [
            f"/efficient?min_epa={10 + i}" for i in range(4)
        ]

        async def drive():
            async with AsyncGateway(site, workers=4) as gateway:
                return await asyncio.gather(*(gateway.get(url) for url in urls))

        responses = asyncio.run(drive())
        assert all(r.status == 200 for r in responses)
        assert portal.run_sniffer() > 0
        for entry in portal.qiurl_map.all_entries():
            if entry.servlet == "catalog":
                assert "FROM car WHERE" in entry.sql
                assert "/catalog" in entry.url_key
            else:
                assert "mileage" in entry.sql
                assert "/efficient" in entry.url_key
