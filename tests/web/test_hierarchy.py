"""Tests for the cache hierarchy (Figure 1's four cache locations)."""

import pytest

from repro.errors import WebError
from repro.web import Configuration, build_site
from repro.web.cache import WebCache
from repro.web.hierarchy import (
    CacheHierarchy,
    CacheLevel,
    HierarchicalSite,
    standard_hierarchy,
)
from repro.web.http import CacheControl, HttpResponse
from repro.core import CachePortal
from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap

from helpers import car_servlets, make_car_db


def cacheable(body="page"):
    return HttpResponse(body=body, cache_control=CacheControl.cacheportal_private())


def two_levels():
    return CacheHierarchy(
        [CacheLevel("browser", WebCache()), CacheLevel("edge", WebCache())]
    )


class TestHierarchyBasics:
    def test_needs_levels(self):
        with pytest.raises(WebError):
            CacheHierarchy([])

    def test_unique_names(self):
        with pytest.raises(WebError):
            CacheHierarchy(
                [CacheLevel("a", WebCache()), CacheLevel("a", WebCache())]
            )

    def test_standard_hierarchy_levels(self):
        hierarchy = standard_hierarchy()
        assert [level.name for level in hierarchy.levels] == [
            "browser",
            "edge",
            "proxy",
            "reverse-proxy",
        ]

    def test_level_lookup(self):
        hierarchy = two_levels()
        assert hierarchy.level("edge").name == "edge"
        with pytest.raises(WebError):
            hierarchy.level("cdn")


class TestFetch:
    def test_miss_populates_all_levels(self):
        hierarchy = two_levels()
        response, source = hierarchy.fetch("k", lambda: cacheable())
        assert source == "origin"
        assert hierarchy.contains("k") == ["browser", "edge"]
        assert hierarchy.stats.origin_fetches == 1

    def test_hit_at_first_level(self):
        hierarchy = two_levels()
        hierarchy.fetch("k", lambda: cacheable())
        _response, source = hierarchy.fetch("k", lambda: cacheable("new"))
        assert source == "browser"
        assert hierarchy.stats.hits_by_level == {"browser": 1}

    def test_hit_at_deeper_level_backfills(self):
        hierarchy = two_levels()
        hierarchy.fetch("k", lambda: cacheable())
        hierarchy.level("browser").cache.eject("k")
        _response, source = hierarchy.fetch("k", lambda: cacheable("new"))
        assert source == "edge"
        assert "k" in hierarchy.level("browser").cache  # back-filled

    def test_non_cacheable_origin_response_passes_through(self):
        hierarchy = two_levels()
        response, source = hierarchy.fetch("k", lambda: HttpResponse(body="dyn"))
        assert source == "origin"
        assert hierarchy.contains("k") == []

    def test_stats_hit_ratio(self):
        hierarchy = two_levels()
        hierarchy.fetch("k", lambda: cacheable())
        hierarchy.fetch("k", lambda: cacheable())
        hierarchy.fetch("other", lambda: cacheable())
        assert hierarchy.stats.hit_ratio == pytest.approx(1 / 3)

    def test_eject_everywhere(self):
        hierarchy = two_levels()
        hierarchy.fetch("k", lambda: cacheable())
        assert hierarchy.eject_everywhere("k") == 2
        assert hierarchy.contains("k") == []


class TestVerticalInvalidation:
    """The paper's 'vertical invalidation': ejects travel from the database
    tier out to every cache level."""

    def build(self):
        db = make_car_db()
        origin = build_site(
            Configuration.REPLICATED,
            car_servlets(),
            database_factory=lambda: db,
            num_servers=1,
        )
        hierarchy = two_levels()
        site = HierarchicalSite(origin, hierarchy)
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, hierarchy.caches, qiurl)
        return db, site, hierarchy, qiurl, invalidator

    def test_invalidator_reaches_every_level(self):
        db, site, hierarchy, qiurl, invalidator = self.build()
        # Pages are no-cache without the sniffer; store one manually at
        # both levels to isolate the invalidation path.
        key = "shop.example.com/catalog?max_price=21000"
        for cache in hierarchy.caches:
            cache.put(key, cacheable())
        qiurl.add("SELECT * FROM car WHERE price < 21000", key, "catalog")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()
        assert report.pages_removed == 2  # one copy per level
        assert hierarchy.contains(key) == []


class TestHierarchicalSiteWithPortal:
    def test_full_loop(self):
        db = make_car_db()
        origin = build_site(
            Configuration.WEB_CACHE, car_servlets(), database=db, num_servers=1
        )
        portal = CachePortal(origin)
        # Replace the single cache by a hierarchy fed by the same origin;
        # register every level with the portal's invalidator.
        hierarchy = two_levels()
        site = HierarchicalSite(origin, hierarchy)
        for level, cache in enumerate(hierarchy.caches):
            portal.pipeline.register_cache(f"level{level}", cache)

        first, source1 = site.fetch_with_source("/catalog?max_price=21000")
        assert source1 == "origin"
        second, source2 = site.fetch_with_source("/catalog?max_price=21000")
        assert source2 == "browser"
        assert first.body == second.body

        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        portal.run_invalidation_cycle()
        third, source3 = site.fetch_with_source("/catalog?max_price=21000")
        assert source3 == "origin"  # every level was ejected
        assert "Rio" in third.body
