"""Cache hierarchies: the four cache locations of paper Figure 1.

A static page (and, with CachePortal, a dynamic one) can live in:

* (A) a proxy cache near the users' ISP,
* (B) a reverse-proxy / web-server front-end cache,
* (C) an edge cache operated by a CDN,
* (D) the user-side (browser or site proxy) cache.

:class:`CacheHierarchy` models a lookup chain over any number of such
levels: a request probes caches from the edge inwards; a hit at level *k*
back-fills every level closer to the user (standard hierarchical caching);
a miss falls through to the origin.  The CachePortal invalidator
broadcasts its eject messages to *all* levels — the
"vertical invalidation" of the paper's related-work discussion — so a
page is never served stale from any tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import WebError
from repro.web.cache import WebCache
from repro.web.http import HttpRequest, HttpResponse
from repro.web.urlkey import page_key


@dataclass
class CacheLevel:
    """One tier of the hierarchy."""

    name: str  # e.g. "browser", "edge", "proxy", "reverse-proxy"
    cache: WebCache


@dataclass
class HierarchyStats:
    lookups: int = 0
    origin_fetches: int = 0
    hits_by_level: dict = field(default_factory=dict)

    def record_hit(self, level_name: str) -> None:
        self.hits_by_level[level_name] = self.hits_by_level.get(level_name, 0) + 1

    @property
    def total_hits(self) -> int:
        return sum(self.hits_by_level.values())

    @property
    def hit_ratio(self) -> float:
        if not self.lookups:
            return 0.0
        return self.total_hits / self.lookups


class CacheHierarchy:
    """An ordered chain of caches between the user and the origin.

    ``levels[0]`` is closest to the user (checked first); the last level
    is closest to the origin.
    """

    def __init__(self, levels: Sequence[CacheLevel]) -> None:
        if not levels:
            raise WebError("a cache hierarchy needs at least one level")
        names = [level.name for level in levels]
        if len(set(names)) != len(names):
            raise WebError("cache level names must be unique")
        self.levels: List[CacheLevel] = list(levels)
        self.stats = HierarchyStats()

    def level(self, name: str) -> CacheLevel:
        for level in self.levels:
            if level.name == name:
                return level
        raise WebError(f"no cache level named {name!r}")

    @property
    def caches(self) -> List[WebCache]:
        """All member caches — hand these to the invalidator."""
        return [level.cache for level in self.levels]

    def fetch(
        self,
        url_key: str,
        origin: Callable[[], HttpResponse],
    ) -> Tuple[HttpResponse, str]:
        """Resolve ``url_key`` through the hierarchy.

        Returns (response, source) where source is the hit level's name or
        ``"origin"``.  Hits back-fill all user-ward levels; origin fetches
        populate every level that accepts the page.
        """
        self.stats.lookups += 1
        for index, level in enumerate(self.levels):
            response = level.cache.get(url_key)
            if response is not None:
                self.stats.record_hit(level.name)
                for closer in self.levels[:index]:
                    closer.cache.put(url_key, response)
                return response, level.name
        response = origin()
        self.stats.origin_fetches += 1
        for level in self.levels:
            level.cache.put(url_key, response)
        return response, "origin"

    def contains(self, url_key: str) -> List[str]:
        """Names of the levels currently holding the page."""
        return [level.name for level in self.levels if url_key in level.cache]

    def attach_to_bus(self, bus, prefix: str = "") -> List[str]:
        """Register every level as an eject endpoint on a delivery bus.

        Each level becomes an independent target named
        ``{prefix}{level.name}`` — so the streaming pipeline's retry and
        circuit-breaking state is per *tier*, and a flapping edge cache
        cannot delay ejects to the reverse proxy ("vertical invalidation"
        with per-tier fault isolation).  Returns the registered names.
        """
        names = []
        for level in self.levels:
            name = f"{prefix}{level.name}"
            bus.register(name, level.cache)
            names.append(name)
        return names

    def eject_everywhere(self, url_key: str) -> int:
        """Remove a page from every level; returns copies removed.

        Kept for direct use, though the normal path is the invalidator's
        message generator, which already addresses every cache handed to
        it via :attr:`caches`.
        """
        return sum(1 for level in self.levels if level.cache.eject(url_key))


def standard_hierarchy(
    capacity_per_level: int = 1024,
    clock: Optional[Callable[[], float]] = None,
) -> CacheHierarchy:
    """The four-level deployment of Figure 1 (user side first)."""
    names = ["browser", "edge", "proxy", "reverse-proxy"]
    return CacheHierarchy(
        [
            CacheLevel(name, WebCache(capacity=capacity_per_level, clock=clock))
            for name in names
        ]
    )


class HierarchicalSite:
    """A site whose web cache is a full hierarchy instead of one cache.

    Wraps an origin :class:`~repro.web.site.Site` built *without* a web
    cache (any configuration) and resolves requests through the
    hierarchy.  Use together with a streaming invalidation pipeline
    constructed over ``hierarchy.caches``.
    """

    def __init__(self, origin_site, hierarchy: CacheHierarchy) -> None:
        self.origin = origin_site
        self.hierarchy = hierarchy

    def get(self, url: str, cookies=None, post_params=None) -> HttpResponse:
        request = HttpRequest.from_url(url, cookies=cookies, post_params=post_params)
        servlet = self.origin.servlet_for(request.path)
        key = page_key(request, servlet.key_spec)
        response, _source = self.hierarchy.fetch(
            key, lambda: self.origin.balancer.handle(request)
        )
        return response

    def fetch_with_source(self, url: str) -> Tuple[HttpResponse, str]:
        request = HttpRequest.from_url(url)
        servlet = self.origin.servlet_for(request.path)
        key = page_key(request, servlet.key_spec)
        return self.hierarchy.fetch(
            key, lambda: self.origin.balancer.handle(request)
        )
