"""Invalidation message generation (paper §4.2.4).

Once the URLs to invalidate are identified, the generator creates the
``Cache-Control: eject`` HTTP messages — "simply an HTTP header sent as
part of a normal client request", after NetCache 4.0 — and delivers them
to every cache holding the page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.web.cache import WebCache
from repro.web.http import HttpRequest, make_eject_request


@dataclass
class EjectOutcome:
    """Delivery record for one invalidation message."""

    url_key: str
    caches_notified: int
    pages_removed: int
    delivery_failures: int = 0


class InvalidationMessageGenerator:
    """Builds and delivers eject messages to a set of caches.

    Delivery is best-effort per cache: an unreachable or failing cache
    (its ``handle_message`` raises) must not prevent ejects from reaching
    the healthy ones.  Failures are counted — a failed eject means that
    cache may still serve the stale page until it recovers, which the
    operator needs to know.
    """

    def __init__(self, caches: Sequence[WebCache]) -> None:
        self.caches: List[WebCache] = list(caches)
        self.messages_sent = 0
        self.pages_removed = 0
        self.delivery_failures = 0

    def add_cache(self, cache: WebCache) -> None:
        self.caches.append(cache)

    def build_message(self, url_key: str) -> HttpRequest:
        return make_eject_request(url_key)

    def invalidate(self, url_keys: Iterable[str]) -> List[EjectOutcome]:
        """Send one eject message per URL to every cache."""
        outcomes: List[EjectOutcome] = []
        for url_key in url_keys:
            message = self.build_message(url_key)
            removed = 0
            failures = 0
            for cache in self.caches:
                self.messages_sent += 1
                try:
                    if cache.handle_message(message, url_key):
                        removed += 1
                except Exception:
                    failures += 1
            self.pages_removed += removed
            self.delivery_failures += failures
            outcomes.append(
                EjectOutcome(
                    url_key=url_key,
                    caches_notified=len(self.caches),
                    pages_removed=removed,
                    delivery_failures=failures,
                )
            )
        return outcomes
