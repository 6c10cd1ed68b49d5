"""The dynamic web-page cache (paper Configuration III).

A URL-keyed LRU store of generated pages that honours the CachePortal
protocol:

* only responses whose Cache-Control marks them CachePortal-cacheable are
  stored (``private, owner="cacheportal"``, or plainly public);
* an incoming request carrying ``Cache-Control: eject`` removes the page —
  this is the invalidation message of §4.2.4;
* optional TTL expiry stands in for the time-based refresh of products
  like Oracle9i web cache, used by the ablation benches for comparison.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.web.http import CacheControl, HttpRequest, HttpResponse


def response_size_bytes(response: HttpResponse) -> int:
    """DRAM footprint of one cached page: body plus header bytes.

    The byte-budget tier of the cache cluster plans capacity in bytes,
    not entries, so the accounting must cover everything a real cache
    would keep resident: the body, every explicit header, and the
    rendered Cache-Control line.
    """
    size = len(response.body.encode("utf-8"))
    for name, value in response.headers.items():
        size += len(name.encode("utf-8")) + len(str(value).encode("utf-8"))
    size += len(response.cache_control.render().encode("utf-8"))
    return size


@dataclass
class CacheEntry:
    """One cached page."""

    url_key: str
    response: HttpResponse
    stored_at: float
    expires_at: Optional[float] = None
    hits: int = 0
    #: DRAM footprint (body + headers), fixed at store time.
    size_bytes: int = 0
    #: Cluster eject-journal stamp at store time (0 outside a cluster);
    #: warm restarts use it to discard snapshot entries that were ejected
    #: after the snapshot was taken.
    seq: int = 0


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    ejects: int = 0
    evictions: int = 0
    expirations: int = 0
    #: Current resident bytes (a gauge, kept in sync by the cache).
    bytes_used: int = 0
    #: Cumulative bytes reclaimed by capacity evictions.
    bytes_evicted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class WebCache:
    """LRU page cache with the eject protocol.

    Concurrency contract: every public method is safe to call from any
    thread.  Lookups, stores, ejects, and expiry all mutate shared state
    (the LRU order and the ``CacheStats.bytes_used`` gauge) and are
    serialized on one internal re-entrant lock; without it, a hit racing
    an eject interleaves the read-modify-write on ``bytes_used`` and the
    gauge drifts from the true resident total (see
    ``tests/serve/test_cache_concurrency.py``).  The lock is held only
    for dictionary book-keeping — never across servlet or database work —
    so the async gateway can serve hits on its event loop while miss
    completions store pages from worker threads.  ``on_evict`` hooks run
    with the lock held; they must not call back into the cache.

    Args:
        capacity: maximum number of cached pages (the paper's
            ``cache_size`` parameter).
        capacity_bytes: optional DRAM budget; when set, stores evict
            least-recently-used pages until resident bytes fit.  A page
            larger than the whole budget is refused outright.
        default_ttl: optional expiry in seconds; ``None`` disables
            time-based invalidation (CachePortal relies on ejects).
        clock: time source, injected by the simulator.
        on_evict: hook invoked with each entry removed by a capacity
            eviction (entry count or byte budget) — the cluster's hot
            tier demotes these to its overflow tier instead of dropping
            them.  Not called for ejects or TTL expirations.
    """

    def __init__(
        self,
        capacity: int = 1024,
        default_ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        capacity_bytes: Optional[int] = None,
        on_evict: Optional[Callable[[CacheEntry], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError("cache byte budget must be positive")
        self.capacity = capacity
        self.capacity_bytes = capacity_bytes
        self.default_ttl = default_ttl
        self._clock = clock or (lambda: 0.0)
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self.on_evict = on_evict
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        """Resident bytes across all cached pages (bodies + headers)."""
        return self.stats.bytes_used

    def __contains__(self, url_key: str) -> bool:
        with self._lock:
            return url_key in self._entries

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def _charge_bytes(self, delta: int) -> None:
        """Adjust the resident-bytes gauge; callers hold ``_lock``.

        A dedicated seam rather than inline ``+=`` so the concurrency
        stress test can instrument the read-modify-write and demonstrate
        the lost-update corruption the lock prevents.
        """
        self.stats.bytes_used = self.stats.bytes_used + delta

    # -- lookups ----------------------------------------------------------------

    def get(self, url_key: str) -> Optional[HttpResponse]:
        """Fetch a page, honouring expiry; None on miss."""
        with self._lock:
            entry = self._entries.get(url_key)
            # Clock reads are not free at hit-tier rates; only entries
            # with a TTL need one.
            if (
                entry is not None
                and entry.expires_at is not None
                and self._clock() >= entry.expires_at
            ):
                del self._entries[url_key]
                self._charge_bytes(-entry.size_bytes)
                self.stats.expirations += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            entry.hits += 1
            self.stats.hits += 1
            self._entries.move_to_end(url_key)
            return entry.response

    # -- stores -------------------------------------------------------------------

    def put(
        self, url_key: str, response: HttpResponse, ttl: Optional[float] = None
    ) -> bool:
        """Store a page if its headers permit; returns True when stored."""
        if not response.ok:
            return False
        if not response.cache_control.is_cacheable_by_portal:
            return False
        now = self._clock()
        effective_ttl = ttl if ttl is not None else self.default_ttl
        max_age = response.cache_control.max_age
        if max_age is not None:
            effective_ttl = max_age if effective_ttl is None else min(effective_ttl, max_age)
        entry = CacheEntry(
            url_key=url_key,
            response=response,
            stored_at=now,
            expires_at=None if effective_ttl is None else now + effective_ttl,
            size_bytes=response_size_bytes(response),
        )
        return self.admit(entry)

    def admit(self, entry: CacheEntry) -> bool:
        """Insert a pre-built entry, enforcing both capacity budgets.

        The cacheability checks live in :meth:`put`; ``admit`` is the
        accounting core, reused by the cluster shard to promote or
        restore entries without re-deriving TTLs or re-checking headers.
        """
        if self.capacity_bytes is not None and entry.size_bytes > self.capacity_bytes:
            return False
        with self._lock:
            url_key = entry.url_key
            previous = self._entries.get(url_key)
            if previous is not None:
                self._charge_bytes(-previous.size_bytes)
                self._entries.move_to_end(url_key)
            self._entries[url_key] = entry
            self._charge_bytes(entry.size_bytes)
            self.stats.stores += 1
            while len(self._entries) > self.capacity or (
                self.capacity_bytes is not None
                and self.stats.bytes_used > self.capacity_bytes
            ):
                _victim_key, victim = self._entries.popitem(last=False)
                self._charge_bytes(-victim.size_bytes)
                self.stats.bytes_evicted += victim.size_bytes
                self.stats.evictions += 1
                if self.on_evict is not None:
                    self.on_evict(victim)
            return True

    # -- invalidation ----------------------------------------------------------------

    def eject(self, url_key: str) -> bool:
        """Remove one page; returns True when it was present."""
        with self._lock:
            entry = self._entries.pop(url_key, None)
            if entry is not None:
                self._charge_bytes(-entry.size_bytes)
                self.stats.ejects += 1
                return True
            return False

    def eject_many(self, url_keys: Iterable[str]) -> int:
        return sum(1 for key in url_keys if self.eject(key))

    def handle_message(self, request: HttpRequest, url_key: str) -> bool:
        """Process a cache-control message addressed to this cache.

        Currently only ``Cache-Control: eject`` is meaningful; other
        messages are ignored (the cache is not an origin server).
        """
        control = request.cache_control
        if control is not None and control.has("eject"):
            return self.eject(url_key)
        return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.bytes_used = 0

    def entries(self) -> List[CacheEntry]:
        """Live entries in LRU→MRU order (for snapshots and demotion)."""
        with self._lock:
            return list(self._entries.values())

    def peek(self, url_key: str) -> Optional[CacheEntry]:
        """The entry for a key without touching LRU order or stats."""
        with self._lock:
            return self._entries.get(url_key)


class FlakyCache(WebCache):
    """A :class:`WebCache` with injectable delivery faults, for testing
    the eject bus's retry/backoff/circuit-breaker behaviour.

    Faults apply to :meth:`handle_message` only — lookups and stores stay
    reliable, modelling a cache whose *control* channel is flapping.

    Concurrency contract: inherits :class:`WebCache`'s thread safety; the
    fault-injection counters (``messages_seen``/``messages_failed``) and
    the ``rng`` draw are additionally serialized under the same lock so a
    deterministic ``failure_plan`` sees one coherent attempt sequence
    even with concurrent eject deliveries.

    Args:
        fail_first: raise on this many initial eject messages, then heal.
        failure_plan: optional override — called with the 1-based message
            attempt number; a True return makes that delivery raise.
        failure_rate: probability a delivery raises, drawn from ``rng``.
            Evaluated only when no ``failure_plan`` is given and the
            ``fail_first`` run-in has been consumed.
        rng: explicit seeded random source for ``failure_rate`` draws.
            Give each faulted cache (or cluster shard) its own
            ``random.Random(seed ^ index)`` so fault injection is
            deterministic per cache and reproducible across runs; an
            unseeded default is created only as a convenience fallback.
    """

    def __init__(
        self,
        capacity: int = 1024,
        default_ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        fail_first: int = 0,
        failure_plan: Optional[Callable[[int], bool]] = None,
        failure_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(
            capacity=capacity,
            default_ttl=default_ttl,
            clock=clock,
            capacity_bytes=capacity_bytes,
        )
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")
        self.fail_first = fail_first
        self.failure_plan = failure_plan
        self.failure_rate = failure_rate
        self.rng = rng if rng is not None else random.Random()
        self.messages_seen = 0
        self.messages_failed = 0

    def handle_message(self, request: HttpRequest, url_key: str) -> bool:
        with self._lock:
            self.messages_seen += 1
            if self.failure_plan is not None:
                should_fail = self.failure_plan(self.messages_seen)
            elif self.messages_seen <= self.fail_first:
                should_fail = True
            elif self.failure_rate:
                should_fail = self.rng.random() < self.failure_rate
            else:
                should_fail = False
            if should_fail:
                self.messages_failed += 1
                raise ConnectionError(
                    f"injected eject fault #{self.messages_failed} for {url_key}"
                )
            return super().handle_message(request, url_key)
