"""The eject delivery bus (§4.2.4 delivery).

Handing ``Cache-Control: eject`` messages to every cache inline would let
a single slow or flapping cache stall invalidation, so the bus decouples
delivery:

* **coalescing** — an eject for a URL that is already queued is merged
  (the page can only be removed once);
* **retry with exponential backoff** — a failed delivery is rescheduled,
  not dropped, with per-attempt delays ``base * factor**(attempt-1)``
  capped at ``backoff_max``;
* **per-cache circuit breaking** — after ``breaker_threshold``
  consecutive failures a cache is parked for ``breaker_cooldown``
  seconds; deliveries due while the circuit is open are deferred without
  burning an attempt, and other caches are unaffected;
* **dead-letter queue** — a delivery that exhausts ``max_attempts`` is
  recorded for operator replay instead of blocking the bus;
* **shard-targeted routing** — a :meth:`EjectBus.set_router` hook (or an
  explicit ``targets=`` on :meth:`EjectBus.publish`) restricts each
  eject's fan-out to the caches that can actually hold the page.  A
  consistent-hash cache cluster owns every URL on a known shard, so
  broadcasting an eject to all 64 shards does 63 units of wasted work —
  the router sends it to the owner(s) only.  Orders without a target set
  and buses without a router keep the original broadcast semantics.

Delivery order is FIFO per cache for healthy caches, which (together
with the pipeline's in-order lane upstream) preserves per-relation eject
ordering end to end.

The bus has no thread of its own: whoever owns it calls :meth:`EjectBus.pump`
— the pipeline once per decided batch, the async gateway from its event
loop — and :meth:`EjectBus.drain` pumps until nothing is outstanding.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.web.http import make_eject_request
from repro.stream.metrics import PipelineMetrics


class CircuitBreaker:
    """Consecutive-failure breaker for one delivery target."""

    def __init__(self, threshold: int = 3, cooldown: float = 0.5) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.times_opened = 0

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None

    def allows(self, now: float) -> bool:
        """True when a delivery attempt may proceed (closed or half-open)."""
        if self.opened_at is None:
            return True
        return now >= self.opened_at + self.cooldown

    def reopen_time(self) -> float:
        assert self.opened_at is not None
        return self.opened_at + self.cooldown

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> bool:
        """Count a failure; returns True when the circuit newly opens."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            newly = self.opened_at is None
            self.opened_at = now
            if newly:
                self.times_opened += 1
            return newly
        return False


@dataclass
class CacheTarget:
    """One registered cache and its delivery health."""

    name: str
    cache: object  # anything with handle_message(request, url_key) -> bool
    breaker: CircuitBreaker
    delivered: int = 0
    failed_attempts: int = 0
    dead_lettered: int = 0


@dataclass
class DeadLetter:
    """An eject the bus gave up on — kept for operator replay."""

    url_key: str
    cache_name: str
    attempts: int
    error: str


@dataclass
class _Delivery:
    url_key: str
    target: CacheTarget
    attempts: int = 0
    origin_ts: Optional[float] = None


@dataclass
class _Order:
    """One queued eject before fan-out.

    ``targets`` is ``None`` for broadcast (every registered cache) or
    the set of target names allowed to receive this eject.
    """

    url_key: str
    origin_ts: Optional[float] = None
    targets: Optional[set] = None


class EjectBus:
    """Fan-out of eject messages to registered caches, driven by
    :meth:`pump` on the owner's thread."""

    def __init__(
        self,
        metrics: Optional[PipelineMetrics] = None,
        max_attempts: int = 5,
        backoff_base: float = 0.01,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.5,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 0.1,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.metrics = metrics or PipelineMetrics()
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.clock = clock or time.monotonic
        self._targets: Dict[str, CacheTarget] = {}
        self._router: Optional[Callable[[str], Optional[Sequence[str]]]] = None
        self._orders: "deque[_Order]" = deque()
        self._queued_urls: Dict[str, _Order] = {}
        self._retries: List[Tuple[float, int, _Delivery]] = []
        self._retry_seq = itertools.count()
        self._outstanding = 0
        self.dead_letters: List[DeadLetter] = []

    # -- registration -----------------------------------------------------------

    def register(self, name: str, cache: object) -> CacheTarget:
        """Attach a cache under a unique name; returns its target record."""
        if name in self._targets:
            raise ValueError(f"cache {name!r} already registered")
        target = CacheTarget(
            name=name,
            cache=cache,
            breaker=CircuitBreaker(self.breaker_threshold, self.breaker_cooldown),
        )
        self._targets[name] = target
        return target

    def targets(self) -> List[CacheTarget]:
        return list(self._targets.values())

    def set_router(
        self, router: Optional[Callable[[str], Optional[Sequence[str]]]]
    ) -> None:
        """Install (or clear) the per-URL fan-out router.

        ``router(url_key)`` returns the target names that own the page,
        or ``None`` to broadcast.  It is consulted at fan-out time, so a
        cluster membership change between publish and delivery routes
        with the *current* ring — exactly the shard that will be probed
        for the page next.
        """
        self._router = router

    # -- publishing -------------------------------------------------------------

    def publish(
        self,
        url_keys: Sequence[str],
        origin_ts: Optional[float] = None,
        targets: Optional[Sequence[str]] = None,
    ) -> int:
        """Queue eject orders; returns how many were accepted (not coalesced).

        ``targets`` restricts this batch's fan-out to the named caches;
        coalescing an order into an already-queued one merges the target
        sets (broadcast wins), so no restriction is ever tightened by a
        later publish.
        """
        accepted = 0
        target_set = set(targets) if targets is not None else None
        for url_key in url_keys:
            self.metrics.add(ejects_requested=1)
            queued = self._queued_urls.get(url_key)
            if queued is not None:
                if target_set is None:
                    queued.targets = None
                elif queued.targets is not None:
                    queued.targets |= target_set
                self.metrics.add(ejects_coalesced=1)
                continue
            order = _Order(
                url_key=url_key,
                origin_ts=origin_ts,
                targets=set(target_set) if target_set is not None else None,
            )
            self._queued_urls[url_key] = order
            self._orders.append(order)
            self._outstanding += 1
            accepted += 1
        return accepted

    @property
    def outstanding(self) -> int:
        """Eject orders plus pending deliveries not yet resolved."""
        return self._outstanding

    def due_in(self) -> Optional[float]:
        """Seconds until the next retry is due (0 when one is overdue), or
        None when no retry is pending."""
        if not self._retries:
            return None
        return max(0.0, self._retries[0][0] - self.clock())

    # -- delivery --------------------------------------------------------------

    def drain(self, timeout: float = 5.0) -> bool:
        """Pump until every published eject is resolved (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.outstanding == 0:
                return True
            self.pump()
            time.sleep(0.001)
        return self.outstanding == 0

    async def drain_async(self, timeout: float = 5.0, interval: float = 0.002) -> bool:
        """Cooperative :meth:`drain` for event-loop callers.

        The async gateway's graceful shutdown must flush in-flight eject
        deliveries without blocking its event loop (hits are still being
        served while the miss lane winds down), so this variant pumps due
        work and *yields* between checks instead of sleeping the thread.
        """
        import asyncio

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.outstanding == 0:
                return True
            self.pump()
            await asyncio.sleep(interval)
        return self.outstanding == 0

    def pump(self) -> Optional[float]:
        """Process all currently-due work; returns the next retry due time."""
        now = self.clock()
        # 1. due retries, oldest due first
        while self._retries and self._retries[0][0] <= now:
            _due, _seq, delivery = heapq.heappop(self._retries)
            self._attempt(delivery)
            now = self.clock()
        # 2. fresh orders, FIFO
        while self._orders:
            order = self._orders.popleft()
            self._queued_urls.pop(order.url_key, None)
            targets = self._resolve_targets(order)
            # one order becomes one delivery per resolved target
            self._outstanding += len(targets) - 1
            if not targets:
                continue
            for target in targets:
                self._attempt(
                    _Delivery(
                        url_key=order.url_key,
                        target=target,
                        origin_ts=order.origin_ts,
                    )
                )
        return self._retries[0][0] if self._retries else None

    def _resolve_targets(self, order: _Order) -> List[CacheTarget]:
        """Fan one order out to its delivery targets.

        Explicit order targets win; otherwise the router (when installed)
        names the owners; otherwise every registered cache gets a copy.
        Unknown names are counted, not fatal — a shard that just left the
        cluster cannot hold the page anyway.
        """
        names = order.targets
        if names is None and self._router is not None:
            routed = self._router(order.url_key)
            names = None if routed is None else set(routed)
        if names is None:
            self.metrics.add(ejects_broadcast=1)
            return list(self._targets.values())
        chosen = [self._targets[name] for name in names if name in self._targets]
        unknown = len(names) - len(chosen)
        if unknown:
            self.metrics.add(routing_unknown_targets=unknown)
        self.metrics.add(
            ejects_routed=1,
            routed_deliveries_saved=max(0, len(self._targets) - len(chosen)),
        )
        return chosen

    def _attempt(self, delivery: _Delivery) -> None:
        now = self.clock()
        target = delivery.target
        if not target.breaker.allows(now):
            # Circuit open: defer to the half-open instant without
            # consuming an attempt — the cache is known-bad right now.
            self._schedule(delivery, target.breaker.reopen_time())
            return
        message = make_eject_request(delivery.url_key)
        delivery.attempts += 1
        try:
            removed = target.cache.handle_message(message, delivery.url_key)
        except Exception as exc:  # noqa: BLE001 - any cache fault is a delivery failure
            target.failed_attempts += 1
            self.metrics.add(deliveries_failed=1)
            if target.breaker.record_failure(now):
                self.metrics.add(breaker_opens=1)
            if delivery.attempts >= self.max_attempts:
                self._dead_letter(delivery, repr(exc))
                return
            backoff = min(
                self.backoff_base
                * (self.backoff_factor ** (delivery.attempts - 1)),
                self.backoff_max,
            )
            self.metrics.add(retries=1)
            self._schedule(delivery, now + backoff)
            return
        target.breaker.record_success()
        target.delivered += 1
        self.metrics.add(deliveries_ok=1, pages_removed=1 if removed else 0)
        if delivery.origin_ts is not None:
            self.metrics.record_eject_latency(self.clock() - delivery.origin_ts)
        self._outstanding -= 1

    def _schedule(self, delivery: _Delivery, due: float) -> None:
        heapq.heappush(self._retries, (due, next(self._retry_seq), delivery))

    def _dead_letter(self, delivery: _Delivery, error: str) -> None:
        letter = DeadLetter(
            url_key=delivery.url_key,
            cache_name=delivery.target.name,
            attempts=delivery.attempts,
            error=error,
        )
        delivery.target.dead_lettered += 1
        self.metrics.add(dead_letters=1)
        self.dead_letters.append(letter)
        self._outstanding -= 1

    # -- checkpointing -----------------------------------------------------------

    def snapshot_state(self) -> Dict:
        """JSON-compatible dump of everything not yet delivered.

        Pending orders and in-flight retries collapse to one de-duplicated
        URL list: a restored bus re-publishes each without a target
        restriction, so it reaches *every* registered cache — or, when a
        router is installed on the restored bus, the owners the router
        names at fan-out time (ejects are idempotent, so at-least-once is
        safe even when the original delivery had already reached some
        targets).  Dead letters are carried across verbatim for operator
        replay.
        """
        undelivered: "dict[str, None]" = {}  # insertion-ordered set
        for order in self._orders:
            undelivered.setdefault(order.url_key)
        for _due, _seq, delivery in sorted(self._retries):
            undelivered.setdefault(delivery.url_key)
        dead_letters = [
            {
                "url_key": letter.url_key,
                "cache_name": letter.cache_name,
                "attempts": letter.attempts,
                "error": letter.error,
            }
            for letter in self.dead_letters
        ]
        return {"undelivered": list(undelivered), "dead_letters": dead_letters}

    def restore_state(self, data: Dict) -> int:
        """Reload a snapshot; returns how many ejects were re-published."""
        letters = [
            DeadLetter(
                url_key=spec["url_key"],
                cache_name=spec["cache_name"],
                attempts=spec["attempts"],
                error=spec["error"],
            )
            for spec in data.get("dead_letters", [])
        ]
        self.dead_letters = letters
        return self.publish(data.get("undelivered", []))

    # -- operator tools -----------------------------------------------------------

    def replay_dead_letters(self) -> int:
        """Re-queue every dead letter as a fresh order; returns how many."""
        letters, self.dead_letters = self.dead_letters, []
        for letter in letters:
            self.publish([letter.url_key])
        return len(letters)
