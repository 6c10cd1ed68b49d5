"""Tests for the eject bus: coalescing, retry/backoff, breaker, DLQ."""

import pytest

from repro.web.cache import FlakyCache, WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream.bus import CircuitBreaker, EjectBus


def cacheable(body="page"):
    return HttpResponse(
        body=body, cache_control=CacheControl.cacheportal_private()
    )


def filled_cache(*urls, factory=WebCache, **kwargs):
    cache = factory(**kwargs)
    for url in urls:
        assert cache.put(url, cacheable())
    return cache


def settled(bus, timeout=5.0):
    assert bus.drain(timeout=timeout), "bus did not settle"


class TestDelivery:
    def test_delivers_to_all_registered_caches(self):
        bus = EjectBus()
        a = filled_cache("/p1")
        b = filled_cache("/p1")
        bus.register("a", a)
        bus.register("b", b)
        bus.publish(["/p1"])
        settled(bus)
        assert "/p1" not in a and "/p1" not in b
        assert bus.metrics.deliveries_ok == 2
        assert bus.metrics.pages_removed == 2

    def test_duplicate_registration_rejected(self):
        bus = EjectBus()
        bus.register("a", WebCache())
        with pytest.raises(ValueError):
            bus.register("a", WebCache())

    def test_publish_with_no_targets_resolves(self):
        bus = EjectBus()
        bus.publish(["/p1"])
        settled(bus)
        assert bus.outstanding == 0


class TestCoalescing:
    def test_pending_duplicates_merge(self):
        bus = EjectBus()
        cache = filled_cache("/p1")
        bus.register("a", cache)
        bus.publish(["/p1", "/p1", "/p1"])
        settled(bus)
        assert bus.metrics.ejects_requested == 3
        assert bus.metrics.ejects_coalesced == 2
        assert bus.metrics.deliveries_ok == 1

    def test_delivered_url_may_be_ejected_again(self):
        bus = EjectBus()
        cache = filled_cache("/p1")
        bus.register("a", cache)
        bus.publish(["/p1"])
        settled(bus)
        cache.put("/p1", cacheable("regenerated"))
        bus.publish(["/p1"])
        settled(bus)
        assert bus.metrics.ejects_coalesced == 0
        assert bus.metrics.pages_removed == 2


class TestRetryAndBackoff:
    def test_transient_failure_retried_until_success(self):
        bus = EjectBus(backoff_base=0.001, breaker_threshold=100)
        flaky = filled_cache("/p1", factory=FlakyCache, fail_first=2)
        bus.register("flaky", flaky)
        bus.publish(["/p1"])
        settled(bus)
        assert "/p1" not in flaky  # eventually removed
        assert bus.metrics.retries == 2
        assert bus.metrics.deliveries_failed == 2
        assert bus.metrics.deliveries_ok == 1
        assert bus.dead_letters == []

    def test_exhausted_attempts_dead_letter(self):
        bus = EjectBus(
            max_attempts=3, backoff_base=0.001, breaker_cooldown=0.002
        )
        hopeless = FlakyCache(fail_first=10**9)
        bus.register("down", hopeless)
        bus.publish(["/p1"])
        settled(bus)
        assert len(bus.dead_letters) == 1
        letter = bus.dead_letters[0]
        assert letter.url_key == "/p1"
        assert letter.cache_name == "down"
        assert letter.attempts == 3
        assert bus.metrics.dead_letters == 1

    def test_replay_dead_letters(self):
        bus = EjectBus(
            max_attempts=2, backoff_base=0.001, breaker_cooldown=0.002
        )
        flaky = filled_cache("/p1", factory=FlakyCache, fail_first=2)
        bus.register("flaky", flaky)
        bus.publish(["/p1"])
        settled(bus)
        assert len(bus.dead_letters) == 1  # two attempts burned, both failed
        assert bus.replay_dead_letters() == 1
        settled(bus)
        assert bus.dead_letters == []
        assert "/p1" not in flaky


class TestCircuitBreaker:
    def test_breaker_opens_and_recloses(self):
        breaker = CircuitBreaker(threshold=2, cooldown=1.0)
        assert breaker.allows(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(0.1)  # newly open
        assert not breaker.allows(0.5)
        assert breaker.allows(1.2)  # half-open
        breaker.record_success()
        assert breaker.allows(1.3)
        assert breaker.consecutive_failures == 0

    def test_flaky_cache_does_not_stall_healthy_ones(self):
        """Fault injection: one flapping cache triggers backoff and
        dead-lettering while every other cache keeps receiving ejects."""
        bus = EjectBus(
            max_attempts=3,
            backoff_base=0.001,
            breaker_threshold=2,
            breaker_cooldown=0.005,
        )
        urls = [f"/p{i}" for i in range(8)]
        healthy = filled_cache(*urls)
        flaky = filled_cache(*urls, factory=FlakyCache, fail_first=10**9)
        bus.register("healthy", healthy)
        bus.register("flaky", flaky)
        bus.publish(urls)
        settled(bus)
        # healthy cache fully ejected despite the flapping peer
        assert all(url not in healthy for url in urls)
        # the flaky cache tripped its breaker and dead-lettered everything
        assert bus.metrics.breaker_opens >= 1
        assert len(bus.dead_letters) == len(urls)
        assert all(l.cache_name == "flaky" for l in bus.dead_letters)
        # healthy deliveries were never counted as failures
        healthy_target = [t for t in bus.targets() if t.name == "healthy"][0]
        assert healthy_target.failed_attempts == 0
        assert healthy_target.delivered == len(urls)

    def test_open_circuit_defers_without_burning_attempts(self):
        bus = EjectBus(
            max_attempts=10,
            backoff_base=0.001,
            breaker_threshold=1,
            breaker_cooldown=0.02,
        )
        flaky = filled_cache("/p1", "/p2", factory=FlakyCache, fail_first=1)
        bus.register("flaky", flaky)
        bus.publish(["/p1"])  # first attempt fails, breaker opens
        bus.publish(["/p2"])  # arrives while open: deferred, not attempted
        settled(bus)
        # /p2 was delivered with a single attempt once the circuit reclosed
        assert "/p1" not in flaky and "/p2" not in flaky
        assert flaky.messages_failed == 1


class TestCheckpointing:
    def test_snapshot_captures_undelivered_orders(self):
        bus = EjectBus()
        bus.register("a", filled_cache("/p1", "/p2"))
        bus.publish(["/p1", "/p2", "/p1"])  # third coalesces
        state = bus.snapshot_state()
        assert state["undelivered"] == ["/p1", "/p2"]
        assert state["dead_letters"] == []

    def test_restore_republishes_to_fresh_bus(self):
        bus = EjectBus()
        bus.register("a", filled_cache("/p1"))
        bus.publish(["/p1"])
        state = bus.snapshot_state()

        restored = EjectBus()
        cache = filled_cache("/p1")
        restored.register("a", cache)
        assert restored.restore_state(state) == 1
        settled(restored)
        assert "/p1" not in cache

    def test_dead_letters_round_trip(self):
        bus = EjectBus(max_attempts=1, backoff_base=0.001)
        flaky = filled_cache("/p1", factory=FlakyCache, fail_first=5)
        bus.register("flaky", flaky)
        bus.publish(["/p1"])
        settled(bus)
        assert len(bus.dead_letters) == 1
        state = bus.snapshot_state()

        restored = EjectBus()
        restored.restore_state(state)
        assert len(restored.dead_letters) == 1
        letter = restored.dead_letters[0]
        assert letter.url_key == "/p1" and letter.cache_name == "flaky"
        # Operator replay still works on carried-over letters.
        restored.register("ok", filled_cache("/p1"))
        assert restored.replay_dead_letters() == 1

    def test_snapshot_includes_scheduled_retries(self):
        bus = EjectBus(max_attempts=5, backoff_base=30.0)  # retry far in future
        flaky = filled_cache("/p1", factory=FlakyCache, fail_first=1)
        bus.register("flaky", flaky)
        bus.publish(["/p1"])
        bus.pump()  # first attempt fails; retry scheduled, not due
        state = bus.snapshot_state()
        assert state["undelivered"] == ["/p1"]
