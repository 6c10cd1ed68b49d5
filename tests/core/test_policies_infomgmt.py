"""Tests for invalidation policies and the information management module."""

import pytest

from repro.sql.parser import parse_statement
from repro.core.invalidator.batchpoll import BatchPollExecutor
from repro.core.invalidator.infomgmt import InformationManager, PollingResultCache
from repro.core.invalidator.policies import InvalidationPolicy, PolicyEngine
from repro.core.invalidator.polling import PollingQueryGenerator
from repro.core.invalidator.registration import QueryTypeRegistry


def registry_with_stats(updates=20, invalidations=0, inval_time=0.0):
    registry = QueryTypeRegistry()
    qt = registry.register_type("SELECT * FROM car WHERE price < $1", "cheap")
    qt.stats.updates_seen = updates
    qt.stats.invalidations = invalidations
    qt.stats.total_invalidation_time = inval_time
    return registry, qt


class TestPolicyEngine:
    def test_default_policy_keeps_everything_cacheable(self):
        registry, qt = registry_with_stats(updates=100, invalidations=100)
        engine = PolicyEngine()
        assert engine.discover(registry) == []
        assert engine.query_type_cacheable(qt)

    def test_invalidation_ratio_threshold(self):
        registry, qt = registry_with_stats(updates=20, invalidations=20)
        engine = PolicyEngine(InvalidationPolicy(max_invalidation_ratio=0.5))
        disabled = engine.discover(registry)
        assert disabled == [qt]
        assert not engine.query_type_cacheable(qt)

    def test_invalidation_time_threshold(self):
        registry, qt = registry_with_stats(
            updates=20, invalidations=10, inval_time=100.0
        )
        engine = PolicyEngine(InvalidationPolicy(max_invalidation_time=5.0))
        assert engine.discover(registry) == [qt]

    def test_update_frequency_threshold(self):
        registry, qt = registry_with_stats(updates=1000)
        engine = PolicyEngine(InvalidationPolicy(max_update_frequency=10.0))
        assert engine.discover(registry) == [qt]

    def test_min_observations_guard(self):
        registry, qt = registry_with_stats(updates=5, invalidations=5)
        engine = PolicyEngine(
            InvalidationPolicy(max_invalidation_ratio=0.1, min_observations=10)
        )
        assert engine.discover(registry) == []  # too few observations yet

    def test_disabled_type_stays_disabled(self):
        registry, qt = registry_with_stats(updates=20, invalidations=20)
        engine = PolicyEngine(InvalidationPolicy(max_invalidation_ratio=0.5))
        engine.discover(registry)
        assert engine.discover(registry) == []  # not re-reported

    def test_hard_coded_query_rule(self):
        registry, qt = registry_with_stats()
        engine = PolicyEngine()
        engine.register_query_rule(lambda query_type: "mileage" in query_type.tables)
        assert not engine.query_type_cacheable(qt)

    def test_servlet_rules(self):
        engine = PolicyEngine()
        assert engine.servlet_cacheable("catalog")
        engine.mark_servlet_uncacheable("catalog")
        assert not engine.servlet_cacheable("catalog")

    def test_mark_type_uncacheable(self):
        registry, qt = registry_with_stats()
        engine = PolicyEngine()
        engine.mark_type_uncacheable(qt.signature)
        assert not engine.query_type_cacheable(qt)


class TestPollingResultCache:
    def query(self, text="SELECT COUNT(*) FROM mileage WHERE model = 'x'"):
        return parse_statement(text)

    def test_get_put(self):
        cache = PollingResultCache()
        assert cache.get("q1") is None
        cache.put("q1", self.query(), True)
        assert cache.get("q1") is True
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidate_by_table(self):
        cache = PollingResultCache()
        cache.put("q1", self.query(), True)
        dropped = cache.invalidate_tables({"mileage"})
        assert dropped == 1
        assert cache.get("q1") is None

    def test_unrelated_table_keeps_entry(self):
        cache = PollingResultCache()
        cache.put("q1", self.query(), False)
        assert cache.invalidate_tables({"car"}) == 0
        assert cache.get("q1") is False

    def test_capacity_evicts_lru(self):
        cache = PollingResultCache(capacity=1)
        cache.put("q1", self.query(), True)
        cache.put("q2", self.query(), False)  # q1 evicted, q2 kept
        assert cache.get("q1") is None
        assert cache.get("q2") is False
        assert cache.evictions == 1

    def test_eviction_picks_least_recently_used(self):
        cache = PollingResultCache(capacity=2)
        cache.put("q1", self.query(), True)
        cache.put("q2", self.query(), False)
        assert cache.get("q1") is True  # refresh q1; q2 is now LRU
        cache.put("q3", self.query(), True)
        assert cache.get("q2") is None
        assert cache.get("q1") is True and cache.get("q3") is True

    def test_eviction_clears_table_index(self):
        cache = PollingResultCache(capacity=1)
        cache.put("q1", self.query(), True)
        cache.put("q2", self.query("SELECT COUNT(*) FROM car WHERE maker = 'x'"), True)
        # q1's mileage entry was evicted with its result: nothing to drop.
        assert cache.invalidate_tables({"mileage"}) == 0
        assert cache.invalidate_tables({"car"}) == 1

    def test_put_existing_key_updates_without_eviction(self):
        cache = PollingResultCache(capacity=1)
        cache.put("q1", self.query(), True)
        cache.put("q1", self.query(), False)
        assert cache.get("q1") is False
        assert cache.evictions == 0

    def test_stats_surface(self):
        cache = PollingResultCache(capacity=1)
        cache.put("q1", self.query(), True)
        cache.get("q1")
        cache.get("q2")
        cache.put("q2", self.query(), True)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 1


class TestInformationManager:
    @staticmethod
    def poll(car_db, sql):
        """One cycle's poller over the manager's cross-cycle result cache."""
        manager = InformationManager(car_db, PolicyEngine())
        generator = PollingQueryGenerator(car_db)
        executor = BatchPollExecutor(manager, generator)
        query = parse_statement(sql)

        def once():
            generator.begin_cycle()
            return executor.execute([("task", query)])["task"].impacted

        return manager, generator, once

    def test_poll_with_caching(self, car_db):
        _, generator, once = self.poll(
            car_db, "SELECT COUNT(*) FROM mileage WHERE model = 'Avalon'"
        )
        assert once() is True
        # The next cycle's poll is served by the cross-cycle result cache.
        assert once() is True
        assert generator.stats.cache_hits == 1
        assert generator.stats.batched_queries == 1

    def test_cycle_deltas_invalidate_results(self, car_db):
        manager, _, once = self.poll(
            car_db, "SELECT COUNT(*) FROM mileage WHERE model = 'Rio'"
        )
        assert once() is False
        car_db.execute("INSERT INTO mileage VALUES ('Rio', 40)")
        manager.on_cycle_deltas({"mileage"})
        assert once() is True
