"""The information management module (paper §4.3).

Maintains the four kinds of information the paper enumerates:

* **polling queries** — the per-cycle dedup lives in the polling
  generator, and every poll goes to the origin DBMS;
* **polling query results** — a result cache refreshed by a daemon hook
  wired to the update log, so repeated polls for hot tuples are free;
* **invalidation policies** — owned by the policy engine, referenced here;
* **statistics** — per query type, kept in the registry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set

from repro.sql import ast
from repro.sql.analysis import referenced_tables
from repro.db.engine import Database
from repro.core.invalidator.policies import PolicyEngine

#: Entries the cross-cycle polling-result cache holds before LRU eviction.
RESULT_CACHE_CAPACITY = 10000


class PollingResultCache:
    """Cross-cycle cache of polling-query outcomes.

    Entries are invalidated when any base table of the cached polling
    query changes — the "daemon process that will watch the update logs"
    of §4.3.  Because a poll's tables are a subset of the instance's
    tables, the daemon only needs the per-cycle delta table names.
    """

    def __init__(self, capacity: int = RESULT_CACHE_CAPACITY) -> None:
        self.capacity = capacity
        self._results: "OrderedDict[str, bool]" = OrderedDict()
        self._tables: Dict[str, Set[str]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def get(self, sql: str) -> Optional[bool]:
        if sql in self._results:
            self.hits += 1
            self._results.move_to_end(sql)
            return self._results[sql]
        self.misses += 1
        return None

    def put(self, sql: str, query: ast.Select, impacted: bool) -> None:
        if sql in self._results:
            self._results.move_to_end(sql)
        elif len(self._results) >= self.capacity:
            # LRU eviction: a full cache must keep admitting hot new
            # (query, result) pairs or it silently stops being a cache.
            evicted, _ = self._results.popitem(last=False)
            del self._tables[evicted]
            self.evictions += 1
        self._results[sql] = impacted
        self._tables[sql] = referenced_tables(query)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._results),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    def invalidate_tables(self, changed_tables: Set[str]) -> int:
        """Drop cached results whose polling query reads a changed table."""
        dropped = [
            sql
            for sql, tables in self._tables.items()
            if tables & changed_tables
        ]
        for sql in dropped:
            del self._results[sql]
            del self._tables[sql]
        self.invalidations += len(dropped)
        return len(dropped)


class InformationManager:
    """Auxiliary structures for the invalidation module.

    Args:
        database: the origin DBMS.
        policy_engine: shared policy store.
    """

    def __init__(self, database: Database, policy_engine: PolicyEngine) -> None:
        self.database = database
        self.policy_engine = policy_engine
        self.result_cache = PollingResultCache()

    def on_cycle_deltas(self, changed_tables: Set[str]) -> None:
        """Daemon hook: refresh caches after a pull of the update log."""
        self.result_cache.invalidate_tables(changed_tables)
