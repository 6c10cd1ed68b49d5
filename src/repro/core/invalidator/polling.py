"""Polling-query generation, coalescing, and execution (§4.2.2–4.2.3).

The query generator / result interpreter converts the independence
checker's residual conditions into SQL understandable to the DBMS and
turns the results back into a yes/no "does this update reach the query"
answer.

Two optimizations from the paper are implemented:

* **coalescing** — identical polling queries arising from different query
  instances within one cycle are issued once (queries "share subqueries"
  when instances of the same type see the same changed tuple);
* **result caching** — the information-management module may keep polling
  results across cycles for hot (query type, tuple) pairs; see
  :mod:`repro.core.invalidator.infomgmt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sql import ast
from repro.sql.params import polling_key
from repro.db.engine import Database


@dataclass
class PollingStats:
    issued: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    total_work_units: int = 0
    # Set-oriented (batched) polling: round-trip accounting.
    batched_queries: int = 0
    batched_instances: int = 0
    demux_misses: int = 0

    @property
    def poll_round_trips_saved(self) -> int:
        """Per-instance round trips avoided by folding tasks into batches."""
        return max(0, self.batched_instances - self.batched_queries)


class PollingQueryGenerator:
    """Executes polling queries against the origin database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.stats = PollingStats()
        self._cycle_results: Dict[Tuple[str, Tuple], bool] = {}

    def begin_cycle(self) -> None:
        """Reset per-cycle coalescing state."""
        self._cycle_results = {}

    def cycle_result_keyed(self, key: Tuple[str, Tuple]) -> Optional[bool]:
        """This cycle's memoized outcome for a precomputed ``polling_key``,
        if any — lets bulk callers (the batch poller) parameterize each
        query once instead of once per lookup."""
        return self._cycle_results.get(key)

    def record_cycle_result_keyed(
        self, key: Tuple[str, Tuple], impacted: bool
    ) -> None:
        """Memoize an outcome obtained elsewhere (a batched poll) so later
        polls of an equivalent query coalesce onto it."""
        self._cycle_results[key] = impacted

    def poll(self, query: ast.Select) -> bool:
        """True when the polling query returns a non-empty/positive result.

        The generator emits ``SELECT COUNT(*) ...`` queries, so "impact"
        means a count greater than zero.

        Coalescing (§4.2.2) keys the cycle memo by the canonical
        (type signature, bindings) pair, not printed SQL: literal/``?``/
        ``$n`` spellings and formatting variants of the same selection
        coalesce, while equal-looking queries with different constants
        never do.
        """
        key = polling_key(query)
        if key in self._cycle_results:
            self.stats.coalesced += 1
            return self._cycle_results[key]
        result = self.database.execute(query)
        self.stats.issued += 1
        self.stats.total_work_units += result.work_units
        impacted = bool(result.rows) and bool(result.rows[0][0])
        self._cycle_results[key] = impacted
        return impacted
