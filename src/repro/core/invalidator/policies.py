"""Invalidation policies: registration and discovery (§4.1.3–4.1.4).

A policy decides which pages are worth caching at all.  The paper lists
three discovery heuristics, all implemented here:

* a query type that requires too much processing overhead may not be
  cached;
* a query type that invalidates more than a certain percentage of all
  query instances (per update) may not be cached;
* a query type/instance that is updated very often may not be cached.

Policies come in two flavours: *query-based* (about query types) and
*request-based* (about servlets).  The policy engine aggregates registered
rules plus discovered ones and answers the two questions the rest of the
system asks: "is this query type cacheable?" and "is this servlet
cacheable?" — the latter is the feedback channel into the sniffer's
request logger (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.core.invalidator.registration import QueryType, QueryTypeRegistry


@dataclass(frozen=True)
class InvalidationPolicy:
    """Thresholds governing cacheability decisions.

    Attributes:
        max_invalidation_time: query types whose average invalidation
            handling exceeds this (clock units) stop being cached.
        max_invalidation_ratio: query types where one update invalidates
            more than this fraction of instances stop being cached.
        max_update_frequency: query types whose tables see more than this
            many updates per cycle on average stop being cached.
        min_observations: updates a type must have seen before the
            discovery heuristics may disable it (avoids cold-start flaps).
    """

    max_invalidation_time: float = float("inf")
    max_invalidation_ratio: float = 1.0
    max_update_frequency: float = float("inf")
    min_observations: int = 10


QueryRule = Callable[[QueryType], bool]


class PolicyEngine:
    """Aggregates hard-coded and discovered invalidation policies."""

    def __init__(self, policy: Optional[InvalidationPolicy] = None) -> None:
        self.policy = policy or InvalidationPolicy()
        self._query_rules: List[QueryRule] = []
        self._uncacheable_servlets: Set[str] = set()
        self._uncacheable_types: Set[str] = set()  # type signatures
        self.cycles_observed = 0

    # -- registration (offline mode) ------------------------------------------

    def register_query_rule(self, rule: QueryRule) -> None:
        """Add a hard-coded query-based rule: True means "may cache"."""
        self._query_rules.append(rule)

    def mark_servlet_uncacheable(self, servlet_name: str) -> None:
        """Hard-coded request-based rule."""
        self._uncacheable_servlets.add(servlet_name)

    def mark_type_uncacheable(self, signature: str) -> None:
        self._uncacheable_types.add(signature)

    # -- decisions ----------------------------------------------------------------

    def query_type_cacheable(self, query_type: QueryType) -> bool:
        if query_type.signature in self._uncacheable_types:
            return False
        if not query_type.cacheable:
            return False
        return all(rule(query_type) for rule in self._query_rules)

    def servlet_cacheable(self, servlet_name: str) -> bool:
        return servlet_name not in self._uncacheable_servlets

    # -- discovery (online mode, §4.1.4) --------------------------------------------

    def discover(self, registry: QueryTypeRegistry) -> List[QueryType]:
        """Re-evaluate every query type's stats against the thresholds.

        Returns the types newly marked non-cacheable this round.  The
        registration module calls this after each invalidation cycle.
        """
        self.cycles_observed += 1
        newly_disabled: List[QueryType] = []
        for query_type in registry.types():
            if not query_type.cacheable:
                continue
            stats = query_type.stats
            if stats.updates_seen < self.policy.min_observations:
                continue
            too_slow = (
                stats.average_invalidation_time > self.policy.max_invalidation_time
            )
            too_broad = (
                stats.invalidation_ratio > self.policy.max_invalidation_ratio
            )
            update_rate = stats.updates_seen / max(1, self.cycles_observed)
            too_hot = update_rate > self.policy.max_update_frequency
            if too_slow or too_broad or too_hot:
                query_type.cacheable = False
                self._uncacheable_types.add(query_type.signature)
                newly_disabled.append(query_type)
        return newly_disabled
