"""Schedule generation: deadlines and the polling budget (§4.2.2).

The invalidator must function in real time, so the number of polling
queries it may issue per cycle is limited.  The scheduler orders the
candidate polls — most valuable first — and cuts the list at the budget.
Candidates that miss the cut are *over-invalidated*: their pages are
ejected without polling.  This is precisely the paper's trade-off between
polling amount and invalidation quality: a small budget keeps the DBMS
load down but drives the invalidation rate (and hence cache-miss rate) up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class PollCandidate:
    """One pending polling decision.

    Attributes:
        key: opaque identity for the caller to correlate results.
        priority: higher first (from the query type's registration).
        cost: estimated work units for the polling query.
        urls_at_stake: pages that will be needlessly ejected if the poll
            is skipped; the scheduler protects the largest stakes first.
        deadline_ms: freshness requirement of the most sensitive servlet
            involved (tighter deadlines get scheduled earlier).
        batch_key: set-oriented polling group identity — candidates that
            share a non-None key fold into ONE batched polling query, so
            only the first admitted member of a group pays a round trip
            (budget slot + planned cost); the rest ride along for free.
    """

    key: object
    priority: int = 0
    cost: float = 1.0
    urls_at_stake: int = 1
    deadline_ms: float = 1000.0
    batch_key: Optional[object] = None


@dataclass
class Schedule:
    """Scheduler output: the polls to run and the ones to over-invalidate."""

    to_poll: List[PollCandidate] = field(default_factory=list)
    over_invalidate: List[PollCandidate] = field(default_factory=list)

    @property
    def round_trips(self) -> int:
        """Database round trips this schedule will actually issue: one per
        unbatched candidate plus one per distinct batch group."""
        seen = set()
        trips = 0
        for candidate in self.to_poll:
            if candidate.batch_key is None:
                trips += 1
            elif candidate.batch_key not in seen:
                seen.add(candidate.batch_key)
                trips += 1
        return trips

    @property
    def planned_cost(self) -> float:
        """Planned work, amortized across batches: a batch group's cost is
        counted once (its first admitted member), not per instance."""
        seen = set()
        total = 0.0
        for candidate in self.to_poll:
            if candidate.batch_key is None:
                total += candidate.cost
            elif candidate.batch_key not in seen:
                seen.add(candidate.batch_key)
                total += candidate.cost
        return total


class InvalidationScheduler:
    """Budgeted selection of polling queries.

    Args:
        polling_budget: maximum polling queries per cycle (None = unlimited).
        cost_budget: optional cap on summed poll cost per cycle.
    """

    def __init__(
        self,
        polling_budget: Optional[int] = None,
        cost_budget: Optional[float] = None,
    ) -> None:
        self.polling_budget = polling_budget
        self.cost_budget = cost_budget
        self.cycles = 0
        self.total_candidates = 0
        self.total_scheduled = 0
        self.total_round_trips = 0
        self.total_over_invalidated = 0

    @property
    def budget_utilization(self) -> float:
        """Issued round trips over offered poll slots across all cycles.

        A budget slot is one database round trip.  Batched candidates
        sharing a ``batch_key`` consume a single slot between them, so
        utilization reflects queries actually sent — counting every
        batched instance would over-report pressure and starve later
        cycles.  With an unbounded budget every candidate is a slot, so
        the value is 1.0 whenever any poll ran; streaming metrics use
        this as the poll-budget utilization gauge.
        """
        if self.polling_budget is None:
            offered = self.total_candidates
            used = self.total_scheduled
        else:
            offered = self.cycles * self.polling_budget
            used = self.total_round_trips
        if not offered:
            return 0.0
        return min(1.0, used / offered)

    def schedule(self, candidates: List[PollCandidate]) -> Schedule:
        """Split candidates into polls-to-run and over-invalidations.

        Ordering: higher priority first, then more URLs at stake (skipping
        them hurts the hit ratio most), then tighter deadline, then lower
        cost.  The order is deterministic for reproducible experiments.

        Batching: a candidate whose ``batch_key`` matches an already
        admitted candidate joins that batch's round trip — it costs no
        budget slot and no additional planned cost (the batched query is
        issued either way), so nearly-free riders are never deferred.
        """
        self.cycles += 1
        self.total_candidates += len(candidates)
        ranked = sorted(
            candidates,
            key=lambda c: (-c.priority, -c.urls_at_stake, c.deadline_ms, c.cost),
        )
        schedule = Schedule()
        spent_cost = 0.0
        round_trips = 0
        admitted_batches = set()
        for candidate in ranked:
            rides_along = (
                candidate.batch_key is not None
                and candidate.batch_key in admitted_batches
            )
            if rides_along:
                schedule.to_poll.append(candidate)
                continue
            over_count_budget = (
                self.polling_budget is not None
                and round_trips >= self.polling_budget
            )
            over_cost_budget = (
                self.cost_budget is not None
                and spent_cost + candidate.cost > self.cost_budget
            )
            if over_count_budget or over_cost_budget:
                schedule.over_invalidate.append(candidate)
            else:
                schedule.to_poll.append(candidate)
                spent_cost += candidate.cost
                round_trips += 1
                if candidate.batch_key is not None:
                    admitted_batches.add(candidate.batch_key)
        self.total_scheduled += len(schedule.to_poll)
        self.total_round_trips += round_trips
        self.total_over_invalidated += len(schedule.over_invalidate)
        return schedule
