"""Pipeline observability: counters, gauges, and the ``stats()`` snapshot.

Every moving part of the streaming pipeline reports here — the tailer
(records consumed, replication lag), the lane (batches, verdict mix,
poll-budget utilization), and the eject bus (deliveries, retries, dead
letters).  The pipeline runs on one thread, so the counters are plain
attributes.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional


class PipelineMetrics:
    """Metric store for one pipeline instance."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or time.monotonic
        #: Origin of the ejects-per-second rate.
        self.started_at = self._clock()
        # tailer
        self.records_tailed = 0
        self.batches_tailed = 0
        self.truncations = 0
        # workers
        self.batches_processed = 0
        self.records_processed = 0
        self.duplicate_records_skipped = 0
        self.pairs_checked = 0
        self.unaffected = 0
        self.affected = 0
        # predicate-index probes (pairs_pruned ⊆ unaffected ⊆ pairs_checked)
        self.pairs_pruned = 0
        self.index_probes = 0
        self.probe_time_ms = 0.0
        self.polls_requested = 0
        self.polls_executed = 0
        self.polls_impacted = 0
        self.over_invalidated = 0
        self.poll_slots_offered = 0  # budget * cycles (None budget: offered = requested)
        # set-oriented (batched) polling
        self.batched_queries = 0
        self.batched_instances = 0
        self.demux_misses = 0
        # safety enforcement (lint verdicts)
        self.fallback_ejects = 0
        self.poll_only_checks = 0
        # version-key fast path (polls_avoided ⊆ unaffected)
        self.version_key_checks = 0
        self.polls_avoided = 0
        # static conflict matrix (template_pairs_pruned ⊆ static ⊆ unaffected)
        self.static_disjoint_skips = 0
        self.template_pairs_pruned = 0
        # bus
        self.ejects_requested = 0
        self.ejects_coalesced = 0
        # shard-targeted routing (cluster fan-out)
        self.ejects_routed = 0
        self.ejects_broadcast = 0
        self.routed_deliveries_saved = 0
        self.routing_unknown_targets = 0
        self.deliveries_ok = 0
        self.deliveries_failed = 0
        self.retries = 0
        self.dead_letters = 0
        self.breaker_opens = 0
        self.pages_removed = 0
        self._eject_latency_total = 0.0
        self._eject_latency_count = 0
        self._eject_latency_max = 0.0

    # -- recording ----------------------------------------------------------

    def add(self, **counters: int) -> None:
        """Bump any counter attributes by name (must already exist)."""
        for name, amount in counters.items():
            setattr(self, name, getattr(self, name) + amount)

    def record_eject_latency(self, seconds: float) -> None:
        self._eject_latency_total += seconds
        self._eject_latency_count += 1
        self._eject_latency_max = max(self._eject_latency_max, seconds)

    # -- snapshot ---------------------------------------------------------

    def snapshot(
        self,
        lag_records: int = 0,
        bus_outstanding: int = 0,
    ) -> Dict[str, object]:
        """One coherent dict of everything, for dashboards and the CLI."""
        latency_mean = (
            self._eject_latency_total / self._eject_latency_count
            if self._eject_latency_count
            else 0.0
        )
        utilization = (
            self.polls_executed / self.poll_slots_offered
            if self.poll_slots_offered
            else 0.0
        )
        elapsed = self._clock() - self.started_at
        return {
            "tailer": {
                "records_tailed": self.records_tailed,
                "batches_tailed": self.batches_tailed,
                "lag_records": lag_records,
                "truncations": self.truncations,
            },
            "workers": {
                "batches_processed": self.batches_processed,
                "records_processed": self.records_processed,
                "duplicates_skipped": self.duplicate_records_skipped,
                "pairs_checked": self.pairs_checked,
                "unaffected": self.unaffected,
                "affected": self.affected,
                "pairs_pruned": self.pairs_pruned,
                "index_probes": self.index_probes,
                "probe_time_ms": round(self.probe_time_ms, 3),
                "polls_requested": self.polls_requested,
                "polls_executed": self.polls_executed,
                "polls_impacted": self.polls_impacted,
                "batched_queries": self.batched_queries,
                "batched_instances": self.batched_instances,
                "demux_misses": self.demux_misses,
                "poll_round_trips_saved": max(
                    0, self.batched_instances - self.batched_queries
                ),
                "over_invalidated": self.over_invalidated,
                "fallback_ejects": self.fallback_ejects,
                "poll_only_checks": self.poll_only_checks,
                "version_key_checks": self.version_key_checks,
                "polls_avoided": self.polls_avoided,
                "static_disjoint_skips": self.static_disjoint_skips,
                "template_pairs_pruned": self.template_pairs_pruned,
                "poll_budget_utilization": round(utilization, 4),
            },
            "bus": {
                "ejects_requested": self.ejects_requested,
                "ejects_coalesced": self.ejects_coalesced,
                "ejects_routed": self.ejects_routed,
                "ejects_broadcast": self.ejects_broadcast,
                "routed_deliveries_saved": self.routed_deliveries_saved,
                "routing_unknown_targets": self.routing_unknown_targets,
                "outstanding": bus_outstanding,
                "deliveries_ok": self.deliveries_ok,
                "deliveries_failed": self.deliveries_failed,
                "retries": self.retries,
                "dead_letters": self.dead_letters,
                "breaker_opens": self.breaker_opens,
                "pages_removed": self.pages_removed,
                "ejects_per_second": round(
                    self.deliveries_ok / elapsed if elapsed > 0 else 0.0, 2
                ),
                "eject_latency_mean_ms": round(1000.0 * latency_mean, 3),
                "eject_latency_max_ms": round(
                    1000.0 * self._eject_latency_max, 3
                ),
            },
        }
