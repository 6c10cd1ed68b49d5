"""The CachePortal facade: install sniffer + invalidator on a site.

One call wires the whole architecture of Figure 7 onto an existing
Configuration-III site — without modifying its servlets, servers, or
database:

* every servlet is wrapped by a request logger,
* every application server's driver is wrapped by a query logger,
* the request-to-query mapper produces the QI/URL map,
* the invalidator — one :class:`~repro.stream.pipeline.StreamingInvalidationPipeline`,
  ``portal.pipeline`` — watches the update log and ejects affected pages.

Typical use::

    site = build_site(Configuration.WEB_CACHE, servlets, database=db)
    portal = CachePortal(site)
    site.get("/catalog?maker=Toyota")       # page generated and cached
    db.execute("INSERT INTO car VALUES (...)")
    portal.run_invalidation_cycle()         # stale pages ejected

Portal state is crash-safe when checkpointed::

    portal.checkpoint("portal.ckpt")        # atomic, checksummed snapshot
    ...                                      # process dies, restarts
    portal = CachePortal(site)               # fresh install, empty state
    report = portal.restore("portal.ckpt")   # map/registry/cursor reloaded
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import CachePortalError
from repro.web.site import Configuration, Site
from repro.core.sniffer import Sniffer
from repro.core.invalidator import InvalidationPolicy, InvalidationReport
from repro.core import recovery
from repro.stream.pipeline import StreamingInvalidationPipeline


class CachePortal:
    """Deploys CachePortal on a web-cache (Configuration III) site.

    Args:
        site: the site to instrument; must have a web cache.
        policy: invalidation-policy thresholds (optional).
        polling_budget: max polling queries per decision pass (one tail
            batch); ``None`` means unbounded (best invalidation quality).
        max_staleness_ms: staleness bound the deployment guarantees;
            servlets with tighter temporal sensitivity stay uncacheable.
        clock: shared time source for logs; defaults to a logical counter.
    """

    def __init__(
        self,
        site: Site,
        policy: Optional[InvalidationPolicy] = None,
        polling_budget: Optional[int] = None,
        max_staleness_ms: float = 1000.0,
        safety_enforcement: bool = True,
        version_keys: bool = True,
        conflict_matrix: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if site.configuration is not Configuration.WEB_CACHE or site.web_cache is None:
            raise CachePortalError(
                "CachePortal requires a Configuration III site (web cache)"
            )
        self.site = site
        # The default clock must not close over the portal: the sniffer
        # registers its query loggers (which keep this clock) in the
        # process-wide driver registry, and a closure over ``self`` would
        # pin the portal — its pipeline and registry — for good.
        logical = itertools.count()
        self.clock = clock or (lambda: float(next(logical)))

        # The sniffer needs the invalidator's cacheability feedback, and
        # the invalidator needs the sniffer's QI/URL map; break the cycle
        # with a late-bound veto.
        self.sniffer = Sniffer(
            site.app_servers,
            clock=self.clock,
            max_staleness_ms=max_staleness_ms,
            cacheability_veto=lambda servlet: (
                self.pipeline.policy_engine.servlet_cacheable(servlet.name)
            ),
        )
        # The one invalidation consumer.  Its pump maps the sniffer's logs
        # first, so every page cached before a tick has its QI/URL rows
        # registered ahead of the updates that tick decides.
        self.pipeline = StreamingInvalidationPipeline(
            site.database,
            [site.web_cache],
            self.sniffer.qiurl_map,
            policy=policy,
            polling_budget=polling_budget,
            safety_enforcement=safety_enforcement,
            version_keys=version_keys,
            conflict_matrix=conflict_matrix,
            servlet_deadline=self._servlet_deadline,
            pre_ingest=self.run_sniffer,
        )

    def _servlet_deadline(self, servlet_name: str) -> float:
        """Temporal sensitivity of a servlet, for poll scheduling (§3.1)."""
        servlet = self.site.app_servers[0].servlets.by_name(servlet_name)
        return servlet.temporal_sensitivity_ms

    # -- operations -----------------------------------------------------------

    def uninstall(self) -> None:
        """Tear CachePortal down, restoring the site to its bare state.

        Servlet and driver wrappers are removed, so responses go back to
        ``no-cache`` and nothing is logged.  Already-cached pages are
        flushed — without an invalidator watching them they would go
        stale silently.  Idempotent.
        """
        self.sniffer.uninstall()
        self.site.web_cache.clear()

    def run_sniffer(self) -> int:
        """One mapping round: drain logs into the QI/URL map."""
        return self.sniffer.run_mapper()

    def run_invalidation_cycle(self) -> InvalidationReport:
        """One synchronization point: map logs, pull Δs, eject stale pages
        — one :meth:`~repro.stream.pipeline.StreamingInvalidationPipeline.run_cycle`.

        The sniffer's mapper runs at the start of every pump, so every page
        cached before this instant has its QI/URL rows visible to the
        invalidator — the safety property tests rely on this ordering.
        Ejects some cache refused stay on the bus: retried with backoff on
        later cycles, dead-lettered after the bus's attempt limit.
        """
        return self.pipeline.run_cycle()

    # -- checkpoint / recovery ------------------------------------------------

    def checkpoint(self, path: Union[str, Path]) -> str:
        """Persist the portal's durable state atomically (the pipeline's
        checkpoint: QI/URL map, registry, LSN cursor, undelivered ejects
        and dead letters); returns the snapshot checksum.

        The mapper runs first so every page cached before this instant has
        its QI/URL rows inside the snapshot.
        """
        return self.pipeline.checkpoint(path)

    def restore(
        self, path: Union[str, Path], reconcile_caches: bool = True
    ) -> "recovery.RecoveryReport":
        """Reload a checkpoint written by :meth:`checkpoint` into this
        freshly installed portal (see
        :meth:`~repro.stream.pipeline.StreamingInvalidationPipeline.restore`):
        cursor seek or, past a truncated log, the flush-all valve, and
        orphan reconciliation with ``reconcile_caches``.
        """
        return self.pipeline.restore(path, reconcile_caches=reconcile_caches)

    # -- introspection ------------------------------------------------------------

    @property
    def qiurl_map(self):
        return self.sniffer.qiurl_map

    def register_query_type(self, template_sql: str, name: Optional[str] = None):
        """Expose offline query-type registration (§4.1.1)."""
        return self.pipeline.register_query_type(template_sql, name)

    def status(self) -> dict:
        """Operational snapshot of every component, for dashboards/logs."""
        cache = self.site.web_cache
        pipeline = self.pipeline
        polling = pipeline.worker.lane.polling.stats
        last = pipeline.last_report
        cache_section = {
            "pages": len(cache),
            "capacity": cache.capacity,
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "hit_ratio": round(cache.stats.hit_ratio, 4),
            "ejects": cache.stats.ejects,
            "evictions": cache.stats.evictions,
            "bytes_used": cache.stats.bytes_used,
        }
        if hasattr(cache, "shards") and hasattr(cache, "status"):
            # A sharded cluster fronting the site: surface its per-shard
            # and ring health alongside the aggregated cache counters.
            cache_section["cluster"] = cache.status()
        return {
            "cache": cache_section,
            "pools": {
                server.name: server.pool.stats()
                for server in self.site.app_servers
            },
            "sniffer": {
                "requests_mapped": self.sniffer.mapper.requests_mapped,
                "pairs_written": self.sniffer.mapper.pairs_written,
                "map_rows": len(self.qiurl_map),
            },
            "invalidator": {
                "cycles_run": pipeline.cycles_run,
                "query_types": len(pipeline.registry.types()),
                "query_instances": len(pipeline.registry),
                "polls_issued": polling.issued,
                "polls_coalesced": polling.coalesced,
                "poll_cache_hits": polling.cache_hits,
                "batched_queries": polling.batched_queries,
                "batched_instances": polling.batched_instances,
                "demux_misses": polling.demux_misses,
                "poll_round_trips_saved": polling.poll_round_trips_saved,
                "over_invalidated_total": (
                    pipeline.worker.lane.scheduler.total_over_invalidated
                ),
                "last_cycle": None
                if last is None
                else {
                    "records": last.records_processed,
                    "pairs_checked": last.pairs_checked,
                    "unaffected": last.unaffected,
                    "affected": last.affected,
                    "polls_executed": last.polls_executed,
                    "urls_ejected": last.urls_ejected,
                    "safe_instances": last.safe_instances,
                    "version_key_instances": last.version_key_instances,
                    "version_key_checks": last.version_key_checks,
                    "polls_avoided": last.polls_avoided,
                    "fallback_ejects": last.fallback_ejects,
                    "poll_only_checks": last.poll_only_checks,
                    "lint_findings": last.lint_findings,
                    "static_disjoint_skips": last.static_disjoint_skips,
                    "template_pairs_pruned": last.template_pairs_pruned,
                },
            },
            "safety": dict(
                pipeline.safety.stats(),
                enabled=pipeline.safety.enabled,
            ),
            "version_keys": None
            if pipeline.version_index is None
            else pipeline.version_index.stats(),
            "conflict_matrix": None
            if pipeline.conflict_matrix is None
            else pipeline.conflict_matrix.stats(),
        }
