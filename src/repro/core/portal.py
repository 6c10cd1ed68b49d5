"""The CachePortal facade: install sniffer + invalidator on a site.

One call wires the whole architecture of Figure 7 onto an existing
Configuration-III site — without modifying its servlets, servers, or
database:

* every servlet is wrapped by a request logger,
* every application server's driver is wrapped by a query logger,
* the request-to-query mapper produces the QI/URL map,
* the invalidator watches the update log and ejects affected pages.

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
from repro.core.invalidator import InvalidationPolicy, InvalidationReport, Invalidator
from repro.core import recovery


class CachePortal:
    """Deploys CachePortal on a web-cache (Configuration III) site.

    Args:
        site: the site to instrument; must have a web cache.
        policy: invalidation-policy thresholds (optional).
        polling_budget: max polling queries per invalidation cycle;
            ``None`` means unbounded (best invalidation quality).
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
        self._logical = itertools.count()
        self.clock = clock or (lambda: float(next(self._logical)))

        # The sniffer needs the invalidator's cacheability feedback, and
        # the invalidator needs the sniffer's QI/URL map; break the cycle
        # with a late-bound veto.
        self.sniffer = Sniffer(
            site.app_servers,
            clock=self.clock,
            max_staleness_ms=max_staleness_ms,
            cacheability_veto=lambda servlet: self.invalidator.servlet_cacheable(
                servlet
            ),
        )
        self.invalidator = Invalidator(
            database=site.database,
            caches=[site.web_cache],
            qiurl_map=self.sniffer.qiurl_map,
            policy=policy,
            polling_budget=polling_budget,
            servlet_deadline=self._servlet_deadline,
            safety_enforcement=safety_enforcement,
            version_keys=version_keys,
            conflict_matrix=conflict_matrix,
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
        """One synchronization point: map logs, pull Δs, eject stale pages.

        The sniffer's mapper always runs first so that every page cached
        before this instant has its QI/URL rows visible to the
        invalidator — the safety property tests rely on this ordering.
        """
        self.run_sniffer()
        return self.invalidator.run_cycle()

    # -- checkpoint / recovery ------------------------------------------------

    def checkpoint(self, path: Union[str, Path]) -> str:
        """Persist the portal's durable state atomically; returns the
        snapshot checksum.

        Run the mapper first so every page cached before this instant has
        its QI/URL rows inside the snapshot — the same ordering
        :meth:`run_invalidation_cycle` relies on for the safety property.
        """
        self.run_sniffer()
        return recovery.write_checkpoint(path, recovery.snapshot_portal(self))

    def restore(
        self, path: Union[str, Path], reconcile_caches: bool = True
    ) -> "recovery.RecoveryReport":
        """Reload a checkpoint written by :meth:`checkpoint`.

        Rebuilds the QI/URL map and query registry (the invalidator's
        predicate index is re-derived by replay, never deserialized),
        seeks the update-log cursor to the checkpointed LSN — or fires
        the flush-all safety valve when the log truncated past it — and,
        with ``reconcile_caches``, ejects cached pages the snapshot has
        no QI/URL rows for (they were cached after the checkpoint and
        have no other eject path).
        """
        payload = recovery.read_checkpoint(path)
        report = recovery.restore_portal(
            self, payload, reconcile_caches=reconcile_caches
        )
        report.path = str(path)
        return report

    # -- introspection ------------------------------------------------------------

    @property
    def qiurl_map(self):
        return self.sniffer.qiurl_map

    def register_query_type(self, template_sql: str, name: Optional[str] = None):
        """Expose offline query-type registration (§4.1.1)."""
        return self.invalidator.register_query_type(template_sql, name)

    def status(self) -> dict:
        """Operational snapshot of every component, for dashboards/logs."""
        cache = self.site.web_cache
        invalidator = self.invalidator
        last = invalidator.last_report
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
                "cycles_run": invalidator.cycles_run,
                "query_types": len(invalidator.registry.types()),
                "query_instances": len(invalidator.registry),
                "polls_issued": invalidator.polling.stats.issued,
                "polls_coalesced": invalidator.polling.stats.coalesced,
                "poll_cache_hits": invalidator.polling.stats.cache_hits,
                "batched_queries": invalidator.polling.stats.batched_queries,
                "batched_instances": invalidator.polling.stats.batched_instances,
                "demux_misses": invalidator.polling.stats.demux_misses,
                "poll_round_trips_saved": (
                    invalidator.polling.stats.poll_round_trips_saved
                ),
                "over_invalidated_total": invalidator.scheduler.total_over_invalidated,
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
                invalidator.safety.stats(),
                enabled=invalidator.safety.enabled,
            ),
            "version_keys": None
            if invalidator.version_index is None
            else invalidator.version_index.stats(),
            "conflict_matrix": None
            if invalidator.conflict_matrix is None
            else invalidator.conflict_matrix.stats(),
        }
