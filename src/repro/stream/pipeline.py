"""The streaming invalidation pipeline: tailer → lane → eject bus.

The synchronous :class:`~repro.core.invalidator.invalidator.Invalidator`
processes each synchronization point as one blocking pass.  The pipeline
runs the same decision — the tiers, cascade and poll phase of
:mod:`repro.core.invalidator.decide` — incrementally, as one ordered
consumer driven from the caller's thread:

* a :class:`~repro.stream.tailer.LogTailer` consumes the update log in
  bounded batches with a resumable offset;
* :meth:`StreamingInvalidationPipeline.pump_once` ingests new QI/URL
  rows, tails one batch, groups it by relation (per-relation order
  preserved), and applies the result-cache daemon hook of §4.3;
* one :class:`~repro.stream.workers.InvalidationWorker` runs the shared
  cascade and budgeted polling on each relation batch;
* an :class:`~repro.stream.bus.EjectBus` coalesces and delivers the
  ``Cache-Control: eject`` messages, absorbing cache faults.

:meth:`~StreamingInvalidationPipeline.process_available` is the tick (the
gateway and the benchmark call it on their serving loop);
:meth:`~StreamingInvalidationPipeline.drain` repeats it until the log is
at its head and the bus has nothing outstanding.

The update-loss safety valve is shared with the synchronous path: when
the bounded log truncates past the tailer's offset, every watched page
is flushed.

Typical use::

    pipeline = StreamingInvalidationPipeline.for_portal(portal)
    ...                      # site serves traffic, updates commit
    pipeline.drain()         # all known changes invalidated
    print(pipeline.stats())

While a pipeline drives invalidation, do not also call
``portal.run_invalidation_cycle()`` — both consume the same QI/URL map
cursor and update log.
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

from repro.db.engine import Database
from repro.core import recovery
from repro.core.qiurl import QIURLMap
from repro.core.invalidator.decide import build_tiers
from repro.core.invalidator.policies import InvalidationPolicy
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics
from repro.stream.tailer import LogTailer
from repro.stream.workers import InvalidationWorker, RelationBatch


class StreamingInvalidationPipeline:
    """CachePortal invalidation over one database, one ordered consumer.

    Args:
        database: the origin DBMS whose update log is tailed.
        caches: caches to receive ejects (registered as ``cache0``…);
            more can be attached later via :meth:`register_cache`.
        qiurl_map: the sniffer's QI/URL map (a private one is created
            when omitted — useful for registry-only tests).
        polling_budget: per relation batch poll budget (§4.2.2).
        batch_size: tailer read bound (the pipeline's buffering limit).
        start_lsn: resume offset; ``None`` starts at the current head.
        pre_ingest: hook run at each pump iteration *before* tailing —
            typically ``portal.run_sniffer`` so freshly cached pages are
            registered ahead of their invalidating updates.
    """

    def __init__(
        self,
        database: Database,
        caches: Sequence[object] = (),
        qiurl_map: Optional[QIURLMap] = None,
        *,
        policy: Optional[InvalidationPolicy] = None,
        polling_budget: Optional[int] = None,
        batch_size: int = 256,
        start_lsn: Optional[int] = None,
        safety_enforcement: bool = True,
        version_keys: bool = True,
        conflict_matrix: bool = True,
        servlet_deadline: Optional[Callable[[str], float]] = None,
        pre_ingest: Optional[Callable[[], object]] = None,
        bus: Optional[EjectBus] = None,
        metrics: Optional[PipelineMetrics] = None,
    ) -> None:
        self.database = database
        self.qiurl_map = qiurl_map if qiurl_map is not None else QIURLMap()
        self.metrics = metrics or PipelineMetrics()
        self.tailer = LogTailer(
            database.update_log, batch_size=batch_size, start_lsn=start_lsn
        )
        # Version-key counters are bumped by the pump before batches are
        # decided; new fast-path instances are stamped with its cursor.
        self.tiers = build_tiers(
            database,
            self.qiurl_map,
            stamp_source=lambda: self.tailer.cursor,
            policy=policy,
            polling_budget=polling_budget,
            safety_enforcement=safety_enforcement,
            version_keys=version_keys,
            conflict_matrix=conflict_matrix,
            servlet_deadline=servlet_deadline,
        )
        tiers = self.tiers
        self.registry = tiers.registry
        self.registration = tiers.registration
        self.policy_engine = tiers.policy_engine
        self.infomgmt = tiers.infomgmt
        self.safety = tiers.safety
        self.conflict_matrix = tiers.conflict_matrix
        self.pred_index = tiers.pred_index
        self.version_index = tiers.version_index
        self.bus = bus or EjectBus(metrics=self.metrics)
        if bus is not None:
            self.bus.metrics = self.metrics
        for index, cache in enumerate(caches):
            self.bus.register(f"cache{index}", cache)
        self.worker = InvalidationWorker(tiers, self.bus, self.metrics)
        # bench/trace.py wraps process_batch on every member of
        # pool.workers; the pipeline has exactly one.
        self.pool = SimpleNamespace(workers=[self.worker])
        #: Relation batches the last pump tailed, not yet decided.
        self._batches: Deque[RelationBatch] = deque()
        self.pre_ingest = pre_ingest
        self._clock = time.monotonic

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_portal(cls, portal, **kwargs) -> "StreamingInvalidationPipeline":
        """Build a pipeline over a :class:`~repro.core.portal.CachePortal`.

        Reuses the portal's sniffer (QI/URL map + mapper) and targets the
        site's web cache; the portal's own synchronous invalidator should
        then be left idle.
        """
        site = portal.site
        kwargs.setdefault("pre_ingest", portal.run_sniffer)
        kwargs.setdefault("servlet_deadline", portal._servlet_deadline)
        return cls(
            database=site.database,
            caches=[site.web_cache],
            qiurl_map=portal.qiurl_map,
            **kwargs,
        )

    def register_cache(self, name: str, cache: object) -> None:
        self.bus.register(name, cache)

    def attach_cluster(self, cluster, extra_targets: Sequence[str] = ()):
        """Serve ejects to a sharded cache cluster instead of (or beside)
        flat caches: every shard becomes its own bus target (per-shard
        retries and circuit breakers) and the cluster's consistent-hash
        ring routes each eject to only the owning shard(s).

        ``extra_targets`` names already-registered non-sharded caches
        (e.g. a reverse-proxy tier) that must keep receiving every eject.
        Returns the installed router.
        """
        # Imported here: repro.cluster depends on repro.stream.bus, so a
        # module-level import would make the package import order brittle.
        from repro.cluster.router import attach_cluster_to_bus

        return attach_cluster_to_bus(
            self.bus, cluster, extra_targets=extra_targets
        )

    def register_query_type(self, template_sql: str, name: Optional[str] = None):
        """Offline registration of a known query type (§4.1.1)."""
        return self.registration.register_query_type(template_sql, name)

    # -- checkpoint / recovery -------------------------------------------------

    def checkpoint(self, path: Union[str, Path]) -> str:
        """Persist the pipeline's durable state (QI/URL map, registry,
        tailer LSN cursor, undelivered ejects + dead letters) atomically;
        returns the snapshot checksum.
        """
        if self.pre_ingest is not None:
            self.pre_ingest()
        self.registration.scan(self.qiurl_map.read_new())
        payload = recovery.snapshot_pipeline(self)
        return recovery.write_checkpoint(path, payload)

    def restore(
        self, path: Union[str, Path], reconcile_caches: bool = True
    ) -> "recovery.RecoveryReport":
        """Reload a checkpoint into this (not yet pumped) pipeline.

        The registry replays through its listeners, so the predicate
        index is rebuilt from the restored instances rather than
        deserialized; the tailer seeks to the checkpointed LSN, and a log
        that truncated past it fires the flush-all safety valve with the
        lost LSN range recorded on the tailer.
        """
        payload = recovery.read_checkpoint(path)
        report = recovery.restore_pipeline(
            self, payload, reconcile_caches=reconcile_caches
        )
        report.path = str(path)
        return report

    # -- the pump -------------------------------------------------------------

    def pump_once(self) -> bool:
        """One pump iteration: ingest, tail one batch and queue its
        relation batches for :meth:`process_available`.  Returns True
        when any work was queued."""
        if self.pre_ingest is not None:
            self.pre_ingest()
        self.registration.scan(self.qiurl_map.read_new())
        # Fingerprint new POLL_ONLY instances before their first batch is
        # decided.  The previous baseline may only be promoted to trusted
        # once no records from older batches remain undecided.
        self.safety.prepare_cycle(promote=not self._batches)
        batch = self.tailer.poll()
        if batch.lost:
            self.metrics.add(truncations=1)
            self._flush_everything()
            return True
        if not batch.records:
            return False
        now = self._clock()
        self.metrics.add(
            records_tailed=len(batch.records), batches_tailed=1
        )
        deltas = batch.deltas()
        if self.version_index is not None:
            # Bump-before-check: counters must reflect this batch before
            # any of its (instance, record) pairs is examined.
            self.version_index.observe(batch.records)
        # §4.3 daemon hook: stale polling results for changed tables must
        # be dropped before anything polls on this batch's behalf.
        self.infomgmt.on_cycle_deltas(set(deltas.tables()))
        for table in deltas.tables():
            self._batches.append(
                RelationBatch(
                    table=table,
                    records=deltas.changes_for(table),
                    origin_ts=now,
                )
            )
        # Policy discovery (§4.1.4) rides along at batch granularity.
        self.policy_engine.discover(self.registry)
        return True

    def _flush_everything(self) -> List[str]:
        """Update-loss safety valve: eject every watched page."""
        urls = self.tiers.flush_all(self.tailer.cursor)
        if urls:
            self.bus.publish(urls, origin_ts=self._clock())
        return urls

    def process_available(self, max_batches: int = 1_000_000) -> int:
        """Tail, decide and deliver everything currently available, on
        the caller's thread; returns records processed.

        Each pump's relation batches are decided in log order, then the
        bus is pumped (waiting out retry backoff) until nothing is
        outstanding.
        """
        processed = 0
        for _ in range(max_batches):
            moved = self.pump_once()
            while self._batches:
                batch = self._batches.popleft()
                processed += len(batch.records)
                # Looked up per call: bench/trace.py wraps it on the worker.
                self.worker.process_batch(batch)
            while self.bus.outstanding:
                next_due = self.bus.pump()
                if self.bus.outstanding and next_due is not None:
                    delay = max(0.0, next_due - self._clock())
                    if delay > 0:
                        time.sleep(min(delay, 0.05))
            if not moved and self.tailer.at_head():
                break
        return processed

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every change appended so far is fully invalidated:
        log tailed to head and eject bus settled.  Returns False when
        changes still arrive at ``timeout``."""
        deadline = self._clock() + timeout
        while True:
            self.process_available()
            if self.tailer.at_head() and self.bus.outstanding == 0:
                return True
            if self._clock() >= deadline:
                return False

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """One coherent snapshot of pipeline health (the `repro stream`
        CLI renders exactly this)."""
        snapshot = self.metrics.snapshot(
            lag_records=self.tailer.lag,
            bus_outstanding=self.bus.outstanding,
        )
        snapshot["registry"] = dict(
            self.registry.stats(), map_rows=len(self.qiurl_map)
        )
        snapshot["predicate_index"] = self.pred_index.stats()
        # Safety observability: derived from the live registry, so it is
        # computed here rather than accumulated in the metrics.
        snapshot["workers"].update(self.tiers.registry_counts())
        snapshot["safety"] = self.safety.stats()
        if self.version_index is not None:
            snapshot["version_keys"] = self.version_index.stats()
        if self.conflict_matrix is not None:
            snapshot["conflict_matrix"] = self.conflict_matrix.stats()
        snapshot["tailer"]["cursor"] = self.tailer.cursor
        snapshot["tailer"]["last_lost_range"] = (
            list(self.tailer.last_lost_range)
            if self.tailer.last_lost_range is not None
            else None
        )
        scheduler = self.worker.lane.scheduler
        snapshot["lane"] = {
            "scheduler_cycles": scheduler.cycles,
            "over_invalidated": scheduler.total_over_invalidated,
            "budget_utilization": round(scheduler.budget_utilization, 4),
        }
        snapshot["dead_letters"] = [
            {
                "url": letter.url_key,
                "cache": letter.cache_name,
                "attempts": letter.attempts,
            }
            for letter in self.bus.dead_letters
        ]
        return snapshot
