"""The streaming invalidation pipeline: tailer → lane → eject bus.

CachePortal's one invalidation consumer.  It runs the decision — the
tiers, cascade and poll phase of :mod:`repro.core.invalidator.decide` —
as one ordered consumer driven from the caller's thread:

* a :class:`~repro.stream.tailer.LogTailer` consumes the update log in
  bounded batches with a resumable offset;
* :meth:`StreamingInvalidationPipeline.pump_once` ingests new QI/URL
  rows, tails one batch and applies the result-cache daemon hook of
  §4.3;
* one :class:`~repro.stream.workers.InvalidationWorker` decides the
  batch — one pass of the paper's cycle: every relation with one shared
  ``doomed`` set, one budgeted poll phase, one publish;
* an :class:`~repro.stream.bus.EjectBus` coalesces and delivers the
  ``Cache-Control: eject`` messages, absorbing cache faults with bounded
  retry, a circuit breaker and a dead-letter queue.

:meth:`~StreamingInvalidationPipeline.process_available` is the tick (the
gateway and the benchmark call it on their serving loop; it never
sleeps); :meth:`~StreamingInvalidationPipeline.run_cycle` is one tick
reported as an :class:`~repro.core.invalidator.invalidator.InvalidationReport`
(``CachePortal.run_invalidation_cycle``);
:meth:`~StreamingInvalidationPipeline.drain` repeats the tick until the
log is at its head and the bus has nothing outstanding, waiting out
retry backoff.

When the bounded log truncates past the tailer's offset, every watched
page is flushed (the update-loss safety valve).

Typical use::

    portal = CachePortal(site)   # builds and owns portal.pipeline
    ...                          # site serves traffic, updates commit
    portal.pipeline.drain()      # all known changes invalidated
    print(portal.pipeline.stats())
"""

from __future__ import annotations

import time
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.db.engine import Database
from repro.db.log import DeltaTables
from repro.core import recovery
from repro.core.qiurl import QIURLMap
from repro.core.invalidator.decide import build_tiers
from repro.core.invalidator.invalidator import InvalidationReport
from repro.core.invalidator.policies import InvalidationPolicy
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics
from repro.stream.tailer import LogTailer
from repro.stream.workers import InvalidationWorker


class StreamingInvalidationPipeline:
    """CachePortal invalidation over one database, one ordered consumer.

    Args:
        database: the origin DBMS whose update log is tailed.
        caches: caches to receive ejects (registered as ``cache0``…);
            more can be attached later via :meth:`register_cache`.
        qiurl_map: the sniffer's QI/URL map (a private one is created
            when omitted — useful for registry-only tests).
        polling_budget: poll budget per tail batch (§4.2.2); ``None``
            polls every pair the checker cannot decide.
        batch_size: tailer read bound (the pipeline's buffering limit,
            and the most records one decision pass sees).
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
        #: The batch the last pump tailed, not yet decided, and when.
        self._pending: Optional[Tuple[DeltaTables, float]] = None
        self.pre_ingest = pre_ingest
        self._clock = time.monotonic
        self.cycles_run = 0
        self.last_report: Optional[InvalidationReport] = None

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_portal(cls, portal) -> "StreamingInvalidationPipeline":
        """The portal's own pipeline (``bench/site.py`` reaches it here)."""
        return portal.pipeline

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
        """One pump iteration: ingest, then tail one batch and hold it for
        :meth:`process_available` to decide.  Returns True when any work
        was found."""
        if self.pre_ingest is not None:
            self.pre_ingest()
        self.registration.scan(self.qiurl_map.read_new())
        # Fingerprint new POLL_ONLY instances before their first batch is
        # decided.  The previous baseline may only be promoted to trusted
        # once no records from an older batch remain undecided.
        self.safety.prepare_cycle(promote=self._pending is None)
        batch = self.tailer.poll()
        if batch.lost:
            self.metrics.add(truncations=1)
            self._flush_everything()
            return True
        if not batch.records:
            return False
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
        self._pending = (deltas, self._clock())
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

        Each pass decides one tail batch, then gives the bus one delivery
        round.  It never sleeps: a retry still in backoff goes out on a
        later tick (or in :meth:`drain`).
        """
        processed = 0
        for _ in range(max_batches):
            moved = self.pump_once()
            if self._pending is not None:
                deltas, origin_ts = self._pending
                self._pending = None
                processed += len(deltas)
                # Looked up per call: bench/trace.py wraps it on the worker.
                self.worker.process_batch(deltas, origin_ts)
                # Policy discovery (§4.1.4) runs at the end of each pass.
                self.policy_engine.discover(self.registry)
            if self.bus.outstanding:
                self.bus.pump()
            if not moved and self.tailer.at_head():
                break
        return processed

    def run_cycle(self) -> InvalidationReport:
        """One synchronization point (Figure 11): :meth:`process_available`,
        reported as the deltas it moved on the metrics, plus the live
        registry's safety counters."""
        before = dict(vars(self.metrics))
        self.process_available()
        after = vars(self.metrics)
        report = InvalidationReport(
            updates_lost=after["truncations"] > before["truncations"],
            urls_ejected=after["ejects_requested"] - before["ejects_requested"],
            **self.tiers.registry_counts(),
        )
        for field in fields(report):
            if field.name in after:
                setattr(report, field.name, after[field.name] - before[field.name])
        self.cycles_run += 1
        self.last_report = report
        return report

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every change appended so far is fully invalidated:
        log tailed to head and eject bus settled.  Between ticks it sleeps
        until the bus's next retry is due.  Returns False when work is
        still outstanding at ``timeout``."""
        deadline = self._clock() + timeout
        while True:
            self.process_available()
            if self.tailer.at_head() and self.bus.outstanding == 0:
                return True
            now = self._clock()
            if now >= deadline:
                return False
            wait = self.bus.due_in()
            if wait:
                time.sleep(min(wait, deadline - now))

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
