"""Sharded invalidation workers.

Each worker owns one shard of the relation space (``crc32(table) %
num_shards``) and a FIFO queue of :class:`ShardBatch` items, so all
changes to one relation are analyzed — and their ejects published — in
log order, while different relations proceed concurrently.

A worker decides each batch with the same code as the synchronous
invalidator: the cascade and poll phase of
:mod:`repro.core.invalidator.decide`, run on the worker's own
:class:`~repro.core.invalidator.decide.Lane` (scheduler, polling
generator, batch poller, checkers).  One scheduler cycle per batch
enforces the polling budget per shard per cycle, as §4.2.2 prescribes.

Shared mutable state (the query registry, the QI/URL map, per-type
statistics) is guarded by one registry lock; the in-process database is
guarded by a database lock around polling queries.
"""

from __future__ import annotations

import queue
import threading
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from repro.db.log import UpdateRecord
from repro.core.invalidator.decide import Doomed, Lane, Tiers
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics


@dataclass
class ShardBatch:
    """All changes to one relation from one tail batch, in LSN order."""

    table: str
    records: List[UpdateRecord]
    origin_ts: Optional[float] = None


@dataclass
class WorkerContext:
    """Everything the shard workers share: the tiers, their locks, and
    the eject bus."""

    tiers: Tiers
    registry_lock: threading.RLock
    db_lock: threading.Lock
    bus: EjectBus


def shard_for(table: str, num_shards: int) -> int:
    """Stable relation → shard assignment (crc32, not ``hash``: it must
    not vary across processes or interpreter runs)."""
    return zlib.crc32(table.lower().encode("utf-8")) % num_shards


class InvalidationWorker:
    """One shard: a queue, a thread, and a private analysis tool chain."""

    _SENTINEL = object()

    def __init__(
        self,
        shard_id: int,
        context: WorkerContext,
        metrics: PipelineMetrics,
        queue_capacity: int = 64,
    ) -> None:
        self.shard_id = shard_id
        self.context = context
        self.metrics = metrics
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_capacity)
        self.lane = Lane(context.tiers, context.registry_lock, context.db_lock)
        self.batches_processed = 0
        self.records_processed = 0
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name=f"invalidation-worker-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        if not self._running:
            return
        self._running = False
        self.queue.put(self._SENTINEL)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def submit(self, batch: ShardBatch) -> None:
        """Enqueue one batch (blocks when the shard queue is full —
        backpressure onto the tailer pump)."""
        with self._inflight_lock:
            self._inflight += 1
        self.queue.put(batch)

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def depth(self) -> int:
        return self.queue.qsize()

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is self._SENTINEL:
                break
            try:
                self.process_batch(item)
            finally:
                with self._inflight_lock:
                    self._inflight -= 1

    # -- the per-batch invalidation cycle ------------------------------------------

    def process_batch(self, batch: ShardBatch) -> None:
        """Decide one relation's changes and publish the resulting ejects:
        the shared cascade, one poll phase, one bus publish."""
        ctx = self.context
        doomed = Doomed()
        counts: Counter = Counter(
            batches_processed=1, records_processed=len(batch.records)
        )
        tasks = self.lane.decide(batch.table, batch.records, doomed, counts)
        self.lane.poll(tasks, doomed, counts)
        if counts["polls_requested"]:
            budget = ctx.tiers.polling_budget
            counts["poll_slots_offered"] = (
                budget if budget is not None else counts["polls_requested"]
            )
        self.batches_processed += 1
        self.records_processed += len(batch.records)
        self.metrics.add(**counts)
        if doomed.urls:
            urls = list(doomed.urls)
            ctx.bus.publish(urls, origin_ts=batch.origin_ts)
            with ctx.registry_lock:
                ctx.tiers.drop_urls(urls)


class WorkerPool:
    """The fixed set of shard workers plus the routing function."""

    def __init__(
        self,
        num_shards: int,
        context: WorkerContext,
        metrics: PipelineMetrics,
        queue_capacity: int = 64,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self.workers = [
            InvalidationWorker(
                shard_id, context, metrics, queue_capacity=queue_capacity
            )
            for shard_id in range(num_shards)
        ]

    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def stop(self, timeout: float = 5.0) -> None:
        for worker in self.workers:
            worker.stop(timeout=timeout)

    def submit(self, batch: ShardBatch) -> int:
        shard = shard_for(batch.table, self.num_shards)
        self.workers[shard].submit(batch)
        return shard

    def idle(self) -> bool:
        return all(worker.inflight == 0 for worker in self.workers)

    def queue_depths(self) -> List[int]:
        return [worker.depth() for worker in self.workers]
