"""The streaming pipeline's invalidation lane.

The pump groups each tail batch by relation into :class:`RelationBatch`
items, and one :class:`InvalidationWorker` decides them in log order on
the caller's thread, so all changes to one relation are analyzed — and
their ejects published — in log order.

The worker decides each batch with the same code as the synchronous
invalidator: the cascade and poll phase of
:mod:`repro.core.invalidator.decide`, run on its
:class:`~repro.core.invalidator.decide.Lane` (scheduler, polling
generator, batch poller, checker).  One scheduler cycle per batch
enforces the polling budget per relation batch, as §4.2.2 prescribes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from repro.db.log import UpdateRecord
from repro.core.invalidator.decide import Doomed, Lane, Tiers
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics


@dataclass
class RelationBatch:
    """All changes to one relation from one tail batch, in LSN order."""

    table: str
    records: List[UpdateRecord]
    origin_ts: Optional[float] = None


class InvalidationWorker:
    """The pipeline's one lane: decides relation batches, publishes ejects."""

    def __init__(self, tiers: Tiers, bus: EjectBus, metrics: PipelineMetrics) -> None:
        self.tiers = tiers
        self.bus = bus
        self.metrics = metrics
        self.lane = Lane(tiers)

    def process_batch(self, batch: RelationBatch) -> None:
        """Decide one relation's changes and publish the resulting ejects:
        the shared cascade, one poll phase, one bus publish."""
        doomed = Doomed()
        counts: Counter = Counter(
            batches_processed=1, records_processed=len(batch.records)
        )
        tasks = self.lane.decide(batch.table, batch.records, doomed, counts)
        self.lane.poll(tasks, doomed, counts)
        if counts["polls_requested"]:
            budget = self.tiers.polling_budget
            counts["poll_slots_offered"] = (
                budget if budget is not None else counts["polls_requested"]
            )
        self.metrics.add(**counts)
        if doomed.urls:
            urls = list(doomed.urls)
            self.bus.publish(urls, origin_ts=batch.origin_ts)
            self.tiers.drop_urls(urls)
