"""The streaming pipeline's invalidation lane.

One :class:`InvalidationWorker` decides each tail batch on the caller's
thread — one pass of the paper's cycle (Figure 11): every relation in
the batch goes through the cascade of
:mod:`repro.core.invalidator.decide` with one shared ``doomed`` set, then
one poll phase, then one bus publish.  Relations are decided in turn and
each relation's records in log order, and batches are published in log
order, so all changes to one relation are ejected in log order.

One scheduler cycle per batch enforces the polling budget per pass, as
§4.2.2 prescribes.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.db.log import DeltaTables
from repro.core.invalidator.decide import Doomed, Lane, PollTask, Tiers
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics


class InvalidationWorker:
    """The pipeline's one lane: decides tail batches, publishes ejects."""

    def __init__(self, tiers: Tiers, bus: EjectBus, metrics: PipelineMetrics) -> None:
        self.tiers = tiers
        self.bus = bus
        self.metrics = metrics
        self.lane = Lane(tiers)

    def process_batch(self, deltas: DeltaTables, origin_ts: float) -> None:
        """Decide one tail batch and publish the resulting ejects: the
        cascade per relation, one poll phase, one bus publish."""
        doomed = Doomed()
        counts: Counter = Counter(batches_processed=1, records_processed=len(deltas))
        tasks: List[PollTask] = []
        for table in deltas.tables():
            tasks += self.lane.decide(
                table, deltas.changes_for(table), doomed, counts
            )
        self.lane.poll(tasks, doomed, counts)
        if counts["polls_requested"]:
            budget = self.tiers.polling_budget
            counts["poll_slots_offered"] = (
                budget if budget is not None else counts["polls_requested"]
            )
        self.metrics.add(**counts)
        if doomed.urls:
            urls = list(doomed.urls)
            self.bus.publish(urls, origin_ts=origin_ts)
            self.tiers.drop_urls(urls)
