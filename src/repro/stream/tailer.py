"""CDC tailer: incremental consumption of the database update log.

The tailer reads the Δ⁺R/Δ⁻R stream in bounded batches — its in-memory
footprint is one batch, never the whole backlog — and exposes a
resumable offset so a restarted pipeline continues exactly where it
stopped.

Truncation of the bounded log past the cursor is surfaced as a *lost*
batch rather than an exception: the pipeline reacts with the update-loss
safety valve (flush every watched page) and the tailer resynchronizes
to the head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.db.log import DeltaTables, UpdateLog, UpdateRecord


@dataclass
class TailBatch:
    """One bounded read of the update log."""

    records: List[UpdateRecord] = field(default_factory=list)
    #: True when the log was truncated past the cursor: the records that
    #: were lost are unknowable and the consumer must over-invalidate.
    lost: bool = False
    #: Inclusive LSN range ``(first, last)`` skipped when ``lost`` — the
    #: records the cursor jumped over while resynchronizing to the head.
    #: ``None`` when nothing is lost (or, defensively, when the resync
    #: moved the cursor forward without skipping any assigned LSN).
    lost_range: Optional[Tuple[int, int]] = None

    @property
    def first_lsn(self) -> Optional[int]:
        return self.records[0].lsn if self.records else None

    @property
    def last_lsn(self) -> Optional[int]:
        return self.records[-1].lsn if self.records else None

    def __len__(self) -> int:
        return len(self.records)

    def is_empty(self) -> bool:
        return not self.records and not self.lost

    def deltas(self) -> DeltaTables:
        deltas = DeltaTables()
        for record in self.records:
            deltas.add(record)
        return deltas


class LogTailer:
    """Bounded, resumable reader of one :class:`UpdateLog`.

    Args:
        log: the update log to tail.
        batch_size: maximum records returned per :meth:`poll` — the
            buffering bound.
        start_lsn: resume offset; ``None`` starts at the current head
            (only new changes are seen, matching install-time semantics).
    """

    def __init__(
        self,
        log: UpdateLog,
        batch_size: int = 256,
        start_lsn: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.log = log
        self.batch_size = batch_size
        self._cursor = log.head_lsn - 1 if start_lsn is None else start_lsn
        self.records_read = 0
        self.batches_read = 0
        self.truncations = 0
        #: LSN range skipped by the most recent truncation resync, for
        #: the flush-all valve and the staleness auditor to report.
        self.last_lost_range: Optional[Tuple[int, int]] = None

    # -- offsets -------------------------------------------------------------

    @property
    def cursor(self) -> int:
        """LSN of the last record consumed (the resumable offset)."""
        return self._cursor

    def checkpoint(self) -> int:
        """Offset to persist; feed back as ``start_lsn`` to resume."""
        return self._cursor

    def seek(self, lsn: int) -> None:
        """Reposition the cursor (e.g. restoring a checkpoint)."""
        self._cursor = lsn

    @property
    def lag(self) -> int:
        """Records appended but not yet consumed (replication lag)."""
        return max(0, self.log.last_lsn - self._cursor)

    def at_head(self) -> bool:
        return self.lag == 0

    # -- consumption -------------------------------------------------------------

    def poll(self, max_records: Optional[int] = None) -> TailBatch:
        """Read the next bounded batch; advances the cursor past it.

        Returns an empty batch at head, and a ``lost`` batch when the log
        wrapped past the cursor (cursor resyncs to head so the next poll
        is clean).
        """
        limit = self.batch_size if max_records is None else min(
            self.batch_size, max_records
        )
        try:
            records = self.log.read_since(self._cursor, limit=limit)
        except ValueError:
            self.truncations += 1
            lost_from = self._cursor + 1
            # Resync to whichever is further: the newest record, or the
            # retention floor of an *empty* truncated log (e.g. one
            # fast-forwarded from a snapshot, where last_lsn lags
            # oldest_lsn and resyncing to it would raise forever).
            resync_to = max(self.log.last_lsn, self.log.oldest_lsn - 1)
            self._cursor = resync_to
            self.last_lost_range = (
                (lost_from, resync_to) if resync_to >= lost_from else None
            )
            return TailBatch(lost=True, lost_range=self.last_lost_range)
        if records:
            self._cursor = records[-1].lsn
            self.records_read += len(records)
        self.batches_read += 1
        return TailBatch(records=list(records))
