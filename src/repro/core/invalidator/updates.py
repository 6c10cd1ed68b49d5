"""Update processing (paper §4.2.1).

At each synchronization point the invalidator pulls the update log from
the database and groups the records into per-relation Δ⁺ (insertions) and
Δ⁻ (deletions) tables.  The processor keeps its own LSN cursor so cycles
never re-process or miss changes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.db.engine import Database
from repro.db.log import DeltaTables, UpdateRecord


def dedupe_records(
    records: Sequence[UpdateRecord],
) -> Tuple[List[UpdateRecord], int]:
    """Collapse identical change records (§4.2.1 group processing).

    Records with the same kind, tuple, and columns yield identical
    verdicts for every query instance, so only the first needs checking.
    Returns the unique records (original order) and the duplicate count.
    Shared by the synchronous invalidator and the streaming pipeline.
    """
    unique: List[UpdateRecord] = []
    seen = set()
    duplicates = 0
    for record in records:
        key = (record.kind, record.values, record.columns)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        unique.append(record)
    return unique, duplicates


class UpdateProcessor:
    """LSN-cursored reader of one database's update log."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._cursor = database.update_log.head_lsn - 1
        self.records_processed = 0
        self.pulls = 0
        self.truncations_hit = 0

    @property
    def cursor(self) -> int:
        return self._cursor

    def pull(self) -> DeltaTables:
        """Fetch all changes since the previous pull as Δ tables.

        Raises:
            ValueError: when the log was truncated past the cursor — the
            caller can no longer know what changed (see
            :meth:`pull_or_lose`).
        """
        self.pulls += 1
        deltas = self.database.update_log.deltas_since(self._cursor)
        if deltas.last_lsn is not None:
            self._cursor = deltas.last_lsn
        self.records_processed += len(deltas)
        return deltas

    def pull_or_lose(self) -> Tuple[Optional[DeltaTables], bool]:
        """Pull deltas, detecting update loss from log truncation.

        A bounded update log (a real redo log wraps) may discard records
        the invalidator has not read yet — e.g. after a long stall.  When
        that happens the set of changes is *unknowable* and the only safe
        move is to treat every cached page as suspect.  Returns
        ``(deltas, lost)``: on loss, deltas is None and the cursor resyncs
        to the head so the next cycle is clean.
        """
        try:
            return self.pull(), False
        except ValueError:
            self.truncations_hit += 1
            self.skip_to_head()
            return None, True

    def skip_to_head(self) -> None:
        """Advance the cursor without processing (used at install time)."""
        self._cursor = self.database.update_log.head_lsn - 1

    def seek(self, lsn: int) -> None:
        """Reposition the cursor (e.g. restoring a checkpoint)."""
        self._cursor = lsn
