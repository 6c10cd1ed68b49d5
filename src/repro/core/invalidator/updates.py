"""Update processing (paper §4.2.1).

The invalidator pulls the update log from the database (the streaming
pipeline's :class:`~repro.stream.tailer.LogTailer`, with its own LSN
cursor) and groups the records into per-relation Δ⁺ (insertions) and Δ⁻
(deletions) tables; within a relation, identical records are checked
once.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.db.log import UpdateRecord


def dedupe_records(
    records: Sequence[UpdateRecord],
) -> Tuple[List[UpdateRecord], int]:
    """Collapse identical change records (§4.2.1 group processing).

    Records with the same kind, tuple, and columns yield identical
    verdicts for every query instance, so only the first needs checking.
    Returns the unique records (original order) and the duplicate count.
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
