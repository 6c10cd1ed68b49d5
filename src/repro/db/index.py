"""Secondary indexes: hash (equality) and sorted (range) variants.

Indexes map a key — the tuple of indexed column values — to the set of
row ids carrying that key.  They are maintained eagerly by the engine on
every insert/delete/update.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ConstraintError
from repro.db.schema import TableSchema
from repro.db.types import SortKey, Value

Key = Tuple[Value, ...]


class Index:
    """Base class holding the column positions an index covers."""

    def __init__(
        self, name: str, schema: TableSchema, columns: Sequence[str], unique: bool = False
    ) -> None:
        self.name = name
        self.table_name = schema.lower_name
        self.columns = tuple(column.lower() for column in columns)
        self.positions = tuple(schema.position(column) for column in columns)
        self.unique = unique

    def key_of(self, row: Sequence[Value]) -> Key:
        """Extract this index's key from a full table row."""
        return tuple(row[position] for position in self.positions)

    # -- interface ----------------------------------------------------------

    def add(self, rowid: int, row: Sequence[Value]) -> None:
        raise NotImplementedError

    def remove(self, rowid: int, row: Sequence[Value]) -> None:
        raise NotImplementedError

    def lookup(self, key: Key) -> Set[int]:
        """Row ids whose indexed columns equal ``key``.  A key with a NULL
        component matches nothing: ``col = NULL`` is never true."""
        raise NotImplementedError

    def lookup_many(self, values: Sequence[Value]) -> Set[int]:
        """Union of single-column equality lookups, one per value.

        Batch entry point for ``IndexInLookup``: callers pass bare values
        (not key tuples) for a single-column index.  NULL values match
        nothing.
        """
        rowids: Set[int] = set()
        for value in values:
            rowids |= self.lookup((value,))
        return rowids

    def replace(self, rowid: int, old_row: Sequence[Value], new_row: Sequence[Value]) -> None:
        """Default update: remove old entry, add the new one."""
        self.remove(rowid, old_row)
        self.add(rowid, new_row)


class HashIndex(Index):
    """Dictionary-backed index supporting equality lookups."""

    def __init__(
        self, name: str, schema: TableSchema, columns: Sequence[str], unique: bool = False
    ) -> None:
        super().__init__(name, schema, columns, unique)
        self._buckets: Dict[Key, Set[int]] = {}

    def add(self, rowid: int, row: Sequence[Value]) -> None:
        key = self.key_of(row)
        bucket = self._buckets.setdefault(key, set())
        if self.unique and bucket and None not in key:
            raise ConstraintError(
                f"unique index {self.name!r} rejects duplicate key {key!r}"
            )
        bucket.add(rowid)

    def remove(self, rowid: int, row: Sequence[Value]) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[key]

    def lookup(self, key: Key) -> Set[int]:
        if None in key:
            return set()  # NULL-keyed rows sit in a bucket; = never finds them
        return set(self._buckets.get(key, ()))

    def lookup_many(self, values: Sequence[Value]) -> Set[int]:
        """Single-pass bucket union — skips the per-probe set copies."""
        rowids: Set[int] = set()
        buckets = self._buckets
        for value in values:
            if value is None:
                continue
            bucket = buckets.get((value,))
            if bucket:
                rowids |= bucket
        return rowids

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SortedIndex(Index):
    """Bisect-backed single-column index supporting range scans."""

    def __init__(
        self, name: str, schema: TableSchema, columns: Sequence[str], unique: bool = False
    ) -> None:
        if len(columns) != 1:
            raise ConstraintError("sorted indexes cover exactly one column")
        super().__init__(name, schema, columns, unique)
        self._keys: List[SortKey] = []
        self._entries: List[Tuple[Value, int]] = []  # parallel to _keys

    def add(self, rowid: int, row: Sequence[Value]) -> None:
        value = row[self.positions[0]]
        key = SortKey(value)
        position = bisect.bisect_left(self._keys, key)
        if self.unique and value is not None:
            if position < len(self._entries) and self._entries[position][0] == value:
                raise ConstraintError(
                    f"unique index {self.name!r} rejects duplicate key {value!r}"
                )
        self._keys.insert(position, key)
        self._entries.insert(position, (value, rowid))

    def remove(self, rowid: int, row: Sequence[Value]) -> None:
        value = row[self.positions[0]]
        key = SortKey(value)
        position = bisect.bisect_left(self._keys, key)
        while position < len(self._entries) and self._entries[position][0] == value:
            if self._entries[position][1] == rowid:
                del self._keys[position]
                del self._entries[position]
                return
            position += 1

    def lookup(self, key: Key) -> Set[int]:
        value = key[0]
        if value is None:
            return set()  # a None bound would mean "unbounded" below
        return self.range_lookup(low=value, high=value, low_open=False, high_open=False)

    def range_lookup(
        self,
        low: Optional[Value] = None,
        high: Optional[Value] = None,
        low_open: bool = False,
        high_open: bool = False,
    ) -> Set[int]:
        """Row ids with indexed value in the given (possibly open) range.

        ``None`` bounds mean unbounded; NULL values never match a range.
        """
        if not self._entries:
            return set()
        start = 0
        if low is not None:
            key = SortKey(low)
            start = (
                bisect.bisect_right(self._keys, key)
                if low_open
                else bisect.bisect_left(self._keys, key)
            )
        else:
            # Skip leading NULLs (sorted first) for unbounded-from-below scans.
            while start < len(self._entries) and self._entries[start][0] is None:
                start += 1
        end = len(self._entries)
        if high is not None:
            key = SortKey(high)
            end = (
                bisect.bisect_left(self._keys, key)
                if high_open
                else bisect.bisect_right(self._keys, key)
            )
        return {rowid for _value, rowid in self._entries[start:end]}

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[Value, int]]:
        """(value, rowid) pairs in key order; useful for merge operations."""
        return iter(self._entries)
