"""Tests for hash and sorted secondary indexes."""

import pytest

from repro.errors import ConstraintError
from repro.db.index import HashIndex, SortedIndex
from repro.db.schema import Column, TableSchema
from repro.db.types import SqlType


def schema():
    return TableSchema(
        "t",
        [Column("a", SqlType.INT), Column("b", SqlType.TEXT)],
    )


class TestHashIndex:
    def test_lookup(self):
        index = HashIndex("idx", schema(), ["a"])
        index.add(1, (5, "x"))
        index.add(2, (5, "y"))
        index.add(3, (7, "z"))
        assert index.lookup((5,)) == {1, 2}
        assert index.lookup((7,)) == {3}
        assert index.lookup((9,)) == set()

    def test_remove(self):
        index = HashIndex("idx", schema(), ["a"])
        index.add(1, (5, "x"))
        index.remove(1, (5, "x"))
        assert index.lookup((5,)) == set()
        assert len(index) == 0

    def test_remove_absent_is_noop(self):
        index = HashIndex("idx", schema(), ["a"])
        index.remove(1, (5, "x"))

    def test_replace(self):
        index = HashIndex("idx", schema(), ["a"])
        index.add(1, (5, "x"))
        index.replace(1, (5, "x"), (6, "x"))
        assert index.lookup((5,)) == set()
        assert index.lookup((6,)) == {1}

    def test_multi_column_key(self):
        index = HashIndex("idx", schema(), ["a", "b"])
        index.add(1, (5, "x"))
        assert index.lookup((5, "x")) == {1}
        assert index.lookup((5, "y")) == set()

    def test_unique_violation(self):
        index = HashIndex("idx", schema(), ["a"], unique=True)
        index.add(1, (5, "x"))
        with pytest.raises(ConstraintError):
            index.add(2, (5, "y"))

    def test_unique_allows_nulls(self):
        index = HashIndex("idx", schema(), ["a"], unique=True)
        index.add(1, (None, "x"))
        index.add(2, (None, "y"))


class TestSortedIndex:
    def build(self):
        index = SortedIndex("idx", schema(), ["a"])
        for rowid, value in enumerate([5, 3, 8, 3, None, 10], start=1):
            index.add(rowid, (value, "p"))
        return index

    def test_requires_single_column(self):
        with pytest.raises(ConstraintError):
            SortedIndex("idx", schema(), ["a", "b"])

    def test_equality_lookup(self):
        index = self.build()
        assert index.lookup((3,)) == {2, 4}
        assert index.lookup((99,)) == set()

    def test_range_closed(self):
        index = self.build()
        assert index.range_lookup(low=3, high=8) == {1, 2, 3, 4}

    def test_range_open_bounds(self):
        index = self.build()
        assert index.range_lookup(low=3, high=8, low_open=True) == {1, 3}
        assert index.range_lookup(low=3, high=8, high_open=True) == {1, 2, 4}

    def test_range_unbounded_low_skips_nulls(self):
        index = self.build()
        assert index.range_lookup(high=5) == {1, 2, 4}

    def test_range_unbounded_high(self):
        index = self.build()
        assert index.range_lookup(low=8) == {3, 6}

    def test_remove_specific_rowid_among_duplicates(self):
        index = self.build()
        index.remove(2, (3, "p"))
        assert index.lookup((3,)) == {4}

    def test_remove_null_entry(self):
        index = self.build()
        index.remove(5, (None, "p"))
        assert len(index) == 5

    def test_items_in_order(self):
        index = self.build()
        values = [value for value, _rid in index.items()]
        assert values == [None, 3, 3, 5, 8, 10]

    def test_unique_violation(self):
        index = SortedIndex("idx", schema(), ["a"], unique=True)
        index.add(1, (5, "x"))
        with pytest.raises(ConstraintError):
            index.add(2, (5, "y"))

    def test_empty_range(self):
        index = SortedIndex("idx", schema(), ["a"])
        assert index.range_lookup(low=1, high=10) == set()


INDEX_KINDS = [
    pytest.param(lambda name: HashIndex(name, schema(), ["a"]), id="hash"),
    pytest.param(lambda name: SortedIndex(name, schema(), ["a"]), id="sorted"),
]


class TestNullKeysMatchNothing:
    """``col = NULL`` is never true, so an equality probe with a NULL key
    component finds no row, however the index stores its NULL entries."""

    @pytest.mark.parametrize("make", INDEX_KINDS)
    def test_lookup_null_is_empty(self, make):
        index = make("idx")
        for rowid, value in enumerate([1, None, 3], start=1):
            index.add(rowid, (value, "p"))
        assert index.lookup((None,)) == set()
        assert index.lookup((1,)) == {1}

    @pytest.mark.parametrize("make", INDEX_KINDS)
    def test_lookup_many_skips_null(self, make):
        index = make("idx")
        for rowid, value in enumerate([1, None, 3], start=1):
            index.add(rowid, (value, "p"))
        assert index.lookup_many([None, 3]) == {3}
        assert index.lookup_many([None]) == set()

    def test_multi_column_null_component(self):
        index = HashIndex("idx", schema(), ["a", "b"])
        index.add(1, (None, "x"))
        index.add(2, (5, None))
        assert index.lookup((None, "x")) == set()
        assert index.lookup((5, None)) == set()


def null_db(executor, sorted_index):
    from repro.db import Database

    db = Database(executor=executor)
    db.execute("CREATE TABLE t (id INT, a INT)")
    db.execute("INSERT INTO t VALUES (1, 1)")
    db.execute("INSERT INTO t VALUES (2, NULL)")
    db.execute("INSERT INTO t VALUES (3, 3)")
    db.create_index("i", "t", ["a"], sorted_index=sorted_index)
    return db


@pytest.mark.parametrize("executor", ["columnar", "row"])
@pytest.mark.parametrize("sorted_index", [True, False], ids=["sorted", "hash"])
class TestNullThroughTheEngine:
    def plan(self, db, sql):
        return " ".join(row[0] for row in db.query(f"EXPLAIN {sql}"))

    def test_eq_null_returns_nothing(self, executor, sorted_index):
        db = null_db(executor, sorted_index)
        sql = "SELECT id FROM t WHERE a = NULL"
        assert "IndexEqLookup" in self.plan(db, sql)
        assert db.query(sql) == []

    def test_in_list_with_null_uses_index(self, executor, sorted_index):
        db = null_db(executor, sorted_index)
        sql = "SELECT id FROM t WHERE a IN (NULL, 3)"
        assert "IndexInLookup" in self.plan(db, sql)
        assert db.query(sql) == [(3,)]

    def test_values_probe_with_null(self, executor, sorted_index):
        # The batch poller's shape: a NULL binding probes nothing.
        db = null_db(executor, sorted_index)
        rows = db.query(
            "SELECT DISTINCT p.tid FROM (VALUES (0, NULL), (1, 1)) "
            "AS p (tid, v), t WHERE t.a = p.v"
        )
        assert rows == [(1,)]

    def test_is_null_still_finds_null_rows(self, executor, sorted_index):
        db = null_db(executor, sorted_index)
        assert db.query("SELECT id FROM t WHERE a IS NULL") == [(2,)]
        assert sorted(db.query("SELECT id FROM t WHERE a IS NOT NULL")) == [
            (1,),
            (3,),
        ]
