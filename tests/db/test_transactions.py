"""Tests for transactions: atomicity, rollback, and log publication."""

import pytest

from repro.db import Database, connect
from repro.db.transactions import TransactionError

from helpers import make_car_db


class TestBasics:
    def test_commit_applies_changes(self, car_db):
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.commit()
        assert len(car_db.query("SELECT * FROM car")) == 5

    def test_rollback_insert(self, car_db):
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.rollback()
        assert len(car_db.query("SELECT * FROM car")) == 4

    def test_rollback_delete(self, car_db):
        car_db.begin()
        car_db.execute("DELETE FROM car WHERE maker = 'BMW'")
        assert len(car_db.query("SELECT * FROM car")) == 3
        car_db.rollback()
        assert car_db.query("SELECT maker FROM car WHERE model = 'M5'") == [("BMW",)]

    def test_rollback_update(self, car_db):
        car_db.begin()
        car_db.execute("UPDATE car SET price = 1 WHERE model = 'Civic'")
        car_db.rollback()
        assert car_db.query("SELECT price FROM car WHERE model = 'Civic'") == [(18000,)]

    def test_rollback_mixed_sequence(self, car_db):
        before = sorted(car_db.query("SELECT * FROM car"))
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.execute("UPDATE car SET price = price + 1")
        car_db.execute("DELETE FROM car WHERE price > 20000")
        car_db.rollback()
        assert sorted(car_db.query("SELECT * FROM car")) == before

    def test_read_your_writes(self, car_db):
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        assert car_db.query("SELECT maker FROM car WHERE model = 'Rio'") == [("Kia",)]
        car_db.rollback()

    def test_sql_statements(self, car_db):
        car_db.execute("BEGIN")
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.execute("ROLLBACK")
        assert len(car_db.query("SELECT * FROM car")) == 4
        car_db.execute("BEGIN TRANSACTION")
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.execute("COMMIT TRANSACTION")
        assert len(car_db.query("SELECT * FROM car")) == 5

    def test_nested_begin_rejected(self, car_db):
        car_db.begin()
        with pytest.raises(TransactionError):
            car_db.begin()
        car_db.rollback()

    def test_rollback_without_begin_rejected(self, car_db):
        with pytest.raises(TransactionError):
            car_db.rollback()

    def test_commit_without_begin_is_noop(self, car_db):
        assert car_db.commit() == 0

    def test_rollback_returns_change_count(self, car_db):
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('A', 'B', 1), ('C', 'D', 2)")
        assert car_db.rollback() == 2


class TestIndexConsistency:
    def test_indexes_restored_after_rollback(self, car_db):
        car_db.execute("CREATE INDEX idx_price ON car (price)")
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.execute("DELETE FROM car WHERE model = 'Civic'")
        car_db.execute("UPDATE car SET price = 99999 WHERE model = 'Avalon'")
        car_db.rollback()
        result = car_db.execute("SELECT model FROM car WHERE price = 18000")
        assert result.index_probes == 1
        assert result.rows == [("Civic",)]
        assert car_db.execute("SELECT * FROM car WHERE price = 14000").rows == []
        assert car_db.execute("SELECT * FROM car WHERE price = 99999").rows == []
        assert car_db.execute("SELECT * FROM car WHERE price = 25000").rows != []

    def test_rollback_of_dependent_changes(self, car_db):
        """Insert then update then delete the same row, rolled back."""
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.execute("UPDATE car SET price = 15000 WHERE model = 'Rio'")
        car_db.execute("DELETE FROM car WHERE model = 'Rio'")
        car_db.rollback()
        assert car_db.query("SELECT * FROM car WHERE model = 'Rio'") == []
        assert len(car_db.query("SELECT * FROM car")) == 4


class TestLogPublication:
    def test_log_grows_only_at_commit(self, car_db):
        head = car_db.update_log.head_lsn
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        assert car_db.update_log.head_lsn == head
        car_db.commit()
        assert car_db.update_log.head_lsn == head + 1

    def test_rolled_back_changes_never_logged(self, car_db):
        head = car_db.update_log.head_lsn
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.rollback()
        assert car_db.update_log.head_lsn == head

    def test_triggers_fire_at_commit(self, car_db):
        from repro.db.log import ChangeKind

        fired = []
        car_db.triggers.register(
            "t", "car", ChangeKind.INSERT, lambda record: fired.append(record)
        )
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        assert fired == []
        car_db.commit()
        assert len(fired) == 1

    def test_matviews_see_only_committed_state(self, car_db):
        from repro.db.matview import MaterializedViewManager

        manager = MaterializedViewManager(car_db)
        view = manager.define("cheap", "SELECT model FROM car WHERE price < 21000")
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        assert ("Rio",) not in view.rows  # not refreshed mid-transaction
        car_db.rollback()
        assert ("Rio",) not in view.rows
        car_db.begin()
        car_db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        car_db.commit()
        assert ("Rio",) in view.rows


class TestInvalidatorInterplay:
    def make(self, db):
        from repro.stream import StreamingInvalidationPipeline
        from repro.core.qiurl import QIURLMap
        from repro.web.cache import WebCache
        from repro.web.http import CacheControl, HttpResponse

        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
        cache.put(
            "u1",
            HttpResponse(body="p", cache_control=CacheControl.cacheportal_private()),
        )
        qiurl.add("SELECT * FROM car WHERE price < 20000", "u1", "s")
        return cache, invalidator

    def test_uncommitted_changes_do_not_invalidate(self):
        db = make_car_db()
        cache, invalidator = self.make(db)
        db.begin()
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()
        assert report.records_processed == 0
        assert "u1" in cache
        db.rollback()

    def test_rolled_back_changes_never_invalidate(self):
        db = make_car_db()
        cache, invalidator = self.make(db)
        db.begin()
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        db.rollback()
        report = invalidator.run_cycle()
        assert report.records_processed == 0
        assert "u1" in cache

    def test_committed_transaction_invalidates_atomically(self):
        db = make_car_db()
        cache, invalidator = self.make(db)
        db.begin()
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        db.execute("INSERT INTO car VALUES ('VW', 'Golf', 19000)")
        db.commit()
        report = invalidator.run_cycle()
        assert report.records_processed == 2
        assert "u1" not in cache


class TestDbapiIntegration:
    def test_connection_transaction_cycle(self, car_db):
        connection = connect(car_db)
        connection.begin()
        connection.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        connection.rollback()
        assert len(car_db.query("SELECT * FROM car")) == 4

    def test_connection_commit(self, car_db):
        connection = connect(car_db)
        connection.begin()
        connection.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        connection.commit()
        assert len(car_db.query("SELECT * FROM car")) == 5

    def test_rollback_without_txn_raises(self, car_db):
        from repro.errors import InterfaceError

        with pytest.raises(InterfaceError):
            connect(car_db).rollback()

    def test_commit_without_txn_is_noop(self, car_db):
        connect(car_db).commit()
