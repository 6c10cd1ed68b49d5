"""Tests for database snapshots (save/load)."""

import json

import pytest

from repro.errors import DatabaseError
from repro.db import Database
from repro.db.persist import load, restore, save, snapshot


class TestRoundTrip:
    def test_tables_and_rows_survive(self, car_db, tmp_path):
        path = tmp_path / "db.json"
        save(car_db, path)
        restored = load(path)
        assert restored.table_names() == car_db.table_names()
        assert sorted(restored.query("SELECT * FROM car")) == sorted(
            car_db.query("SELECT * FROM car")
        )

    def test_schema_metadata_survives(self, tmp_path):
        db = Database()
        db.execute(
            "CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL, c REAL UNIQUE)"
        )
        save(db, tmp_path / "db.json")
        restored = load(tmp_path / "db.json")
        schema = restored.schema("t")
        assert schema.column("a").primary_key
        assert schema.column("b").not_null
        assert schema.column("c").unique

    def test_constraints_enforced_after_restore(self, tmp_path):
        from repro.errors import ConstraintError

        db = Database()
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        save(db, tmp_path / "db.json")
        restored = load(tmp_path / "db.json")
        with pytest.raises(ConstraintError):
            restored.execute("INSERT INTO t VALUES (1)")

    def test_indexes_rebuilt(self, car_db, tmp_path):
        car_db.execute("CREATE INDEX idx_price ON car (price)")
        save(car_db, tmp_path / "db.json")
        restored = load(tmp_path / "db.json")
        result = restored.execute("SELECT * FROM car WHERE price < 21000")
        assert result.index_probes == 1
        assert len(result.rows) == 2

    def test_null_and_float_values(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b REAL, c TEXT)")
        db.execute("INSERT INTO t VALUES (NULL, 3.25, NULL), (7, NULL, 'x''y')")
        save(db, tmp_path / "db.json")
        restored = load(tmp_path / "db.json")
        assert sorted(restored.query("SELECT * FROM t"), key=repr) == sorted(
            db.query("SELECT * FROM t"), key=repr
        )

    def test_empty_database(self, tmp_path):
        save(Database(), tmp_path / "db.json")
        assert load(tmp_path / "db.json").table_names() == []


class TestLogBehaviour:
    def test_restored_log_has_no_pending_deltas(self, car_db, tmp_path):
        save(car_db, tmp_path / "db.json")
        restored = load(tmp_path / "db.json")
        deltas = restored.update_log.deltas_since(restored.update_log.head_lsn - 1)
        assert deltas.is_empty()

    def test_lsns_monotone_across_save_load(self, car_db, tmp_path):
        head_before = car_db.update_log.head_lsn
        save(car_db, tmp_path / "db.json")
        restored = load(tmp_path / "db.json")
        record = restored.update_log.append(
            "car", __import__("repro.db.log", fromlist=["ChangeKind"]).ChangeKind.INSERT,
            ("a",), ("maker",), 0.0,
        )
        assert record.lsn >= head_before

    def test_invalidator_on_restored_database(self, car_db, tmp_path):
        from repro.stream import StreamingInvalidationPipeline
        from repro.core.qiurl import QIURLMap
        from repro.web.cache import WebCache
        from repro.web.http import CacheControl, HttpResponse

        save(car_db, tmp_path / "db.json")
        restored = load(tmp_path / "db.json")
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(restored, [cache], qiurl)
        cache.put(
            "u1",
            HttpResponse(body="p", cache_control=CacheControl.cacheportal_private()),
        )
        qiurl.add("SELECT * FROM car WHERE price < 20000", "u1", "s")
        assert invalidator.run_cycle().records_processed == 0  # clean slate
        restored.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        assert invalidator.run_cycle().urls_ejected == 1


class TestFormat:
    def test_version_checked(self):
        with pytest.raises(DatabaseError, match="format"):
            restore({"format": 99, "tables": []})

    def test_snapshot_is_json_serializable(self, car_db):
        text = json.dumps(snapshot(car_db))
        assert "Avalon" in text

    def test_double_round_trip_stable(self, car_db, tmp_path):
        save(car_db, tmp_path / "a.json")
        first = load(tmp_path / "a.json")
        save(first, tmp_path / "b.json")
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["tables"] == b["tables"]
        assert a["indexes"] == b["indexes"]
