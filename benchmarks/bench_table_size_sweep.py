"""Ablation L: scaling in the database size (Table 1's ``num_tuples``).

The paper "intentionally kept the database size not very large to see if
the web cache would be beneficial even when query processing cost is not
overwhelmingly large" (§5.2.1).  This sweep scales the two tables up and
measures, on the functional engine:

* per-class query work (light select / medium select / heavy join),
* the invalidator's full-cycle wall time under a fixed update batch,
* the share of that cycle resolved without polling (precision holds as
  data grows: the independence check is per-tuple, not per-table).
"""

import time

import pytest

from repro.db import Database
from repro.sim.workload import HEAVY_QUERY, LIGHT_QUERY, MEDIUM_QUERY, build_paper_schema_sql
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap

from conftest import emit


SCALES = [(100, 500), (500, 2500), (1500, 7500)]


def build_db(small, large):
    db = Database()
    for statement in build_paper_schema_sql(small_rows=small, large_rows=large):
        db.execute(statement)
    return db


def cacheable():
    return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())


def cycle_cost(db, small):
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
    for i in range(10):
        cache.put(f"l{i}", cacheable())
        qiurl.add(f"SELECT * FROM small_items WHERE payload = {i % 10}", f"l{i}", "s")
        cache.put(f"h{i}", cacheable())
        qiurl.add(
            "SELECT small_items.id, large_items.id FROM small_items, large_items "
            f"WHERE small_items.join_attr = large_items.join_attr "
            f"AND small_items.join_attr = {i % 10}",
            f"h{i}",
            "s",
        )
    base = 10_000_000
    for i in range(20):
        db.execute(
            f"INSERT INTO small_items VALUES ({base + i}, {i % 10}, {i % 10})"
        )
    start = time.perf_counter()
    report = invalidator.run_cycle()
    return time.perf_counter() - start, report


@pytest.fixture(scope="module")
def sweep():
    rows = []
    for small, large in SCALES:
        db = build_db(small, large)
        light = db.execute(LIGHT_QUERY, (3,)).work_units
        medium = db.execute(MEDIUM_QUERY, (3,)).work_units
        heavy = db.execute(HEAVY_QUERY, (3,)).work_units
        elapsed, report = cycle_cost(db, small)
        rows.append(
            {
                "scale": (small, large),
                "light": light,
                "medium": medium,
                "heavy": heavy,
                "cycle_ms": 1000 * elapsed,
                "report": report,
            }
        )
    return rows


def test_table_size_sweep(benchmark, sweep):
    benchmark.pedantic(
        lambda: cycle_cost(build_db(500, 2500), 500), rounds=1, iterations=1
    )
    emit("Ablation L — scaling with num_tuples", [
        f"{row['scale'][0]:5d}+{row['scale'][1]:5d} tuples: "
        f"light={row['light']:6d} medium={row['medium']:6d} heavy={row['heavy']:8d} "
        f"cycle={row['cycle_ms']:7.1f}ms polls={row['report'].polls_executed}"
        for row in sweep
    ])


def test_query_work_scales_with_data(sweep):
    for metric in ("light", "medium", "heavy"):
        values = [row[metric] for row in sweep]
        assert values == sorted(values)
        assert values[-1] > values[0]


def test_invalidation_outcomes_independent_of_scale(sweep):
    """The checker's verdicts depend on tuples and predicates, not table
    size: the same update batch yields the same classification counts."""
    reference = sweep[0]["report"]
    for row in sweep[1:]:
        report = row["report"]
        assert report.pairs_checked == reference.pairs_checked
        assert report.unaffected == reference.unaffected
        assert report.affected == reference.affected
        assert report.polls_executed == reference.polls_executed


def test_cycle_cost_dominated_by_polling_not_registry(sweep):
    """Cycle wall time grows with data size only through the polling
    queries that actually run — and stays in milliseconds even at 3× the
    paper's data."""
    assert sweep[-1]["cycle_ms"] < 2000
