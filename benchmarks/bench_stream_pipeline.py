"""Streaming pipeline vs synchronous invalidator: update throughput.

Workload: the paper's Table-3 two-table schema (§5.2.1) — small_items /
large_items sharing a join attribute — watched by the three query
classes (LIGHT single-table on the small table, MEDIUM on the large
one, HEAVY join).  A fixed stream of inserts hits both tables; most
prove unaffected in analysis, a few eject pages and trigger polls.

Baseline: to deliver the same per-update freshness the pipeline gives
(an update is analyzed as soon as it is seen), the synchronous
invalidator must run one cycle per update — its cycle-boundary batching
is exactly the staleness window the pipeline removes.  The pipeline
processes the same stream through the CDC tailer in bounded batches.

Where the speedup comes from: the pipeline runs on the caller's thread,
so this is not a parallel-CPU win.  It wins on architecture — per-batch
dedup collapses repeated logical changes before analysis (§4.2.1 does
the same within a sync interval), per-cycle overhead (delta pull, policy
pass, report) is paid per *batch* instead of per update, and the eject
bus coalesces duplicate URLs.  Acceptance: >= 2x update-processing
throughput.
"""

import os
import time

from repro.db.engine import Database
from repro.core.qiurl import QIURLMap
from repro.core.invalidator.invalidator import Invalidator
from repro.stream import StreamingInvalidationPipeline
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse

from conftest import emit

NUM_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATES", "480"))
VALUES_PER_CLASS = 10
#: Distinct logical changes the update stream cycles through; repeats
#: within a tailer batch are what per-batch dedup collapses.
DISTINCT_UPDATES = 24


def build_tables(db):
    """Table-3 schema shape, sans PRIMARY KEY so repeated logical
    changes (the dedup target) are legal inserts."""
    db.execute("CREATE TABLE small_items (id INT, join_attr INT, payload INT)")
    db.execute("CREATE TABLE large_items (id INT, join_attr INT, payload INT)")
    small = ", ".join(f"({i}, {i % 10}, {i % 10})" for i in range(80))
    large = ", ".join(f"({i}, {i % 10}, {i % 10})" for i in range(240))
    db.execute(f"INSERT INTO small_items VALUES {small}")
    db.execute(f"INSERT INTO large_items VALUES {large}")


def watched_instances():
    """The paper's three query classes, ten instances each."""
    out = []
    for k in range(VALUES_PER_CLASS):
        out.append((
            f"SELECT * FROM small_items WHERE payload = {k + 100}",
            f"/light/{k}",
        ))
        out.append((
            f"SELECT * FROM large_items WHERE payload = {k + 100}",
            f"/medium/{k}",
        ))
        out.append((
            "SELECT small_items.id, large_items.id "
            "FROM small_items, large_items "
            "WHERE small_items.join_attr = large_items.join_attr "
            f"AND small_items.join_attr = {k + 100}",
            f"/heavy/{k}",
        ))
    return out


def update_stream():
    """NUM_UPDATES inserts cycling through DISTINCT_UPDATES templates.
    Templates 0-2 touch watched values (two direct ejects plus a join
    completed across both tables, found by polling); the rest miss every
    watched predicate and must be proven unaffected."""
    statements = []
    for i in range(NUM_UPDATES):
        t = i % DISTINCT_UPDATES
        if t == 0:
            table, row = "small_items", (9000, 100, 100)  # /light/0 + half of /heavy/0
        elif t == 1:
            table, row = "large_items", (9001, 777, 101)  # /medium/1
        elif t == 2:
            table, row = "large_items", (9002, 100, 777)  # completes the /heavy/0 join
        else:
            table = "small_items" if t % 2 == 0 else "large_items"
            row = (9000 + t, 777, 777)  # unaffected by every instance
        statements.append(f"INSERT INTO {table} VALUES {row}")
    return statements


def fill_cache(cache, instances):
    for _sql, url in instances:
        assert cache.put(url, HttpResponse(
            body=url, cache_control=CacheControl.cacheportal_private()
        ))


def run_synchronous():
    db = Database()
    build_tables(db)
    instances = watched_instances()
    cache = WebCache()
    fill_cache(cache, instances)
    invalidator = Invalidator(db, [cache], QIURLMap())
    for sql, url in instances:
        invalidator.registry.observe_instance(sql, url)
    statements = update_stream()
    start = time.perf_counter()
    for statement in statements:
        db.execute(statement)
        invalidator.run_cycle()
    elapsed = time.perf_counter() - start
    return NUM_UPDATES / elapsed, cache


def run_pipeline():
    db = Database()
    build_tables(db)
    instances = watched_instances()
    cache = WebCache()
    fill_cache(cache, instances)
    pipeline = StreamingInvalidationPipeline(db, [cache])
    for sql, url in instances:
        pipeline.registry.observe_instance(sql, url)
    statements = update_stream()
    for statement in statements:
        db.execute(statement)
    start = time.perf_counter()
    assert pipeline.drain(timeout=120.0), "pipeline failed to drain"
    elapsed = time.perf_counter() - start
    return NUM_UPDATES / elapsed, cache, pipeline.stats()


def test_pipeline_throughput_vs_synchronous(benchmark):
    sync_rate, sync_cache = benchmark.pedantic(
        run_synchronous, rounds=1, iterations=1
    )

    lines = [f"{NUM_UPDATES} updates, {3 * VALUES_PER_CLASS} watched pages",
             f"synchronous (cycle per update): {sync_rate:9.0f} updates/s"]
    rate, cache, stats = run_pipeline()
    latency = stats["bus"]["eject_latency_mean_ms"]
    lines.append(
        f"pipeline                      : {rate:9.0f} updates/s"
        f"  ({rate / sync_rate:4.1f}x, eject latency {latency:.1f}ms)"
    )
    emit("Streaming pipeline vs synchronous invalidator", lines)

    # Same invalidation outcome: both eject exactly the affected pages.
    survivors = sorted(sync_cache.keys())
    assert sorted(cache.keys()) == survivors, "pipeline diverged"
    assert len(survivors) == 3 * VALUES_PER_CLASS - 3

    # Acceptance: >= 2x update-processing throughput.
    assert rate >= 2.0 * sync_rate, f"pipeline only {rate / sync_rate:.2f}x sync"
