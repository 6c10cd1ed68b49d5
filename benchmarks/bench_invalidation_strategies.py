"""Ablation A: CachePortal's asynchronous invalidator vs the two baselines.

The paper's §4 argument: triggers and materialized views achieve the same
invalidation but put the burden *inside the DBMS's update path*.  We
measure, on identical workloads, (a) the update-path latency (wall time to
apply the update stream) and (b) DB work charged synchronously, for:

* CachePortal (asynchronous cycle; update path untouched),
* trigger-based invalidation (checks + polling inline in each DML),
* materialized-view invalidation (view recomputation inline in each DML).

Ablation A' (version keys): the same workload run with the version-key
fast path on and off, against a per-instance polling oracle that
re-executes every watched query each cycle and diffs the results.  The
fast path must change *work only*: both arms eject exactly the pages the
oracle ejects, cycle for cycle, while the keyed arm resolves ≥90% of the
single-table-class pair checks from a counter comparison instead of the
checker.
"""

import json
import os
import time

import pytest

from repro.db import Database
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.core import MatViewInvalidator, TriggerInvalidator
from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap

from conftest import emit

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "bench_invalidation_strategies.json"
)


QUERIES = [
    "SELECT * FROM car WHERE price < 15000",
    "SELECT * FROM car WHERE price < 25000",
    "SELECT * FROM car WHERE maker = 'Kia'",
    "SELECT car.maker FROM car, mileage WHERE car.model = mileage.model AND mileage.epa > 30",
    "SELECT car.maker FROM car, mileage WHERE car.model = mileage.model AND car.price < 20000",
]

UPDATE_COUNT = 120


def build_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
    for i in range(200):
        db.execute(
            f"INSERT INTO car VALUES ('maker{i % 10}', 'model{i}', {10000 + 100 * i})"
        )
        db.execute(f"INSERT INTO mileage VALUES ('model{i}', {15 + i % 30})")
    return db


def cacheable() -> HttpResponse:
    return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())


def apply_update_slice(db: Database, start: int, stop: int) -> None:
    for i in range(start, stop):
        db.execute(
            f"INSERT INTO car VALUES ('maker{i % 10}', 'new{i}', {12000 + 37 * i})"
        )
        if i % 3 == 0:
            db.execute(f"DELETE FROM car WHERE model = 'model{i}'")


def apply_updates(db: Database) -> None:
    apply_update_slice(db, 0, UPDATE_COUNT)


def populate(cache: WebCache, watch) -> None:
    for index, sql in enumerate(QUERIES):
        url = f"u{index}"
        cache.put(url, cacheable())
        watch(sql, url)


def run_cacheportal():
    db = build_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
    populate(cache, lambda sql, url: qiurl.add(sql, url, "s"))
    start = time.perf_counter()
    apply_updates(db)  # the update path: untouched by CachePortal
    update_path = time.perf_counter() - start
    invalidator.run_cycle()  # asynchronous, off the update path
    return update_path, db.statements_executed


def run_triggers():
    db = build_db()
    cache = WebCache()
    invalidator = TriggerInvalidator(db, [cache])
    populate(cache, invalidator.watch)
    start = time.perf_counter()
    apply_updates(db)  # triggers + inline polls fire inside each DML
    return time.perf_counter() - start, db.statements_executed


def run_matviews():
    db = build_db()
    cache = WebCache()
    invalidator = MatViewInvalidator(db, [cache])
    populate(cache, invalidator.watch)
    start = time.perf_counter()
    apply_updates(db)  # every DML recomputes the dependent views
    return time.perf_counter() - start, db.statements_executed


def test_update_path_burden(benchmark):
    """Update-path wall time: CachePortal must be the cheapest, matviews
    the most expensive (view recomputation per change)."""
    portal_time, portal_stmts = benchmark.pedantic(run_cacheportal, rounds=3, iterations=1)
    trigger_time, trigger_stmts = run_triggers()
    matview_time, matview_stmts = run_matviews()
    emit("Ablation A — update-path cost by invalidation strategy", [
        f"cacheportal : {1000 * portal_time:8.1f}ms  (db statements: {portal_stmts})",
        f"triggers    : {1000 * trigger_time:8.1f}ms  (db statements: {trigger_stmts})",
        f"matviews    : {1000 * matview_time:8.1f}ms  (db statements: {matview_stmts})",
    ])
    assert portal_time < trigger_time
    assert portal_time < matview_time


def test_all_strategies_are_safe():
    """Whatever the cost, all three must eject the genuinely stale pages."""
    results = {}

    db = build_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
    populate(cache, lambda sql, url: qiurl.add(sql, url, "s"))
    db.execute("INSERT INTO car VALUES ('Kia', 'fresh', 12000)")
    invalidator.run_cycle()
    results["cacheportal"] = set(cache.keys())

    db = build_db()
    cache = WebCache()
    trig = TriggerInvalidator(db, [cache])
    populate(cache, trig.watch)
    db.execute("INSERT INTO car VALUES ('Kia', 'fresh', 12000)")
    results["triggers"] = set(cache.keys())

    db = build_db()
    cache = WebCache()
    mv = MatViewInvalidator(db, [cache])
    populate(cache, mv.watch)
    db.execute("INSERT INTO car VALUES ('Kia', 'fresh', 12000)")
    results["matviews"] = set(cache.keys())

    # u0 (<15000), u1 (<25000), u2 (maker Kia) are stale; u3/u4 join pages
    # have no qualifying mileage row for 'fresh', so exact strategies
    # (triggers with polling, matviews) keep them.
    for name, kept in results.items():
        assert "u0" not in kept and "u1" not in kept and "u2" not in kept, name
    assert "u3" in results["matviews"] and "u4" in results["matviews"]
    assert "u3" in results["triggers"] and "u4" in results["triggers"]
    assert "u3" in results["cacheportal"] and "u4" in results["cacheportal"]


# -- Ablation A': the version-key fast path vs a polling oracle ---------------

#: QUERIES indexes whose WHERE is a single-table indexable conjunct —
#: exactly the class the VERSION_KEY verdict covers.
SINGLE_TABLE = (0, 1, 2)
ORACLE_CYCLES = 6


def _rows(db: Database, sql: str):
    return sorted(db.execute(sql).rows)


def run_versionkey_arm(version_keys: bool):
    """One CachePortal invalidator run over ORACLE_CYCLES update slices.

    Returns the per-cycle eject lists plus the summed fast-path counters
    so the keyed and control arms can be compared eject-for-eject.
    """
    db = build_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl, version_keys=version_keys)
    populate(cache, lambda sql, url: qiurl.add(sql, url, "s"))
    invalidator.run_cycle()  # registration cycle: instances stamped
    slice_size = UPDATE_COUNT // ORACLE_CYCLES
    ejects, checks, avoided = [], 0, 0
    for cycle in range(ORACLE_CYCLES):
        before = set(cache.keys())
        apply_update_slice(db, cycle * slice_size, (cycle + 1) * slice_size)
        report = invalidator.run_cycle()
        checks += report.version_key_checks
        avoided += report.polls_avoided
        ejects.append(sorted(before - set(cache.keys())))
    return ejects, sorted(cache.keys()), checks, avoided


def run_polling_oracle():
    """Per-instance polling ground truth: re-execute every still-cached
    query each cycle and eject on any result diff."""
    db = build_db()
    cached = {f"u{i}": _rows(db, sql) for i, sql in enumerate(QUERIES)}
    slice_size = UPDATE_COUNT // ORACLE_CYCLES
    ejects = []
    for cycle in range(ORACLE_CYCLES):
        apply_update_slice(db, cycle * slice_size, (cycle + 1) * slice_size)
        stale = sorted(
            url
            for url, rows in cached.items()
            if _rows(db, QUERIES[int(url[1:])]) != rows
        )
        for url in stale:
            del cached[url]
        ejects.append(stale)
    return ejects, sorted(cached.keys())


def test_version_key_arm_matches_polling_oracle():
    """Version keys eliminate the single-table checker work without
    moving a single eject: both arms match the polling oracle, cycle for
    cycle, and ≥90% of the fast-path pair checks resolve by counter."""
    keyed_ejects, keyed_kept, checks, avoided = run_versionkey_arm(True)
    control_ejects, control_kept, control_checks, control_avoided = (
        run_versionkey_arm(False)
    )
    oracle_ejects, oracle_kept = run_polling_oracle()

    assert keyed_ejects == control_ejects == oracle_ejects
    assert keyed_kept == control_kept == oracle_kept
    assert control_checks == 0 and control_avoided == 0

    elimination = avoided / checks if checks else 0.0
    baseline = None
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)
    lines = [
        f"keyed   : ejects {sum(len(e) for e in keyed_ejects)} pages "
        f"over {ORACLE_CYCLES} cycles, {avoided}/{checks} "
        f"single-table checks resolved by counter ({100 * elimination:.1f}%)",
        f"control : identical ejects, 0 version-key checks",
        f"oracle  : kept {oracle_kept}",
    ]
    data = {
        "version_key_checks": checks,
        "polls_avoided": avoided,
        "elimination": round(elimination, 4),
        "ejects_per_cycle": keyed_ejects,
        "kept": keyed_kept,
    }
    if baseline is not None:
        ref = baseline["version_key"]
        lines.append(
            f"baseline: {ref['polls_avoided']}/{ref['version_key_checks']} "
            f"resolved ({100 * ref['elimination']:.1f}%, committed "
            f"{baseline['committed']})"
        )
        assert elimination >= baseline["elimination_floor"]
        assert keyed_ejects == ref["ejects_per_cycle"]
    emit(
        "Ablation A' — version-key fast path vs per-instance polling oracle",
        lines,
        data=data,
    )
    assert elimination >= 0.9
