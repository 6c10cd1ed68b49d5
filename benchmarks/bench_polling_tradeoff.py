"""Ablation B: the polling-budget / invalidation-quality trade-off (§4.2.2).

"There is a tradeoff between the amount of polling required and the
quality of the invalidation process" — a tight polling budget keeps the
DBMS load down but forces over-invalidation, which costs cache hits.

We sweep the per-cycle polling budget on a join-heavy workload and report
polls issued, pages over-invalidated, and pages wrongly ejected (pages
that polling would have proven fresh).
"""

import pytest

from repro.db import Database
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap

from conftest import emit


def build_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
    for i in range(100):
        db.execute(f"INSERT INTO car VALUES ('m{i % 7}', 'model{i}', {9000 + 113 * i})")
        # Only even models have mileage rows: half the polls come back empty.
        if i % 2 == 0:
            db.execute(f"INSERT INTO mileage VALUES ('model{i}', {10 + i % 40})")
    return db


def join_sql(min_epa: int) -> str:
    return (
        "SELECT car.maker FROM car, mileage "
        f"WHERE car.model = mileage.model AND mileage.epa > {min_epa}"
    )


def run_with_budget(budget):
    db = build_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl, polling_budget=budget)
    for index in range(20):
        url = f"u{index}"
        cache.put(
            url,
            HttpResponse(body="p", cache_control=CacheControl.cacheportal_private()),
        )
        qiurl.add(join_sql(index), url, "s")
    # Updates that pass the car-side local checks but mostly do not join.
    for i in range(1, 30):
        db.execute(f"INSERT INTO car VALUES ('kia', 'odd{2 * i + 1}', 10000)")
    report = invalidator.run_cycle()
    return report, len(cache)


BUDGETS = [0, 1, 5, 20, None]


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"budget={b}")
def test_budget_sweep(benchmark, budget):
    report, cached_after = benchmark.pedantic(
        lambda: run_with_budget(budget), rounds=1, iterations=1
    )


def test_tradeoff_shape():
    rows = []
    baseline_kept = None
    for budget in BUDGETS:
        report, cached_after = run_with_budget(budget)
        rows.append(
            f"budget={str(budget):>4s}: polls={report.polls_executed:3d} "
            f"over-invalidated={report.over_invalidated:3d} "
            f"pages kept={cached_after:3d}"
        )
        if budget is None:
            baseline_kept = cached_after
    emit("Ablation B — polling budget vs invalidation quality", rows)

    zero_report, zero_kept = run_with_budget(0)
    full_report, full_kept = run_with_budget(None)
    # No budget → no polls, maximal over-invalidation, fewest pages kept.
    assert zero_report.polls_executed == 0
    assert zero_report.over_invalidated > 0
    assert zero_kept <= full_kept
    # Unlimited budget → all decisions polled, nothing over-invalidated.
    assert full_report.over_invalidated == 0
    assert full_report.polls_executed > 0
    # The middle of the sweep is monotone: more budget, more pages kept.
    kept_by_budget = [run_with_budget(b)[1] for b in (0, 1, 5, 20)]
    assert kept_by_budget == sorted(kept_by_budget)
