"""Tentpole bench: set-oriented (batched) polling vs per-instance polling.

Under bursty update load a cycle's may-affect candidates are dominated by
instances of the same polling-query type with different constants (the
``epa > $1`` join pages of Table 3).  The per-instance path issues one
``SELECT COUNT(*)`` round trip per candidate; the batch compiler folds
each type's candidates into ONE delta-join against a VALUES probe.  This
sweep measures, per candidate count:

* database queries issued (the ≥5× reduction target at ≥10k candidates);
* wall time to answer every candidate (the ≥3× speedup target);
* answer equivalence — demultiplexed verdicts match the oracle, one
  ``PollingQueryGenerator.poll`` per task, bit for bit.

A fixed-size full-cycle stage then runs the invalidation pipeline
against the reference cycle of ``tests/reference_cycle.py``, which polls
each task on its own, and asserts byte-identical eject sets and counter
parity — the bench fails loudly if batching ever changes an outcome, not
just if it stops being fast.

Scale knob: ``REPRO_BENCH_POLLBATCH_COUNTS`` (default ``1000,10000``) —
the CI smoke job runs tiny counts.
"""

import os
import time
from collections import Counter

from repro.db import Database
from repro.sql.parser import parse_statement
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.core.invalidator.polling import PollingQueryGenerator
from repro.core.qiurl import QIURLMap
from repro.stream import StreamingInvalidationPipeline

from conftest import emit
from reference_cycle import ReferenceInvalidator

COUNTS = [
    int(token)
    for token in os.environ.get(
        "REPRO_BENCH_POLLBATCH_COUNTS", "1000,10000"
    ).split(",")
    if token.strip()
]

#: Ratio targets, asserted at the largest count of the sweep.
TARGET_QUERY_REDUCTION = 5.0
TARGET_SPEEDUP = 3.0

#: Candidate mix: 80% of one join-page type, 20% of a budget-page type —
#: two batch groups, like a real cycle with a couple of hot templates.
JOIN_POLL = "SELECT COUNT(*) FROM mileage WHERE mileage.model = 'probe' AND mileage.epa > {}"
PRICE_POLL = "SELECT COUNT(*) FROM car WHERE car.price < {}"


#: Executor for the bench databases ("columnar" or "row") — lets the sweep
#: quantify what the vectorized engine contributes on top of batching.
EXECUTOR = os.environ.get("REPRO_BENCH_POLLBATCH_EXECUTOR", "columnar")


def make_db(rows=400):
    db = Database(executor=EXECUTOR)
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
    for i in range(rows):
        db.execute(
            f"INSERT INTO car VALUES ('maker{i % 40}', 'model{i}', {8000 + 37 * i})"
        )
        db.execute(f"INSERT INTO mileage VALUES ('model{i}', {i % 60})")
    db.execute("INSERT INTO mileage VALUES ('probe', 30)")
    return db


def make_tasks(count):
    """``count`` fully bound polling queries; constants all distinct, so
    nothing coalesces and every candidate really costs a round trip."""
    tasks = []
    for i in range(count):
        if i % 5 < 4:
            sql = JOIN_POLL.format(round(i * 60.0 / count, 4))
        else:
            sql = PRICE_POLL.format(round(8000 + i * 29000.0 / count, 4))
        tasks.append((i, parse_statement(sql)))
    return tasks


def fresh_polling_stack(db):
    lane = StreamingInvalidationPipeline(db, [WebCache()], QIURLMap()).worker.lane
    lane.polling.begin_cycle()
    return lane


def run_batched(db, tasks):
    lane = fresh_polling_stack(db)
    outcomes = lane.batch_poller.execute(tasks)
    stats = lane.polling.stats
    answers = [outcomes[key].impacted for key, _ in tasks]
    return answers, stats.issued + stats.batched_queries


def run_per_instance(db, tasks):
    generator = PollingQueryGenerator(db)
    answers = [generator.poll(query) for _, query in tasks]
    return answers, generator.stats.issued


def timed(fn, repeats):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_polling_batch_sweep():
    db = make_db()
    rows = []
    lines = []
    for count in COUNTS:
        tasks = make_tasks(count)
        repeats = 3 if count <= 10_000 else 1
        (batched_answers, batched_queries), t_batched = timed(
            lambda: run_batched(db, tasks), repeats
        )
        (oracle_answers, oracle_queries), t_oracle = timed(
            lambda: run_per_instance(db, tasks), repeats
        )
        # Demultiplexed verdicts must match the oracle bit for bit.
        assert batched_answers == oracle_answers, count
        reduction = oracle_queries / max(1, batched_queries)
        speedup = t_oracle / t_batched
        rows.append(
            {
                "candidates": count,
                "queries_per_instance": oracle_queries,
                "queries_batched": batched_queries,
                "query_reduction": round(reduction, 2),
                "per_instance_ms": round(1000 * t_oracle, 3),
                "batched_ms": round(1000 * t_batched, 3),
                "speedup": round(speedup, 2),
            }
        )
        lines.append(
            f"{count:>7} cand | queries {oracle_queries:>7} -> "
            f"{batched_queries:>3} ({reduction:7.1f}x) | "
            f"{1000 * t_oracle:9.1f}ms -> {1000 * t_batched:8.1f}ms "
            f"({speedup:5.1f}x)"
        )
    cycle = full_cycle_parity()
    emit(
        "Set-oriented polling — batched vs per-instance sweep",
        lines
        + [
            f"cycle parity | ejects {cycle['ejects']} "
            f"(saved {cycle['round_trips_saved']} round trips)",
        ],
        data={"rows": rows, "cycle_parity": cycle},
    )
    largest = rows[-1]
    if largest["candidates"] >= 10_000:
        assert largest["query_reduction"] >= TARGET_QUERY_REDUCTION, largest
        assert largest["speedup"] >= TARGET_SPEEDUP, largest


PARITY_COUNTERS = (
    "pairs_checked",
    "unaffected",
    "affected",
    "polls_requested",
    "polls_executed",
    "polls_impacted",
    "over_invalidated",
    "urls_ejected",
)


def cacheable():
    return HttpResponse(
        body="page", cache_control=CacheControl.cacheportal_private()
    )


def _pages(cache, qiurl, count):
    for i in range(count):
        url = f"u{i}"
        cache.put(url, cacheable())
        qiurl.add(
            "SELECT car.maker FROM car, mileage "
            "WHERE car.model = mileage.model "
            f"AND mileage.epa > {round(i * 60.0 / count, 4)}",
            url,
            "s",
        )


WAVES = (
    (
        "INSERT INTO car VALUES ('Kia', 'fresh1', 14000)",
        "INSERT INTO car VALUES ('Audi', 'fresh2', 41000)",
    ),
    ("INSERT INTO mileage VALUES ('fresh1', 33)",),
)


def full_cycle_parity(pages=300):
    """The pipeline's cycles against the reference cycle: identical
    ejects, counter for counter."""
    counters = PARITY_COUNTERS + ("poll_round_trips_saved",)

    def run(reference):
        db = make_db(rows=50)
        cache = WebCache()
        qiurl = QIURLMap()
        pipeline = StreamingInvalidationPipeline(db, [cache], qiurl)
        consumer = ReferenceInvalidator(pipeline) if reference else pipeline
        _pages(cache, qiurl, pages)
        totals = Counter()
        for wave in WAVES:
            for sql in wave:
                db.execute(sql)
            report = consumer.run_cycle()
            totals.update({c: getattr(report, c) for c in counters})
        return sorted(cache.keys()), totals

    keys, product = run(reference=False)
    reference_keys, reference = run(reference=True)
    assert keys == reference_keys
    for counter in PARITY_COUNTERS:
        assert product[counter] == reference[counter], counter
    return {
        "pages": pages,
        "ejects": product["urls_ejected"],
        "round_trips_saved": product["poll_round_trips_saved"],
    }
