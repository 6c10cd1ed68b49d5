"""Static conflict matrix A/B: full cycles with and without pruning.

The matrix's contract is *eject parity*: a registration-time DISJOINT
proof answers a (instance, update) pair with the exact UNAFFECTED
verdict the runtime checker would reach, so turning it on changes work,
never ejects.  This bench runs the same cycle twice per registry size —
matrix on, matrix off, every other tier on — and asserts:

* the ejected URL set is bit-identical across arms;
* at the largest count, ≥30% of all pairs resolve statically
  (:data:`TARGET_STATIC_FRACTION`).

The predicate index prunes on its own whatever a per-instance proof
would skip, except for version-keyed instances: those bypass the probe
(their counter decides), so their pairs reach the matrix's static branch
first.  The budget and maker pages here are all version-keyed.

Both arms run one warm cycle before the timed one: disjointness proofs
(like the checker's type analyses) are computed once per instance and
amortized over every later cycle, so steady state is what matters.

Registry mix mirrors ``bench_predicate_index``: 45% ``price < t``
budget pages with thresholds in [10 000, 30 000), 45% per-maker
equality pages, 5% joins, 5% IN-lists.  Two refined update classes are
declared on the matrix arm — ``premium-insert`` (``price >= 30000``)
and ``rolls-insert`` (``maker = 'Rolls'``) — and the update batch is
dominated by premium Rolls inventory, so budget and maker pages prove
disjoint per instance while joins and IN-lists honestly fall through.

Scale knob: ``REPRO_BENCH_CONFLICT_COUNTS`` (default ``1000,10000``) —
the CI smoke job runs tiny counts.
"""

import json
import os
import time

from repro.stream import StreamingInvalidationPipeline
from repro.core.qiurl import QIURLMap
from repro.db import Database
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse

from conftest import emit

COUNTS = [
    int(token)
    for token in os.environ.get(
        "REPRO_BENCH_CONFLICT_COUNTS", "1000,10000"
    ).split(",")
    if token.strip()
]

#: Asserted at the largest count: fraction of (instance, update) pairs
#: the matrix resolves without probe or checker.
TARGET_STATIC_FRACTION = 0.30

_BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "bench_conflict_matrix.json"
)


def make_db():
    db = Database()
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
    db.execute("INSERT INTO car VALUES ('Honda', 'Civic', 18000)")
    db.execute("INSERT INTO mileage VALUES ('Civic', 35)")
    return db


def page_sql(i, count):
    """The bench_predicate_index registry mix, one page per instance."""
    bucket = i % 20
    if bucket < 9:  # 45%: budget pages, thresholds in [10_000, 30_000)
        threshold = 10000 + i * 20000.0 / count
        return (
            "SELECT maker, model, price FROM car "
            f"WHERE price < {threshold:.4f}"
        )
    if bucket < 18:  # 45%: per-maker pages
        return f"SELECT * FROM car WHERE maker = 'maker{i}'"
    if bucket == 18:  # 5%: joins — car side carries no local conjunct
        epa = 10 + i * 40.0 / count
        return (
            "SELECT car.maker FROM car, mileage "
            "WHERE car.model = mileage.model "
            f"AND mileage.epa > {epa:.4f}"
        )
    return f"SELECT * FROM car WHERE maker IN ('maker{i}', 'maker{i + 7}')"


def apply_updates(db):
    """Mostly premium inventory (statically disjoint from every budget
    and maker page), one budget car that genuinely ejects, one mileage
    row for the join family."""
    for i in range(6):
        db.execute(
            f"INSERT INTO car VALUES ('Rolls', 'ghost{i}', {31000 + 9000 * i})"
        )
    db.execute("INSERT INTO car VALUES ('maker3', 'budget', 12000)")
    db.execute("INSERT INTO mileage VALUES ('ghost0', 9)")


def run_arm(count, conflict_matrix):
    db = make_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl, conflict_matrix=conflict_matrix)
    if invalidator.conflict_matrix is not None:
        invalidator.conflict_matrix.declare_class(
            "premium-insert", "car", "insert", "price >= 30000"
        )
        invalidator.conflict_matrix.declare_class(
            "rolls-insert", "car", "insert", "maker = 'Rolls'"
        )
    page = HttpResponse(
        body="page", cache_control=CacheControl.cacheportal_private()
    )
    urls = []
    for i in range(count):
        url = f"u{i}"
        urls.append(url)
        cache.put(url, page)
        qiurl.add(page_sql(i, count), url, "servlet")
    # First cycle ingests the QI/URL pairs (registration), no updates.
    invalidator.run_cycle()
    # Warm cycle: one premium insert computes the one-time per-instance
    # disjointness proofs (and, in the off arm, the grouped checker's
    # type analyses), so the timed cycle below measures steady state.
    db.execute("INSERT INTO car VALUES ('Rolls', 'warm', 99000)")
    db.execute("INSERT INTO mileage VALUES ('warm', 9)")
    invalidator.run_cycle()
    apply_updates(db)
    start = time.perf_counter()
    report = invalidator.run_cycle()
    elapsed = time.perf_counter() - start
    ejected = {url for url in urls if url not in cache}
    return report, ejected, elapsed


def test_conflict_matrix_cycle_sweep():
    rows = []
    lines = []
    for count in COUNTS:
        with_report, with_ejected, with_time = run_arm(count, True)
        without_report, without_ejected, without_time = run_arm(count, False)
        # Eject parity, the hard contract: bit-identical ejected URLs.
        assert with_ejected == without_ejected, count
        assert with_report.urls_ejected == without_report.urls_ejected, count
        assert with_report.pairs_checked == without_report.pairs_checked, count
        assert without_report.static_disjoint_skips == 0
        fraction = with_report.static_disjoint_skips / max(
            1, with_report.pairs_checked
        )
        rows.append(
            {
                "instances": count,
                "pairs": with_report.pairs_checked,
                "static_skips": with_report.static_disjoint_skips,
                "template_pruned": with_report.template_pairs_pruned,
                "static_fraction": round(fraction, 4),
                "urls_ejected": with_report.urls_ejected,
                "cycle_ms_with": round(with_time * 1000, 3),
                "cycle_ms_without": round(without_time * 1000, 3),
                "speedup": round(without_time / max(with_time, 1e-9), 2),
            }
        )
        lines.append(
            f"n={count:6d}  pairs={with_report.pairs_checked:7d}  "
            f"static={with_report.static_disjoint_skips:7d} "
            f"({100 * fraction:5.1f}%)  ejects={with_report.urls_ejected:4d}  "
            f"cycle {without_time * 1000:8.1f}ms -> {with_time * 1000:8.1f}ms "
            f"({rows[-1]['speedup']:4.2f}x)"
        )
    if os.path.exists(_BASELINE_PATH):
        with open(_BASELINE_PATH) as handle:
            baseline = json.load(handle)
        for row in rows:
            ref = baseline["rows"].get(str(row["instances"]))
            if ref:
                lines.append(
                    f"n={row['instances']:6d}  baseline "
                    f"static={100 * ref['static_fraction']:5.1f}%  "
                    f"speedup={ref['speedup']:4.2f}x "
                    f"(committed {baseline['committed']})"
                )
    # The pruning target holds at the largest scale of the sweep.
    assert rows[-1]["static_fraction"] >= TARGET_STATIC_FRACTION, rows[-1]
    emit(
        "Static conflict matrix — cycle pruning A/B (ejects bit-identical)",
        lines,
        data={"target_static_fraction": TARGET_STATIC_FRACTION, "rows": rows},
    )
