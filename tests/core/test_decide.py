"""One decision table, two consumers.

The synchronous cycle (``portal.run_invalidation_cycle()``) and the
streaming pipeline (``pipeline.process_available()``) both decide through
:mod:`repro.core.invalidator.decide`.  Twin sites fed the same pages and
the same updates must eject the same pages and count the same decisions,
with every tier on and with each A/B toggle off in turn.
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_car_db
from repro import CachePortal, Configuration, build_site
from repro.core.invalidator import Invalidator
from repro.stream import StreamingInvalidationPipeline
from repro.web import KeySpec, QueryPageServlet
from repro.web.servlet import QueryBinding

TOGGLES = (
    "safety_enforcement",
    "version_keys",
    "conflict_matrix",
)
ARMS = [pytest.param({}, id="all-on")] + [
    pytest.param({name: False}, id=f"no-{name}") for name in TOGGLES
]

#: Decision counters both consumers report under the same name.
COUNTERS = (
    "records_processed",
    "pairs_checked",
    "unaffected",
    "affected",
    "pairs_pruned",
    "index_probes",
    "polls_requested",
    "polls_executed",
    "polls_impacted",
    "over_invalidated",
    "batched_queries",
    "batched_instances",
    "fallback_ejects",
    "poll_only_checks",
    "version_key_checks",
    "polls_avoided",
    "static_disjoint_skips",
    "template_pairs_pruned",
)


def page(name, sql, *params):
    return QueryPageServlet(
        name=name,
        path=f"/{name}",
        queries=[(sql, [QueryBinding("get", param, kind) for param, kind in params])],
        key_spec=KeySpec.make(get_keys=[param for param, _kind in params]),
    )


def servlets():
    """One query per page, one page class per decision path."""
    return [
        # single-table, version-keyed
        page("catalog", "SELECT maker, model, price FROM car WHERE price < ?",
             ("max_price", int)),
        page("maker", "SELECT model, price FROM car WHERE maker = ?", ("maker", str)),
        # NULL-valued rows
        page("unpriced", "SELECT maker, model FROM car WHERE price IS NULL"),
        # join: polling
        page("efficient",
             "SELECT car.maker, car.model, mileage.epa FROM car, mileage "
             "WHERE car.model = mileage.model AND mileage.epa > ?",
             ("min_epa", int)),
        # POLL_ONLY (uncorrelated subquery) and ALWAYS_EJECT (NOW())
        page("rated", "SELECT model FROM car WHERE model IN (SELECT model FROM mileage)"),
        page("fresh", "SELECT maker, model FROM car WHERE price < NOW()"),
    ]


URLS = [
    "/catalog?max_price=15000",
    "/catalog?max_price=30000",
    "/catalog?max_price=80000",
    "/maker?maker=Kia",
    "/maker?maker=Toyota",
    "/unpriced",
    "/efficient?min_epa=20",
    "/efficient?min_epa=30",
    "/rated",
    "/fresh",
]


def build(arm, streaming):
    db = make_car_db()
    db.execute("INSERT INTO car VALUES ('Kia', 'Soul', NULL)")
    site = build_site(Configuration.WEB_CACHE, servlets(), database=db)
    portal = CachePortal(site)
    if streaming:
        pipeline = StreamingInvalidationPipeline.for_portal(portal, **arm)
        return site, pipeline
    portal.invalidator = Invalidator(
        site.database,
        [site.web_cache],
        portal.qiurl_map,
        servlet_deadline=portal._servlet_deadline,
        **arm,
    )
    return site, portal


MODELS = ["Rio", "Soul", "Civic", "Avalon", "Ghost"]
NULLABLE_INT = st.one_of(st.none(), st.integers(0, 80000))


def _sql(value):
    return "NULL" if value is None else repr(value)


def relation(statement):
    words = statement.split()
    return words[1] if words[0] == "UPDATE" else words[2]


CAR_DML = st.one_of(
    st.builds(
        lambda maker, model, price: (
            f"INSERT INTO car VALUES ({_sql(maker)}, '{model}', {_sql(price)})"
        ),
        st.sampled_from(["Kia", "Toyota", "Rolls", None]),
        st.sampled_from(MODELS),
        NULLABLE_INT,
    ),
    st.builds(
        lambda model: f"DELETE FROM car WHERE model = '{model}'",
        st.sampled_from(MODELS),
    ),
    st.builds(
        lambda price, model: f"UPDATE car SET price = {_sql(price)} WHERE model = '{model}'",
        NULLABLE_INT,
        st.sampled_from(MODELS),
    ),
)
MILEAGE_DML = st.one_of(
    st.builds(
        lambda model, epa: f"INSERT INTO mileage VALUES ('{model}', {_sql(epa)})",
        st.sampled_from(MODELS),
        st.one_of(st.none(), st.integers(0, 40)),
    ),
    st.builds(
        lambda model: f"DELETE FROM mileage WHERE model = '{model}'",
        st.sampled_from(MODELS),
    ),
)
WAVES = st.lists(
    st.tuples(
        st.lists(st.sampled_from(URLS), min_size=1, max_size=6),
        st.one_of(
            st.lists(CAR_DML, min_size=1, max_size=4),
            st.lists(MILEAGE_DML, min_size=1, max_size=3),
            st.lists(st.one_of(CAR_DML, MILEAGE_DML), min_size=2, max_size=4),
        ),
    ),
    min_size=1,
    max_size=3,
)


def run_sync(arm, waves):
    site, portal = build(arm, streaming=False)
    results = []
    for urls, statements in waves:
        for url in urls:
            site.get(url)
        for sql in statements:
            site.database.execute(sql)
        report = portal.run_invalidation_cycle()
        counts = {name: getattr(report, name) for name in COUNTERS}
        results.append((sorted(site.web_cache.keys()), counts))
    return results


def run_stream(arm, waves):
    site, pipeline = build(arm, streaming=True)
    results = []
    before = dict.fromkeys(COUNTERS, 0)
    for urls, statements in waves:
        for url in urls:
            site.get(url)
        for sql in statements:
            site.database.execute(sql)
        pipeline.process_available()
        workers = pipeline.stats()["workers"]
        counts = {name: workers[name] - before[name] for name in COUNTERS}
        before = {name: workers[name] for name in COUNTERS}
        results.append((sorted(site.web_cache.keys()), counts))
    return results


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=12, deadline=None)
@given(waves=WAVES)
def test_consumers_eject_and_count_identically(arm, waves):
    sync = run_sync(arm, waves)
    stream = run_stream(arm, waves)
    for (_urls, statements), (sync_keys, sync_counts), (
        stream_keys,
        stream_counts,
    ) in zip(waves, sync, stream):
        assert sync_keys == stream_keys, statements
        # The stream decides and polls one relation per batch; the sync
        # cycle decides every relation, then polls once.  When a wave
        # touches two relations, a poll that dooms an instance in the
        # first batch spares the stream its pairs in the second, so the
        # counters agree exactly only for single-relation waves.
        if len({relation(sql) for sql in statements}) == 1:
            assert sync_counts == stream_counts, statements


def test_streamed_eject_records_invalidation_time():
    site, pipeline = build({}, streaming=True)
    site.get("/catalog?max_price=30000")
    site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 12000)")
    pipeline.process_available()
    assert len(site.web_cache) == 0
    stats = next(
        query_type.stats
        for query_type in pipeline.registry.types()
        if "price <" in query_type.signature
    )
    assert stats.invalidations == 1
    # §4.1.1 item 4: charged from the start of the batch, as the
    # synchronous cycle charges from the start of the cycle.
    assert stats.max_invalidation_time > 0.0


def test_process_available_propagates_batch_errors():
    site, pipeline = build({}, streaming=True)
    worker = pipeline.pool.workers[0]

    def broken(batch):
        raise RuntimeError("batch is broken")

    worker.process_batch = broken
    site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 12000)")
    with pytest.raises(RuntimeError, match="batch is broken"):
        pipeline.process_available()
