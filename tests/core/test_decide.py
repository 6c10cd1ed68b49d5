"""One decision table, checked against the reference cycle.

The portal's one consumer (``portal.run_invalidation_cycle()``, the
pipeline's ``run_cycle``) decides through
:mod:`repro.core.invalidator.decide`.  A twin site fed the same pages and
the same updates, decided by ``tests/reference_cycle.py``, must eject the
same pages and count the same decisions, with every tier on and with
each A/B toggle off in turn.
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_car_db
from repro import CachePortal, Configuration, build_site
from reference_cycle import ReferenceInvalidator
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

#: Decision counters the reference cycle keeps too.
COUNTERS = (
    "records_processed",
    "duplicate_records_skipped",
    "pairs_checked",
    "unaffected",
    "affected",
    "polls_requested",
    "polls_executed",
    "polls_impacted",
    "over_invalidated",
    "urls_ejected",
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


def build(arm):
    db = make_car_db()
    db.execute("INSERT INTO car VALUES ('Kia', 'Soul', NULL)")
    site = build_site(Configuration.WEB_CACHE, servlets(), database=db)
    return site, CachePortal(site, **arm)


MODELS = ["Rio", "Soul", "Civic", "Avalon", "Ghost"]
NULLABLE_INT = st.one_of(st.none(), st.integers(0, 80000))


def _sql(value):
    return "NULL" if value is None else repr(value)


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


def run(arm, waves, reference):
    site, portal = build(arm)
    oracle = ReferenceInvalidator(portal.pipeline) if reference else None
    results = []
    for urls, statements in waves:
        for url in urls:
            site.get(url)
        for sql in statements:
            site.database.execute(sql)
        if reference:
            portal.run_sniffer()
            report = oracle.run_cycle()
        else:
            report = portal.run_invalidation_cycle()
        counts = {name: getattr(report, name) for name in COUNTERS}
        results.append((sorted(site.web_cache.keys()), counts))
    return results


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=12, deadline=None)
@given(waves=WAVES)
def test_consumers_eject_and_count_identically(arm, waves):
    """The product cycle and the reference cycle, twin for twin."""
    product = run(arm, waves, reference=False)
    oracle = run(arm, waves, reference=True)
    for (_urls, statements), (keys, counts), (oracle_keys, oracle_counts) in zip(
        waves, product, oracle
    ):
        # One cycle is one tail batch: every relation decided, then one
        # poll phase — the reference cycle's shape, counter for counter.
        assert keys == oracle_keys, statements
        assert counts == oracle_counts, statements


def test_streamed_eject_records_invalidation_time():
    site, portal = build({})
    site.get("/catalog?max_price=30000")
    site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 12000)")
    portal.pipeline.process_available()
    assert len(site.web_cache) == 0
    stats = next(
        query_type.stats
        for query_type in portal.pipeline.registry.types()
        if "price <" in query_type.signature
    )
    assert stats.invalidations == 1
    # §4.1.1 item 4: charged from the start of the pass.
    assert stats.max_invalidation_time > 0.0


def test_process_available_propagates_batch_errors():
    site, portal = build({})
    worker = portal.pipeline.pool.workers[0]

    def broken(deltas, origin_ts=None):
        raise RuntimeError("batch is broken")

    worker.process_batch = broken
    site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 12000)")
    with pytest.raises(RuntimeError, match="batch is broken"):
        portal.pipeline.process_available()


def test_one_pass_decides_every_relation_of_a_batch():
    """A tail batch touching two relations is one pass: one scheduler
    cycle, one publish."""
    site, portal = build({})
    for url in URLS:
        site.get(url)
    portal.run_invalidation_cycle()
    site.database.execute("INSERT INTO car VALUES ('Kia', 'Rio', 12000)")
    site.database.execute("INSERT INTO mileage VALUES ('Rio', 35)")
    before = portal.pipeline.stats()
    report = portal.run_invalidation_cycle()
    after = portal.pipeline.stats()
    assert report.records_processed == 2
    assert after["workers"]["batches_processed"] - before["workers"]["batches_processed"] == 1
    assert after["lane"]["scheduler_cycles"] - before["lane"]["scheduler_cycles"] <= 1
