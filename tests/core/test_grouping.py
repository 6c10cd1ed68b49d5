"""Tests for type-level grouped independence checking (§4.1.2).

The key property: :class:`GroupedChecker` is verdict-equivalent to the
per-instance :class:`IndependenceChecker` — same kinds, same polling SQL —
while computing the structural analysis once per query type.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.log import ChangeKind, UpdateRecord
from repro.core.invalidator.analysis import IndependenceChecker, VerdictKind
from repro.core.invalidator.grouping import GroupedChecker, TypeAnalysis
from repro.core.invalidator.registration import QueryTypeRegistry


def record(table, kind=ChangeKind.INSERT, **values):
    return UpdateRecord(
        lsn=1,
        timestamp=0.0,
        table=table,
        kind=kind,
        values=tuple(values.values()),
        columns=tuple(values.keys()),
    )


QUERY_INSTANCES = [
    "SELECT * FROM car WHERE price < 20000",
    "SELECT * FROM car WHERE price < 20000 AND maker = 'Kia'",
    "SELECT * FROM car WHERE price < 10000 OR maker = 'Kia'",
    "SELECT * FROM car",
    "SELECT * FROM car WHERE maker IN ('Kia', 'VW') AND price BETWEEN 1 AND 9",
    "SELECT * FROM car WHERE model LIKE 'Ri%'",
    "SELECT car.maker FROM car, mileage "
    "WHERE car.model = mileage.model AND mileage.epa > 30",
    "SELECT c.maker FROM car c, mileage m "
    "WHERE c.model = m.model AND c.price < 100",
    "SELECT * FROM car, mileage",
    "SELECT a.model FROM car a, car b WHERE a.price < b.price AND a.maker = 'Kia'",
    "SELECT * FROM car LEFT JOIN mileage ON car.model = mileage.model",
    "SELECT * FROM car WHERE 1 = 2",
    "SELECT COUNT(*) FROM car WHERE price < 20000",
]

UPDATE_RECORDS = [
    record("car", maker="Kia", model="Rio", price=14000),
    record("car", maker="BMW", model="M5", price=72000),
    record("car", ChangeKind.DELETE, maker="Kia", model="Rio", price=5),
    record("car", maker="VW", model="Golf", price=None),
    record("mileage", model="Rio", epa=40),
    record("mileage", model="Rio", epa=10),
    record("dealer", model="Rio", city="SJ"),
    record("car", maker="K"),  # partial record
]


class TestEquivalence:
    @pytest.mark.parametrize("sql", QUERY_INSTANCES)
    @pytest.mark.parametrize("index", range(len(UPDATE_RECORDS)))
    def test_same_verdict_as_per_instance_checker(self, sql, index):
        update = UPDATE_RECORDS[index]
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(sql, "u1")
        plain = IndependenceChecker().check(instance.statement, update)
        grouped = GroupedChecker().check_instance(instance, update)
        assert grouped.kind is plain.kind, (sql, update)
        assert grouped.polling_sql == plain.polling_sql, (sql, update)

    @given(
        threshold=st.integers(-100, 100000),
        price=st.one_of(st.integers(0, 100000), st.none()),
    )
    @settings(max_examples=100, deadline=None)
    def test_equivalence_over_random_bindings(self, threshold, price):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            f"SELECT * FROM car WHERE price < {threshold}", "u1"
        )
        update = record("car", maker="X", model="Y", price=price)
        plain = IndependenceChecker().check(instance.statement, update)
        grouped = GroupedChecker().check_instance(instance, update)
        assert grouped.kind is plain.kind


class TestAnalysisCaching:
    def test_analysis_computed_once_per_type(self):
        registry = QueryTypeRegistry()
        checker = GroupedChecker()
        instances = [
            registry.observe_instance(
                f"SELECT * FROM car WHERE price < {1000 * i}", f"u{i}"
            )
            for i in range(1, 20)
        ]
        update = record("car", maker="K", model="R", price=500)
        for instance in instances:
            checker.check_instance(instance, update)
        assert checker.analyses_computed == 1
        assert checker.checks_performed == 19

    def test_different_types_get_own_analyses(self):
        registry = QueryTypeRegistry()
        checker = GroupedChecker()
        a = registry.observe_instance("SELECT * FROM car WHERE price < 1", "u1")
        b = registry.observe_instance("SELECT * FROM car WHERE price > 1", "u2")
        update = record("car", maker="K", model="R", price=500)
        checker.check_instance(a, update)
        checker.check_instance(b, update)
        assert checker.analyses_computed == 2


class TestTypeAnalysis:
    def test_local_vs_residual_split(self):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            "SELECT car.maker FROM car, mileage "
            "WHERE car.model = mileage.model AND car.price < 100 AND mileage.epa > 30",
            "u1",
        )
        analysis = TypeAnalysis.of(instance.query_type)
        car = analysis.by_binding["car"]
        mileage = analysis.by_binding["mileage"]
        assert len(car.local_templates) == 1  # price < $n
        assert len(car.residual_templates) == 2  # the join + mileage-local
        assert len(mileage.local_templates) == 1  # epa > $n
        assert not analysis.has_left_join

    def test_constant_conditions_collected(self):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            "SELECT * FROM car WHERE 1 = 2 AND price < 5", "u1"
        )
        analysis = TypeAnalysis.of(instance.query_type)
        # "1 = 2" parameterizes to "$1 = $2": still column-free.
        assert len(analysis.constant_templates) == 1

    def test_left_join_flag(self):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            "SELECT * FROM car LEFT JOIN mileage ON car.model = mileage.model",
            "u1",
        )
        assert TypeAnalysis.of(instance.query_type).has_left_join


class TestInvalidatorIntegration:
    def test_grouped_and_plain_cycles_agree(self):
        """The product's grouped cycle ejects what the reference cycle,
        which runs :class:`IndependenceChecker` on every pair, ejects."""
        from repro.web.cache import WebCache
        from repro.web.http import CacheControl, HttpResponse
        from repro.stream import StreamingInvalidationPipeline
        from repro.core.qiurl import QIURLMap
        from helpers import make_car_db
        from reference_cycle import ReferenceInvalidator

        def run(grouped):
            db = make_car_db()
            cache = WebCache()
            qiurl = QIURLMap()
            invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
            for index, sql in enumerate(QUERY_INSTANCES[:8]):
                url = f"u{index}"
                cache.put(
                    url,
                    HttpResponse(
                        body="p", cache_control=CacheControl.cacheportal_private()
                    ),
                )
                qiurl.add(sql, url, "s")
            db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
            db.execute("INSERT INTO mileage VALUES ('Rio', 40)")
            if grouped:
                invalidator.run_cycle()
            else:
                ReferenceInvalidator(invalidator).run_cycle()
            return sorted(cache.keys())

        assert run(grouped=True) == run(grouped=False)


class TestBoundMemo:
    """The checker's per-instance bound conditions follow the registry:
    a dropped instance leaves the memo, so it holds live instances only."""

    PAGES = 12

    @staticmethod
    def _consumer(kind):
        """(database, consumer, its tick, its checker): ``sync`` ticks
        through ``run_cycle``, ``stream`` through ``process_available``."""
        from repro.db.engine import Database
        from repro.stream import StreamingInvalidationPipeline
        from repro.web.cache import WebCache

        db = Database()
        db.execute("CREATE TABLE item (price INT, qty INT)")
        # Without version keys every candidate pair reaches the checker.
        pipeline = StreamingInvalidationPipeline(
            db, [WebCache()], version_keys=False
        )
        tick = pipeline.run_cycle if kind == "sync" else pipeline.process_available
        return db, pipeline, tick, pipeline.tiers.checker

    @pytest.mark.parametrize("kind", ["sync", "stream"])
    def test_dropped_instances_leave_the_memo(self, kind):
        db, consumer, tick, checker = self._consumer(kind)
        registry = consumer.registry
        for step in range(self.PAGES):
            registry.observe_instance(
                f"SELECT qty FROM item WHERE price = {step} AND qty > 5",
                f"/item/{step}",
            )
        # Even pages are affected (ejected, then dropped); odd ones are
        # checked, proven unaffected, and stay registered.
        for step in range(self.PAGES):
            qty = 10 if step % 2 == 0 else 1
            db.execute(f"INSERT INTO item VALUES ({step}, {qty})")
        tick()

        def memo_keys():
            return set(checker._bound)

        live = {instance.instance_id for instance in registry.instances()}
        assert len(live) == self.PAGES // 2
        assert memo_keys() and memo_keys() <= live
        for step in range(1, self.PAGES, 2):
            registry.drop_url(f"/item/{step}")
        assert len(registry) == 0
        assert memo_keys() == set()


class TestOneAnalysisCache:
    """Every tier and the lane's precise check share the tiers' one
    type-analysis cache."""

    def test_one_type_one_update_builds_two_analyses(self, monkeypatch):
        from repro.db.engine import Database
        from repro.stream import StreamingInvalidationPipeline
        from repro.web.cache import WebCache

        built = []
        original = TypeAnalysis.of.__func__

        def counting(cls, query_type):
            built.append(query_type)
            return original(cls, query_type)

        monkeypatch.setattr(TypeAnalysis, "of", classmethod(counting))
        db = Database()
        db.execute("CREATE TABLE item (price INT, qty INT)")
        pipeline = StreamingInvalidationPipeline(db, [WebCache()], version_keys=False)
        pipeline.registry.observe_instance(
            "SELECT qty FROM item WHERE price = 3 AND qty > 5", "/item/3"
        )
        db.execute("INSERT INTO item VALUES (3, 10)")
        pipeline.process_available()
        assert pipeline.stats()["workers"]["affected"] == 1
        # The registration-time safety classification builds its own; the
        # tiers' checker builds the other, for the index and the check.
        assert len(built) == 2
        assert pipeline.worker.lane.tiers.checker is pipeline.tiers.checker
