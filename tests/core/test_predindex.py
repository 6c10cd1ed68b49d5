"""Tests for the predicate index (§4.1.2 scaling: update → instance matching).

The load-bearing property: the index changes *work*, never *verdicts*.
Every instance the probe prunes must be one both the grouped checker and
the per-instance :class:`IndependenceChecker` would call UNAFFECTED, and
a full invalidation cycle must eject exactly the pages a scan of every
touching instance ejects.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.log import ChangeKind, UpdateRecord
from repro.core.invalidator.analysis import IndependenceChecker, VerdictKind
from repro.core.invalidator.grouping import GroupedChecker
from repro.core.invalidator.predindex import PredicateIndex
from repro.core.invalidator.registration import QueryTypeRegistry

from test_grouping import QUERY_INSTANCES, UPDATE_RECORDS, record


def indexed_registry(*sqls):
    """Registry + attached index, one URL per query."""
    registry = QueryTypeRegistry()
    index = PredicateIndex().attach_to(registry)
    instances = [
        registry.observe_instance(sql, f"u{i}") for i, sql in enumerate(sqls)
    ]
    return registry, index, instances


def probe_ids(index, table, rec):
    return index.probe(table, rec).candidate_ids


class TestHashIndex:
    def test_equality_probe(self):
        _, index, (inst,) = indexed_registry(
            "SELECT * FROM car WHERE maker = 'Kia'"
        )
        assert inst.instance_id in probe_ids(index, "car", record("car", maker="Kia"))
        assert not probe_ids(index, "car", record("car", maker="BMW"))
        # Missing probe column: the checker skips the condition, so the
        # index must not prune.
        assert inst.instance_id in probe_ids(index, "car", record("car", price=1))
        # NULL never equals anything (three-valued logic): prune.
        assert not probe_ids(index, "car", record("car", maker=None))

    def test_numeric_equality_crosses_int_float(self):
        # sql_equal(1, 1.0) is True and Python dict hashing agrees.
        _, index, (inst,) = indexed_registry("SELECT * FROM car WHERE price = 1")
        assert inst.instance_id in probe_ids(index, "car", record("car", price=1.0))

    def test_in_list_probe(self):
        _, index, (inst,) = indexed_registry(
            "SELECT * FROM car WHERE maker IN ('Kia', 'VW')"
        )
        for maker in ("Kia", "VW"):
            assert inst.instance_id in probe_ids(
                index, "car", record("car", maker=maker)
            )
        assert not probe_ids(index, "car", record("car", maker="BMW"))
        assert not probe_ids(index, "car", record("car", maker=None))

    def test_removal_cleans_buckets(self):
        registry, index, (a, b) = indexed_registry(
            "SELECT * FROM car WHERE maker = 'Kia'",
            "SELECT * FROM car WHERE maker = 'Kia' AND 1 = 1",
        )
        registry.drop_url("u0")
        ids = probe_ids(index, "car", record("car", maker="Kia"))
        assert ids == {b.instance_id}


class TestIntervalIndex:
    @pytest.mark.parametrize(
        "sql,inside,outside",
        [
            ("SELECT * FROM car WHERE price < 20000", 14000, 20000),
            ("SELECT * FROM car WHERE price <= 20000", 20000, 20001),
            ("SELECT * FROM car WHERE price > 10", 11, 10),
            ("SELECT * FROM car WHERE price >= 10", 10, 9),
            ("SELECT * FROM car WHERE price BETWEEN 1 AND 9", 9, 10),
            ("SELECT * FROM car WHERE price BETWEEN 1 AND 9", 1, 0),
            # Flipped orientation normalizes: 20000 > price ≡ price < 20000.
            ("SELECT * FROM car WHERE 20000 > price", 14000, 20000),
        ],
    )
    def test_boundaries(self, sql, inside, outside):
        _, index, (inst,) = indexed_registry(sql)
        assert inst.instance_id in probe_ids(index, "car", record("car", price=inside))
        assert not probe_ids(index, "car", record("car", price=outside))

    def test_null_value_prunes_and_missing_column_does_not(self):
        _, index, (inst,) = indexed_registry(
            "SELECT * FROM car WHERE price < 20000"
        )
        assert not probe_ids(index, "car", record("car", price=None))
        assert inst.instance_id in probe_ids(index, "car", record("car", maker="K"))

    def test_null_bound_never_matches(self):
        # price < NULL can never evaluate TRUE, but a tuple missing the
        # column still cannot be ruled out.
        _, index, (inst,) = indexed_registry("SELECT * FROM car WHERE price < NULL")
        assert not probe_ids(index, "car", record("car", price=5))
        assert inst.instance_id in probe_ids(index, "car", record("car", maker="K"))

    def test_string_probe_against_numeric_bound(self):
        # SQL total order puts numbers before strings: a string value is
        # above every numeric upper bound (checker agrees → prune).
        _, index, (inst,) = indexed_registry("SELECT * FROM car WHERE price < 20000")
        rec = record("car", price="banana")
        assert not probe_ids(index, "car", rec)
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            "SELECT * FROM car WHERE price < 20000", "u"
        )
        verdict = GroupedChecker().check_instance(instance, rec)
        assert verdict.kind is VerdictKind.UNAFFECTED

    def test_removal_from_sorted_lists(self):
        registry, index, (a, b) = indexed_registry(
            "SELECT * FROM car WHERE price < 20000",
            "SELECT * FROM car WHERE price < 30000",
        )
        registry.drop_url("u0")
        assert probe_ids(index, "car", record("car", price=25000)) == {b.instance_id}
        assert index.registered("car") == 1


class TestNullIndex:
    def test_is_null(self):
        _, index, (inst,) = indexed_registry(
            "SELECT * FROM car WHERE price IS NULL"
        )
        assert inst.instance_id in probe_ids(index, "car", record("car", price=None))
        assert not probe_ids(index, "car", record("car", price=5))
        assert inst.instance_id in probe_ids(index, "car", record("car", maker="K"))

    def test_is_not_null(self):
        _, index, (inst,) = indexed_registry(
            "SELECT * FROM car WHERE price IS NOT NULL"
        )
        assert inst.instance_id in probe_ids(index, "car", record("car", price=5))
        assert not probe_ids(index, "car", record("car", price=None))


class TestClassification:
    def test_constant_false_is_never_a_candidate(self):
        _, index, _ = indexed_registry("SELECT * FROM car WHERE 1 = 2")
        assert not probe_ids(index, "car", record("car", maker="K", price=1))
        assert index.stats()["entries_never"] == 1

    @pytest.mark.parametrize(
        "sql",
        [
            # Shapes with no probe-friendly local conjunct fall back to the
            # residual scan-list: always candidates, verdicts untouched.
            "SELECT * FROM car WHERE model LIKE 'Ri%'",
            "SELECT * FROM car WHERE price < 10000 OR maker = 'Kia'",
            "SELECT a.model FROM car a, car b WHERE a.price < b.price",
            "SELECT * FROM car LEFT JOIN mileage ON car.model = mileage.model",
            "SELECT * FROM car",
            "SELECT * FROM car WHERE maker <> 'Kia'",
            "SELECT * FROM car WHERE price NOT BETWEEN 1 AND 9",
            "SELECT * FROM car WHERE maker NOT IN ('Kia')",
        ],
    )
    def test_residual_shapes_stay_candidates(self, sql):
        _, index, (inst,) = indexed_registry(sql)
        rec = record("car", maker="ZZZ", model="none", price=-1)
        assert inst.instance_id in probe_ids(index, "car", rec)

    def test_join_indexes_each_binding_independently(self):
        _, index, (inst,) = indexed_registry(
            "SELECT car.maker FROM car, mileage "
            "WHERE car.model = mileage.model AND mileage.epa > 30"
        )
        # mileage side has an indexable local conjunct …
        assert inst.instance_id in probe_ids(index, "mileage", record("mileage", epa=40))
        assert not probe_ids(index, "mileage", record("mileage", epa=10))
        # … the car side has only the join conjunct: residual.
        assert inst.instance_id in probe_ids(index, "car", record("car", price=1))

    def test_first_indexable_conjunct_wins_most_selective_first(self):
        # eq ranks ahead of range, so the hash path handles this type.
        _, index, (inst,) = indexed_registry(
            "SELECT * FROM car WHERE price < 20000 AND maker = 'Kia'"
        )
        assert not probe_ids(index, "car", record("car", maker="BMW", price=1))
        assert inst.instance_id in probe_ids(
            index, "car", record("car", maker="Kia", price=99999)
        )


class TestEvictionConsistency:
    def test_drop_url_keeps_shared_instances(self):
        registry, index, _ = indexed_registry()
        a = registry.observe_instance("SELECT * FROM car WHERE price < 5", "p1")
        registry.observe_instance("SELECT * FROM car WHERE price < 5", "p2")
        assert index.registered("car") == 1
        registry.drop_url("p1")  # p2 still holds the instance
        assert index.registered("car") == 1
        registry.drop_url("p2")  # orphaned → evicted from the index
        assert index.registered("car") == 0
        assert not probe_ids(index, "car", record("car", price=1))
        assert a.instance_id not in index.table_type_counts("car")

    def test_attach_indexes_preexisting_instances(self):
        registry = QueryTypeRegistry()
        registry.observe_instance("SELECT * FROM car WHERE price < 5", "u0")
        index = PredicateIndex().attach_to(registry)
        assert index.registered("car") == 1

    def test_registry_stats(self):
        registry, _, _ = indexed_registry(
            "SELECT * FROM car WHERE price < 5",
            "SELECT * FROM mileage WHERE epa > 3",
        )
        assert registry.stats() == {
            "query_types": 2,
            "query_instances": 2,
            "urls": 2,
        }


class TestProbeResult:
    def test_candidates_sorted_and_pruned_counted(self):
        _, index, instances = indexed_registry(
            "SELECT * FROM car WHERE price < 10",
            "SELECT * FROM car WHERE price < 20",
            "SELECT * FROM car WHERE price < 30",
        )
        result = index.probe("car", record("car", price=15))
        assert [i.instance_id for i in result.candidates] == sorted(
            i.instance_id for i in instances[1:]
        )
        assert result.pruned == 1
        assert index.pairs_pruned == 1
        assert index.probes == 1

    def test_unknown_table_probe_is_empty(self):
        _, index, _ = indexed_registry("SELECT * FROM car WHERE price < 10")
        result = index.probe("dealer", record("dealer", city="SJ"))
        assert result.candidates == [] and result.pruned == 0


class TestPruningNeverChangesVerdicts:
    """The core soundness property, on the shared grouping fixtures."""

    @pytest.mark.parametrize("rec_index", range(len(UPDATE_RECORDS)))
    def test_pruned_pairs_are_unaffected(self, rec_index):
        rec = UPDATE_RECORDS[rec_index]
        registry, index, instances = indexed_registry(*QUERY_INSTANCES)
        candidate_ids = probe_ids(index, rec.table, rec)
        grouped = GroupedChecker()
        plain = IndependenceChecker()
        for instance in instances:
            if rec.table not in instance.query_type.tables:
                continue
            if instance.instance_id in candidate_ids:
                continue  # candidates go to the checker as usual
            assert (
                grouped.check_instance(instance, rec).kind
                is VerdictKind.UNAFFECTED
            ), instance.sql
            assert (
                plain.check(instance.statement, rec).kind
                is VerdictKind.UNAFFECTED
            ), instance.sql

    @given(
        thresholds=st.lists(st.integers(-10, 10), min_size=1, max_size=6),
        makers=st.lists(
            st.sampled_from(["Kia", "VW", "BMW", "kia"]), min_size=0, max_size=3
        ),
        price=st.one_of(
            st.none(),
            st.integers(-12, 12),
            st.floats(-12, 12, allow_nan=False),
            st.sampled_from(["Kia", ""]),
        ),
        maker=st.one_of(st.none(), st.sampled_from(["Kia", "VW", "bmw", ""])),
        drop_price=st.booleans(),
        drop_maker=st.booleans(),
        op=st.sampled_from(["<", "<=", ">", ">=", "="]),
    )
    @settings(max_examples=120, deadline=None)
    def test_randomized_equivalence(
        self, thresholds, makers, price, maker, drop_price, drop_maker, op
    ):
        sqls = [f"SELECT * FROM car WHERE price {op} {t}" for t in thresholds]
        sqls += [f"SELECT * FROM car WHERE maker = '{m}'" for m in makers]
        if len(thresholds) >= 2:
            lo, hi = thresholds[0], thresholds[1]
            sqls.append(f"SELECT * FROM car WHERE price BETWEEN {lo} AND {hi}")
        registry, index, instances = indexed_registry(*sqls)
        values = {}
        if not drop_price:
            values["price"] = price
        if not drop_maker:
            values["maker"] = maker
        rec = record("car", **values)
        result = index.probe("car", rec)
        grouped = GroupedChecker()
        for instance in instances:
            verdict = grouped.check_instance(instance, rec)
            if instance.instance_id not in result.candidate_ids:
                assert verdict.kind is VerdictKind.UNAFFECTED, instance.sql
        # Duplicate SQLs dedupe to one registry instance, so count live
        # entries rather than the (possibly repeating) instances list.
        unique = {instance.instance_id for instance in instances}
        assert result.pruned == len(unique) - len(result.candidates)


class TestCycleEquivalence:
    """Indexed cycles eject exactly what a scan of every touching
    instance ejects (the reference cycle of ``reference_cycle.py``)."""

    @staticmethod
    def _build(make):
        from repro.web.cache import WebCache
        from repro.web.http import CacheControl, HttpResponse
        from repro.core.qiurl import QIURLMap
        from helpers import make_car_db

        db = make_car_db()
        cache = WebCache()
        qiurl = QIURLMap()
        consumer = make(db, cache, qiurl)
        for index, sql in enumerate(QUERY_INSTANCES):
            url = f"u{index}"
            cache.put(
                url,
                HttpResponse(
                    body="p", cache_control=CacheControl.cacheportal_private()
                ),
            )
            qiurl.add(sql, url, "s")
        return db, cache, consumer

    def _run(self, reference):
        from repro.stream import StreamingInvalidationPipeline
        from reference_cycle import ReferenceInvalidator

        db, cache, invalidator = self._build(
            lambda db, cache, qiurl: StreamingInvalidationPipeline(db, [cache], qiurl)
        )
        cycle = (
            ReferenceInvalidator(invalidator).run_cycle
            if reference
            else invalidator.run_cycle
        )
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        db.execute("INSERT INTO mileage VALUES ('Rio', 40)")
        db.execute("DELETE FROM car WHERE maker = 'BMW'")
        reports = [cycle()]
        db.execute("UPDATE car SET price = 9000 WHERE model = 'Civic'")
        reports.append(cycle())
        return sorted(cache.keys()), reports

    def test_indexed_and_scan_cycles_agree(self):
        indexed_keys, indexed_reports = self._run(reference=False)
        scan_keys, scan_reports = self._run(reference=True)
        assert indexed_keys == scan_keys
        for indexed, scan in zip(indexed_reports, scan_reports):
            # Same logical outcome, counter for counter …
            assert indexed.pairs_checked == scan.pairs_checked
            assert indexed.unaffected == scan.unaffected
            assert indexed.affected == scan.affected
            assert indexed.urls_ejected == scan.urls_ejected
            assert indexed.polls_requested == scan.polls_requested
            # … with strictly less checker work on the indexed path.
            assert scan.pairs_pruned == 0
            assert indexed.checker_invocations < scan.checker_invocations
        assert sum(r.pairs_pruned for r in indexed_reports) > 0

    def test_streaming_pipeline_matches_scan(self):
        from repro.stream import StreamingInvalidationPipeline
        from repro.stream import StreamingInvalidationPipeline
        from reference_cycle import ReferenceInvalidator

        db, cache, pipeline = self._build(
            lambda db, cache, qiurl: StreamingInvalidationPipeline(
                db, [cache], qiurl
            )
        )
        twin_db, twin_cache, twin = self._build(
            lambda db, cache, qiurl: StreamingInvalidationPipeline(db, [cache], qiurl)
        )
        reference = ReferenceInvalidator(twin)
        # One relation per wave: a stream batch carries one relation, so
        # its counters line up with a reference cycle over the same wave.
        totals = dict.fromkeys(("pairs_checked", "affected", "unaffected"), 0)
        for sql in (
            "INSERT INTO car VALUES ('Kia', 'Rio', 14000)",
            "INSERT INTO mileage VALUES ('Rio', 40)",
        ):
            db.execute(sql)
            twin_db.execute(sql)
            pipeline.process_available()
            report = reference.run_cycle()
            for counter in totals:
                totals[counter] += getattr(report, counter)
        snapshot = pipeline.stats()
        assert sorted(cache.keys()) == sorted(twin_cache.keys())
        workers = snapshot["workers"]
        for counter, expected in totals.items():
            assert workers[counter] == expected, counter
        assert workers["pairs_pruned"] > 0
        assert "predicate_index" in snapshot


class TestProbeSoundness:
    """Every instance the grouped checker does not call UNAFFECTED for a
    record is among the probe's candidates: pruning is never a miss."""

    @given(
        sqls=st.lists(st.sampled_from(QUERY_INSTANCES), min_size=1, max_size=8),
        thresholds=st.lists(st.integers(-5, 30000), min_size=0, max_size=4),
        price=st.one_of(st.none(), st.integers(-5, 80000)),
        maker=st.one_of(st.none(), st.sampled_from(["Kia", "VW", "BMW"])),
        model=st.one_of(st.none(), st.sampled_from(["Rio", "Golf", "M5"])),
        drop=st.sets(st.sampled_from(["maker", "model", "price"])),
        kind=st.sampled_from([ChangeKind.INSERT, ChangeKind.DELETE]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_possibly_affected_instance_is_a_candidate(
        self, sqls, thresholds, price, maker, model, drop, kind
    ):
        sqls = sqls + [
            f"SELECT * FROM car WHERE price > {t} AND maker = 'Kia'"
            for t in thresholds
        ]
        registry, index, instances = indexed_registry(*sqls)
        values = {"maker": maker, "model": model, "price": price}
        rec = record(
            "car",
            kind,
            **{column: value for column, value in values.items() if column not in drop},
        )
        candidate_ids = index.probe("car", rec).candidate_ids
        grouped = GroupedChecker()
        for instance in registry.instances_touching("car"):
            verdict = grouped.check_instance(instance, rec)
            if verdict.kind is not VerdictKind.UNAFFECTED:
                assert instance.instance_id in candidate_ids, instance.sql
