"""Set-oriented polling tests (batching may-affect checks, §4.2.2 scaled).

The load-bearing property mirrors the predicate index's: batching changes
*round trips*, never *verdicts*.  A batched cycle must eject exactly the
pages a reference cycle that polls each task on its own ejects, counter
for counter, while issuing far fewer database queries.  On top of that
equivalence sit unit tests for the group key (which shapes are batchable),
the VALUES-probe compiler, the demultiplexing executor, and the
scheduler's amortized budget accounting.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import ast
from repro.sql.params import parameterize
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream import StreamingInvalidationPipeline
from repro.core.invalidator.batchpoll import (
    PROBE_NAME,
    TID_COLUMN,
    batch_key,
    compile_batch,
)
from repro.core.invalidator.scheduler import (
    InvalidationScheduler,
    PollCandidate,
    Schedule,
)
from repro.core.qiurl import QIURLMap

from helpers import make_car_db
from reference_cycle import ReferenceInvalidator

#: A type the safety lint classifies POLL_ONLY (uncorrelated subquery):
#: its instances go through the fingerprint protocol, never the batch.
POLL_ONLY_SQL = "SELECT model FROM car WHERE model IN (SELECT model FROM mileage)"

#: The join page template: updates to one side leave a residual over the
#: other, so every touching update needs a polling query.
JOIN_SQL = (
    "SELECT car.maker, car.model, mileage.epa FROM car, mileage "
    "WHERE car.model = mileage.model AND mileage.epa > {}"
)


def count(sql):
    return parse_statement(sql)


def cacheable(body="page"):
    return HttpResponse(
        body=body, cache_control=CacheControl.cacheportal_private()
    )


class TestBatchKey:
    def test_same_template_shares_a_key(self):
        a = batch_key(count("SELECT COUNT(*) FROM car WHERE price < 20000"))
        b = batch_key(count("SELECT COUNT(*) FROM car WHERE price < 99"))
        assert a is not None and a == b

    def test_different_templates_get_different_keys(self):
        a = batch_key(count("SELECT COUNT(*) FROM car WHERE price < 20000"))
        b = batch_key(count("SELECT COUNT(*) FROM car WHERE price > 20000"))
        assert a is not None and b is not None and a != b

    def test_join_polling_shape_is_batchable(self):
        sql = (
            "SELECT COUNT(*) FROM mileage "
            "WHERE mileage.model = 'Rio' AND mileage.epa > 30"
        )
        assert batch_key(count(sql)) is not None

    def test_no_where_clause_is_batchable(self):
        assert batch_key(count("SELECT COUNT(*) FROM car")) is not None

    @pytest.mark.parametrize(
        "sql",
        [
            # Not the generator's COUNT(*) shape.
            "SELECT maker FROM car WHERE price < 1",
            "SELECT COUNT(maker) FROM car",
            "SELECT COUNT(*), COUNT(*) FROM car",
            # Subquery residuals: a probe reference inside one would be a
            # correlated subquery, which the engine rejects.
            "SELECT COUNT(*) FROM car WHERE model IN (SELECT model FROM mileage)",
            "SELECT COUNT(*) FROM car WHERE EXISTS (SELECT * FROM mileage)",
        ],
    )
    def test_unbatchable_sql_shapes(self, sql):
        assert batch_key(count(sql)) is None

    def test_structural_rejections(self):
        base = count("SELECT COUNT(*) FROM car WHERE price < 1")
        assert batch_key(dataclasses.replace(base, distinct=True)) is None
        assert (
            batch_key(
                dataclasses.replace(base, limit=1)
            )
            is None
        )
        # Templates (already parameterized) carry no batchable constants.
        assert batch_key(parameterize(base).template) is None
        # Dunder names would collide with the probe.
        shadowed = dataclasses.replace(
            base, where=ast.Binary("<", ast.ColumnRef("__p1", "car"), ast.Literal(1))
        )
        assert batch_key(shadowed) is None


class TestCompileBatch:
    def _group(self, *sqls):
        parameterized = [parameterize(count(sql)) for sql in sqls]
        template = parameterized[0].template
        rows = [
            tuple(ast.Literal(v) for v in (i,) + p.bindings)
            for i, p in enumerate(parameterized)
        ]
        return template, rows

    def test_probe_shape_and_demux(self):
        template, rows = self._group(
            "SELECT COUNT(*) FROM car WHERE price < 20000",  # matches
            "SELECT COUNT(*) FROM car WHERE price < 1",  # no match
            "SELECT COUNT(*) FROM car WHERE price < 72001",  # matches
        )
        batched = compile_batch(template, rows)
        sql = to_sql(batched)
        assert sql.startswith(f"SELECT DISTINCT {PROBE_NAME}.{TID_COLUMN}")
        assert "VALUES" in sql and PROBE_NAME in sql
        result = make_car_db().execute(batched)
        assert sorted(row[0] for row in result.rows) == [0, 2]

    def test_null_binding_never_matches(self):
        template, rows = self._group(
            "SELECT COUNT(*) FROM car WHERE price < NULL",
            "SELECT COUNT(*) FROM car WHERE price < 99999",
        )
        result = make_car_db().execute(compile_batch(template, rows))
        assert sorted(row[0] for row in result.rows) == [1]

    def test_matches_per_instance_counts(self):
        db = make_car_db()
        sqls = [
            f"SELECT COUNT(*) FROM car WHERE price < {threshold}"
            for threshold in (0, 18000, 18001, 72000, 72001)
        ]
        expected = {
            i
            for i, sql in enumerate(sqls)
            if db.execute(count(sql)).rows[0][0] > 0
        }
        template, rows = self._group(*sqls)
        result = db.execute(compile_batch(template, rows))
        assert {row[0] for row in result.rows} == expected


class TestBatchPollExecutor:
    def _executor(self):
        db = make_car_db()
        invalidator = StreamingInvalidationPipeline(db, [WebCache()], QIURLMap())
        invalidator.worker.lane.polling.begin_cycle()
        lane = invalidator.worker.lane
        return db, lane.batch_poller, lane.polling.stats

    def test_one_group_one_round_trip(self):
        _, executor, stats = self._executor()
        tasks = [
            ("a", count("SELECT COUNT(*) FROM car WHERE price < 20000")),
            ("b", count("SELECT COUNT(*) FROM car WHERE price < 1")),
            ("dup", count("SELECT COUNT(*) FROM car WHERE price < 20000")),
        ]
        outcomes = executor.execute(tasks)
        assert outcomes["a"].impacted and not outcomes["b"].impacted
        assert outcomes["dup"].impacted
        assert {o.source for o in outcomes.values()} == {"batched"}
        assert stats.batched_queries == 1
        assert stats.batched_instances == 2  # "dup" rode row 0
        assert stats.coalesced == 1
        assert stats.issued == 0
        assert stats.demux_misses == 0

    def test_cross_cycle_cache_answers_first(self):
        _, executor, stats = self._executor()
        query = count("SELECT COUNT(*) FROM car WHERE price < 20000")
        executor.execute([("a", query)])
        outcomes = executor.execute([("again", query)])
        assert outcomes["again"].source == "cache"
        assert outcomes["again"].impacted
        assert stats.cache_hits == 1
        assert stats.batched_queries == 1  # no second round trip

    def test_unbatchable_tasks_fall_back_per_instance(self):
        _, executor, stats = self._executor()
        query = count(
            "SELECT COUNT(*) FROM car WHERE model IN (SELECT model FROM mileage)"
        )
        outcomes = executor.execute([("sub", query)])
        assert outcomes["sub"].source == "fallback"
        assert outcomes["sub"].impacted
        assert stats.issued == 1
        assert stats.batched_queries == 0

    def test_mixed_groups_one_query_each(self):
        _, executor, stats = self._executor()
        tasks = [
            ("lt1", count("SELECT COUNT(*) FROM car WHERE price < 20000")),
            ("lt2", count("SELECT COUNT(*) FROM car WHERE price < 30000")),
            ("eq1", count("SELECT COUNT(*) FROM car WHERE maker = 'Honda'")),
            ("eq2", count("SELECT COUNT(*) FROM car WHERE maker = 'Nobody'")),
        ]
        outcomes = executor.execute(tasks)
        assert stats.batched_queries == 2
        assert stats.batched_instances == 4
        assert [outcomes[k].impacted for k, _ in tasks] == [
            True,
            True,
            True,
            False,
        ]


class TestSchedulerAmortization:
    def test_round_trips_and_planned_cost_count_groups_once(self):
        schedule = Schedule(
            to_poll=[
                PollCandidate("a", cost=5.0, batch_key="g"),
                PollCandidate("b", cost=5.0, batch_key="g"),
                PollCandidate("c", cost=2.0),
            ]
        )
        assert schedule.round_trips == 2
        assert schedule.planned_cost == 7.0

    def test_batch_members_ride_one_budget_slot(self):
        scheduler = InvalidationScheduler(polling_budget=1)
        schedule = scheduler.schedule(
            [PollCandidate(i, batch_key="g") for i in range(3)]
        )
        assert len(schedule.to_poll) == 3
        assert not schedule.over_invalidate
        assert schedule.round_trips == 1

    def test_second_group_exceeds_count_budget(self):
        scheduler = InvalidationScheduler(polling_budget=1)
        candidates = [
            PollCandidate("a1", priority=1, batch_key="a"),
            PollCandidate("a2", priority=1, batch_key="a"),
            PollCandidate("b1", batch_key="b"),
            PollCandidate("solo"),
        ]
        schedule = scheduler.schedule(candidates)
        assert [c.key for c in schedule.to_poll] == ["a1", "a2"]
        assert {c.key for c in schedule.over_invalidate} == {"b1", "solo"}

    def test_cost_budget_amortizes_across_the_batch(self):
        # One group of three at cost 4 fits a cost budget of 5; a fourth
        # candidate from a new group does not.
        scheduler = InvalidationScheduler(cost_budget=5.0)
        candidates = [
            PollCandidate(i, priority=1, cost=4.0, batch_key="g")
            for i in range(3)
        ] + [PollCandidate("x", cost=4.0, batch_key="h")]
        schedule = scheduler.schedule(candidates)
        assert len(schedule.to_poll) == 3
        assert [c.key for c in schedule.over_invalidate] == ["x"]

    def test_budget_utilization_counts_round_trips(self):
        scheduler = InvalidationScheduler(polling_budget=2)
        scheduler.schedule(
            [PollCandidate(i, batch_key="g") for i in range(10)]
        )
        # Ten candidates consumed one of two offered round-trip slots.
        assert scheduler.budget_utilization == pytest.approx(0.5)


class TestCycleEquivalence:
    """Batched cycles eject exactly what the reference cycle, one
    ``generator.poll`` per task, ejects."""

    def _page(self, cache, qiurl, url, sql, servlet="s"):
        cache.put(url, cacheable())
        qiurl.add(sql, url, servlet)

    def _run_cycles(self, batched, thresholds, epas, inserts, poll_only):
        db = make_car_db()
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
        consumer = invalidator if batched else ReferenceInvalidator(invalidator)
        for i, threshold in enumerate(thresholds):
            self._page(
                cache,
                qiurl,
                f"p{i}",
                f"SELECT maker, model FROM car WHERE price < {threshold}",
            )
        for i, epa in enumerate(epas):
            self._page(cache, qiurl, f"j{i}", JOIN_SQL.format(epa))
        if poll_only:
            self._page(cache, qiurl, "u-poll", POLL_ONLY_SQL)
        reports = []
        for cycle, wave in enumerate(inserts):
            for i, (price, epa) in enumerate(wave):
                db.execute(
                    f"INSERT INTO car VALUES ('Maker{i}', 'M{cycle}_{i}', {price})"
                )
                if epa is not None:
                    db.execute(
                        f"INSERT INTO mileage VALUES ('M{cycle}_{i}', {epa})"
                    )
            reports.append(consumer.run_cycle())
        polling = invalidator.worker.lane.polling if batched else consumer.polling
        return sorted(cache.keys()), reports, polling.stats

    PARITY_COUNTERS = (
        "records_processed",
        "pairs_checked",
        "unaffected",
        "affected",
        "polls_requested",
        "polls_executed",
        "polls_impacted",
        "over_invalidated",
        "urls_ejected",
        "safe_instances",
        "fallback_ejects",
        "poll_only_checks",
    )

    @given(
        thresholds=st.lists(st.integers(0, 80000), min_size=0, max_size=4),
        epas=st.lists(st.integers(0, 40), min_size=1, max_size=4),
        inserts=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 80000),
                    st.one_of(st.none(), st.integers(0, 40)),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        ),
        poll_only=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_randomized_equivalence(self, thresholds, epas, inserts, poll_only):
        batched_keys, batched_reports, batched_stats = self._run_cycles(
            True, thresholds, epas, inserts, poll_only
        )
        control_keys, control_reports, control_stats = self._run_cycles(
            False, thresholds, epas, inserts, poll_only
        )
        assert batched_keys == control_keys
        for batched, control in zip(batched_reports, control_reports):
            for counter in self.PARITY_COUNTERS:
                assert getattr(batched, counter) == getattr(
                    control, counter
                ), counter
            # The batched cycle reports any delta-join work it did and
            # saves what it folded away.
            assert batched.demux_misses == 0
            assert batched.poll_round_trips_saved == max(
                0, batched.batched_instances - batched.batched_queries
            )
        # Every batchable poll left the per-instance counter untouched.
        assert batched_stats.issued <= control_stats.issued
        if any(r.batched_queries for r in batched_reports):
            assert batched_stats.issued < control_stats.issued or (
                control_stats.issued == 0
            )

    def test_result_cache_hits_demultiplex(self):
        # Cycle 2's updates touch only mileage, so car-only polling
        # results survive in the cross-cycle cache; both arms must agree
        # after consuming them.
        thresholds = [15000, 25000]
        epas = [10, 20, 30]
        inserts = [
            [(14000, None), (26000, None)],  # car-only: residual over mileage
            [(30, 12)],  # second wave adds a mileage row too
        ]
        batched_keys, batched_reports, batched_stats = self._run_cycles(
            True, thresholds, epas, inserts, poll_only=True
        )
        control_keys, control_reports, _ = self._run_cycles(
            False, thresholds, epas, inserts, poll_only=True
        )
        assert batched_keys == control_keys
        for batched, control in zip(batched_reports, control_reports):
            for counter in self.PARITY_COUNTERS:
                assert getattr(batched, counter) == getattr(
                    control, counter
                ), counter
        assert sum(r.batched_queries for r in batched_reports) >= 1
        assert sum(r.poll_round_trips_saved for r in batched_reports) >= 1


class TestStreamingParity:
    """Streaming shard workers agree with the reference cycle (mirror of
    the predicate index's pipeline-parity test)."""

    def _run(self, batched):
        from repro.stream import StreamingInvalidationPipeline

        db = make_car_db()
        cache = WebCache()
        qiurl = QIURLMap()
        if batched:
            consumer = StreamingInvalidationPipeline(db, [cache], qiurl)
        else:
            consumer = ReferenceInvalidator(StreamingInvalidationPipeline(db, [cache], qiurl))
        for i, epa in enumerate((0, 10, 20, 30, 40, 50)):
            cache.put(f"u{i}", cacheable())
            qiurl.add(JOIN_SQL.format(epa), f"u{i}", "s")
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        db.execute("INSERT INTO car VALUES ('Audi', 'A4', 41000)")
        if batched:
            consumer.process_available()
            return sorted(cache.keys()), consumer.stats()["workers"]
        return sorted(cache.keys()), dataclasses.asdict(consumer.run_cycle())

    def test_streaming_pipeline_matches_per_instance(self):
        batched_keys, batched = self._run(True)
        control_keys, control = self._run(False)
        assert batched_keys == control_keys
        for counter in (
            "pairs_checked",
            "unaffected",
            "affected",
            "polls_requested",
            "polls_executed",
            "polls_impacted",
            "over_invalidated",
        ):
            assert batched[counter] == control[counter], counter
        assert batched["batched_queries"] >= 1
        assert batched["demux_misses"] == 0
        assert batched["poll_round_trips_saved"] == (
            batched["batched_instances"] - batched["batched_queries"]
        )
