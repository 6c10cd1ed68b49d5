"""Invalidator behaviour on subquery and UNION query instances.

The independence check treats these conservatively — correctness first:
a change to any table a subquery or union part references invalidates the
dependent pages, and the safety property must keep holding end to end.
"""

import pytest

from repro.db.log import ChangeKind, UpdateRecord
from repro.sql.parser import parse_statement
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.stream import StreamingInvalidationPipeline
from repro.core.invalidator.analysis import IndependenceChecker, VerdictKind
from repro.core.invalidator.grouping import GroupedChecker
from repro.core.invalidator.registration import QueryTypeRegistry
from repro.core.qiurl import QIURLMap

from helpers import make_car_db


def record(table, **values):
    return UpdateRecord(
        1, 0.0, table, ChangeKind.INSERT,
        tuple(values.values()), tuple(values.keys()),
    )


IN_SUBQUERY_SQL = (
    "SELECT maker FROM car WHERE model IN "
    "(SELECT model FROM mileage WHERE epa > 30)"
)
UNION_SQL = "SELECT model FROM car UNION SELECT model FROM mileage"


class TestCheckerVerdicts:
    def test_subquery_table_change_is_conservative(self):
        verdict = IndependenceChecker().check(
            parse_statement(IN_SUBQUERY_SQL), record("mileage", model="Rio", epa=40)
        )
        assert verdict.kind is VerdictKind.AFFECTED
        assert "subquery" in verdict.reason

    def test_outer_table_still_analyzed_locally(self):
        """Changes to the *outer* table keep precise treatment: the
        condition containing the subquery is residual-or-local as usual."""
        verdict = IndependenceChecker().check(
            parse_statement(
                "SELECT maker FROM car WHERE price < 10000 AND model IN "
                "(SELECT model FROM mileage)"
            ),
            record("car", maker="BMW", model="M9", price=90000),
        )
        # price < 10000 fails locally: provably unaffected, no subquery run.
        assert verdict.kind is VerdictKind.UNAFFECTED

    def test_unrelated_table_unaffected(self):
        verdict = IndependenceChecker().check(
            parse_statement(IN_SUBQUERY_SQL), record("dealer", model="Rio")
        )
        assert verdict.kind is VerdictKind.UNAFFECTED

    def test_union_conservative(self):
        stmt = parse_statement(UNION_SQL)
        checker = IndependenceChecker()
        assert (
            checker.check(stmt, record("car", maker="K", model="R", price=1)).kind
            is VerdictKind.AFFECTED
        )
        assert (
            checker.check(stmt, record("mileage", model="R", epa=1)).kind
            is VerdictKind.AFFECTED
        )
        assert (
            checker.check(stmt, record("dealer", model="R")).kind
            is VerdictKind.UNAFFECTED
        )

    @pytest.mark.parametrize("sql", [IN_SUBQUERY_SQL, UNION_SQL])
    @pytest.mark.parametrize("table", ["car", "mileage", "dealer"])
    def test_grouped_checker_agrees(self, sql, table):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(sql, "u1")
        update = record(table, maker="K", model="R", price=1) if table == "car" else (
            record(table, model="R", epa=1) if table == "mileage" else record(table, model="R")
        )
        plain = IndependenceChecker().check(instance.statement, update)
        grouped = GroupedChecker().check_instance(instance, update)
        assert grouped.kind is plain.kind


class TestEndToEnd:
    def cacheable(self):
        return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())

    def test_subquery_page_ejected_on_inner_table_change(self):
        db = make_car_db()
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
        cache.put("u1", self.cacheable())
        qiurl.add(IN_SUBQUERY_SQL, "u1", "s")
        db.execute("INSERT INTO mileage VALUES ('Rio', 40)")
        report = invalidator.run_cycle()
        assert report.urls_ejected == 1
        assert "u1" not in cache

    def test_union_page_ejected(self):
        db = make_car_db()
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(db, [cache], qiurl)
        cache.put("u1", self.cacheable())
        qiurl.add(UNION_SQL, "u1", "s")
        db.execute("INSERT INTO mileage VALUES ('Rio', 40)")
        invalidator.run_cycle()
        assert "u1" not in cache

    def test_portal_safety_with_subquery_servlet(self):
        """Full-loop safety: a servlet whose page uses IN (SELECT ...)."""
        from repro.web import Configuration, KeySpec, QueryPageServlet, build_site
        from repro.web.servlet import QueryBinding
        from repro.core import CachePortal

        servlet = QueryPageServlet(
            name="efficient_sub",
            path="/efficient_sub",
            queries=[
                (
                    "SELECT maker, model FROM car WHERE model IN "
                    "(SELECT model FROM mileage WHERE epa > ?)",
                    [QueryBinding("get", "min_epa", int)],
                )
            ],
            key_spec=KeySpec.make(get_keys=["min_epa"]),
        )
        db = make_car_db()
        site = build_site(Configuration.WEB_CACHE, [servlet], database=db)
        portal = CachePortal(site)
        old = site.get("/efficient_sub?min_epa=30").body
        assert "Rio" not in old
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        db.execute("INSERT INTO mileage VALUES ('Rio', 45)")
        portal.run_invalidation_cycle()
        fresh = site.get("/efficient_sub?min_epa=30").body
        assert "Rio" in fresh
