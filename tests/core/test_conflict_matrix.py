"""Soundness tests for the static conflict matrix (template × update class).

The load-bearing property is *eject parity*: whenever
:meth:`ConflictMatrix.skip_level` licenses skipping a (query instance,
update record) pair, the runtime :class:`GroupedChecker` must itself
return UNAFFECTED for that pair — so enabling the matrix changes work,
never verdicts.  A hypothesis suite samples query shapes, bindings,
update classes, and records against that property, directly and after a
checkpoint/restore round-trip.  On top sit certificate tamper-detection
tests (a forged proof must never validate), class-declaration
validation, and a cycle-level A/B run asserting bit-identical ejects
with the matrix on and off.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CachePortal
from repro.stream import StreamingInvalidationPipeline
from repro.core.invalidator.analysis import VerdictKind
from repro.core.invalidator.conflict import ConflictMatrix
from repro.core.invalidator.grouping import GroupedChecker
from repro.core.invalidator.registration import QueryTypeRegistry
from repro.core.qiurl import QIURLMap
from repro.core.recovery import (
    read_checkpoint,
    restore_pipeline,
    snapshot_pipeline,
    write_checkpoint,
)
from repro.db.log import ChangeKind, UpdateRecord
from repro.errors import RegistrationError
from repro.sql.parser import parse_expression
from repro.sql.satisfiability import (
    Verdict,
    check_disjoint,
    extract,
    verify_certificate,
)
from repro.web import Configuration, build_site
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpRequest, HttpResponse

from helpers import car_servlets, make_car_db

SCHEMA = {"car": ["maker", "model", "price"], "mileage": ["model", "epa"]}


def columns_of(table):
    return SCHEMA.get(table)


def record(table, kind=ChangeKind.INSERT, **values):
    return UpdateRecord(
        lsn=1,
        timestamp=0.0,
        table=table,
        kind=kind,
        values=tuple(values.values()),
        columns=tuple(values.keys()),
    )


def query_pool(a, b, maker):
    """Query shapes covering the analyzer's whole decision surface:
    intervals, equalities, IN-lists, nullness, joins, a contradiction,
    and deliberately ineligible shapes (disjunction, LEFT JOIN)."""
    lo, hi = sorted((a, b))
    return [
        f"SELECT * FROM car WHERE price < {a}",
        f"SELECT * FROM car WHERE price > {a}",
        f"SELECT * FROM car WHERE price >= {lo} AND price < {hi}",
        f"SELECT maker FROM car WHERE maker = '{maker}'",
        f"SELECT model FROM car WHERE maker = '{maker}' AND price < {a}",
        "SELECT c.maker FROM car c, mileage m "
        f"WHERE c.model = m.model AND c.price < {a}",
        f"SELECT * FROM car WHERE price IN ({a}, {b})",
        "SELECT * FROM car WHERE price IS NULL",
        "SELECT * FROM car WHERE 1 = 2",
        f"SELECT * FROM car WHERE price < {a} OR maker = '{maker}'",
        "SELECT * FROM car LEFT JOIN mileage ON car.model = mileage.model",
    ]


def declare_refinements(matrix):
    matrix.declare_class("premium-insert", "car", "insert", "price >= 30000")
    matrix.declare_class("cheap-delete", "car", "delete", "price < 1000")
    matrix.declare_class("kia-changes", "car", None, "maker = 'Kia'")


def assert_skip_sound(matrix, checker, instance, update):
    """DISJOINT ⇒ the runtime checker agrees: UNAFFECTED, same pair."""
    classes = matrix.classes_for_record(update)
    level = matrix.skip_level(instance, set(update.columns), classes)
    if level is not None:
        verdict = checker.check_instance(instance, update)
        assert verdict.kind is VerdictKind.UNAFFECTED, (
            instance.sql_text,
            update,
            level,
            verdict,
        )
    return level


record_strategy = st.builds(
    lambda table, kind, maker, model, price, drop_price: record(
        table,
        kind,
        **(
            {"model": model, "epa": price}
            if table == "mileage"
            else (
                {"maker": maker, "model": model}
                if drop_price
                else {"maker": maker, "model": model, "price": price}
            )
        ),
    ),
    table=st.sampled_from(["car", "mileage"]),
    kind=st.sampled_from([ChangeKind.INSERT, ChangeKind.DELETE]),
    maker=st.sampled_from(["Kia", "Toyota", "BMW"]),
    model=st.sampled_from(["Rio", "M5", "Golf"]),
    price=st.one_of(st.integers(-100, 100000), st.none()),
    drop_price=st.booleans(),
)


class TestSkipSoundness:
    @given(
        a=st.integers(-100, 100000),
        b=st.integers(-100, 100000),
        maker=st.sampled_from(["Kia", "Toyota", "BMW"]),
        update=record_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_implies_checker_unaffected(self, a, b, maker, update):
        registry = QueryTypeRegistry()
        matrix = ConflictMatrix(columns_of=columns_of).attach_to(registry)
        declare_refinements(matrix)
        checker = GroupedChecker()
        skipped = 0
        for position, sql in enumerate(query_pool(a, b, maker)):
            instance = registry.observe_instance(sql, f"u{position}")
            if assert_skip_sound(matrix, checker, instance, update) is not None:
                skipped += 1
        # Certificates are verified before any verdict is cached; a
        # failure would have degraded the cell rather than raised.
        assert matrix.stats()["certificate_failures"] == 0

    @given(
        a=st.integers(-100, 100000),
        b=st.integers(-100, 100000),
        maker=st.sampled_from(["Kia", "Toyota", "BMW"]),
        update=record_strategy,
    )
    @settings(max_examples=25, deadline=None)
    def test_soundness_survives_snapshot_restore(self, a, b, maker, update):
        registry = QueryTypeRegistry()
        matrix = ConflictMatrix(columns_of=columns_of).attach_to(registry)
        declare_refinements(matrix)
        instances = [
            registry.observe_instance(sql, f"u{position}")
            for position, sql in enumerate(query_pool(a, b, maker))
        ]
        checker = GroupedChecker()
        before = [
            assert_skip_sound(matrix, checker, instance, update)
            for instance in instances
        ]
        # Touch every cell so the snapshot has verdicts to compare.
        state = matrix.snapshot_state()
        registry_state = registry.snapshot_state()

        replayed = QueryTypeRegistry()
        restored = ConflictMatrix(columns_of=columns_of).attach_to(replayed)
        assert restored.restore_classes(state) == 3
        replayed.restore_state(registry_state)
        comparison = restored.compare_cells(state, replayed)
        assert comparison["mismatches"] == 0
        assert comparison["stale"] == 0
        after = [
            assert_skip_sound(restored, GroupedChecker(), instance, update)
            for instance in replayed.instances()
        ]
        # Skip decisions are a pure function of (template, bindings,
        # classes): replay must reproduce them level for level.
        assert after == before

    def test_index_drop_is_sound_for_every_record(self):
        registry = QueryTypeRegistry()
        matrix = ConflictMatrix(columns_of=columns_of).attach_to(registry)
        checker = GroupedChecker()
        contradiction = registry.observe_instance(
            "SELECT * FROM car WHERE 1 = 2", "u1"
        )
        live = registry.observe_instance(
            "SELECT * FROM car WHERE price < 10000", "u2"
        )
        assert matrix.index_drop(contradiction, "car")
        # An unconstrained default class overlaps any live interval.
        assert not matrix.index_drop(live, "car")
        for price in (0, 5000, 9999, 10000, None):
            for kind in (ChangeKind.INSERT, ChangeKind.DELETE):
                update = record("car", kind, maker="K", model="R", price=price)
                verdict = checker.check_instance(contradiction, update)
                assert verdict.kind is VerdictKind.UNAFFECTED


class TestColumnGuards:
    """A proof citing a column the tuple does not carry must not fire:
    the runtime checker treats the conjunct as unevaluable (AFFECTED)."""

    def test_partial_record_defeats_instance_proof(self):
        registry = QueryTypeRegistry()
        matrix = ConflictMatrix(columns_of=columns_of).attach_to(registry)
        declare_refinements(matrix)
        instance = registry.observe_instance(
            "SELECT * FROM car WHERE price < 15000", "u1"
        )
        full = record("car", maker="BMW", model="M5", price=72000)
        partial = record("car", maker="BMW")  # no price column
        assert (
            matrix.skip_level(
                instance,
                set(full.columns),
                matrix.classes_for_record(full),
            )
            == "instance"
        )
        assert (
            matrix.skip_level(
                instance,
                set(partial.columns),
                matrix.classes_for_record(partial),
            )
            is None
        )

    def test_null_valued_column_defeats_class_membership(self):
        registry = QueryTypeRegistry()
        matrix = ConflictMatrix(columns_of=columns_of).attach_to(registry)
        declare_refinements(matrix)
        nulled = record("car", maker="BMW", model="M5", price=None)
        assert matrix.classes_for_record(nulled) == ["car/insert"]


class TestCertificates:
    def query_update_sides(self):
        query = extract([parse_expression("price < 10000")])
        update = extract([parse_expression("price >= 30000")])
        return query, update

    def test_column_disjoint_certificate_verifies(self):
        query, update = self.query_update_sides()
        decision = check_disjoint(query, update)
        assert decision.verdict is Verdict.DISJOINT
        cert = decision.certificate
        assert cert is not None and cert["why"] == "column-disjoint"
        assert verify_certificate(cert, query.atoms, update.atoms) == []

    def test_tampered_column_rejected(self):
        query, update = self.query_update_sides()
        cert = dict(check_disjoint(query, update).certificate)
        cert["column"] = "maker"
        assert verify_certificate(cert, query.atoms, update.atoms)

    def test_tampered_atom_bound_rejected(self):
        query, update = self.query_update_sides()
        cert = dict(check_disjoint(query, update).certificate)
        forged = [dict(atom) for atom in cert["query_atoms"]]
        forged[0]["value"] = 50000  # widen the interval: regions now meet
        cert["query_atoms"] = forged
        assert verify_certificate(cert, query.atoms, update.atoms)

    def test_tampered_kind_rejected(self):
        query, update = self.query_update_sides()
        cert = dict(check_disjoint(query, update).certificate)
        cert["why"] = "not-a-proof"
        assert verify_certificate(cert, query.atoms, update.atoms)

    def test_empty_side_certificate_and_tamper(self):
        empty = extract(
            [parse_expression("price > 5"), parse_expression("price < 3")]
        )
        anything = extract([])
        decision = check_disjoint(empty, anything)
        assert decision.verdict is Verdict.DISJOINT
        cert = dict(decision.certificate)
        assert cert["why"] == "empty-side"
        assert verify_certificate(cert, empty.atoms, anything.atoms) == []
        forged = [dict(atom) for atom in cert["query_atoms"]]
        for atom in forged:
            if atom["op"] == "lt":
                atom["value"] = 100  # 5 < price < 100 is satisfiable
        cert["query_atoms"] = forged
        assert verify_certificate(cert, empty.atoms, anything.atoms)

    def test_certificate_must_cover_claimed_atoms(self):
        query, update = self.query_update_sides()
        cert = dict(check_disjoint(query, update).certificate)
        cert["update_atoms"] = []
        assert verify_certificate(cert, query.atoms, update.atoms)


class TestClassDeclaration:
    def make(self):
        return ConflictMatrix(columns_of=columns_of)

    def test_defaults_exist_per_table(self):
        matrix = self.make()
        names = {cls.name for cls in matrix.classes_for_table("car")}
        assert names == {"car/insert", "car/delete"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(RegistrationError, match="kind"):
            self.make().declare_class("x", "car", "upsert", "")

    def test_inexact_constraint_rejected(self):
        matrix = self.make()
        with pytest.raises(RegistrationError, match="exact conjunctions"):
            matrix.declare_class(
                "x", "car", "insert", "price < 10 OR maker = 'Kia'"
            )

    def test_unparseable_constraint_rejected(self):
        with pytest.raises(RegistrationError, match="unparseable"):
            self.make().declare_class("x", "car", "insert", "price <<< 10")

    def test_redeclare_identical_is_idempotent(self):
        matrix = self.make()
        first = matrix.declare_class("x", "car", "insert", "price >= 1")
        assert matrix.declare_class("x", "car", "insert", "price >= 1") is first

    def test_redeclare_conflicting_rejected(self):
        matrix = self.make()
        matrix.declare_class("x", "car", "insert", "price >= 1")
        with pytest.raises(RegistrationError, match="already declared"):
            matrix.declare_class("x", "car", "delete", "price >= 1")


def cacheable(body="page"):
    return HttpResponse(
        body=body, cache_control=CacheControl.cacheportal_private()
    )


PAGES = [
    ("u-cheap", "SELECT * FROM car WHERE price < 15000"),
    ("u-mid", "SELECT * FROM car WHERE price < 25000"),
    ("u-contradiction", "SELECT * FROM car WHERE price > 5 AND price < 3"),
    ("u-maker", "SELECT model FROM car WHERE maker = 'Kia'"),
    ("u-all", "SELECT * FROM car"),
]

DML = [
    "INSERT INTO car VALUES ('Rolls', 'Ghost', 350000)",
    "INSERT INTO car VALUES ('Kia', 'Rio', 14000)",
    "DELETE FROM car WHERE maker = 'BMW'",
]


class TestCycleEjectParity:
    """Matrix on vs off over the same workload: identical ejects."""

    def run_arm(self, conflict_matrix):
        db = make_car_db()
        cache = WebCache()
        qiurl = QIURLMap()
        invalidator = StreamingInvalidationPipeline(
            db, [cache], qiurl, conflict_matrix=conflict_matrix
        )
        if invalidator.conflict_matrix is not None:
            declare_refinements(invalidator.conflict_matrix)
        for url, sql in PAGES:
            cache.put(url, cacheable())
            qiurl.add(sql, url, "servlet")
        for statement in DML:
            db.execute(statement)
        report = invalidator.run_cycle()
        surviving = {url for url, _ in PAGES if url in cache}
        return report, surviving

    def test_ejects_identical_and_skips_observed(self):
        with_matrix, surviving_on = self.run_arm(True)
        without, surviving_off = self.run_arm(False)
        assert surviving_on == surviving_off
        assert with_matrix.urls_ejected == without.urls_ejected
        assert with_matrix.affected == without.affected
        # The premium insert is provably disjoint from the cheap pages
        # and the contradiction from everything — skips must register.
        assert with_matrix.static_disjoint_skips > 0
        assert without.static_disjoint_skips == 0


class TestPortalCheckpoint:
    def make_portal(self):
        site = build_site(
            Configuration.WEB_CACHE,
            car_servlets(),
            database=make_car_db(),
            num_servers=2,
        )
        return site, CachePortal(site)

    def fetch(self, site, url):
        return site.balancer.servers[0].handle(HttpRequest.from_url(url)).body

    def test_round_trip_restores_classes_and_recomputes_cells(self, tmp_path):
        site, portal = self.make_portal()
        matrix = portal.pipeline.conflict_matrix
        assert matrix is not None
        declare_refinements(matrix)
        self.fetch(site, "/catalog?max_price=15000")
        self.fetch(site, "/efficient?min_epa=30")
        site.database.execute(
            "INSERT INTO car VALUES ('Rolls', 'Ghost', 350000)"
        )
        report = portal.run_invalidation_cycle()
        assert report.static_disjoint_skips > 0

        path = tmp_path / "portal.ckpt"
        write_checkpoint(path, snapshot_pipeline(portal.pipeline))
        portal.sniffer.uninstall()
        revived = CachePortal(site)
        fresh_matrix = revived.pipeline.conflict_matrix
        declare_refinements(fresh_matrix)  # operator re-declares on boot
        recovery = restore_pipeline(revived.pipeline, read_checkpoint(path))
        assert recovery.conflict_classes_restored == 3
        assert recovery.conflict_cells_compared > 0
        assert recovery.conflict_cell_mismatches == 0

        # The restored matrix still proves the same skips: a premium
        # insert leaves the cheap catalog page untouched, statically.
        site.database.execute(
            "INSERT INTO car VALUES ('Bentley', 'Mulsanne', 310000)"
        )
        after = revived.run_invalidation_cycle()
        assert after.static_disjoint_skips > 0
        assert after.urls_ejected == 0

    def test_restore_without_conflict_state_is_harmless(self, tmp_path):
        site, portal = self.make_portal()
        self.fetch(site, "/catalog?max_price=15000")
        payload = snapshot_pipeline(portal.pipeline)
        payload["conflict_matrix"] = None  # pre-matrix checkpoint
        portal.sniffer.uninstall()
        revived = CachePortal(site)
        recovery = restore_pipeline(revived.pipeline, payload)
        assert recovery.conflict_classes_restored == 0
        assert recovery.conflict_cell_mismatches == 0
