"""Version-keyed O(1) invalidation fast-path tests.

The load-bearing property mirrors the predicate index's and the batch
poller's: version keys change *work*, never *verdicts*.  A cycle run
with ``version_keys`` must eject exactly the pages the per-instance
checking control arm ejects, counter for counter, while resolving
single-table pairs from a counter comparison instead of the precise
checker.  On top of that equivalence sit unit tests for qualification
(which templates upgrade SAFE → VERSION_KEY), the one-sided ``fresh``
contract, and the checkpoint/restore envelope (restored stamps stay
usable; truncation floors them conservatively).
"""

from hypothesis import given, settings, strategies as st

from repro.core import CachePortal
from repro.stream import StreamingInvalidationPipeline
from repro.core.invalidator.safety import (
    SafetyVerdict,
    classify_template,
)
from repro.core.invalidator.versionkey import (
    VersionKeyIndex,
    template_qualifies,
    upgrade_classification,
)
from repro.core.qiurl import QIURLMap
from repro.db import Database
from repro.sql.parser import parse_statement
from repro.web import Configuration, build_site
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpRequest, HttpResponse

from helpers import car_servlets, make_car_db

JOIN_SQL = (
    "SELECT car.maker, car.model, mileage.epa FROM car, mileage "
    "WHERE car.model = mileage.model AND mileage.epa > {}"
)
POLL_ONLY_SQL = "SELECT model FROM car WHERE model IN (SELECT model FROM mileage)"


def template_of(sql):
    from repro.sql.params import parameterize

    return parameterize(parse_statement(sql)).template


def cacheable(body="page"):
    return HttpResponse(
        body=body, cache_control=CacheControl.cacheportal_private()
    )


class TestQualification:
    def test_single_table_equality_qualifies(self):
        assert template_qualifies(
            template_of("SELECT model FROM car WHERE maker = 'Toyota'")
        )

    def test_single_table_range_qualifies(self):
        assert template_qualifies(
            template_of("SELECT model FROM car WHERE price < 20000")
        )

    def test_conjunction_of_indexables_qualifies(self):
        assert template_qualifies(
            template_of(
                "SELECT model FROM car WHERE maker = 'Kia' AND price < 20000"
            )
        )

    def test_join_does_not_qualify(self):
        assert not template_qualifies(template_of(JOIN_SQL.format(30)))

    def test_disjunction_does_not_qualify(self):
        assert not template_qualifies(
            template_of(
                "SELECT model FROM car WHERE maker = 'Kia' OR price < 9"
            )
        )

    def test_no_where_does_not_qualify(self):
        # No local conjuncts: every table update matches, a counter would
        # never vouch — stay on the plain checker.
        assert not template_qualifies(template_of("SELECT model FROM car"))

    def test_upgrade_only_from_safe(self):
        poll_only = classify_template(parse_statement(POLL_ONLY_SQL))
        assert poll_only.verdict is SafetyVerdict.POLL_ONLY
        same = upgrade_classification(
            poll_only, template_of("SELECT model FROM car WHERE price < 9")
        )
        assert same.verdict is SafetyVerdict.POLL_ONLY

    def test_upgrade_applies_to_qualifying_safe_template(self):
        template = template_of("SELECT model FROM car WHERE price < 20000")
        safe = classify_template(template)
        assert safe.verdict is SafetyVerdict.SAFE
        upgraded = upgrade_classification(safe, template)
        assert upgraded.verdict is SafetyVerdict.VERSION_KEY
        assert upgraded.findings == safe.findings

    def test_classify_template_itself_never_assigns_version_key(self):
        # The upgrade is a registration-time decision; classification of
        # clean single-table SQL still reports SAFE.
        verdict = classify_template(
            parse_statement("SELECT model FROM car WHERE price < 20000")
        ).verdict
        assert verdict is SafetyVerdict.SAFE


def build_invalidator(version_keys=True):
    db = make_car_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(db, [cache], qiurl, version_keys=version_keys)
    return db, cache, qiurl, invalidator


def cache_page(cache, qiurl, url, sql):
    cache.put(url, cacheable())
    qiurl.add(sql, url, "catalog")


class TestFreshSkip:
    """The one-sided contract: the counter only ever skips pairs the
    precise checker would have called UNAFFECTED."""

    def test_irrelevant_update_is_resolved_by_the_counter(self):
        db, cache, qiurl, invalidator = build_invalidator()
        cache_page(
            cache, qiurl, "u", "SELECT model FROM car WHERE price < 10000"
        )
        invalidator.run_cycle()  # registration cycle: instance stamped
        db.execute("INSERT INTO car VALUES ('Rolls','Ghost',400000)")
        report = invalidator.run_cycle()
        assert report.version_key_instances == 1
        assert report.version_key_checks == 1
        assert report.polls_avoided == 1
        assert report.unaffected >= 1
        assert "u" in cache

    def test_matching_update_falls_through_and_ejects(self):
        db, cache, qiurl, invalidator = build_invalidator()
        cache_page(
            cache, qiurl, "u", "SELECT model FROM car WHERE price < 10000"
        )
        invalidator.run_cycle()
        db.execute("INSERT INTO car VALUES ('Kia','Rio',9000)")
        report = invalidator.run_cycle()
        assert report.version_key_checks == 1
        assert report.polls_avoided == 0  # the bump forbids vouching
        assert report.affected == 1
        assert "u" not in cache

    def test_same_cycle_matching_update_is_never_vouched(self):
        # The instance registers in the same cycle that processes a
        # matching update: bump-before-check guarantees the record has
        # already moved the counter when its own pair is examined, so
        # the counter cannot vouch and the page ejects.
        db, cache, qiurl, invalidator = build_invalidator()
        cache_page(
            cache, qiurl, "u", "SELECT model FROM car WHERE price < 10000"
        )
        db.execute("INSERT INTO car VALUES ('Kia','Rio',9000)")
        report = invalidator.run_cycle()
        assert report.polls_avoided == 0
        assert report.affected == 1
        assert "u" not in cache

    def test_counter_state_is_shared_across_identical_predicates(self):
        db, cache, qiurl, invalidator = build_invalidator()
        # Three distinct query types (different SELECT lists) over the
        # same WHERE clause: one shared counter serves all three.
        for i, columns in enumerate(("model", "maker", "maker, model")):
            cache_page(
                cache,
                qiurl,
                f"u{i}",
                f"SELECT {columns} FROM car WHERE price < 10000",
            )
        invalidator.run_cycle()
        stats = invalidator.version_index.stats()
        assert stats["keys"] == 1  # one shared key, three refs
        assert stats["keyed_instances"] == 3
        db.execute("INSERT INTO car VALUES ('Rolls','Ghost',400000)")
        report = invalidator.run_cycle()
        assert report.polls_avoided == 3


class TestCycleEquivalence:
    """Version-keyed cycles eject exactly what checker-only cycles eject
    — the per-instance checking arm is the oracle."""

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
        "version_key_instances",
        "fallback_ejects",
        "poll_only_checks",
        "lint_findings",
    )

    def _run_cycles(
        self, version_keys, thresholds, makers, epas, inserts, poll_only
    ):
        db, cache, qiurl, invalidator = build_invalidator(
            version_keys=version_keys
        )
        for i, threshold in enumerate(thresholds):
            cache_page(
                cache,
                qiurl,
                f"p{i}",
                f"SELECT maker, model FROM car WHERE price < {threshold}",
            )
        for i, maker in enumerate(makers):
            cache_page(
                cache,
                qiurl,
                f"m{i}",
                f"SELECT model FROM car WHERE maker = '{maker}'",
            )
        for i, epa in enumerate(epas):
            cache_page(cache, qiurl, f"j{i}", JOIN_SQL.format(epa))
        if poll_only:
            cache_page(cache, qiurl, "u-poll", POLL_ONLY_SQL)
        reports = []
        for cycle, wave in enumerate(inserts):
            for i, (maker, price, epa) in enumerate(wave):
                db.execute(
                    f"INSERT INTO car VALUES "
                    f"('{maker}', 'M{cycle}_{i}', {price})"
                )
                if epa is not None:
                    db.execute(
                        f"INSERT INTO mileage VALUES ('M{cycle}_{i}', {epa})"
                    )
            reports.append(invalidator.run_cycle())
        return sorted(cache.keys()), reports

    @given(
        thresholds=st.lists(st.integers(0, 80000), min_size=0, max_size=3),
        makers=st.lists(
            st.sampled_from(["Kia", "Rolls", "Toyota"]), min_size=0, max_size=2
        ),
        epas=st.lists(st.integers(0, 40), min_size=0, max_size=2),
        inserts=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["Kia", "Rolls"]),
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
    def test_randomized_equivalence(
        self, thresholds, makers, epas, inserts, poll_only
    ):
        keyed_keys, keyed_reports = self._run_cycles(
            True, thresholds, makers, epas, inserts, poll_only
        )
        control_keys, control_reports = self._run_cycles(
            False, thresholds, makers, epas, inserts, poll_only
        )
        assert keyed_keys == control_keys
        for keyed, control in zip(keyed_reports, control_reports):
            for counter in self.PARITY_COUNTERS:
                assert getattr(keyed, counter) == getattr(
                    control, counter
                ), counter
            # The control arm never consults a counter; the keyed arm
            # only ever skips checker work it can prove redundant.
            assert control.version_key_checks == 0
            assert control.polls_avoided == 0
            assert keyed.polls_avoided <= keyed.unaffected
            assert keyed.polls_avoided <= keyed.version_key_checks


class TestStreamingParity:
    """The streaming shard workers enforce the same decision table."""

    def _run(self, version_keys):
        from repro.stream import StreamingInvalidationPipeline

        db = make_car_db()
        cache = WebCache()
        qiurl = QIURLMap()
        pipeline = StreamingInvalidationPipeline(
            db,
            [cache],
            qiurl,
            version_keys=version_keys,
        )
        for i, threshold in enumerate((1000, 2000, 20000, 50000)):
            cache.put(f"u{i}", cacheable())
            qiurl.add(
                f"SELECT maker, model FROM car WHERE price < {threshold}",
                f"u{i}",
                "s",
            )
        pipeline.process_available()  # registration: instances stamped
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        db.execute("INSERT INTO car VALUES ('Audi', 'A4', 41000)")
        pipeline.process_available()
        return sorted(cache.keys()), pipeline.stats()["workers"]

    def test_streaming_pipeline_matches_checker_arm(self):
        keyed_keys, keyed = self._run(True)
        control_keys, control = self._run(False)
        assert keyed_keys == control_keys == ["u0", "u1"]
        for counter in (
            "records_processed",
            "affected",
            "polls_requested",
            "polls_executed",
        ):
            assert keyed[counter] == control[counter], counter
        # 1000 and 2000 are below both inserts: their pairs resolve from
        # the counter alone on the keyed arm.
        assert keyed["version_key_checks"] >= 4
        assert keyed["polls_avoided"] >= 4
        # The two ejected pages dropped their instances before the
        # snapshot; only the survivors remain on the fast path.
        assert keyed["version_key_instances"] == 2
        assert control["version_key_checks"] == 0
        assert control["polls_avoided"] == 0


def make_portal(db=None, version_keys=True):
    database = db if db is not None else make_car_db()
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=database
    )
    return site, CachePortal(site, version_keys=version_keys)


def crash_restart(site, portal, version_keys=True):
    portal.sniffer.uninstall()
    return CachePortal(site, version_keys=version_keys)


def fresh_body(site, url):
    return site.balancer.servers[0].handle(HttpRequest.from_url(url)).body


def cached(site, url):
    # Site caches key on host + url.
    return any(key.endswith(url) for key in site.web_cache.keys())


class TestCheckpointRoundTrip:
    def _checkpointed_run(self, tmp_path, version_keys):
        site, portal = make_portal(version_keys=version_keys)
        db = site.database
        site.get("/catalog?max_price=10000")
        site.get("/catalog?max_price=30000")
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)
        # While the portal is dead: one matching and one irrelevant update.
        db.execute("INSERT INTO car VALUES ('Kia','Rio',9000)")
        db.execute("INSERT INTO car VALUES ('Rolls','Ghost',400000)")
        portal = crash_restart(site, portal, version_keys=version_keys)
        report = portal.restore(path)
        cycle = portal.run_invalidation_cycle()
        return site, portal, report, cycle

    def test_restored_stamps_produce_identical_ejects(self, tmp_path):
        site_a, portal_a, report_a, cycle_a = self._checkpointed_run(
            tmp_path, version_keys=True
        )
        site_b, _, _, cycle_b = self._checkpointed_run(
            tmp_path, version_keys=False
        )
        assert sorted(site_a.web_cache.keys()) == sorted(
            site_b.web_cache.keys()
        )
        for counter in ("affected", "unaffected", "urls_ejected"):
            assert getattr(cycle_a, counter) == getattr(cycle_b, counter)
        # Both price thresholds exceed 9000: the Kia ejects both pages,
        # so the checkpointed stamps had nothing left to vouch for — but
        # they were restored, not dropped.
        assert report_a.version_keys_restored >= 1

    def test_restored_stamp_still_vouches_for_irrelevant_updates(
        self, tmp_path
    ):
        site, portal = make_portal()
        db = site.database
        site.get("/catalog?max_price=10000")
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)
        db.execute("INSERT INTO car VALUES ('Rolls','Ghost',400000)")
        portal = crash_restart(site, portal)
        report = portal.restore(path)
        assert not report.log_truncated
        assert report.version_keys_restored >= 1
        cycle = portal.run_invalidation_cycle()
        # The pre-checkpoint stamp survives restore and the counter —
        # also restored — proves the Rolls never touched `price < 10000`.
        assert cycle.polls_avoided >= 1
        assert cached(site, "/catalog?max_price=10000")

    def test_snapshot_without_version_state_floors_conservatively(
        self, tmp_path
    ):
        from repro.core import recovery

        site, portal = make_portal()
        db = site.database
        site.get("/catalog?max_price=10000")
        portal.run_invalidation_cycle()
        payload = recovery.snapshot_pipeline(portal.pipeline)
        del payload["version_keys"]  # simulate a pre-fast-path checkpoint
        db.execute("INSERT INTO car VALUES ('Rolls','Ghost',400000)")
        portal = crash_restart(site, portal)
        report = recovery.restore_pipeline(portal.pipeline, payload)
        assert report.version_keys_restored == 0
        cycle = portal.run_invalidation_cycle()
        # Without counters nothing is provable about pre-checkpoint
        # stamps: the checker decides (and correctly keeps the page).
        assert cycle.polls_avoided == 0
        assert cached(site, "/catalog?max_price=10000")
        # Fresh registrations after the restore vouch normally again.
        site.get("/catalog?max_price=5000")
        portal.run_invalidation_cycle()
        db.execute("INSERT INTO car VALUES ('Rolls','Ghost2',500000)")
        cycle = portal.run_invalidation_cycle()
        assert cycle.polls_avoided >= 1

    def test_truncation_floors_old_stamps_but_not_new_ones(self, tmp_path):
        db = Database(log_capacity=4)
        db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
        db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
        db.execute("INSERT INTO car VALUES ('Toyota','Avalon',25000)")
        site, portal = make_portal(db=db)
        url = "/catalog?max_price=10000"
        site.get(url)
        portal.run_invalidation_cycle()
        path = tmp_path / "p.ckpt"
        portal.checkpoint(path)
        for i in range(8):  # wrap the bounded log past the checkpoint
            db.execute(f"INSERT INTO car VALUES ('M{i}','X{i}',{1000 + i})")
        portal = crash_restart(site, portal)
        report = portal.restore(path)
        assert report.log_truncated
        # Flush-all ejected the watched page; the lost bumps can never be
        # vouched around.
        assert not cached(site, url)
        floor = portal.pipeline.version_index.stats()["floor"]
        assert floor >= report.cursor_lsn
        # Life after truncation: a recached page stamps above the floor
        # and the fast path resumes for irrelevant updates.
        site.get(url)
        portal.run_invalidation_cycle()
        db.execute("INSERT INTO car VALUES ('Rolls','Ghost',400000)")
        cycle = portal.run_invalidation_cycle()
        assert cycle.polls_avoided >= 1
        assert cached(site, url)
        # And a matching update still ejects — no staleness post-restore.
        db.execute("INSERT INTO car VALUES ('Kia','Rio',9000)")
        portal.run_invalidation_cycle()
        assert not cached(site, url)


class TestIndexStateHygiene:
    def test_dropped_instances_release_their_keys(self):
        db, cache, qiurl, invalidator = build_invalidator()
        cache_page(
            cache, qiurl, "u", "SELECT model FROM car WHERE price < 10000"
        )
        invalidator.run_cycle()
        assert invalidator.version_index.stats()["keys"] == 1
        db.execute("INSERT INTO car VALUES ('Kia','Rio',9000)")
        invalidator.run_cycle()  # ejects the page, drops the instance
        stats = invalidator.version_index.stats()
        assert stats["keys"] == 0
        assert stats["keyed_instances"] == 0

    def test_snapshot_state_round_trips_counters(self):
        db, cache, qiurl, invalidator = build_invalidator()
        cache_page(
            cache, qiurl, "u", "SELECT model FROM car WHERE price < 10000"
        )
        invalidator.run_cycle()
        db.execute("INSERT INTO car VALUES ('Kia','Rio',9000)")
        invalidator.run_cycle()
        state = invalidator.version_index.snapshot_state()
        assert set(state) == {"floor", "coarse", "keys"}
        assert state["coarse"].get("car", 0) > 0
