"""Safety-verdict enforcement tests (lint findings → runtime behavior).

Three layers:

* classification — lint findings fold into the SAFE < VERSION_KEY <
  POLL_ONLY < ALWAYS_EJECT lattice, with the structural guarantees that
  an ERROR-severity finding can never classify SAFE and that no lint
  floor ever assigns VERSION_KEY (hypothesis-checked);
* enforcement — ALWAYS_EJECT types never reach the independence
  checker (indexed and scan paths agree on every counter), POLL_ONLY
  types go through the fingerprint protocol;
* durability — fingerprints survive a checkpoint/restore, and the
  crash/restart staleness audit passes with enforcement on while the
  ``safety=False`` control arm demonstrably serves stale pages.
"""

import pytest
from hypothesis import given, strategies as st

from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse
from repro.core import CachePortal
from repro.core.qiurl import QIURLMap
from repro.stream import StreamingInvalidationPipeline
from repro.core.invalidator.safety import (
    RULE_VERDICT_FLOORS,
    SafetyVerdict,
    classify_findings,
    classify_template,
)
from repro.sql.lint import Finding, Severity
from repro.sql.parser import parse_statement
from repro.web import Configuration, build_site

from helpers import car_servlets, make_car_db

NOW_SQL = "SELECT maker, model FROM car WHERE price < NOW()"
POLL_SQL = "SELECT model FROM car WHERE model IN (SELECT model FROM mileage)"
SAFE_SQL = "SELECT maker, model FROM car WHERE price < 20000"


def cacheable(body="page"):
    return HttpResponse(
        body=body, cache_control=CacheControl.cacheportal_private()
    )


def setup(safety_enforcement=True):
    db = make_car_db()
    cache = WebCache()
    qiurl = QIURLMap()
    invalidator = StreamingInvalidationPipeline(
        db, [cache], qiurl, safety_enforcement=safety_enforcement
    )
    return db, cache, qiurl, invalidator


def cache_page(cache, qiurl, url, sql):
    cache.put(url, cacheable())
    qiurl.add(sql, url, "catalog")


def classify_sql(sql):
    return classify_template(parse_statement(sql))


class TestClassification:
    def test_nondeterministic_is_always_eject(self):
        assert classify_sql(NOW_SQL).verdict is SafetyVerdict.ALWAYS_EJECT

    def test_subquery_is_poll_only(self):
        assert classify_sql(POLL_SQL).verdict is SafetyVerdict.POLL_ONLY

    def test_clean_query_is_safe_with_no_findings(self):
        classification = classify_sql(SAFE_SQL)
        assert classification.verdict is SafetyVerdict.SAFE
        assert classification.findings == ()

    def test_hygiene_findings_stay_safe(self):
        classification = classify_sql(
            "SELECT maker FROM car WHERE 1 = 1 AND price < 5"
        )
        assert classification.verdict is SafetyVerdict.SAFE
        assert classification.reasons == ["tautological-predicate"]

    def test_lattice_takes_the_maximum(self):
        classification = classify_sql(
            "SELECT model FROM car WHERE price < NOW() "
            "AND model IN (SELECT model FROM mileage)"
        )
        assert classification.verdict is SafetyVerdict.ALWAYS_EJECT

    def test_verdict_parse(self):
        assert SafetyVerdict.parse("poll_only") is SafetyVerdict.POLL_ONLY
        with pytest.raises(ValueError, match="unknown safety verdict"):
            SafetyVerdict.parse("maybe")


FINDINGS = st.lists(
    st.builds(
        Finding,
        rule=st.sampled_from(
            sorted(RULE_VERDICT_FLOORS) + ["future-unknown-rule"]
        ),
        severity=st.sampled_from(list(Severity)),
        message=st.just("m"),
        span=st.just((0, 1)),
        snippet=st.just("x"),
    ),
    max_size=6,
).map(tuple)


class TestClassificationProperties:
    @given(findings=FINDINGS)
    def test_error_findings_never_classify_safe(self, findings):
        classification = classify_findings(findings)
        if any(f.severity >= Severity.ERROR for f in findings):
            assert classification.verdict is not SafetyVerdict.SAFE

    @given(findings=FINDINGS)
    def test_verdict_is_the_lattice_maximum(self, findings):
        expected = SafetyVerdict.SAFE
        for finding in findings:
            # Unknown rules floor at POLL_ONLY: fail conservative, never
            # let a future lint rule default into a fast path.
            floor = RULE_VERDICT_FLOORS.get(
                finding.rule, SafetyVerdict.POLL_ONLY
            )
            if finding.severity >= Severity.ERROR:
                floor = max(floor, SafetyVerdict.ALWAYS_EJECT)
            expected = max(expected, floor)
        assert classify_findings(findings).verdict is expected

    @given(findings=FINDINGS)
    def test_lint_floors_never_assign_version_key(self, findings):
        # VERSION_KEY is a registration-time upgrade from SAFE, never a
        # lint outcome — classify_findings must not produce it.
        assert (
            classify_findings(findings).verdict
            is not SafetyVerdict.VERSION_KEY
        )

    @given(findings=FINDINGS)
    def test_monotone_adding_findings_never_lowers(self, findings):
        if not findings:
            return
        partial = classify_findings(findings[:-1]).verdict
        assert classify_findings(findings).verdict >= partial


class TestAlwaysEjectEnforcement:
    def test_error_type_never_reaches_the_checker(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u-now", NOW_SQL)
        cache_page(cache, qiurl, "u-safe", SAFE_SQL)
        checked = []
        original = invalidator.tiers.checker.check_instance
        invalidator.tiers.checker.check_instance = (
            lambda inst, rec: (checked.append(inst.sql), original(inst, rec))[1]
        )
        db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
        report = invalidator.run_cycle()
        assert NOW_SQL not in checked  # enforcement replaced the check
        assert SAFE_SQL in checked  # 14000 < 20000: a real candidate
        assert report.fallback_ejects == 1
        assert "u-now" not in cache

    def test_counter_parity_indexed_vs_scan(self):
        """The indexed cycle counts enforcement exactly as the reference
        cycle, which scans every touching instance, does."""
        from reference_cycle import ReferenceInvalidator

        reports = []
        for reference in (False, True):
            db, cache, qiurl, invalidator = setup()
            cache_page(cache, qiurl, "u-now", NOW_SQL)
            cache_page(cache, qiurl, "u-safe", SAFE_SQL)
            db.execute("INSERT INTO car VALUES ('Kia', 'Rio', 14000)")
            db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
            consumer = (
                ReferenceInvalidator(invalidator) if reference else invalidator
            )
            reports.append((consumer.run_cycle(), sorted(cache.keys())))
        (indexed, indexed_cache), (scanned, scanned_cache) = reports
        assert indexed_cache == scanned_cache == []
        for counter in (
            "affected",
            "unaffected",
            "fallback_ejects",
            "poll_only_checks",
            "safe_instances",
            "urls_ejected",
            "lint_findings",
        ):
            assert getattr(indexed, counter) == getattr(scanned, counter), counter
        # One fallback eject: the first touching record dooms the
        # instance and later records skip it.
        assert indexed.fallback_ejects == 1

    def test_disabled_enforcement_takes_the_precise_path(self):
        db, cache, qiurl, invalidator = setup(safety_enforcement=False)
        cache_page(cache, qiurl, "u-now", NOW_SQL)
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.fallback_ejects == 0
        assert report.poll_only_checks == 0

    def test_report_surfaces_lint_findings_and_safe_instances(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u-now", NOW_SQL)
        cache_page(cache, qiurl, "u-safe", SAFE_SQL)
        report = invalidator.run_cycle()
        assert report.lint_findings == 1  # the NOW() finding
        # The budget page's single-table WHERE upgrades SAFE→VERSION_KEY
        # at registration, so it reports under the fast-path counter.
        assert report.safe_instances == 0
        assert report.version_key_instances == 1


class TestPollOnlyFingerprints:
    def test_baseline_cycle_is_conservative(self):
        # The fingerprint is taken in the same cycle that processes the
        # update: nothing is proven about the cached render, so any
        # touching update ejects.
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u-poll", POLL_SQL)
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.poll_only_checks == 1
        assert report.affected == 1
        assert "u-poll" not in cache

    def test_trusted_fingerprint_answers_precisely(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u-poll", POLL_SQL)
        invalidator.run_cycle()  # baseline: fingerprint established
        invalidator.run_cycle()  # survives → promoted to trusted
        # Irrelevant: new car has no mileage row, result set unchanged.
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        report = invalidator.run_cycle()
        assert report.poll_only_checks == 1
        assert report.unaffected == 1
        assert "u-poll" in cache
        # Relevant: a mileage row for the new car changes the result.
        db.execute("INSERT INTO mileage VALUES ('Ghost', 12)")
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost2', 500000)")
        report = invalidator.run_cycle()
        assert report.affected >= 1
        assert "u-poll" not in cache

    def test_unchanged_repolls_advance_the_fingerprint_lsn(self):
        db, cache, qiurl, invalidator = setup()
        cache_page(cache, qiurl, "u-poll", POLL_SQL)
        invalidator.run_cycle()
        invalidator.run_cycle()
        instance = next(
            inst
            for inst in invalidator.registry.instances()
            if inst.sql == POLL_SQL
        )
        before = instance.fingerprint_lsn
        db.execute("INSERT INTO car VALUES ('Rolls', 'Ghost', 400000)")
        invalidator.run_cycle()
        assert instance.fingerprint_lsn > before
        # The next touching record at or below that LSN short-circuits.
        assert instance.result_fingerprint is not None


class TestFingerprintCheckpointRoundTrip:
    def make_portal(self):
        database = make_car_db()
        site = build_site(
            Configuration.WEB_CACHE, car_servlets(), database=database
        )
        return site, CachePortal(site)

    def test_fingerprints_survive_restore(self, tmp_path):
        site, portal = self.make_portal()
        cache_page(
            site.web_cache, portal.qiurl_map, "u-poll", POLL_SQL
        )
        portal.run_invalidation_cycle()  # baseline fingerprint
        portal.run_invalidation_cycle()  # promoted to trusted
        instance = next(
            inst
            for inst in portal.pipeline.registry.instances()
            if inst.sql == POLL_SQL
        )
        fingerprint = instance.result_fingerprint
        assert fingerprint is not None
        path = tmp_path / "portal.ckpt"
        portal.checkpoint(path)

        portal.sniffer.uninstall()  # crash: portal state dies
        revived = CachePortal(site)
        report = revived.restore(path)
        assert report.fingerprints_restored == 1
        restored = next(
            inst
            for inst in revived.pipeline.registry.instances()
            if inst.sql == POLL_SQL
        )
        assert restored.result_fingerprint == fingerprint
        assert restored.fingerprint_lsn == instance.fingerprint_lsn

    def test_snapshot_carries_safety_verdict_for_observability(self):
        site, portal = self.make_portal()
        cache_page(site.web_cache, portal.qiurl_map, "u-now", NOW_SQL)
        portal.run_invalidation_cycle()
        from repro.core.recovery import snapshot_pipeline

        snapshot = snapshot_pipeline(portal.pipeline)
        verdicts = {
            spec["signature"]: spec["safety"]
            for spec in snapshot["registry"]["types"]
        }
        assert "ALWAYS_EJECT" in verdicts.values()


class TestAuditSafetyArms:
    """The acceptance A/B: with enforcement the ND ``/deals`` page is
    never served stale across kill/restart cycles; without it, the same
    seed demonstrably serves stale bytes."""

    def test_safety_on_passes_with_fallback_ejects(self):
        from repro.core.audit import AuditConfig, run_audit

        report = run_audit(AuditConfig(ops=400, restarts=3, seed=7))
        assert report.passed, report.stale_serves
        assert report.stale_serves == []
        assert report.fallback_ejects > 0

    def test_safety_off_control_arm_serves_stale(self):
        from repro.core.audit import AuditConfig, run_audit

        report = run_audit(
            AuditConfig(ops=400, restarts=3, seed=7, safety=False)
        )
        assert not report.passed
        assert report.fallback_ejects == 0
        assert any(
            stale["url"] == "/deals" for stale in report.stale_serves
        )
