"""Reference invalidation cycle: the oracle of the decision parity tests.

:meth:`StreamingInvalidationPipeline.run_cycle` decides each (query
instance, change) pair through three fast paths: the predicate index picks the candidate
instances, the grouped checker shares one analysis per query type, and
the batch poller folds the polls of one template into one delta-join.
:class:`ReferenceInvalidator` decides the same pairs without any of
them — every instance in ``registry.instances_touching(table)``, the
per-instance :class:`IndependenceChecker`, one
:meth:`PollingQueryGenerator.poll` per task — and otherwise walks the
same cascade (safety verdicts, static matrix, version keys).

Drive it on a twin pipeline fed the same pages and updates as the one
under test: the reference reads the twin's tiers and keeps its own
update-log cursor (the twin's tailer only mirrors it), and ejects and
decision counters must agree with the product's for cycles of at most
one tail batch.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.core.invalidator.analysis import IndependenceChecker, Verdict, VerdictKind
from repro.core.invalidator.invalidator import InvalidationReport
from repro.core.invalidator.polling import PollingQueryGenerator
from repro.core.invalidator.registration import QueryInstance
from repro.core.invalidator.safety import SafetyVerdict
from repro.core.invalidator.updates import dedupe_records
from repro.db.log import UpdateRecord
from repro.stream import StreamingInvalidationPipeline

AFFECTED = Verdict(VerdictKind.AFFECTED)
UNAFFECTED = Verdict(VerdictKind.UNAFFECTED)


class ReferenceInvalidator:
    """Runs reference cycles over ``pipeline``'s registry and tiers."""

    def __init__(self, pipeline: StreamingInvalidationPipeline) -> None:
        assert pipeline.tiers.polling_budget is None, "polls every task"
        self.pipeline = pipeline
        self.cursor = pipeline.tailer.cursor
        self.checker = IndependenceChecker()
        self.polling = PollingQueryGenerator(pipeline.database)

    def run_cycle(self) -> InvalidationReport:
        pipeline = self.pipeline
        tiers = pipeline.tiers
        tiers.registration.scan(pipeline.qiurl_map.read_new())
        tiers.safety.prepare_cycle(promote=True)
        deltas = pipeline.database.update_log.deltas_since(self.cursor)
        if deltas.last_lsn is not None:
            self.cursor = deltas.last_lsn
            # Version keys stamp new instances with the tailer's cursor.
            pipeline.tailer.seek(self.cursor)
        tables = deltas.tables()
        if tiers.version_index is not None:
            for table in tables:
                tiers.version_index.observe(deltas.changes_for(table))
        counts: Counter = Counter(records_processed=len(deltas))
        doomed: Dict[int, QueryInstance] = {}
        tasks = []
        for table in tables:
            records, duplicates = dedupe_records(deltas.changes_for(table))
            counts["duplicate_records_skipped"] += duplicates
            instances = tiers.registry.instances_touching(table)
            for record in records:
                for instance in instances:
                    if instance.instance_id in doomed:
                        continue
                    counts["pairs_checked"] += 1
                    verdict = self._decide(instance, record, counts)
                    if verdict.kind is VerdictKind.UNAFFECTED:
                        counts["unaffected"] += 1
                    elif verdict.kind is VerdictKind.AFFECTED:
                        counts["affected"] += 1
                        doomed[instance.instance_id] = instance
                    else:
                        tasks.append((instance, verdict))
        live = [task for task in tasks if task[0].instance_id not in doomed]
        counts["polls_requested"] = len(live)
        self.polling.begin_cycle()
        for instance, verdict in live:
            if instance.instance_id in doomed:
                continue
            counts["polls_executed"] += 1
            if self.polling.poll(verdict.polling_query):
                counts["polls_impacted"] += 1
                doomed[instance.instance_id] = instance
        report = InvalidationReport(**counts)
        urls = sorted({url for instance in doomed.values() for url in instance.urls})
        removed = pipeline.metrics.pages_removed
        pipeline.bus.publish(urls)
        pipeline.bus.pump()
        report.urls_ejected = len(urls)
        report.pages_removed = pipeline.metrics.pages_removed - removed
        tiers.drop_urls(urls)
        for name, value in tiers.registry_counts().items():
            setattr(report, name, value)
        return report

    def _decide(
        self, instance: QueryInstance, record: UpdateRecord, counts: Counter
    ) -> Verdict:
        tiers = self.pipeline.tiers
        safety = instance.query_type.safety if tiers.safety.enabled else None
        if safety is not None and safety.verdict >= SafetyVerdict.POLL_ONLY:
            if safety.verdict is SafetyVerdict.ALWAYS_EJECT:
                counts["fallback_ejects"] += 1
                return AFFECTED
            counts["poll_only_checks"] += 1
            eject = tiers.safety.check_poll_only(instance, record)
            return AFFECTED if eject else UNAFFECTED
        matrix = tiers.conflict_matrix
        if matrix is not None:
            level = matrix.skip_level(
                instance, set(record.columns), matrix.classes_for_record(record)
            )
            if level is not None:
                counts["static_disjoint_skips"] += 1
                if level == "template":
                    counts["template_pairs_pruned"] += 1
                return UNAFFECTED
        versions = tiers.version_index
        if (
            safety is not None
            and safety.verdict is SafetyVerdict.VERSION_KEY
            and versions is not None
        ):
            counts["version_key_checks"] += 1
            if versions.fresh(instance, record):
                counts["polls_avoided"] += 1
                return UNAFFECTED
        return self.checker.check(instance.statement, record)
