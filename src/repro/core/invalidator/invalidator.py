"""The invalidation-cycle report and the two baseline invalidators.

The paper's cycle (Figure 11) runs in one consumer, the streaming
pipeline (:mod:`repro.stream.pipeline`): its ``run_cycle`` — behind
``CachePortal.run_invalidation_cycle`` — drains the update log through
the decision of :mod:`repro.core.invalidator.decide` and reports what
the pass did as an :class:`InvalidationReport`.

:class:`TriggerInvalidator` and :class:`MatViewInvalidator` implement the
two alternatives the paper rejects (§4, first two paragraphs): DB triggers
firing synchronously inside each update, and materialized views with
change detection.  Both are functionally correct; the benchmarks show
their cost lands on the DBMS, which is the paper's argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Sequence, Set

from repro.db.engine import Database
from repro.db.log import ChangeKind, UpdateRecord
from repro.db.matview import MaterializedViewManager
from repro.web.cache import WebCache
from repro.core.invalidator.analysis import IndependenceChecker, VerdictKind
from repro.core.invalidator.generator import InvalidationMessageGenerator
from repro.core.invalidator.registration import QueryTypeRegistry


@dataclass
class InvalidationReport:
    """Per-cycle outcome summary: the decision counters are the
    :class:`~repro.stream.metrics.PipelineMetrics` deltas of one cycle."""

    records_processed: int = 0
    duplicate_records_skipped: int = 0
    #: True when the update log was truncated past the cursor: the cycle
    #: could not know what changed and flushed every watched page (the
    #: safety valve for an invalidator that fell behind a bounded log).
    updates_lost: bool = False
    pairs_checked: int = 0
    unaffected: int = 0
    affected: int = 0
    #: Of the pairs checked, how many the predicate index resolved as
    #: UNAFFECTED without invoking the independence checker.
    pairs_pruned: int = 0
    index_probes: int = 0
    probe_time_ms: float = 0.0
    polls_requested: int = 0
    polls_executed: int = 0
    polls_impacted: int = 0
    over_invalidated: int = 0
    #: Ejects published this cycle, and cache copies the deliveries of
    #: this cycle removed.
    urls_ejected: int = 0
    pages_removed: int = 0
    #: Safety enforcement (lint verdicts): live instances whose type
    #: classified SAFE at cycle end, pages ejected by the ALWAYS_EJECT
    #: fallback, fingerprint polls for POLL_ONLY pairs, and the total
    #: lint findings across registered types.
    safe_instances: int = 0
    fallback_ejects: int = 0
    poll_only_checks: int = 0
    lint_findings: int = 0
    #: Version-key fast path (VERSION_KEY verdicts): live instances on
    #: the fast path at cycle end, counter checks performed, and pairs
    #: the counter resolved without the precise checker.
    version_key_instances: int = 0
    version_key_checks: int = 0
    polls_avoided: int = 0
    #: Set-oriented polling (this cycle): delta-join queries issued, the
    #: instances folded into them, and demultiplexed ids that matched no
    #: pending instance (always 0 unless the engine misbehaves).
    batched_queries: int = 0
    batched_instances: int = 0
    demux_misses: int = 0
    #: Static conflict analysis: pairs the registration-time matrix
    #: resolved as provably DISJOINT (no probe, no checker), and the
    #: subset decided at template level (valid for every binding).
    static_disjoint_skips: int = 0
    template_pairs_pruned: int = 0

    @property
    def poll_round_trips_saved(self) -> int:
        """Per-instance round trips this cycle's batching avoided."""
        return max(0, self.batched_instances - self.batched_queries)

    @property
    def checker_invocations(self) -> int:
        """Pairs that actually reached the independence checker."""
        return self.pairs_checked - self.pairs_pruned


class TriggerInvalidator:
    """Baseline: invalidation via database triggers (§4, paragraph 1).

    A trigger per (table, change kind) runs the same independence check
    synchronously inside every DML statement.  Needed polling queries are
    issued inline against the DBMS — the database pays for everything,
    including keeping the table of cached pages.
    """

    def __init__(self, database: Database, caches: Sequence[WebCache]) -> None:
        self.database = database
        self.registry = QueryTypeRegistry()
        self.checker = IndependenceChecker()
        self.messages = InvalidationMessageGenerator(caches)
        self.pages_ejected = 0
        self.checks_performed = 0
        self.polls_issued = 0
        self.db_work_units = 0
        self._installed = False

    def watch(self, sql: str, url_key: str) -> None:
        """Declare that ``url_key`` depends on query instance ``sql``."""
        self.registry.observe_instance(sql, url_key)
        self._ensure_triggers()

    def _ensure_triggers(self) -> None:
        if self._installed:
            return
        for table in self.database.table_names():
            for kind in (ChangeKind.INSERT, ChangeKind.DELETE):
                self.database.triggers.register(
                    f"cacheportal-{table}-{kind.value}",
                    table,
                    kind,
                    self._on_change,
                )
        self._installed = True

    def _on_change(self, record: UpdateRecord) -> None:
        ejected: Set[str] = set()
        for instance in self.registry.instances_touching(record.table):
            self.checks_performed += 1
            verdict = self.checker.check(instance.statement, record)
            if verdict.kind is VerdictKind.UNAFFECTED:
                continue
            if verdict.kind is VerdictKind.NEEDS_POLLING:
                self.polls_issued += 1
                result = self.database.execute(verdict.polling_query)
                self.db_work_units += result.work_units
                if not (result.rows and result.rows[0][0]):
                    continue
            ejected.update(instance.urls)
        if ejected:
            outcomes = self.messages.invalidate(sorted(ejected))
            self.pages_ejected += sum(o.pages_removed for o in outcomes)
            for url in ejected:
                self.registry.drop_url(url)


class MatViewInvalidator:
    """Baseline: invalidation via materialized views (§4, paragraph 2).

    One materialized view per watched query instance; a change in the view
    contents ejects the dependent pages.  Expressive — the view *is* the
    query — but every base-table change recomputes every dependent view,
    inside the update path.
    """

    def __init__(self, database: Database, caches: Sequence[WebCache]) -> None:
        self.database = database
        self.views = MaterializedViewManager(database)
        self.messages = InvalidationMessageGenerator(caches)
        self._urls_by_view: Dict[str, Set[str]] = {}
        self._view_by_sql: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self.pages_ejected = 0
        self.views.on_view_change(self._on_view_change)

    def watch(self, sql: str, url_key: str) -> None:
        view_name = self._view_by_sql.get(sql)
        if view_name is None:
            view_name = f"cacheportal_view_{next(self._ids)}"
            self.views.define(view_name, sql)
            self._view_by_sql[sql] = view_name
            self._urls_by_view[view_name] = set()
        self._urls_by_view[view_name].add(url_key)

    @property
    def maintenance_work(self) -> int:
        """Total DB work spent keeping the views fresh."""
        return sum(
            self.views.get(name).maintenance_work for name in self.views.names()
        )

    def _on_view_change(self, view) -> None:
        urls = self._urls_by_view.get(view.name, set())
        if not urls:
            return
        outcomes = self.messages.invalidate(sorted(urls))
        self.pages_ejected += sum(o.pages_removed for o in outcomes)
        self._urls_by_view[view.name] = set()
