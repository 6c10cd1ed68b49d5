"""The invalidator orchestrator and the two baseline invalidators.

:class:`Invalidator` runs the paper's cycle (Figure 11) synchronously:
pull the update log into Δ tables, decide every (live query instance,
change) pair, schedule polling queries within the budget, and send
``Cache-Control: eject`` messages for every affected page.  The decision
itself — tier assembly, the per-pair cascade and the poll phase — lives
in :mod:`repro.core.invalidator.decide`, shared with the streaming
workers; this module is the synchronous glue around it.

:class:`TriggerInvalidator` and :class:`MatViewInvalidator` implement the
two alternatives the paper rejects (§4, first two paragraphs): DB triggers
firing synchronously inside each update, and materialized views with
change detection.  Both are functionally correct; the benchmarks show
their cost lands on the DBMS, which is the paper's argument.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.db.engine import Database
from repro.db.log import ChangeKind, UpdateRecord
from repro.db.matview import MaterializedViewManager
from repro.web.cache import WebCache
from repro.core.qiurl import QIURLMap
from repro.core.invalidator.analysis import IndependenceChecker, VerdictKind
from repro.core.invalidator.decide import Doomed, Lane, build_tiers
from repro.core.invalidator.generator import InvalidationMessageGenerator
from repro.core.invalidator.policies import InvalidationPolicy
from repro.core.invalidator.registration import QueryTypeRegistry
from repro.core.invalidator.updates import UpdateProcessor


@dataclass
class InvalidationReport:
    """Per-cycle outcome summary."""

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
    urls_ejected: int = 0
    pages_removed: int = 0
    polling_work_units: int = 0
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


class Invalidator:
    """The CachePortal invalidator (paper §4): the synchronous consumer."""

    def __init__(
        self,
        database: Database,
        caches: Sequence[WebCache],
        qiurl_map: QIURLMap,
        policy: Optional[InvalidationPolicy] = None,
        polling_budget: Optional[int] = None,
        servlet_deadline: Optional[Callable[[str], float]] = None,
        safety_enforcement: bool = True,
        version_keys: bool = True,
        conflict_matrix: bool = True,
    ) -> None:
        self.database = database
        self.qiurl_map = qiurl_map
        self.updates = UpdateProcessor(database)
        self.tiers = build_tiers(
            database,
            qiurl_map,
            stamp_source=lambda: self.updates.cursor,
            policy=policy,
            polling_budget=polling_budget,
            safety_enforcement=safety_enforcement,
            version_keys=version_keys,
            conflict_matrix=conflict_matrix,
            servlet_deadline=servlet_deadline,
        )
        tiers = self.tiers
        self.registry = tiers.registry
        self.registration = tiers.registration
        self.policy_engine = tiers.policy_engine
        self.infomgmt = tiers.infomgmt
        self.safety = tiers.safety
        self.conflict_matrix = tiers.conflict_matrix
        self.pred_index = tiers.pred_index
        self.version_index = tiers.version_index
        # One lane: the synchronous cycle is single-threaded.
        self.lane = Lane(tiers)
        self.scheduler = self.lane.scheduler
        self.polling = self.lane.polling
        self.batch_poller = self.lane.batch_poller
        self.grouped_checker = self.lane.grouped_checker
        self.messages = InvalidationMessageGenerator(caches)
        # Pages whose eject some cache missed: still registered, re-sent
        # at the start of every cycle until each cache has taken it.
        self.undelivered: Dict[str, None] = {}  # insertion-ordered set
        self.cycles_run = 0
        self.last_report: Optional[InvalidationReport] = None

    # -- registration entry points --------------------------------------------------

    def register_query_type(self, template_sql: str, name: Optional[str] = None):
        """Offline registration of a known query type (§4.1.1)."""
        return self.registration.register_query_type(template_sql, name)

    def ingest_qiurl_rows(self) -> int:
        """Online discovery: pull new QI/URL rows into the registry (§4.1.2)."""
        return self.registration.scan(self.qiurl_map.read_new())

    def servlet_cacheable(self, servlet) -> bool:
        """Feedback hook for the sniffer's request logger."""
        return self.policy_engine.servlet_cacheable(servlet.name)

    # -- the invalidation cycle ---------------------------------------------------------

    def run_cycle(self) -> InvalidationReport:
        """One full invalidation cycle (Figure 11, arrows (A)-(C)).

        Glue around :mod:`~repro.core.invalidator.decide`: every relation's
        records go through the shared cascade with one ``doomed`` set for
        the whole cycle, then one poll phase, then the ejects.
        """
        self.cycles_run += 1
        report = InvalidationReport()
        doomed = Doomed()
        self.ingest_qiurl_rows()
        if self.undelivered:
            self._eject(list(self.undelivered), report)
        # Fingerprint newly discovered POLL_ONLY instances before any
        # update is examined; the synchronous cycle always promotes the
        # previous baseline (its records are fully processed).
        self.safety.prepare_cycle(promote=True)
        deltas, lost = self.updates.pull_or_lose()
        if lost:
            report.updates_lost = True
            self._eject(self.tiers.flush_all(self.updates.cursor), report)
        elif not deltas.is_empty():
            report.records_processed = len(deltas)
            tables = deltas.tables()
            self.infomgmt.on_cycle_deltas(set(tables))
            if self.version_index is not None:
                # Bump-before-check: every record of the batch moves its
                # counters before any (instance, record) pair is examined.
                for table in tables:
                    self.version_index.observe(deltas.changes_for(table))
            counts: Counter = Counter()
            tasks = []
            for table in tables:
                tasks += self.lane.decide(
                    table, deltas.changes_for(table), doomed, counts
                )
            self.lane.poll(tasks, doomed, counts)
            for name, amount in counts.items():
                setattr(report, name, getattr(report, name) + amount)
            self._eject(sorted(doomed.urls), report)
            report.polling_work_units = self.polling.stats.total_work_units
            # Policy discovery runs at the end of each cycle (§4.1.4).
            self.policy_engine.discover(self.registry)
        for name, value in self.tiers.registry_counts().items():
            setattr(report, name, value)
        self.last_report = report
        return report

    def _eject(self, urls: List[str], report: InvalidationReport) -> None:
        """Send the ejects, then forget only the pages every cache
        dropped; the rest stay registered and in ``undelivered``."""
        outcomes = self.messages.invalidate(urls)
        report.urls_ejected += len(outcomes)
        report.pages_removed += sum(outcome.pages_removed for outcome in outcomes)
        delivered = []
        for outcome in outcomes:
            if outcome.delivery_failures:
                self.undelivered.setdefault(outcome.url_key)
            else:
                self.undelivered.pop(outcome.url_key, None)
                delivered.append(outcome.url_key)
        self.tiers.drop_urls(delivered)


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
