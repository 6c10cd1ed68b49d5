"""The invalidation decision: everything between "records pulled" and
"URLs to eject".

The paper's invalidator is one cycle (§4, Figure 11): pull the Δs, check
every (query instance, change) pair, schedule polls within the budget,
eject.  Its one consumer is the streaming pipeline's worker in
:mod:`repro.stream.workers`, which runs one such pass per tail batch:

* :func:`build_tiers` assembles the query registry and every tier over
  it — safety verdicts, static conflict matrix, predicate index, version
  keys;
* :class:`Tiers` also owns the type-analysis cache (the grouped
  checker), the update-loss valve, the poll-deadline resolver and the
  registry walk behind the safety counters;
* :class:`Lane` holds the consumer's tools (scheduler, polling
  generator, batch poller) and runs the decision cascade
  (:meth:`Lane.decide`) and the poll phase (:meth:`Lane.poll`).

Counters go into a caller-owned ``counts`` mapping whose names are the
fields of :class:`~repro.core.invalidator.invalidator.InvalidationReport`
and the counters of :class:`~repro.stream.metrics.PipelineMetrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Counter, Dict, List, Optional, Sequence, Tuple

from repro.db.engine import Database
from repro.db.log import UpdateRecord
from repro.errors import ReproError, RoutingError
from repro.core.qiurl import QIURLMap
from repro.core.invalidator.analysis import Verdict, VerdictKind
from repro.core.invalidator.batchpoll import BatchPollExecutor, batch_key
from repro.core.invalidator.conflict import ConflictMatrix
from repro.core.invalidator.grouping import GroupedChecker
from repro.core.invalidator.infomgmt import InformationManager
from repro.core.invalidator.policies import InvalidationPolicy, PolicyEngine
from repro.core.invalidator.polling import PollingQueryGenerator
from repro.core.invalidator.predindex import PredicateIndex
from repro.core.invalidator.registration import (
    QueryInstance,
    QueryTypeRegistry,
    RegistrationModule,
)
from repro.core.invalidator.safety import SafetyEnforcer, SafetyVerdict
from repro.core.invalidator.scheduler import InvalidationScheduler, PollCandidate
from repro.core.invalidator.updates import dedupe_records
from repro.core.invalidator.versionkey import VersionKeyIndex

#: A pair the checker could not decide locally: (instance, NEEDS_POLLING verdict).
PollTask = Tuple[QueryInstance, Verdict]


@dataclass
class Tiers:
    """The query registry and every decision tier built over it, used by
    one consumer's lane.  A tier whose toggle is off is None."""

    database: Database
    qiurl_map: QIURLMap
    registry: QueryTypeRegistry
    registration: RegistrationModule
    policy_engine: PolicyEngine
    infomgmt: InformationManager
    safety: SafetyEnforcer
    conflict_matrix: Optional[ConflictMatrix]
    pred_index: PredicateIndex
    version_index: Optional[VersionKeyIndex]
    #: The one type-analysis cache: every tier's ``analysis_for`` and the
    #: lane's precise check.  Subscribed to the registry, so its
    #: per-instance memo forgets dropped instances.
    checker: GroupedChecker
    polling_budget: Optional[int]
    #: Resolver: servlet name → temporal sensitivity in ms (§3.1).
    servlet_deadline: Optional[Callable[[str], float]]

    def deadline_for(self, instance: QueryInstance) -> float:
        """A poll inherits the *tightest* deadline among the servlets
        whose pages the instance feeds (the type default otherwise)."""
        deadline = instance.query_type.deadline_ms
        if self.servlet_deadline is not None:
            for servlet in instance.servlets:
                try:
                    deadline = min(deadline, self.servlet_deadline(servlet))
                except RoutingError:
                    continue  # unknown servlet: keep the type default
        return deadline

    def drop_urls(self, urls: Sequence[str]) -> None:
        """Forget ejected pages: their QI/URL rows and any instance left
        without a dependent page."""
        for url in urls:
            self.qiurl_map.drop_url(url)
            self.registry.drop_url(url)

    def flush_all(self, cursor: int) -> List[str]:
        """Update-loss valve: the bounded log wrapped past the consumer's
        cursor, so the missed changes are unknowable and every watched page
        must go.  Drops them all and returns the URLs to eject."""
        if self.version_index is not None:
            # Bumps for the lost range never happened: stamps predating the
            # resynced cursor must never be vouched for again.
            self.version_index.note_truncation(cursor)
        urls = sorted(
            {url for instance in self.registry.instances() for url in instance.urls}
        )
        self.drop_urls(urls)
        return urls

    def registry_counts(self) -> Dict[str, int]:
        """Safety observability derived from the live registry: instances
        whose type classifies SAFE or VERSION_KEY, and lint findings
        across registered types."""
        safe = version_keyed = 0
        for instance in self.registry.instances():
            verdict = self.safety.verdict_for(instance.query_type)
            if verdict is SafetyVerdict.SAFE:
                safe += 1
            elif verdict is SafetyVerdict.VERSION_KEY:
                version_keyed += 1
        return {
            "safe_instances": safe,
            "version_key_instances": version_keyed,
            "lint_findings": sum(
                len(query_type.safety.findings)
                for query_type in self.registry.types()
                if query_type.safety is not None
            ),
        }


def build_tiers(
    database: Database,
    qiurl_map: QIURLMap,
    stamp_source: Callable[[], int],
    *,
    policy: Optional[InvalidationPolicy],
    polling_budget: Optional[int],
    safety_enforcement: bool,
    version_keys: bool,
    conflict_matrix: bool,
    servlet_deadline: Optional[Callable[[str], float]],
) -> Tiers:
    """Build the registry and its tiers.  ``stamp_source`` returns the
    consumer's update cursor; new version-keyed instances are stamped
    with it."""
    registry = QueryTypeRegistry()
    policy_engine = PolicyEngine(policy)
    # Safety verdicts (lint-derived) override the precise check for query
    # types the analyzer cannot reason about soundly.
    safety = SafetyEnforcer(database, enabled=safety_enforcement)
    registry.add_listener(safety)
    # One type-analysis cache feeds every tier and the lane's checks.
    checker = GroupedChecker()
    analysis_for = checker.analysis_for

    def columns_of(table: str) -> Optional[List[str]]:
        """Schema accessor for the matrix's whole-table proofs; None for
        unknown tables (the matrix then refuses the proof)."""
        try:
            return list(database.table_columns(table))
        except ReproError:
            return None

    # Listeners run in attach order: the matrix must see each instance
    # before the index, whose classifier asks it for whole-table drops.
    matrix = (
        ConflictMatrix(analysis_for, columns_of).attach_to(registry)
        if conflict_matrix
        else None
    )
    index = PredicateIndex(analysis_for, conflict=matrix).attach_to(registry)
    versions = (
        VersionKeyIndex(analysis_for, stamp_source=stamp_source).attach_to(registry)
        if version_keys
        else None
    )
    registry.add_listener(checker)
    return Tiers(
        database=database,
        qiurl_map=qiurl_map,
        registry=registry,
        registration=RegistrationModule(registry),
        policy_engine=policy_engine,
        infomgmt=InformationManager(database, policy_engine),
        safety=safety,
        conflict_matrix=matrix,
        pred_index=index,
        version_index=versions,
        checker=checker,
        polling_budget=polling_budget,
        servlet_deadline=servlet_deadline,
    )


class Doomed(dict):
    """Instances condemned so far in one pass (``instance_id →
    instance``), the URLs to eject in condemnation order, and the clock
    the §4.1.1 invalidation-time statistic is charged from."""

    def __init__(self) -> None:
        super().__init__()
        self.urls: Dict[str, None] = {}  # insertion-ordered set
        self.started = time.perf_counter()


class Lane:
    """The consumer's tool chain over its tiers.

    The pipeline has exactly one lane and runs it on its caller's
    thread.  Its scheduler enforces the polling budget once per pass, as
    §4.2.2 prescribes; its precise checks go through the tiers' checker.
    """

    def __init__(self, tiers: Tiers) -> None:
        self.tiers = tiers
        self.scheduler = InvalidationScheduler(polling_budget=tiers.polling_budget)
        self.polling = PollingQueryGenerator(tiers.database)
        self.batch_poller = BatchPollExecutor(tiers.infomgmt, self.polling)

    def decide(
        self,
        table: str,
        records: Sequence[UpdateRecord],
        doomed: Doomed,
        counts: Counter,
    ) -> List[PollTask]:
        """Run the decision cascade over one relation's change records.

        Per pair: safety enforcement → static matrix → version key →
        probe prune → independence checker.  Returns the pairs that need
        polling.  Instances in ``doomed`` are skipped uncounted; the ones
        this call condemns join it.

        Record-major: AFFECTED verdicts doom instances in log order, which
        is what makes the stream's FIFO eject delivery a per-relation
        ordering guarantee end to end.
        """
        tiers = self.tiers
        records, duplicates = dedupe_records(records)
        index = tiers.pred_index
        versions = tiers.version_index
        # Hoist the enabled check; the per-pair consultation below is a
        # bare attribute read so enforcement stays off the hot path's
        # profile (bench_lint.py budgets it at < 3%).
        enforcer = tiers.safety if tiers.safety.enabled else None
        matrix = tiers.conflict_matrix
        if matrix is not None:
            # Once per record: the update classes it provably belongs to,
            # and the columns its row image carries (the matrix refuses a
            # static skip whose proof cites a column the record lacks).
            record_classes = [matrix.classes_for_record(record) for record in records]
            record_columns = [set(record.columns) for record in records]
        static_ids: "set[int]" = set()
        version_keyed: List[QueryInstance] = []
        if matrix is not None:
            static_ids = set(index.statically_dropped_ids(table))
        probe_start = time.perf_counter()
        probes = [index.probe(table, record) for record in records]
        probe_ms = 1000.0 * (time.perf_counter() - probe_start)
        # The index's per-type counts are a live view: copy them.
        type_totals = {
            type_id: (query_type, count)
            for type_id, (query_type, count) in index.table_type_counts(table).items()
        }
        # Version-keyed instances bypass the bulk probe skip: their
        # counter check — not the per-record probe — is this tier's
        # primary resolver, so every pair must materialize and reach
        # the cascade below.
        if versions is not None and enforcer is not None:
            version_keyed = [
                instance
                for instance in tiers.registry.instances_touching(table)
                if instance.query_type.safety is not None
                and instance.query_type.safety.verdict is SafetyVerdict.VERSION_KEY
            ]

        check_instance = tiers.checker.check_instance
        tasks: List[PollTask] = []
        pairs = unaffected = affected = pruned = 0
        fallback_ejects = poll_only_checks = 0
        version_key_checks = polls_avoided = 0
        static_skips = template_pruned = 0
        version_keyed_ids = {instance.instance_id for instance in version_keyed}
        # keyed by type_id: QueryType is a plain dataclass, not hashable
        updates_seen_by_type: "dict[int, list]" = {}

        for position, record in enumerate(records):
            probe = probes[position]
            row_instances = list(probe.candidates)
            # Version-keyed instances the probe excluded still materialize
            # (their counter decides); doomed ones stay with the bulk
            # accounting below.
            row_instances.extend(
                instance
                for instance in version_keyed
                if instance.instance_id not in probe.candidate_ids
                and instance.instance_id not in doomed
            )
            # Everything the probe left out is provably UNAFFECTED for this
            # record: account those pairs in bulk per query type (minus
            # instances already doomed, which are skipped uncounted).
            candidates_by_type: "dict[int, int]" = {}
            for instance in row_instances:
                type_id = instance.query_type.type_id
                candidates_by_type[type_id] = candidates_by_type.get(type_id, 0) + 1
            doomed_by_type: "dict[int, int]" = {}
            for instance_id, instance in doomed.items():
                if instance_id not in probe.candidate_ids:
                    type_id = instance.query_type.type_id
                    doomed_by_type[type_id] = doomed_by_type.get(type_id, 0) + 1
            for type_id, (query_type, live) in type_totals.items():
                skipped = (
                    live
                    - candidates_by_type.get(type_id, 0)
                    - doomed_by_type.get(type_id, 0)
                )
                if skipped <= 0:
                    continue
                pairs += skipped
                unaffected += skipped
                pruned += skipped
                tally = updates_seen_by_type.setdefault(type_id, [query_type, 0])
                tally[1] += skipped
            # Statically dropped instances live only in the index's per-type
            # totals, so the bulk loop above already counted them as
            # pruned+unaffected; attribute them to the static matrix too
            # (version-keyed ones materialize instead and hit the cascade's
            # static branch below).
            if static_ids:
                static_skips += sum(
                    1
                    for instance_id in static_ids
                    if instance_id not in version_keyed_ids
                    and instance_id not in doomed
                )
            for instance in row_instances:
                if instance.instance_id in doomed:
                    continue
                pairs += 1
                tally = updates_seen_by_type.setdefault(
                    instance.query_type.type_id, [instance.query_type, 0]
                )
                tally[1] += 1
                classification = (
                    instance.query_type.safety if enforcer is not None else None
                )
                if (
                    classification is not None
                    and classification.verdict >= SafetyVerdict.POLL_ONLY
                ):
                    # Enforcement replaces the precise check entirely:
                    # findings of this severity mean the analyzer's verdict
                    # cannot be trusted for this type.
                    if classification.verdict is SafetyVerdict.ALWAYS_EJECT:
                        fallback_ejects += 1
                        affected += 1
                        self._doom(instance, doomed)
                        continue
                    poll_only_checks += 1
                    eject = enforcer.check_poll_only(instance, record)
                    if eject:
                        affected += 1
                        self._doom(instance, doomed)
                    else:
                        unaffected += 1
                    continue
                if matrix is not None:
                    # Static conflict matrix: a registration-time DISJOINT
                    # proof answers the pair before any runtime machinery —
                    # the UNAFFECTED verdict the checker would reach.
                    level = matrix.skip_level(
                        instance, record_columns[position], record_classes[position]
                    )
                    if level is not None:
                        static_skips += 1
                        if level == "template":
                            template_pruned += 1
                        unaffected += 1
                        continue
                if (
                    classification is not None
                    and classification.verdict is SafetyVerdict.VERSION_KEY
                    and versions is not None
                ):
                    # Version-key fast path: a quiet counter proves the pair
                    # UNAFFECTED in O(1); anything unprovable falls through
                    # to the probe prune and the precise check.
                    version_key_checks += 1
                    if versions.fresh(instance, record):
                        polls_avoided += 1
                        unaffected += 1
                        continue
                if instance.instance_id not in probe.candidate_ids:
                    # A version-keyed pair the counter could not vouch for,
                    # but the probe proved UNAFFECTED — the checker's
                    # verdict, no invocation.  (Only version-keyed extras
                    # land here; every other materialized pair is a probe
                    # candidate.)
                    pruned += 1
                    unaffected += 1
                    continue
                verdict = check_instance(instance, record)
                if verdict.kind is VerdictKind.UNAFFECTED:
                    unaffected += 1
                    continue
                if verdict.kind is VerdictKind.AFFECTED:
                    affected += 1
                    self._doom(instance, doomed)
                    continue
                tasks.append((instance, verdict))

        counts.update(
            duplicate_records_skipped=duplicates,
            pairs_checked=pairs,
            unaffected=unaffected,
            affected=affected,
            pairs_pruned=pruned,
            index_probes=len(records),
            probe_time_ms=probe_ms,
            fallback_ejects=fallback_ejects,
            poll_only_checks=poll_only_checks,
            version_key_checks=version_key_checks,
            polls_avoided=polls_avoided,
            static_disjoint_skips=static_skips,
            template_pairs_pruned=template_pruned,
        )
        if updates_seen_by_type:
            for query_type, count in updates_seen_by_type.values():
                query_type.stats.updates_seen += count
        return tasks

    def poll(
        self,
        tasks: Sequence[PollTask],
        doomed: Doomed,
        counts: Counter,
    ) -> None:
        """Budgeted polling (§4.2.2): one scheduler cycle over the tasks
        whose instance is still live, then the batched polls, then
        over-invalidation of what the budget could not afford."""
        live = [task for task in tasks if task[0].instance_id not in doomed]
        if not live:
            return
        candidates = [
            PollCandidate(
                key=key,
                priority=instance.query_type.priority,
                cost=instance.query_type.cost,
                urls_at_stake=len(instance.urls),
                deadline_ms=self.tiers.deadline_for(instance),
                batch_key=batch_key(verdict.polling_query),
            )
            for key, (instance, verdict) in enumerate(live)
        ]
        schedule = self.scheduler.schedule(candidates)
        stats = self.polling.stats
        batched_before = (
            stats.batched_queries, stats.batched_instances, stats.demux_misses
        )
        self.polling.begin_cycle()
        # Set-oriented: one delta-join per polling-query type; a query
        # batch_key cannot fold is polled on its own.
        pending = [
            (candidate.key, live[candidate.key][1].polling_query)
            for candidate in schedule.to_poll
            if live[candidate.key][0].instance_id not in doomed
        ]
        outcomes = self.batch_poller.execute(pending)
        executed = impacted_polls = over_invalidated = 0
        for candidate in schedule.to_poll:
            instance = live[candidate.key][0]
            if instance.instance_id in doomed:
                continue
            outcome = outcomes.get(candidate.key)
            if outcome is None:  # pragma: no cover - defensive
                continue
            impacted, work = outcome.impacted, outcome.work_units
            executed += 1
            query_type = instance.query_type
            query_type.stats.polling_queries_issued += 1
            # Self-tuning cost estimate (§4.1.1 item 4): an exponential
            # moving average of measured polling work (a batch member's
            # amortized share) feeds later scheduling decisions.
            if work > 0:
                query_type.cost = 0.8 * query_type.cost + 0.2 * work
            if impacted:
                impacted_polls += 1
                self._doom(instance, doomed)
        # What we cannot afford to check, we over-invalidate.
        for candidate in schedule.over_invalidate:
            instance = live[candidate.key][0]
            if instance.instance_id in doomed:
                continue
            over_invalidated += 1
            self._doom(instance, doomed)
        counts.update(
            polls_requested=len(live),
            polls_executed=executed,
            polls_impacted=impacted_polls,
            over_invalidated=over_invalidated,
            batched_queries=stats.batched_queries - batched_before[0],
            batched_instances=stats.batched_instances - batched_before[1],
            demux_misses=stats.demux_misses - batched_before[2],
        )

    def _doom(self, instance: QueryInstance, doomed: Doomed) -> None:
        doomed[instance.instance_id] = instance
        # Time from the pass's start to this invalidation — the
        # per-type latency statistic of §4.1.1 (item 4), in ms.
        instance.query_type.stats.record_invalidation(
            elapsed=1000.0 * (time.perf_counter() - doomed.started)
        )
        for url in sorted(instance.urls):
            doomed.urls.setdefault(url)
