"""Safety verdicts: lint findings → enforced invalidation strategy.

The independence check (§4) is precise only for the query fragment it
can actually reason about.  :func:`classify_template` runs the SQL lint
(:mod:`repro.sql.lint`) over a query-type template at registration time
and folds the findings into a four-way verdict — the *safety lattice*::

    SAFE  <  VERSION_KEY  <  POLL_ONLY  <  ALWAYS_EJECT

``SAFE``
    The precise per-update independence check runs as usual.
``VERSION_KEY``
    The query type qualifies for the O(1) version-counter fast path
    (:mod:`repro.core.invalidator.versionkey`): its WHERE clause is a
    single-table conjunction of indexable conjuncts, so a monotone
    per-(table, column, value/interval) counter can prove an update
    cycle left the instance untouched without running the per-update
    independence check.  Counter quiet since the instance's
    registration stamp → skip the check; counter moved (or nothing
    provable) → fall back to the precise check, so ejects are
    identical either way.  ``classify_template`` itself never assigns
    this tier; the upgrade happens at registration, and only from
    ``SAFE`` — a finding that floors above SAFE can never be masked.
``POLL_ONLY``
    The independence check is skipped.  Each instance keeps a result
    fingerprint; an update to a referenced table re-executes the
    instance's own SELECT and ejects the page iff the result changed
    (or nothing trustworthy is known yet).
``ALWAYS_EJECT``
    Conservative fallback: any update to a referenced table ejects the
    page.  No independence check, no polling — never a stale serve.

Every rule carries a *floor* verdict and the combination is the lattice
maximum, with one structural guarantee: a finding of severity ``ERROR``
can never classify ``SAFE``, whatever the rule table says.

:class:`SafetyEnforcer` carries the runtime half: it listens to the
registry for new instances, establishes POLL_ONLY fingerprints at cycle
start, and answers the verdict/fingerprint questions the synchronous
invalidator and the streaming pipeline ask per (instance, update) pair.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Set, Tuple, Union

from repro.errors import ReproError
from repro.sql import ast
from repro.sql.lint import Finding, LintReport, Severity, lint_statement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.db import Database
    from repro.db.log import UpdateRecord
    from repro.core.invalidator.registration import QueryInstance, QueryType


class SafetyVerdict(enum.IntEnum):
    """How the invalidator must treat instances of a query type."""

    SAFE = 0
    VERSION_KEY = 1
    POLL_ONLY = 2
    ALWAYS_EJECT = 3

    @classmethod
    def parse(cls, name: str) -> "SafetyVerdict":
        try:
            return cls[name.upper()]
        except KeyError:
            valid = ", ".join(v.name for v in cls)
            raise ValueError(
                f"unknown safety verdict {name!r} (expected one of: {valid})"
            ) from None


#: Per-rule verdict floors.  Rules absent from this table floor at
#: POLL_ONLY — fail conservative, matching the ERROR-never-SAFE
#: structural guard — so a future lint rule can never be unsound by
#: omission.  Hygiene diagnostics that genuinely stay SAFE must be
#: listed here explicitly.
RULE_VERDICT_FLOORS: Dict[str, SafetyVerdict] = {
    "nondeterministic-function": SafetyVerdict.ALWAYS_EJECT,
    "correlated-subquery": SafetyVerdict.ALWAYS_EJECT,
    "parse-error": SafetyVerdict.ALWAYS_EJECT,
    "not-a-select": SafetyVerdict.ALWAYS_EJECT,
    "uncorrelated-subquery": SafetyVerdict.POLL_ONLY,
    "union-coarse-analysis": SafetyVerdict.POLL_ONLY,
    "left-join-null-extension": SafetyVerdict.POLL_ONLY,
    "mixed-disjunction": SafetyVerdict.POLL_ONLY,
    "contradictory-predicate": SafetyVerdict.SAFE,
    # An unsatisfiable conjunction matches no rows: the precise checker
    # (and the conflict matrix, which marks it disjoint with everything)
    # handles it exactly — hygiene, not a safety hazard.
    "unsatisfiable-conjunction": SafetyVerdict.SAFE,
    "tautological-predicate": SafetyVerdict.SAFE,
    "cross-type-comparison": SafetyVerdict.SAFE,
    "unindexable-local-conjunct": SafetyVerdict.SAFE,
}


@dataclass(frozen=True)
class SafetyClassification:
    """The stored outcome of linting one query-type template."""

    verdict: SafetyVerdict
    findings: Tuple[Finding, ...]

    @property
    def reasons(self) -> List[str]:
        return [finding.rule for finding in self.findings]

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict.name,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def classify_findings(
    findings: Tuple[Finding, ...]
) -> SafetyClassification:
    """Fold lint findings into a verdict via the lattice maximum."""
    verdict = SafetyVerdict.SAFE
    for finding in findings:
        # Unknown rules floor at POLL_ONLY: an unlisted (future) rule
        # must degrade to polling, never silently stay SAFE.
        floor = RULE_VERDICT_FLOORS.get(finding.rule, SafetyVerdict.POLL_ONLY)
        if finding.severity >= Severity.ERROR:
            # Structural guard: error findings can never stay SAFE, even
            # for rules this module has never heard of.
            floor = max(floor, SafetyVerdict.ALWAYS_EJECT)
        verdict = max(verdict, floor)
    if verdict is SafetyVerdict.VERSION_KEY:
        # Structural guard: VERSION_KEY is a registration-time upgrade
        # from SAFE, never a lint floor.  A rule table entry pointing at
        # it would *lower* the lattice for a flagged template, so it
        # degrades to POLL_ONLY instead.
        verdict = SafetyVerdict.POLL_ONLY
    return SafetyClassification(verdict=verdict, findings=findings)


def classify_template(
    template: Union[ast.Select, ast.Union]
) -> SafetyClassification:
    """Lint a query-type template and classify it."""
    report: LintReport = lint_statement(template)
    return classify_findings(report.findings)


def _fingerprint_rows(columns: List[str], rows: List[tuple]) -> str:
    """Order-sensitive digest of a result.

    Pages render rows in result order, so two results with the same row
    *set* but different order produce different page bytes — a
    set-insensitive digest would let such a page survive as stale (e.g.
    deleting a row a UNION still produces from its other branch reorders
    the output without changing the set).  The engine is deterministic,
    so identical table state always re-executes to the identical order.
    """
    digest = hashlib.sha256()
    digest.update(repr(columns).encode())
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


class SafetyEnforcer:
    """Runtime enforcement of safety verdicts.

    Attach with ``registry.add_listener(enforcer)``; the enforcer queues
    newly registered instances and, at the start of the next cycle
    (:meth:`prepare_cycle`), computes result fingerprints for instances
    of POLL_ONLY types.

    Fingerprint trust model: a fingerprint taken at cycle start may
    postdate the cached page render, so during its *baseline* cycle any
    touching update ejects conservatively.  An instance that survives
    its baseline cycle has a proven-consistent fingerprint (any update
    between render and baseline would have ejected it), after which
    updates are answered precisely: re-execute, compare, eject only on
    change.  Unchanged re-polls advance ``fingerprint_lsn`` to the log
    head so already-incorporated records short-circuit.

    Both consumers drive the enforcer from their one invalidation
    thread, so its state takes no lock.
    """

    def __init__(self, database: "Database", enabled: bool = True) -> None:
        self.database = database
        self.enabled = enabled
        self._pending: List["QueryInstance"] = []
        #: Instance ids fingerprinted in the current (not yet survived)
        #: cycle — conservative ejection applies to them.
        self._baseline: Set[int] = set()
        self.fingerprints_computed = 0
        self.fingerprint_polls = 0

    # -- RegistryListener protocol (duck-typed) -------------------------------

    def instance_registered(self, instance: "QueryInstance") -> None:
        if not self.enabled:
            return
        if self.verdict_for(instance.query_type) is not SafetyVerdict.POLL_ONLY:
            return
        if instance.result_fingerprint is None:
            self._pending.append(instance)

    def instance_dropped(self, instance: "QueryInstance") -> None:
        self._baseline.discard(instance.instance_id)
        self._pending = [
            pending
            for pending in self._pending
            if pending.instance_id != instance.instance_id
        ]

    # -- verdicts -------------------------------------------------------------

    def verdict_for(self, query_type: "QueryType") -> SafetyVerdict:
        if not self.enabled:
            return SafetyVerdict.SAFE
        classification = query_type.safety
        if classification is None:
            return SafetyVerdict.SAFE
        return classification.verdict

    # -- fingerprints ---------------------------------------------------------

    def prepare_cycle(self, promote: bool = True) -> int:
        """Fingerprint newly registered POLL_ONLY instances.

        Call once per invalidation cycle, after QI/URL ingest and before
        update processing.  ``promote`` graduates the previous cycle's
        baseline instances to trusted status; the streaming pipeline
        passes ``False`` while batches of an older pump are still
        undecided (the prior baseline must stay conservative until its
        records are done).  Returns the number of fingerprints computed.
        """
        if not self.enabled:
            return 0
        if promote:
            self._baseline.clear()
        pending, self._pending = self._pending, []
        computed = 0
        for instance in pending:
            if self._fingerprint(instance):
                computed += 1
                self._baseline.add(instance.instance_id)
        self.fingerprints_computed += computed
        return computed

    def _fingerprint(self, instance: "QueryInstance") -> bool:
        try:
            result = self.database.execute(instance.statement)
        except ReproError:
            # Unexecutable instance: leave the fingerprint unset so every
            # touching update ejects conservatively.
            return False
        instance.result_fingerprint = _fingerprint_rows(
            result.columns, result.rows
        )
        instance.fingerprint_lsn = self.database.update_log.last_lsn
        return True

    def check_poll_only(
        self, instance: "QueryInstance", record: "UpdateRecord"
    ) -> bool:
        """Decide one POLL_ONLY (instance, update) pair.

        Returns True when the page must be ejected.
        """
        self.fingerprint_polls += 1
        fingerprint = instance.result_fingerprint
        lsn = instance.fingerprint_lsn
        if fingerprint is None or lsn is None:
            return True
        if instance.instance_id in self._baseline:
            # The fingerprint may postdate the page render; nothing is
            # proven yet, so any touching update ejects.
            return True
        if record.lsn <= lsn:
            # Already incorporated into a trusted fingerprint.
            return False
        try:
            result = self.database.execute(instance.statement)
        except ReproError:
            return True
        current = _fingerprint_rows(result.columns, result.rows)
        if current != fingerprint:
            return True
        instance.fingerprint_lsn = self.database.update_log.last_lsn
        return False

    # -- recovery -------------------------------------------------------------

    def after_restore(self) -> None:
        """Reset transient state after a checkpoint restore.

        Restored fingerprints were trusted when checkpointed (snapshots
        are taken between cycles) and stay trusted; only the pending and
        baseline queues — which describe in-flight cycle state that did
        not survive the crash — are discarded.
        """
        self._pending.clear()
        self._baseline.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "fingerprints_computed": self.fingerprints_computed,
            "fingerprint_polls": self.fingerprint_polls,
            "pending_fingerprints": len(self._pending),
            "baseline_instances": len(self._baseline),
        }
