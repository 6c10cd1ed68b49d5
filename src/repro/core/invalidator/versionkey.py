"""Version-keyed O(1) single-table invalidation fast path.

Even after grouping (§4.1.2), predicate indexing, and set-oriented
polling, every live instance of a single-table query class still pays a
per-(instance, update) independence check each cycle.  Following the
interval/version-key argument of Łopuszański (arxiv 2310.15360), that
whole class can be resolved by a *counter comparison* instead: keep one
monotone version counter per predicate region — a point key for
equality conjuncts, an interval entry for range conjuncts, and a
per-table coarse counter as the fallback watermark — bump it from the
update stream, and an instance whose counter has not moved past its
registration stamp is provably untouched.

The contract is deliberately one-sided so the fast path can never
change an eject decision:

* ``fresh(instance, record)`` returns **True** only when the counter
  *proves* the pair UNAFFECTED — the grouped checker would reach the
  same verdict, so the caller may skip it.
* Anything unprovable (no key, counter moved, stamp missing, record
  predates the stamp, record not yet observed) returns **False** and
  the caller falls back to the precise checker.  Ejects are therefore
  bit-identical with the fast path on or off; only the number of
  checker invocations changes.

Soundness rests on three invariants:

1. **Stamp**: an instance is stamped with the update cursor at
   registration time.  The sniffer-first cycle order guarantees every
   record at or below that cursor is reflected in the cached page, so
   only records *above* the stamp can matter — and ``fresh`` refuses to
   vouch for records at or below it.
2. **Bump-before-check**: both consumers feed each pulled batch through
   :meth:`VersionKeyIndex.observe` before any pair of that batch is
   checked, so a record that satisfies *all* of a key's conjuncts has
   already bumped the key when its own pair is examined.  The per-table
   coarse counter records the highest observed LSN and gates every
   answer: a record the index has not seen cannot be vouched for.
3. **Floor**: the index only vouches for stamps at or above its bump
   floor (creation cursor, raised by log truncation and conservative
   restores); below it, bump coverage is unknown.

Checkpointing: :meth:`snapshot_state` captures the floor, the coarse
watermarks, and every key counter; instances persist their stamps in
the registry snapshot.  On restore the keys themselves are rebuilt by
registry replay (never deserialized) and :meth:`restore_state` overlays
the counters — a missing or old-format snapshot degrades to "never
fresh" for restored instances rather than to staleness.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.db.expr import Scope, evaluate
from repro.db.log import UpdateRecord
from repro.sql import ast
from repro.sql.params import bind_expression
from repro.sql.printer import to_sql
from repro.core.invalidator.grouping import (
    BindingAnalysis,
    IndexableConjunct,
    TypeAnalysis,
)
# The probe structures are shared with the predicate index on purpose:
# candidate discovery at bump time must honour exactly the same
# missing-column / NULL-value soundness cases as candidate discovery at
# check time, so the same implementation serves both.
from repro.core.invalidator.predindex import (
    _EMPTY_SCOPE,
    _UNEVALUABLE,
    _HashColumn,
    _IntervalColumn,
    _NullColumn,
)
from repro.core.invalidator.registration import (
    QueryInstance,
    QueryType,
    QueryTypeRegistry,
    RegistryListener,
)
from repro.core.invalidator.safety import (
    SafetyClassification,
    SafetyVerdict,
)


def analysis_qualifies(analysis: TypeAnalysis) -> bool:
    """True when a type's WHERE is a single-table indexable conjunction.

    Mirrors the grouped checker's decision ladder: every shape that
    would make the checker conservative (unions, LEFT JOINs, subquery
    references, residual conjuncts, non-indexable locals) disqualifies
    the type from the fast path.
    """
    if analysis.is_union or analysis.has_left_join:
        return False
    if len(analysis.aliases) != 1:
        return False
    if analysis.all_tables != frozenset(analysis.aliases.values()):
        return False  # also referenced via a subquery: conservative
    binding_analysis = next(iter(analysis.by_binding.values()))
    if binding_analysis.residual_templates:
        return False
    if not binding_analysis.local_templates:
        return False  # no WHERE: every touching update affects it anyway
    return len(binding_analysis.indexable_templates) == len(
        binding_analysis.local_templates
    )


class _TemplateShim:
    """Minimal ``QueryType`` stand-in: :meth:`TypeAnalysis.of` reads only
    the template, so classification can run before a type exists."""

    __slots__ = ("template",)

    def __init__(self, template) -> None:
        self.template = template


def template_qualifies(template) -> bool:
    """Qualify a bare template (no registered type yet)."""
    try:
        return analysis_qualifies(TypeAnalysis.of(_TemplateShim(template)))
    except ReproError:
        return False


def upgrade_classification(
    classification: SafetyClassification, template
) -> SafetyClassification:
    """Upgrade a SAFE classification to VERSION_KEY when the template
    qualifies for the fast path.

    The upgrade applies **only** from SAFE: a finding that floors the
    verdict above SAFE can never be masked by the fast path (the
    satellite guarantee asserted by the test suite).
    """
    if classification.verdict is not SafetyVerdict.SAFE:
        return classification
    if not template_qualifies(template):
        return classification
    return SafetyClassification(
        verdict=SafetyVerdict.VERSION_KEY, findings=classification.findings
    )


class _Key:
    """One refcounted version counter for a predicate region.

    ``instance_id`` is the key's own integer id — named so the key can
    duck-type into the predicate index's probe structures, which index
    their members by that attribute.
    """

    __slots__ = (
        "instance_id",
        "canonical",
        "table",
        "binding",
        "conjuncts",
        "probe",
        "last_bump_lsn",
        "refs",
    )

    def __init__(
        self,
        key_id: int,
        canonical: str,
        table: str,
        binding: str,
        conjuncts: List[ast.Expr],
        probe: Optional[Tuple],
    ) -> None:
        self.instance_id = key_id
        self.canonical = canonical
        self.table = table
        self.binding = binding
        self.conjuncts = conjuncts
        #: ("hash", column, values) | ("interval", column, spec) |
        #: ("isnull", column, negated) | None (always a bump candidate).
        self.probe = probe
        self.last_bump_lsn = 0
        self.refs: Set[int] = set()


class _TableKeys:
    """Bump-time probe structures for one base table's keys."""

    __slots__ = ("members", "hash_cols", "interval_cols", "null_cols", "unprobed")

    def __init__(self) -> None:
        self.members: Dict[int, _Key] = {}
        self.hash_cols: Dict[str, _HashColumn] = {}
        self.interval_cols: Dict[str, _IntervalColumn] = {}
        self.null_cols: Dict[str, _NullColumn] = {}
        #: Keys with no foldable probe conjunct: candidates for every
        #: record of the table (evaluation still decides the bump).
        self.unprobed: Dict[int, _Key] = {}

    def add(self, key: _Key) -> None:
        self.members[key.instance_id] = key
        if key.probe is None:
            self.unprobed[key.instance_id] = key
            return
        mode, column, payload = key.probe
        if mode == "hash":
            self.hash_cols.setdefault(column, _HashColumn()).add(key, payload)
        elif mode == "interval":
            self.interval_cols.setdefault(column, _IntervalColumn()).add(key, payload)
        else:  # isnull
            self.null_cols.setdefault(column, _NullColumn()).add(key, payload)

    def remove(self, key: _Key) -> None:
        self.members.pop(key.instance_id, None)
        if key.probe is None:
            self.unprobed.pop(key.instance_id, None)
            return
        mode, column, _payload = key.probe
        if mode == "hash":
            structure = self.hash_cols.get(column)
        elif mode == "interval":
            structure = self.interval_cols.get(column)
        else:
            structure = self.null_cols.get(column)
        if structure is not None:
            structure.remove(key.instance_id)

    def candidates(self, tuple_values: Dict) -> Dict[int, _Key]:
        """Keys the changed tuple could possibly bump (soundness cases
        identical to :meth:`PredicateIndex.probe`)."""
        found: Dict[int, _Key] = dict(self.unprobed)
        for column, hash_column in self.hash_cols.items():
            if column not in tuple_values:
                found.update(hash_column.members)
                continue
            value = tuple_values[column]
            if value is None:
                continue  # NULL equals nothing
            bucket = hash_column.by_value.get(value)
            if bucket:
                found.update(bucket)
        for column, interval_column in self.interval_cols.items():
            if column not in tuple_values:
                found.update(interval_column.members)
                continue
            value = tuple_values[column]
            if value is None:
                continue  # NULL is inside no interval
            interval_column.probe_into(value, found)
        for column, null_column in self.null_cols.items():
            if column not in tuple_values:
                found.update(null_column.members)
            elif tuple_values[column] is None:
                found.update(null_column.null_entries)
            else:
                found.update(null_column.notnull_entries)
        return found


class VersionKeyIndex(RegistryListener):
    """Monotone version counters over the VERSION_KEY instance class.

    Args:
        analysis_for: optional shared ``QueryType → TypeAnalysis``
            provider (e.g. ``GroupedChecker.analysis_for``).
        stamp_source: zero-argument callable returning the consumer's
            current update cursor; newly registered fast-path instances
            are stamped with it.  ``None`` leaves stamps unset (the
            index then never vouches — restore overlays real stamps).
    """

    def __init__(self, analysis_for=None, stamp_source=None) -> None:
        self._analyses: Dict[int, TypeAnalysis] = {}
        self._analysis_for = analysis_for or self._own_analysis
        self._stamp_source = stamp_source
        self._key_ids = itertools.count(1)
        self._keys: Dict[str, _Key] = {}
        self._key_of: Dict[int, _Key] = {}
        #: Instances whose bound WHERE is provably constant-false: no
        #: update can ever affect them, so they are fresh forever.
        self._never: Set[int] = set()
        self._tables: Dict[str, _TableKeys] = {}
        #: Highest observed LSN per table: the coarse counter.  It gates
        #: every precise answer — a record above it was never observed,
        #: so no key counter can vouch for it.
        self._coarse: Dict[str, int] = {}
        #: Stamps below the floor predate complete bump coverage.
        self._floor = 0
        #: The part of the floor owed to log truncation specifically —
        #: a checkpoint restore may replace the construction-time floor
        #: (the snapshot supplies the missing coverage) but never this.
        self._truncation_floor = 0
        if stamp_source is not None:
            self._floor = int(stamp_source())
        # Observability counters.
        self.records_observed = 0
        self.keys_bumped = 0
        self.checks = 0
        self.fresh_hits = 0
        self.instances_unkeyed = 0

    # -- registry listener protocol -------------------------------------------

    def attach_to(self, registry: QueryTypeRegistry) -> "VersionKeyIndex":
        registry.add_listener(self)
        for instance in registry.instances():
            self.instance_registered(instance)
        return self

    def instance_registered(self, instance: QueryInstance) -> None:
        classification = instance.query_type.safety
        if (
            classification is None
            or classification.verdict is not SafetyVerdict.VERSION_KEY
        ):
            return
        if self._stamp_source is not None:
            instance.version_stamp_lsn = int(self._stamp_source())
        analysis = self._analysis_for(instance.query_type)
        built = self._build_key_parts(instance, analysis)
        if built == "never":
            self._never.add(instance.instance_id)
            return
        if built is None:
            self.instances_unkeyed += 1
            return
        canonical, table, binding, conjuncts, probe = built
        key = self._keys.get(canonical)
        if key is None:
            key = _Key(
                next(self._key_ids), canonical, table, binding, conjuncts, probe
            )
            self._keys[canonical] = key
            self._tables.setdefault(table, _TableKeys()).add(key)
        key.refs.add(instance.instance_id)
        self._key_of[instance.instance_id] = key

    def instance_dropped(self, instance: QueryInstance) -> None:
        self._never.discard(instance.instance_id)
        key = self._key_of.pop(instance.instance_id, None)
        if key is None:
            return
        key.refs.discard(instance.instance_id)
        if key.refs:
            return
        del self._keys[key.canonical]
        table_keys = self._tables.get(key.table)
        if table_keys is not None:
            table_keys.remove(key)
            if not table_keys.members:
                del self._tables[key.table]

    # -- the update stream -----------------------------------------------------

    def observe(self, records: Sequence[UpdateRecord]) -> int:
        """Bump counters for one batch of update records.

        Must run before any (instance, record) pair of the batch is
        checked — both consumers call it right after pulling a batch.
        Returns the number of key bumps performed.
        """
        bumped = 0
        for record in records:
            table = record.table.lower()
            if self._coarse.get(table, -1) < record.lsn:
                self._coarse[table] = record.lsn
            table_keys = self._tables.get(table)
            if table_keys is None or not table_keys.members:
                continue
            tuple_values = record.as_dict()
            for key in table_keys.candidates(tuple_values).values():
                if key.last_bump_lsn >= record.lsn:
                    continue
                if self._matches(key, tuple_values):
                    key.last_bump_lsn = record.lsn
                    bumped += 1
        self.records_observed += len(records)
        self.keys_bumped += bumped
        return bumped

    def note_truncation(self, floor_lsn: int) -> None:
        """The log truncated past the cursor: bump coverage up to the
        resynced cursor is unknowable, so no older stamp may be vouched
        for again.  Pass the consumer's resynced cursor."""
        self._truncation_floor = max(self._truncation_floor, int(floor_lsn))
        self._floor = max(self._floor, int(floor_lsn))

    # -- the O(1) check --------------------------------------------------------

    def fresh(self, instance: QueryInstance, record: UpdateRecord) -> bool:
        """True iff the counter *proves* the pair UNAFFECTED.

        False means "cannot vouch", never "affected" — the caller falls
        back to the precise checker.
        """
        self.checks += 1
        instance_id = instance.instance_id
        if instance_id in self._never:
            self.fresh_hits += 1
            return True
        key = self._key_of.get(instance_id)
        if key is None:
            return False
        stamp = instance.version_stamp_lsn
        if stamp is None or stamp < self._floor:
            return False
        if record.lsn <= stamp:
            # At or below the stamp the page's own render already
            # reflects the record — or, for a restored instance, the
            # record was handled before the checkpoint.  Either way
            # this index has nothing to add; stay conservative.
            return False
        if self._coarse.get(record.table.lower(), -1) < record.lsn:
            return False  # record not yet observed: cannot vouch
        if key.last_bump_lsn <= stamp:
            self.fresh_hits += 1
            return True
        return False

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self) -> Dict:
        """JSON-compatible counter state; keys themselves are derived
        state and are rebuilt by registry replay on restore."""
        return {
            "floor": self._floor,
            "coarse": dict(self._coarse),
            "keys": {
                canonical: key.last_bump_lsn
                for canonical, key in self._keys.items()
            },
        }

    def restore_state(self, state: Optional[Dict], fallback_floor: int) -> int:
        """Overlay checkpointed counters onto the replay-rebuilt keys.

        Returns the number of key counters restored.  With no usable
        state (old-format snapshot) the floor rises to ``fallback_floor``
        (the restored cursor) so pre-checkpoint stamps are never vouched
        for — conservative, not stale.
        """
        if not state:
            self._floor = max(self._floor, int(fallback_floor))
            for key in self._keys.values():
                key.last_bump_lsn = max(key.last_bump_lsn, int(fallback_floor))
            return 0
        # The snapshot's floor *replaces* the construction-time one:
        # its counters cover everything from that floor through the
        # checkpoint, and the rewound cursor replays the rest through
        # ``observe`` before any pair is checked.  Truncation floors
        # are the exception — lost bumps stay lost.
        self._floor = max(
            int(state.get("floor", fallback_floor)), self._truncation_floor
        )
        for table, lsn in (state.get("coarse") or {}).items():
            if self._coarse.get(table, -1) < int(lsn):
                self._coarse[table] = int(lsn)
        counters = state.get("keys") or {}
        restored = 0
        for key in self._keys.values():
            if key.canonical in counters:
                key.last_bump_lsn = max(
                    key.last_bump_lsn, int(counters[key.canonical])
                )
                restored += 1
            else:
                # Unknown to the snapshot: assume bumped through the
                # checkpoint so only post-restore quiet can vouch.
                key.last_bump_lsn = max(key.last_bump_lsn, int(fallback_floor))
        return restored

    def stats(self) -> Dict[str, int]:
        return {
            "keys": len(self._keys),
            "keyed_instances": len(self._key_of),
            "never_instances": len(self._never),
            "unkeyed_instances": self.instances_unkeyed,
            "tables": len(self._tables),
            "floor": self._floor,
            "records_observed": self.records_observed,
            "keys_bumped": self.keys_bumped,
            "checks": self.checks,
            "fresh_hits": self.fresh_hits,
        }

    # -- key construction ------------------------------------------------------

    def _own_analysis(self, query_type: QueryType) -> TypeAnalysis:
        analysis = self._analyses.get(query_type.type_id)
        if analysis is None:
            analysis = TypeAnalysis.of(query_type)
            self._analyses[query_type.type_id] = analysis
        return analysis

    def _build_key_parts(self, instance: QueryInstance, analysis: TypeAnalysis):
        """Fold one instance into key parts.

        Returns ``"never"`` for a provably constant-false instance,
        ``None`` when no sound key exists (the instance stays on the
        precise checker), or ``(canonical, table, binding, conjuncts,
        probe)``.
        """
        if not analysis_qualifies(analysis):
            return None  # defensive: verdicts and analyses agree in practice
        binding_analysis = next(iter(analysis.by_binding.values()))
        for template in analysis.constant_templates:
            if self._constant(template, instance.bindings) is False:
                return "never"
        try:
            conjuncts = [
                bind_expression(template, instance.bindings)
                for template in binding_analysis.local_templates
            ]
        except ReproError:
            # Unbindable: the checker treats every touching record as
            # AFFECTED, and so must we — no counter can prove otherwise.
            return None
        probe = self._fold_probe(binding_analysis, instance.bindings)
        canonical = "{}|{}".format(
            binding_analysis.base_table,
            " AND ".join(sorted(to_sql(conjunct) for conjunct in conjuncts)),
        )
        return (
            canonical,
            binding_analysis.base_table,
            binding_analysis.binding,
            conjuncts,
            probe,
        )

    def _fold_probe(
        self, binding_analysis: BindingAnalysis, bindings: Tuple
    ) -> Optional[Tuple]:
        """Best-ranked indexable conjunct, folded to constants — the
        same folding the predicate index applies (point keys for
        equality, interval entries for ranges, NULL buckets)."""
        for conjunct in binding_analysis.indexable_templates:
            folded = self._fold_one(conjunct, bindings)
            if folded is not None:
                return folded
        return None

    def _fold_one(
        self, conjunct: IndexableConjunct, bindings: Tuple
    ) -> Optional[Tuple]:
        template = conjunct.template
        if conjunct.kind == "isnull":
            return ("isnull", conjunct.column, conjunct.negated)
        if conjunct.kind == "in":
            values = []
            for item in template.items:
                value = self._constant(item, bindings)
                if value is _UNEVALUABLE:
                    return None
                values.append(value)
            return ("hash", conjunct.column, tuple(values))
        if isinstance(template, ast.Between):
            low = self._constant(template.low, bindings)
            high = self._constant(template.high, bindings)
            if low is _UNEVALUABLE or high is _UNEVALUABLE:
                return None
            return ("interval", conjunct.column, (low, True, high, True, True, True))
        left_is_column = isinstance(template.left, ast.ColumnRef)
        value_side = template.right if left_is_column else template.left
        bound = self._constant(value_side, bindings)
        if bound is _UNEVALUABLE:
            return None
        if conjunct.kind == "eq":
            return ("hash", conjunct.column, (bound,))
        op = conjunct.op
        if op is ast.BinaryOp.LT:
            spec = (None, False, bound, False, False, True)
        elif op is ast.BinaryOp.LE:
            spec = (None, False, bound, True, False, True)
        elif op is ast.BinaryOp.GT:
            spec = (bound, False, None, False, True, False)
        else:  # GE
            spec = (bound, True, None, False, True, False)
        return ("interval", conjunct.column, spec)

    def _matches(self, key: _Key, tuple_values: Dict) -> bool:
        """True when the tuple satisfies every bound conjunct of the key
        — mirroring the grouped checker's local-condition loop, where an
        unevaluable condition cannot rule the tuple out."""
        scope = Scope([(key.binding, list(tuple_values.keys()))])
        row = tuple(tuple_values.values())
        for condition in key.conjuncts:
            try:
                value = evaluate(condition, row, scope)
            except ReproError:
                continue  # cannot evaluate: cannot rule out the bump
            if value is not True:
                return False
        return True

    def _constant(self, expr: ast.Expr, bindings: Tuple):
        try:
            bound = bind_expression(expr, bindings)
            return evaluate(bound, (), _EMPTY_SCOPE)
        except ReproError:
            return _UNEVALUABLE
