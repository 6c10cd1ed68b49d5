"""Predicate index: sub-linear update → instance candidate matching.

The invalidator must decide, for every changed tuple, which cached query
instances it can affect.  The baseline is a scan: run the (grouped)
independence check against *every* live instance of the changed relation
— O(instances × updates), which caps the registry size the invalidator
can sustain.  Almost all of those checks return UNAFFECTED by failing one
*local* conjunct (``price < 20000`` vs a tuple with price 72000), and
that failure is computable from an index probe instead of a checker run.

:class:`PredicateIndex` keeps, per (table, column):

* a **hash index** for equality and IN-list conjuncts — bucket by bound
  value; a probe is one dict lookup;
* a **sorted interval index** (bisect over the SQL total order via
  :class:`~repro.db.types.SortKey`) for range and BETWEEN conjuncts —
  a probe is a binary search plus the matching prefix/suffix;
* an **IS [NOT] NULL** bucket pair;
* a per-table **residual scan-list** for instances whose local conjuncts
  have no probe-friendly shape (LIKE, OR at the top level, self-joins,
  unions, LEFT JOINs, subquery-only references, unbindable templates).

A probe returns the *candidate set*: every instance whose verdict could
be anything other than UNAFFECTED.  Everything outside the candidate set
is **provably** UNAFFECTED — the changed tuple fails the instance's
indexed local conjunct, which is exactly the first way the grouped
checker rules a pair out — so pruning changes the amount of work, never
a verdict.  Soundness cases the probe honours:

* a tuple **missing the probe column** cannot be ruled out (the checker
  skips unevaluable conditions): all instances indexed on that column
  become candidates;
* a **NULL tuple value** fails every comparison (three-valued logic):
  equality/range instances are pruned, ``IS NULL`` instances match;
* a **NULL bound** (``col = NULL``) can never evaluate to TRUE: the
  instance is indexed but unreachable by any probe value;
* a provably **constant-false** instance (``WHERE 1 = 2`` bound) is
  never affected at all and is pruned without any probe structure;
* a conjunct qualified by the base-table name while the table is bound
  under an alias would be unresolvable in the checker's scope (skipped,
  hence no pruning) — :class:`TypeAnalysis` never marks it indexable.

Consistency: the index implements the
:class:`~repro.core.invalidator.registration.RegistryListener` protocol;
attach it to a :class:`QueryTypeRegistry` and every instance discovery
inserts entries while every eviction (``drop_url`` orphaning an
instance) removes them.  Mutations and probes are not locked: each
consumer runs its registry and lane on one thread.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.db.expr import Scope, evaluate
from repro.db.log import UpdateRecord
from repro.db.types import SortKey, Value, sql_compare
from repro.sql import ast
from repro.sql.params import bind_expression
from repro.core.invalidator.grouping import IndexableConjunct, TypeAnalysis
from repro.core.invalidator.registration import (
    QueryInstance,
    QueryType,
    QueryTypeRegistry,
    RegistryListener,
)
from repro.core.invalidator.safety import SafetyVerdict

_EMPTY_SCOPE = Scope([])
#: Sentinel distinguishing "evaluates to SQL NULL" from "cannot evaluate".
_UNEVALUABLE = object()
#: Sorts after every sequence number inside bisect boundary tuples.
_SEQ_INF = float("inf")


@dataclass
class ProbeResult:
    """Outcome of one (table, changed tuple) probe."""

    table: str
    #: Instances that may be affected, in registration (instance-id) order.
    candidates: List[QueryInstance]
    #: ``{instance_id}`` of :attr:`candidates`, for O(1) membership tests.
    candidate_ids: Set[int]
    #: Live instances registered for the table that the probe ruled out.
    pruned: int


@dataclass
class _Entry:
    """How one instance is represented in one table's index.

    ``payload`` depends on ``mode``: hash keys for "hash", the interval
    spec for "interval", the negated flag for "isnull", None otherwise.
    """

    instance: QueryInstance
    #: "hash" | "interval" | "isnull" | "residual" | "never" | "static"
    #: ("static": the conflict matrix proved the instance disjoint from
    #: every possible record of the table — like "never", the entry is
    #: pruned by every probe and exists only for accounting).
    mode: str
    column: Optional[str] = None
    payload: object = None


class _HashColumn:
    """Equality / IN-list entries for one (table, column)."""

    __slots__ = ("members", "by_value", "keys_of")

    def __init__(self) -> None:
        self.members: Dict[int, QueryInstance] = {}
        self.by_value: Dict[Value, Dict[int, QueryInstance]] = {}
        self.keys_of: Dict[int, Tuple[Value, ...]] = {}

    def add(self, instance: QueryInstance, keys: Tuple[Value, ...]) -> None:
        iid = instance.instance_id
        self.members[iid] = instance
        self.keys_of[iid] = keys
        for key in keys:
            # A None key is unreachable on purpose: probes never look up
            # NULL, and a NULL bound never compares TRUE.
            self.by_value.setdefault(key, {})[iid] = instance

    def remove(self, instance_id: int) -> None:
        self.members.pop(instance_id, None)
        for key in self.keys_of.pop(instance_id, ()):
            bucket = self.by_value.get(key)
            if bucket is not None:
                bucket.pop(instance_id, None)
                if not bucket:
                    del self.by_value[key]


class _NullColumn:
    """IS NULL / IS NOT NULL entries for one (table, column)."""

    __slots__ = ("members", "null_entries", "notnull_entries")

    def __init__(self) -> None:
        self.members: Dict[int, QueryInstance] = {}
        self.null_entries: Dict[int, QueryInstance] = {}
        self.notnull_entries: Dict[int, QueryInstance] = {}

    def add(self, instance: QueryInstance, negated: bool) -> None:
        iid = instance.instance_id
        self.members[iid] = instance
        target = self.notnull_entries if negated else self.null_entries
        target[iid] = instance

    def remove(self, instance_id: int) -> None:
        self.members.pop(instance_id, None)
        self.null_entries.pop(instance_id, None)
        self.notnull_entries.pop(instance_id, None)


#: Interval spec: (low, low_incl, high, high_incl, has_low, has_high).
_IntervalSpec = Tuple[Value, bool, Value, bool, bool, bool]


class _IntervalColumn:
    """Range / BETWEEN entries for one (table, column).

    Three sorted lists keep probes output-sensitive for the common
    one-sided shapes: ``uppers`` (only an upper bound — the Table-3
    ``price < $1`` family), ``lowers`` (only a lower bound), ``bounded``
    (both).  Sorting uses :class:`SortKey`, i.e. exactly the SQL total
    order ``sql_compare`` applies, so cross-type probes (a string value
    against numeric bounds) prune precisely when the checker would.
    """

    __slots__ = ("members", "uppers", "lowers", "bounded", "placement", "_seq")

    def __init__(self) -> None:
        self.members: Dict[int, QueryInstance] = {}
        # Items: (bound SortKey, flag, seq, instance_id); flag semantics
        # are chosen per list so the bisect boundary splits exactly.
        self.uppers: List[tuple] = []
        self.lowers: List[tuple] = []
        self.bounded: List[tuple] = []
        #: instance_id → (list name, item, high, high_incl); list name
        #: None marks a never-matching (NULL-bounded) entry.
        self.placement: Dict[int, tuple] = {}
        self._seq = 0

    def add(self, instance: QueryInstance, spec: _IntervalSpec) -> None:
        low, low_incl, high, high_incl, has_low, has_high = spec
        iid = instance.instance_id
        self.members[iid] = instance
        self._seq += 1
        seq = self._seq
        if (has_low and low is None) or (has_high and high is None):
            # NULL bound: the conjunct can never evaluate TRUE; keep the
            # entry for the column-missing fallback only.
            self.placement[iid] = (None, None, None, None)
            return
        if has_low and has_high:
            # flag 0 = inclusive (>=), 1 = strict (>): inclusive sorts
            # first so boundary (v, 1) keeps low==v inclusive entries.
            item = (SortKey(low), 0 if low_incl else 1, seq, iid)
            insort(self.bounded, item)
            self.placement[iid] = ("bounded", item, high, high_incl)
        elif has_high:
            # flag 0 = strict (<), 1 = inclusive (<=): strict sorts first
            # so boundary (v, 0, inf) drops high==v strict entries.
            item = (SortKey(high), 1 if high_incl else 0, seq, iid)
            insort(self.uppers, item)
            self.placement[iid] = ("uppers", item, None, None)
        else:
            item = (SortKey(low), 0 if low_incl else 1, seq, iid)
            insort(self.lowers, item)
            self.placement[iid] = ("lowers", item, None, None)

    def remove(self, instance_id: int) -> None:
        self.members.pop(instance_id, None)
        placed = self.placement.pop(instance_id, None)
        if placed is None or placed[0] is None:
            return
        target = getattr(self, placed[0])
        position = bisect_left(target, placed[1])
        if position < len(target) and target[position] == placed[1]:
            del target[position]

    def probe_into(self, value: Value, out: Dict[int, QueryInstance]) -> None:
        """Add every entry whose interval contains ``value`` to ``out``."""
        key = SortKey(value)
        for item in self.uppers[bisect_left(self.uppers, (key, 0, _SEQ_INF)) :]:
            out[item[3]] = self.members[item[3]]
        for item in self.lowers[: bisect_left(self.lowers, (key, 1))]:
            out[item[3]] = self.members[item[3]]
        for item in self.bounded[: bisect_left(self.bounded, (key, 1))]:
            iid = item[3]
            high, high_incl = self.placement[iid][2:]
            order = sql_compare(value, high)
            if order is not None and (order < 0 or (order == 0 and high_incl)):
                out[iid] = self.members[iid]


class _TableIndex:
    """All index structures for one base table."""

    __slots__ = (
        "entries",
        "by_type",
        "residuals",
        "static_ids",
        "hash_cols",
        "interval_cols",
        "null_cols",
    )

    def __init__(self) -> None:
        self.entries: Dict[int, _Entry] = {}
        #: type_id → [QueryType, live instance count] — lets callers
        #: account for pruned pairs per type without touching instances.
        self.by_type: Dict[int, list] = {}
        self.residuals: Dict[int, QueryInstance] = {}
        #: Instance ids parked by a conflict-matrix whole-table proof.
        self.static_ids: Set[int] = set()
        self.hash_cols: Dict[str, _HashColumn] = {}
        self.interval_cols: Dict[str, _IntervalColumn] = {}
        self.null_cols: Dict[str, _NullColumn] = {}

    def add(self, entry: _Entry) -> None:
        instance = entry.instance
        self.entries[instance.instance_id] = entry
        tally = self.by_type.setdefault(
            instance.query_type.type_id, [instance.query_type, 0]
        )
        tally[1] += 1
        if entry.mode == "residual":
            self.residuals[instance.instance_id] = instance
        elif entry.mode == "hash":
            self.hash_cols.setdefault(entry.column, _HashColumn()).add(
                instance, entry.payload
            )
        elif entry.mode == "interval":
            self.interval_cols.setdefault(entry.column, _IntervalColumn()).add(
                instance, entry.payload
            )
        elif entry.mode == "isnull":
            self.null_cols.setdefault(entry.column, _NullColumn()).add(
                instance, entry.payload
            )
        elif entry.mode == "static":
            self.static_ids.add(instance.instance_id)
        # "never"/"static" entries live only in entries/by_type (plus the
        # static id set): always pruned.

    def remove(self, instance_id: int) -> Optional[_Entry]:
        entry = self.entries.pop(instance_id, None)
        if entry is None:
            return None
        type_id = entry.instance.query_type.type_id
        tally = self.by_type.get(type_id)
        if tally is not None:
            tally[1] -= 1
            if tally[1] <= 0:
                del self.by_type[type_id]
        if entry.mode == "residual":
            self.residuals.pop(instance_id, None)
        elif entry.mode == "hash":
            self.hash_cols[entry.column].remove(instance_id)
        elif entry.mode == "interval":
            self.interval_cols[entry.column].remove(instance_id)
        elif entry.mode == "isnull":
            self.null_cols[entry.column].remove(instance_id)
        elif entry.mode == "static":
            self.static_ids.discard(instance_id)
        return entry


class PredicateIndex(RegistryListener):
    """Update → candidate-instance index over a query registry.

    Args:
        analysis_for: optional shared ``QueryType → TypeAnalysis``
            provider (e.g. ``GroupedChecker.analysis_for``) so type
            decompositions are computed once per process, not per
            consumer.
        conflict: optional
            :class:`~repro.core.invalidator.conflict.ConflictMatrix`.
            When it proves an instance disjoint from *every* possible
            record of a table (``index_drop``), the instance is parked
            in a never-matching entry instead of any probe structure.
    """

    def __init__(self, analysis_for=None, conflict=None) -> None:
        self._tables: Dict[str, _TableIndex] = {}
        self._analyses: Dict[int, TypeAnalysis] = {}
        self._analysis_for = analysis_for or self._own_analysis
        self._conflict = conflict
        # Live composition counters, per (instance, table) entry.
        self.entries_indexed = 0
        self.entries_residual = 0
        self.entries_never = 0
        self.entries_static = 0
        # Probe counters.
        self.probes = 0
        self.probe_seconds = 0.0
        self.candidates_returned = 0
        self.pairs_pruned = 0

    # -- registry listener protocol ------------------------------------------

    def attach_to(self, registry: QueryTypeRegistry) -> "PredicateIndex":
        """Subscribe to ``registry`` and index its existing instances."""
        registry.add_listener(self)
        for instance in registry.instances():
            self.instance_registered(instance)
        return self

    def instance_registered(self, instance: QueryInstance) -> None:
        analysis = self._analysis_for(instance.query_type)
        for table in instance.query_type.tables:
            entry = self._classify(instance, analysis, table)
            self._tables.setdefault(table, _TableIndex()).add(entry)
            if entry.mode == "residual":
                self.entries_residual += 1
            elif entry.mode == "never":
                self.entries_never += 1
            elif entry.mode == "static":
                self.entries_static += 1
            else:
                self.entries_indexed += 1

    def instance_dropped(self, instance: QueryInstance) -> None:
        for table in instance.query_type.tables:
            table_index = self._tables.get(table)
            if table_index is None:
                continue
            entry = table_index.remove(instance.instance_id)
            if entry is None:
                continue
            if entry.mode == "residual":
                self.entries_residual -= 1
            elif entry.mode == "never":
                self.entries_never -= 1
            elif entry.mode == "static":
                self.entries_static -= 1
            else:
                self.entries_indexed -= 1

    # -- probing --------------------------------------------------------------

    def probe(self, table: str, record: UpdateRecord) -> ProbeResult:
        """Candidate instances for one changed tuple of ``table``.

        Cost is O(indexed columns · log n + candidates); every instance
        outside the result is provably UNAFFECTED by ``record``.
        """
        started = time.perf_counter()
        table_index = self._tables.get(table.lower())
        if table_index is None:
            self.probes += 1
            self.probe_seconds += time.perf_counter() - started
            return ProbeResult(table, [], set(), 0)
        tuple_values = record.as_dict()
        found: Dict[int, QueryInstance] = dict(table_index.residuals)
        for column, hash_column in table_index.hash_cols.items():
            if column not in tuple_values:
                found.update(hash_column.members)
                continue
            value = tuple_values[column]
            if value is None:
                continue  # NULL equals nothing: every entry pruned
            bucket = hash_column.by_value.get(value)
            if bucket:
                found.update(bucket)
        for column, interval_column in table_index.interval_cols.items():
            if column not in tuple_values:
                found.update(interval_column.members)
                continue
            value = tuple_values[column]
            if value is None:
                continue  # NULL is inside no interval
            interval_column.probe_into(value, found)
        for column, null_column in table_index.null_cols.items():
            if column not in tuple_values:
                found.update(null_column.members)
            elif tuple_values[column] is None:
                found.update(null_column.null_entries)
            else:
                found.update(null_column.notnull_entries)
        candidates = sorted(found.values(), key=lambda i: i.instance_id)
        pruned = len(table_index.entries) - len(candidates)
        self.probes += 1
        self.candidates_returned += len(candidates)
        self.pairs_pruned += pruned
        self.probe_seconds += time.perf_counter() - started
        return ProbeResult(table, candidates, set(found), pruned)

    def table_type_counts(self, table: str) -> Dict[int, list]:
        """Live ``type_id → [QueryType, count]`` view for one table."""
        table_index = self._tables.get(table.lower())
        return table_index.by_type if table_index is not None else {}

    def statically_dropped_ids(self, table: str) -> Set[int]:
        """Instance ids parked by conflict-matrix whole-table proofs."""
        table_index = self._tables.get(table.lower())
        return table_index.static_ids if table_index is not None else set()

    def registered(self, table: str) -> int:
        """Live instance count currently indexed under ``table``."""
        table_index = self._tables.get(table.lower())
        return len(table_index.entries) if table_index is not None else 0

    def stats(self) -> Dict[str, object]:
        return {
            "tables": len(self._tables),
            "entries_indexed": self.entries_indexed,
            "entries_residual": self.entries_residual,
            "entries_never": self.entries_never,
            "entries_static": self.entries_static,
            "probes": self.probes,
            "probe_time_ms": round(1000.0 * self.probe_seconds, 3),
            "candidates_returned": self.candidates_returned,
            "pairs_pruned": self.pairs_pruned,
        }

    # -- classification --------------------------------------------------------

    def _own_analysis(self, query_type: QueryType) -> TypeAnalysis:
        analysis = self._analyses.get(query_type.type_id)
        if analysis is None:
            analysis = TypeAnalysis.of(query_type)
            self._analyses[query_type.type_id] = analysis
        return analysis

    def _classify(
        self, instance: QueryInstance, analysis: TypeAnalysis, table: str
    ) -> _Entry:
        """Pick the entry mode for (instance, table), mirroring the
        grouped checker's decision ladder so pruning can never contradict
        a verdict."""
        safety = instance.query_type.safety
        if safety is not None and safety.verdict not in (
            SafetyVerdict.SAFE,
            SafetyVerdict.VERSION_KEY,
        ):
            # Safety enforcement replaces the precise analysis for this
            # type; the instance must surface as a candidate for every
            # record so enforcement runs identically on both paths.
            # VERSION_KEY types stay index-eligible: their fast path only
            # ever *skips* checker work, so pruning a pair the counter
            # would also have skipped cannot change a verdict.
            return _Entry(instance, "residual")
        if analysis.is_union or analysis.has_left_join:
            return _Entry(instance, "residual")
        if table not in set(analysis.aliases.values()):
            return _Entry(instance, "residual")  # subquery-only: conservative
        bindings = [
            binding for binding, base in analysis.aliases.items() if base == table
        ]
        if len(bindings) != 1:
            # Self-join: UNAFFECTED requires *every* occurrence to fail a
            # local conjunct; one probe structure cannot prove that.
            return _Entry(instance, "residual")
        binding_analysis = analysis.by_binding[bindings[0]]
        # Checker parity: when any template of this binding is unbindable
        # the grouped checker abandons local pruning for the instance
        # (conservative AFFECTED path), so the index must not prune either.
        try:
            for template in binding_analysis.local_templates:
                bind_expression(template, instance.bindings)
            for template in binding_analysis.residual_templates:
                bind_expression(template, instance.bindings)
        except ReproError:
            return _Entry(instance, "residual")
        for template in analysis.constant_templates:
            if self._constant(template, instance.bindings) is False:
                return _Entry(instance, "never")
        if self._conflict is not None and self._conflict.index_drop(
            instance, table
        ):
            # The conflict matrix proved this instance disjoint from
            # every record the table can ever log: no probe structure
            # needed, the entry only participates in bulk accounting.
            return _Entry(instance, "static")
        for conjunct in binding_analysis.indexable_templates:
            entry = self._build_entry(instance, conjunct)
            if entry is not None:
                return entry
        return _Entry(instance, "residual")

    def _build_entry(
        self, instance: QueryInstance, conjunct: IndexableConjunct
    ) -> Optional[_Entry]:
        """Fold the conjunct's bound value side(s) into an index entry, or
        None when the values do not reduce to constants."""
        template = conjunct.template
        if conjunct.kind == "isnull":
            return _Entry(instance, "isnull", conjunct.column, conjunct.negated)
        if conjunct.kind == "in":
            keys = []
            for item in template.items:
                value = self._constant(item, instance.bindings)
                if value is _UNEVALUABLE:
                    return None
                keys.append(value)
            return _Entry(instance, "hash", conjunct.column, tuple(keys))
        if isinstance(template, ast.Between):
            low = self._constant(template.low, instance.bindings)
            high = self._constant(template.high, instance.bindings)
            if low is _UNEVALUABLE or high is _UNEVALUABLE:
                return None
            spec = (low, True, high, True, True, True)
            return _Entry(instance, "interval", conjunct.column, spec)
        # Binary comparison; conjunct.op is normalized (column on the left),
        # but the template keeps its original orientation.
        left_is_column = isinstance(template.left, ast.ColumnRef)
        value_side = template.right if left_is_column else template.left
        bound = self._constant(value_side, instance.bindings)
        if bound is _UNEVALUABLE:
            return None
        if conjunct.kind == "eq":
            return _Entry(instance, "hash", conjunct.column, (bound,))
        op = conjunct.op
        if op is ast.BinaryOp.LT:
            spec = (None, False, bound, False, False, True)
        elif op is ast.BinaryOp.LE:
            spec = (None, False, bound, True, False, True)
        elif op is ast.BinaryOp.GT:
            spec = (bound, False, None, False, True, False)
        else:  # GE
            spec = (bound, True, None, False, True, False)
        return _Entry(instance, "interval", conjunct.column, spec)

    def _constant(self, expr: ast.Expr, bindings: Tuple[Value, ...]):
        """Bind and fold a column-free expression to a constant, or
        :data:`_UNEVALUABLE` (mirrors the checker's skip-on-error)."""
        try:
            bound = bind_expression(expr, bindings)
            return evaluate(bound, (), _EMPTY_SCOPE)
        except ReproError:
            return _UNEVALUABLE
