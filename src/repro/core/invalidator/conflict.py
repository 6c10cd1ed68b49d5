"""Static (query-template × update-class) conflict matrix.

Every runtime layer below this one — the §4 independence checker, the
predicate index, the version-key counters — decides freshness per
(instance, update) pair *at runtime*.  A large share of those pairs is
decidable once, statically: if the conjunctive conditions a query
template places on table R cannot be satisfied together with the
predicate class of an update, no binding of either can ever conflict.

:class:`ConflictMatrix` holds that analysis.  Updates are grouped into
:class:`UpdateClass` rows — per-table defaults (``car/insert``,
``car/delete``: every change of that kind) plus optionally declared
refinements (``car/insert WHERE price >= 30000``).  For each (query
type, update class) cell it asks the satisfiability engine
(:mod:`repro.sql.satisfiability`) for a three-valued verdict:

``DISJOINT``
    proved: no row can satisfy both predicates.  The verdict carries a
    certificate, re-validated by the independent checker before it is
    ever cached — a proof that fails verification degrades to UNKNOWN.
``MAY_OVERLAP``
    the recognized regions genuinely intersect;
``UNKNOWN``
    the analysis was incomplete (parameters on the decisive column,
    disjunctions, guards).  Treated exactly like MAY_OVERLAP.

Because templates are fully parameterized, most template-level cells
resolve only through nullness or parameter unification; the workhorse is
the *instance-level refinement*: with an instance's bindings substituted
the same conjuncts become constant intervals, and the cell is re-decided
per instance (cached, invalidated on drop).

Runtime contract — *eject parity*, not just staleness-safety: a skip is
only served when the runtime checker would itself have returned
UNAFFECTED for the pair, so enabling the matrix never changes which
pages get ejected.  This is enforced by construction:

* extraction uses exactly the conjuncts the grouped checker evaluates
  locally (same binding scope — base-table qualifiers under an alias
  stay opaque);
* types under POLL_ONLY / ALWAYS_EJECT enforcement, unions, LEFT JOINs,
  subquery-referenced tables and unbindable instances are ineligible
  (the checker is conservative there, so must we be);
* a skip requires every column the certificate cites to be present in
  the changed tuple (the checker skips unevaluable conjuncts, so a
  proof resting on an absent column could diverge);
* a record only joins a *constrained* class when its constraint atoms
  evaluate strictly true on the tuple — uncertain membership means no
  skip.

Consistency: the matrix implements the
:class:`~repro.core.invalidator.registration.RegistryListener` protocol.
Attach it to a registry and instance proofs follow discovery and
eviction; checkpoint restore replays registration, after which
:meth:`compare_cells` recomputes every persisted cell and reports any
verdict drift (a stale matrix can never survive a code change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import RegistrationError, ReproError
from repro.db.log import UpdateRecord
from repro.sql import ast
from repro.sql.parser import parse_expression
from repro.sql.satisfiability import (
    Atom,
    Decision,
    Extraction,
    Verdict,
    _compare,
    check_disjoint,
    extract,
    scoped_resolver,
    verify_certificate,
)
from repro.core.invalidator.grouping import TypeAnalysis
from repro.core.invalidator.registration import (
    QueryInstance,
    QueryType,
    QueryTypeRegistry,
    RegistryListener,
)
from repro.core.invalidator.safety import SafetyVerdict

#: Change kinds an update class may be restricted to.
_KINDS = ("insert", "delete")


@dataclass(frozen=True)
class UpdateClass:
    """One update predicate class: a named, conjunctive region of
    changes to one table, optionally restricted to one change kind."""

    name: str
    table: str
    kind: Optional[str]  # "insert" | "delete" | None (both)
    where: str  # declared constraint SQL ("" = unconstrained)
    atoms: Tuple[Atom, ...]
    default: bool = False

    def matches(self, record: UpdateRecord) -> bool:
        """Strict membership: kind matches and every constraint atom
        evaluates true on the tuple.  Uncertain (NULL, missing column)
        means *not* a member — the sound direction, since membership is
        what licenses skipping the runtime check."""
        if self.kind is not None and record.kind.value != self.kind:
            return False
        if not self.atoms:
            return True
        values = record.as_dict()
        return all(_atom_true(atom, values) for atom in self.atoms)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "table": self.table,
            "kind": self.kind,
            "where": self.where,
            "default": self.default,
        }


def _atom_true(atom: Atom, values: Dict[str, object]) -> bool:
    if atom.op == "false" or atom.op == "eqparam":
        return False
    if atom.column not in values:
        return False
    value = values[atom.column]
    if atom.op == "isnull":
        return value is None
    if atom.op == "notnull":
        return value is not None
    if value is None:
        return False  # three-valued logic: NULL satisfies no comparison
    if atom.op == "in":
        members = atom.value if isinstance(atom.value, tuple) else ()
        return any(_compare(value, member) == 0 for member in members)  # type: ignore[arg-type]
    if isinstance(atom.value, tuple):
        return False  # malformed: list payload on a scalar operator
    order = _compare(value, atom.value)  # type: ignore[arg-type]
    if order is None:
        return False
    if atom.op == "eq":
        return order == 0
    if atom.op == "lt":
        return order < 0
    if atom.op == "le":
        return order <= 0
    if atom.op == "gt":
        return order > 0
    if atom.op == "ge":
        return order >= 0
    return False


@dataclass
class Cell:
    """One decided (query type, update class) template-level cell."""

    verdict: Verdict
    reason: str
    #: Per-binding certificates backing a DISJOINT verdict.
    certificates: List[Dict[str, object]] = field(default_factory=list)
    #: Columns a changed tuple must carry for a skip to be served.
    columns_required: FrozenSet[str] = frozenset()

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict.value,
            "reason": self.reason,
            "certificates": self.certificates,
        }


@dataclass
class _InstanceProof:
    """An instance-level DISJOINT refinement of a non-disjoint cell."""

    certificates: List[Dict[str, object]]
    columns_required: FrozenSet[str]


def _split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op is ast.BinaryOp.AND:
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


class ConflictMatrix(RegistryListener):
    """Registration-time disjointness classification, queried per pair.

    Args:
        analysis_for: optional shared ``QueryType → TypeAnalysis``
            provider (e.g. ``GroupedChecker.analysis_for``) so type
            decompositions are computed once per process.
        columns_of: optional ``table → column names`` schema accessor.
            Required only for :meth:`index_drop` — a predicate-index
            drop must hold for *every* future record, which is only
            provable when the cited columns are known to be part of the
            table's full row image.
    """

    def __init__(
        self,
        analysis_for: Optional[Callable[[QueryType], TypeAnalysis]] = None,
        columns_of: Optional[Callable[[str], Optional[List[str]]]] = None,
    ) -> None:
        self._analysis_for = analysis_for or self._own_analysis
        self._columns_of = columns_of
        self._analyses: Dict[int, TypeAnalysis] = {}
        self._classes: Dict[str, UpdateClass] = {}
        self._classes_by_table: Dict[str, Dict[str, UpdateClass]] = {}
        self._cells: Dict[Tuple[int, str], Cell] = {}
        #: class name → instance_id → proof (None: tried, no proof).
        self._instance_proofs: Dict[str, Dict[int, Optional[_InstanceProof]]] = {}
        #: instance_id → class-name tuple → skip candidates, hottest
        #: cache in the runtime path: one cycle asks the same
        #: (instance, class set) question once per update record.
        self._skip_memo: Dict[
            int, Dict[Tuple[str, ...], List[Tuple[str, FrozenSet[str]]]]
        ] = {}
        self._instance_extractions: Dict[int, Optional[Dict[str, Extraction]]] = {}
        self._template_extractions: Dict[int, Dict[str, Extraction]] = {}
        self._constant_false: Set[int] = set()
        self._types_seen: Dict[int, QueryType] = {}
        # Proof/bookkeeping counters (consumer-side skips are counted by
        # the consumers themselves).
        self.cells_computed = 0
        self.template_disjoint = 0
        self.instance_proofs_found = 0
        self.certificate_failures = 0

    # -- registry listener protocol -------------------------------------------

    def attach_to(self, registry: QueryTypeRegistry) -> "ConflictMatrix":
        """Subscribe to ``registry`` and absorb its existing instances."""
        registry.add_listener(self)
        for instance in registry.instances():
            self.instance_registered(instance)
        return self

    def instance_registered(self, instance: QueryInstance) -> None:
        self._types_seen[instance.query_type.type_id] = instance.query_type
        for table in instance.query_type.tables:
            self.ensure_table(table)
        # Eligibility and extractions are computed lazily on first
        # use; a constant-false instance (``WHERE 1 = 2`` bound) is
        # precomputed because it short-circuits every class.
        if self._instance_constant_false(instance):
            self._constant_false.add(instance.instance_id)

    def instance_dropped(self, instance: QueryInstance) -> None:
        iid = instance.instance_id
        self._constant_false.discard(iid)
        self._instance_extractions.pop(iid, None)
        self._skip_memo.pop(iid, None)
        for proofs in self._instance_proofs.values():
            proofs.pop(iid, None)

    # -- update classes --------------------------------------------------------

    def ensure_table(self, table: str) -> None:
        """Make sure the per-kind default classes for ``table`` exist."""
        key = table.lower()
        if key in self._classes_by_table:
            return
        self._classes_by_table[key] = {}
        for kind in _KINDS:
            name = f"{key}/{kind}"
            cls = UpdateClass(
                name=name,
                table=key,
                kind=kind,
                where="",
                atoms=(),
                default=True,
            )
            self._classes[name] = cls
            self._classes_by_table[key][name] = cls

    def declare_class(
        self,
        name: str,
        table: str,
        kind: Optional[str] = None,
        where: str = "",
    ) -> UpdateClass:
        """Declare a refined update class.

        The constraint must be a conjunction the satisfiability engine
        represents *exactly* (per-column constants, IN-lists, IS [NOT]
        NULL); anything lossier is rejected, because class membership is
        what licenses skipping runtime checks.
        """
        key = table.lower()
        if kind is not None and kind not in _KINDS:
            raise RegistrationError(
                f"unknown update-class kind {kind!r} (expected insert/delete)"
            )
        atoms: Tuple[Atom, ...] = ()
        if where.strip():
            try:
                constraint = parse_expression(where)
            except ReproError as exc:
                raise RegistrationError(
                    f"unparseable update-class constraint {where!r}: {exc}"
                ) from exc
            extraction = extract(
                _split_conjuncts(constraint),
                bindings=(),
                resolve=scoped_resolver(key),
            )
            if not extraction.complete or any(
                atom.op == "eqparam" for atom in extraction.atoms
            ):
                raise RegistrationError(
                    "update-class constraints must be exact conjunctions of "
                    "per-column constants, IN-lists, and IS [NOT] NULL tests: "
                    f"{where!r}"
                )
            atoms = tuple(extraction.atoms)
        self.ensure_table(key)
        existing = self._classes.get(name)
        if existing is not None:
            if (existing.table, existing.kind, existing.where) == (
                key,
                kind,
                where,
            ):
                return existing
            raise RegistrationError(f"update class {name!r} already declared")
        cls = UpdateClass(
            name=name, table=key, kind=kind, where=where, atoms=atoms
        )
        self._classes[name] = cls
        self._classes_by_table[key][name] = cls
        return cls

    def classes(self) -> List[UpdateClass]:
        return list(self._classes.values())

    def classes_for_table(self, table: str) -> List[UpdateClass]:
        self.ensure_table(table)
        return list(self._classes_by_table[table.lower()].values())

    def classes_for_record(self, record: UpdateRecord) -> List[str]:
        """Names of every class the changed tuple provably belongs to."""
        self.ensure_table(record.table)
        return [
            cls.name
            for cls in self._classes_by_table[record.table].values()
            if cls.matches(record)
        ]

    # -- cells -----------------------------------------------------------------

    def cell(self, query_type: QueryType, class_name: str) -> Cell:
        """The template-level cell for (``query_type``, class)."""
        update_class = self._classes[class_name]
        key = (query_type.type_id, class_name)
        cached = self._cells.get(key)
        if cached is None:
            cached = self._compute_cell(query_type, update_class)
            self._cells[key] = cached
            self._types_seen[query_type.type_id] = query_type
            self.cells_computed += 1
            if cached.verdict is Verdict.DISJOINT:
                self.template_disjoint += 1
        return cached

    def _own_analysis(self, query_type: QueryType) -> TypeAnalysis:
        analysis = self._analyses.get(query_type.type_id)
        if analysis is None:
            analysis = TypeAnalysis.of(query_type)
            self._analyses[query_type.type_id] = analysis
        return analysis

    def _type_guard(self, query_type: QueryType) -> Optional[str]:
        """Reason this type is ineligible for static verdicts, or None.

        Mirrors the conservative branches of the grouped checker and the
        predicate index: wherever they refuse to prove UNAFFECTED, a
        static skip could change which pages get ejected.
        """
        safety = query_type.safety
        if safety is not None and safety.verdict not in (
            SafetyVerdict.SAFE,
            SafetyVerdict.VERSION_KEY,
        ):
            return f"safety-enforced ({safety.verdict.name})"
        analysis = self._analysis_for(query_type)
        if analysis.is_union:
            return "union: coarse analysis"
        if analysis.has_left_join:
            return "left join: null extension"
        return None

    def _bindings_for(self, query_type: QueryType, table: str) -> List[str]:
        analysis = self._analysis_for(query_type)
        return [
            binding
            for binding, base in analysis.aliases.items()
            if base == table
        ]

    def _template_extraction(
        self, query_type: QueryType, binding: str
    ) -> Extraction:
        per_binding = self._template_extractions.setdefault(
            query_type.type_id, {}
        )
        extraction = per_binding.get(binding)
        if extraction is None:
            analysis = self._analysis_for(query_type)
            extraction = extract(
                analysis.by_binding[binding].local_templates,
                bindings=None,
                resolve=scoped_resolver(binding),
            )
            per_binding[binding] = extraction
        return extraction

    def _class_extraction(self, update_class: UpdateClass) -> Extraction:
        extraction = Extraction()
        for atom in update_class.atoms:
            extraction.add(atom, None)
        return extraction

    def _compute_cell(
        self, query_type: QueryType, update_class: UpdateClass
    ) -> Cell:
        guard = self._type_guard(query_type)
        if guard is not None:
            return Cell(Verdict.UNKNOWN, guard)
        if update_class.table not in query_type.tables:
            return Cell(Verdict.UNKNOWN, "table not referenced by template")
        bindings = self._bindings_for(query_type, update_class.table)
        if not bindings:
            return Cell(Verdict.UNKNOWN, "table referenced via subquery only")
        class_side = self._class_extraction(update_class)
        decisions: List[Decision] = []
        for binding in bindings:
            extraction = self._template_extraction(query_type, binding)
            decision = check_disjoint(extraction, class_side)
            if decision.verdict is not Verdict.DISJOINT:
                return Cell(
                    decision.verdict,
                    f"{binding}: {decision.reason}" if decision.reason else "",
                )
            assert decision.certificate is not None
            errors = verify_certificate(
                decision.certificate, extraction.atoms, list(update_class.atoms)
            )
            if errors:
                self.certificate_failures += 1
                return Cell(
                    Verdict.UNKNOWN,
                    f"certificate rejected: {errors[0]}",
                )
            decisions.append(decision)
        certificates = [d.certificate for d in decisions if d.certificate]
        return Cell(
            Verdict.DISJOINT,
            "; ".join(d.reason for d in decisions if d.reason),
            certificates,
            _required_columns(certificates),
        )

    # -- instance-level refinement --------------------------------------------

    def _instance_constant_false(self, instance: QueryInstance) -> bool:
        """True when some query-wide constant condition folds to False
        for this instance's bindings — the checker then answers
        UNAFFECTED for every record, so every class is skippable."""
        if self._type_guard(instance.query_type) is not None:
            return False
        analysis = self._analysis_for(instance.query_type)
        from repro.sql.satisfiability import _fold_constant

        for template in analysis.constant_templates:
            if _fold_constant(template, instance.bindings) is False:
                return True
        return False

    def _instance_extraction(
        self, instance: QueryInstance
    ) -> Optional[Dict[str, Extraction]]:
        """Per-binding extraction with the instance's bindings folded
        in, or None when the instance is ineligible (guards fire or the
        templates do not bind — the checker is conservative there)."""
        iid = instance.instance_id
        if iid in self._instance_extractions:
            return self._instance_extractions[iid]
        result: Optional[Dict[str, Extraction]] = None
        if self._type_guard(instance.query_type) is None:
            analysis = self._analysis_for(instance.query_type)
            from repro.sql.params import bind_expression

            try:
                for binding_analysis in analysis.by_binding.values():
                    for template in binding_analysis.local_templates:
                        bind_expression(template, instance.bindings)
                    for template in binding_analysis.residual_templates:
                        bind_expression(template, instance.bindings)
            except ReproError:
                result = None  # unbindable: checker returns AFFECTED
            else:
                result = {
                    binding: extract(
                        binding_analysis.local_templates,
                        bindings=instance.bindings,
                        resolve=scoped_resolver(binding),
                    )
                    for binding, binding_analysis in analysis.by_binding.items()
                }
        self._instance_extractions[iid] = result
        return result

    def _instance_proof(
        self, instance: QueryInstance, class_name: str
    ) -> Optional[_InstanceProof]:
        proofs = self._instance_proofs.setdefault(class_name, {})
        iid = instance.instance_id
        if iid in proofs:
            return proofs[iid]
        proof = self._compute_instance_proof(instance, self._classes[class_name])
        proofs[iid] = proof
        if proof is not None:
            self.instance_proofs_found += 1
        return proof

    def _compute_instance_proof(
        self, instance: QueryInstance, update_class: UpdateClass
    ) -> Optional[_InstanceProof]:
        extractions = self._instance_extraction(instance)
        if extractions is None:
            return None
        bindings = self._bindings_for(instance.query_type, update_class.table)
        if not bindings:
            return None
        class_side = self._class_extraction(update_class)
        certificates: List[Dict[str, object]] = []
        for binding in bindings:
            extraction = extractions[binding]
            decision = check_disjoint(extraction, class_side)
            if decision.verdict is not Verdict.DISJOINT:
                return None
            assert decision.certificate is not None
            errors = verify_certificate(
                decision.certificate, extraction.atoms, list(update_class.atoms)
            )
            if errors:
                self.certificate_failures += 1
                return None
            certificates.append(decision.certificate)
        return _InstanceProof(certificates, _required_columns(certificates))

    # -- runtime queries -------------------------------------------------------

    def skip_level(
        self,
        instance: QueryInstance,
        record_columns: Set[str],
        class_names: Sequence[str],
    ) -> Optional[str]:
        """Skip justification for one (instance, changed tuple) pair.

        ``class_names`` must be the classes the tuple *provably belongs
        to* (:meth:`classes_for_record`).  Returns ``"template"`` when a
        template-level cell decides the pair, ``"instance"`` for an
        instance-level refinement, or None — serve the runtime check.

        Proof lookups are memoized per (instance, class set): cells and
        instance proofs never change once computed, so only the
        per-record column guard is re-evaluated pair by pair.
        """
        iid = instance.instance_id
        if iid in self._constant_false:
            return "instance"
        key = tuple(class_names)
        per_instance = self._skip_memo.setdefault(iid, {})
        candidates = per_instance.get(key)
        if candidates is None:
            candidates = self._skip_candidates(instance, class_names)
            per_instance[key] = candidates
        for level, required in candidates:
            if required <= record_columns:
                return level
        return None

    def _skip_candidates(
        self, instance: QueryInstance, class_names: Sequence[str]
    ) -> List[Tuple[str, FrozenSet[str]]]:
        """Every proof that could decide (``instance``, one of these
        classes), template-level first, each with its column guard."""
        query_type = instance.query_type
        template_level: List[Tuple[str, FrozenSet[str]]] = []
        instance_level: List[Tuple[str, FrozenSet[str]]] = []
        for name in class_names:
            cell = self.cell(query_type, name)
            if (
                cell.verdict is Verdict.DISJOINT
                # Template cells hold for every binding; instances
                # still must be bindable for checker parity.
                and self._instance_extraction(instance) is not None
            ):
                template_level.append(("template", cell.columns_required))
            proof = self._instance_proof(instance, name)
            if proof is not None:
                instance_level.append(("instance", proof.columns_required))
        return template_level + instance_level

    def instance_certificates(
        self, instance: QueryInstance, class_name: str
    ) -> Optional[List[Dict[str, object]]]:
        """Certificates of the instance-level disjointness proof for
        (``instance``, class), or None when no proof exists.  Used by
        ``repro analyze`` for per-cell provenance."""
        proof = self._instance_proof(instance, class_name)
        return None if proof is None else list(proof.certificates)

    def index_drop(self, instance: QueryInstance, table: str) -> bool:
        """True when ``instance`` is provably unaffected by *any* record
        of ``table`` — the predicate index may then park it in a
        never-matching entry.

        Requires schema knowledge: the proof's cited columns must be
        part of the table's full row image (every logged record carries
        all schema columns).  Refined classes only ever narrow the
        defaults, so disjointness against both per-kind defaults covers
        every future record and stays monotone under later
        ``declare_class`` calls.
        """
        if instance.instance_id in self._constant_false:
            return True
        if self._columns_of is None:
            return False
        columns = self._columns_of(table)
        if columns is None:
            return False
        available = {column.lower() for column in columns}
        self.ensure_table(table)
        for kind in _KINDS:
            name = f"{table.lower()}/{kind}"
            cell = self.cell(instance.query_type, name)
            if (
                cell.verdict is Verdict.DISJOINT
                and cell.columns_required <= available
                and self._instance_extraction(instance) is not None
            ):
                continue
            proof = self._instance_proof(instance, name)
            if proof is not None and proof.columns_required <= available:
                continue
            return False
        return True

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-compatible dump: declared classes plus every computed
        template-level cell verdict (keyed by type signature)."""
        classes = [
            cls.to_dict() for cls in self._classes.values() if not cls.default
        ]
        cells = []
        for (type_id, class_name), cell in sorted(self._cells.items()):
            query_type = self._types_seen.get(type_id)
            if query_type is None:
                continue
            cells.append(
                {
                    "signature": query_type.signature,
                    "class": class_name,
                    "verdict": cell.verdict.value,
                }
            )
        return {"classes": classes, "cells": cells}

    def restore_classes(self, state: Dict[str, object]) -> int:
        """Re-declare the snapshot's refined classes (before registry
        replay, so instance proofs see them).  Returns the count."""
        restored = 0
        for spec in state.get("classes", []):  # type: ignore[union-attr]
            if not isinstance(spec, dict):
                continue
            kind = spec.get("kind")
            self.declare_class(
                str(spec["name"]),
                str(spec["table"]),
                str(kind) if kind is not None else None,
                str(spec.get("where", "")),
            )
            restored += 1
        return restored

    def compare_cells(
        self, state: Dict[str, object], registry: QueryTypeRegistry
    ) -> Dict[str, int]:
        """Recompute every persisted cell and report drift.

        The recomputed verdict always wins — the snapshot's copy is
        never trusted (the decision procedure may have changed since the
        checkpoint).  Returns ``{"compared", "mismatches", "stale"}``;
        stale entries name types or classes that no longer exist.
        """
        types_by_signature = {
            query_type.signature: query_type for query_type in registry.types()
        }
        compared = mismatches = stale = 0
        for spec in state.get("cells", []):  # type: ignore[union-attr]
            if not isinstance(spec, dict):
                stale += 1
                continue
            query_type = types_by_signature.get(str(spec.get("signature")))
            class_name = str(spec.get("class"))
            known = class_name in self._classes
            if query_type is None or not known:
                stale += 1
                continue
            compared += 1
            recomputed = self.cell(query_type, class_name)
            if recomputed.verdict.value != spec.get("verdict"):
                mismatches += 1
        return {"compared": compared, "mismatches": mismatches, "stale": stale}

    def stats(self) -> Dict[str, object]:
        instance_proofs = sum(
            1
            for proofs in self._instance_proofs.values()
            for proof in proofs.values()
            if proof is not None
        )
        return {
            "classes": len(self._classes),
            "cells_computed": self.cells_computed,
            "template_disjoint": self.template_disjoint,
            "instance_disjoint_proofs": instance_proofs,
            "constant_false_instances": len(self._constant_false),
            "certificate_failures": self.certificate_failures,
        }


def _required_columns(
    certificates: Sequence[Dict[str, object]]
) -> FrozenSet[str]:
    """Columns a changed tuple must carry for the cited proofs to match
    what the runtime checker would conclude."""
    required: Set[str] = set()
    for certificate in certificates:
        for side in ("query_atoms", "update_atoms"):
            atoms = certificate.get(side)
            if not isinstance(atoms, list):
                continue
            for entry in atoms:
                if isinstance(entry, dict):
                    column = entry.get("column")
                    if isinstance(column, str) and column:
                        required.add(column)
    return frozenset(required)
