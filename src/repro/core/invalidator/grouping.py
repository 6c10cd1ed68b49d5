"""Type-level grouped independence checking (paper §4.1.2).

*"Since the number of query types and instances to be maintained can be
large, instead of treating each query instance individually, the
invalidator finds the related instances and process them as a group."*

The plain :class:`~repro.core.invalidator.analysis.IndependenceChecker`
re-derives the alias map and re-classifies every WHERE conjunct for every
(instance, update) pair.  All of that structure is a property of the
*query type*: instances differ only in their parameter bindings.  This
module performs the structural analysis once per type
(:class:`TypeAnalysis`) and reduces the per-instance work to binding
parameters into pre-classified conjunct templates.

:class:`GroupedChecker` produces verdicts identical to the per-instance
checker (tested property), at a fraction of the cost when many instances
share a type — the common case for servlet-generated queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import DatabaseError, ReproError
from repro.sql import ast
from repro.sql.analysis import all_conditions, alias_map, conjoin, has_left_join
from repro.sql.params import Value, bind_expression
from repro.sql.printer import to_sql
from repro.db.expr import Scope, evaluate
from repro.db.log import UpdateRecord
from repro.core.invalidator.analysis import (
    IndependenceChecker,
    Verdict,
    VerdictKind,
    _ValueSubstituter,
)
from repro.core.invalidator.registration import (
    QueryInstance,
    QueryType,
    RegistryListener,
)


@dataclass(frozen=True)
class IndexableConjunct:
    """One local conjunct template the predicate index can turn into a
    probe structure.

    Kinds (``column`` is the tuple column the probe reads):

    * ``"eq"`` — ``column = <value>``; value side is column-free.
    * ``"in"`` — ``column IN (<values>)`` (non-negated).
    * ``"range"`` — ``column <op> <value>`` for ``< <= > >=``, or
      ``column BETWEEN <low> AND <high>`` (non-negated).  ``op`` is
      normalized so the column sits on the left; for BETWEEN it is None.
    * ``"isnull"`` — ``column IS [NOT] NULL``.

    Soundness requires that the grouped checker could itself evaluate the
    conjunct against a changed tuple: the column reference is either
    unqualified (single-binding queries) or qualified by the *binding*
    name — never by a base-table name hidden behind an alias, which the
    checker's scope cannot resolve.
    """

    kind: str
    column: str
    template: ast.Expr
    op: Optional[ast.BinaryOp] = None
    negated: bool = False


#: Preference order when one instance offers several indexable conjuncts:
#: equality prunes hardest, IS NULL barely at all.
_INDEX_KIND_RANK = {"eq": 0, "in": 1, "range": 2, "isnull": 3}


@dataclass
class BindingAnalysis:
    """Pre-classified conjunct templates for one table occurrence."""

    binding: str
    base_table: str
    #: Conjuncts referencing only this binding (parameters unbound).
    local_templates: List[ast.Expr] = field(default_factory=list)
    #: Conjuncts also referencing other bindings.
    residual_templates: List[ast.Expr] = field(default_factory=list)
    #: The subset of ``local_templates`` with an index-probe shape,
    #: best-pruning kinds first (see :class:`IndexableConjunct`).
    indexable_templates: List[IndexableConjunct] = field(default_factory=list)


@dataclass
class TypeAnalysis:
    """The once-per-type structural decomposition."""

    aliases: Dict[str, str]
    has_left_join: bool
    constant_templates: List[ast.Expr]
    by_binding: Dict[str, BindingAnalysis]
    #: All referenced tables, including via subqueries and UNION parts.
    all_tables: frozenset = frozenset()
    #: Compound (UNION) templates get only table-level treatment.
    is_union: bool = False

    @classmethod
    def of(cls, query_type: QueryType) -> "TypeAnalysis":
        from repro.sql.analysis import referenced_tables

        template = query_type.template
        all_tables = frozenset(referenced_tables(template))
        if isinstance(template, ast.Union):
            return cls(
                aliases={},
                has_left_join=False,
                constant_templates=[],
                by_binding={},
                all_tables=all_tables,
                is_union=True,
            )
        aliases = alias_map(template)
        conditions = all_conditions(template)
        single_binding = len(aliases) == 1
        constant_templates: List[ast.Expr] = []
        by_binding = {
            binding: BindingAnalysis(binding, base_table)
            for binding, base_table in aliases.items()
        }
        for condition in conditions:
            referenced: Set[Optional[str]] = set()
            for node in ast.walk(condition):
                if isinstance(node, ast.ColumnRef):
                    referenced.add(node.table.lower() if node.table else None)
            if not referenced:
                constant_templates.append(condition)
                continue
            for binding, analysis in by_binding.items():
                placement = cls._placement(
                    referenced, binding, analysis.base_table, single_binding
                )
                if placement == "local":
                    analysis.local_templates.append(condition)
                elif placement == "residual":
                    analysis.residual_templates.append(condition)
        for analysis in by_binding.values():
            indexable = [
                found
                for condition in analysis.local_templates
                for found in [cls._indexable(condition, analysis.binding)]
                if found is not None
            ]
            indexable.sort(key=lambda c: _INDEX_KIND_RANK[c.kind])
            analysis.indexable_templates = indexable
        return cls(
            aliases=aliases,
            has_left_join=has_left_join(template),
            constant_templates=constant_templates,
            by_binding=by_binding,
            all_tables=all_tables,
        )

    @classmethod
    def _indexable(
        cls, condition: ast.Expr, binding: str
    ) -> Optional[IndexableConjunct]:
        """Classify one local conjunct template for the predicate index,
        or return None when it has no probe-friendly shape."""
        if isinstance(condition, ast.Binary) and condition.op in ast.COMPARISONS:
            if condition.op is ast.BinaryOp.NE:
                return None  # "everything but one value" prunes nothing
            column = cls._probe_column(condition.left, binding)
            if column is not None and cls._column_free(condition.right):
                op = condition.op
            else:
                column = cls._probe_column(condition.right, binding)
                if column is None or not cls._column_free(condition.left):
                    return None
                op = ast.FLIPPED[condition.op]
            kind = "eq" if op is ast.BinaryOp.EQ else "range"
            return IndexableConjunct(kind, column, condition, op=op)
        if isinstance(condition, ast.Between) and not condition.negated:
            column = cls._probe_column(condition.expr, binding)
            if (
                column is not None
                and cls._column_free(condition.low)
                and cls._column_free(condition.high)
            ):
                return IndexableConjunct("range", column, condition)
            return None
        if isinstance(condition, ast.InList) and not condition.negated:
            column = cls._probe_column(condition.expr, binding)
            if column is not None and all(
                cls._column_free(item) for item in condition.items
            ):
                return IndexableConjunct("in", column, condition)
            return None
        if isinstance(condition, ast.IsNull):
            column = cls._probe_column(condition.expr, binding)
            if column is not None:
                return IndexableConjunct(
                    "isnull", column, condition, negated=condition.negated
                )
        return None

    @staticmethod
    def _probe_column(expr: ast.Expr, binding: str) -> Optional[str]:
        """Lower-case column name when ``expr`` is a plain reference the
        checker's tuple scope could resolve (unqualified, or qualified by
        the binding name — not by an aliased-away base table)."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        if expr.table is not None and expr.table.lower() != binding:
            return None
        return expr.column.lower()

    @staticmethod
    def _column_free(expr: ast.Expr) -> bool:
        """True when ``expr`` references no columns (and no subqueries),
        so binding the instance's parameters makes it a constant."""
        return not any(
            isinstance(
                node, (ast.ColumnRef, ast.Exists, ast.InSelect, ast.ScalarSubquery)
            )
            for node in ast.walk(expr)
        )

    @staticmethod
    def _placement(
        referenced: Set[Optional[str]],
        binding: str,
        base_table: str,
        single_binding: bool,
    ) -> str:
        if None in referenced and not single_binding:
            return "residual"
        qualified = {name for name in referenced if name is not None}
        if qualified <= {binding, base_table}:
            return "local"
        return "residual"


class GroupedChecker(RegistryListener):
    """Independence checking with per-type analysis caching.

    Drop-in alternative to :class:`IndependenceChecker` for instances that
    carry their :class:`QueryType`.  Analyses are cached by type id for
    the checker's lifetime (types are immutable once registered).  Bound
    conditions are memoized per instance; attached to a registry as a
    listener, the checker forgets an instance when it is dropped.
    """

    def __init__(self) -> None:
        self._analyses: Dict[int, TypeAnalysis] = {}
        # Per-instance bound conditions (instance id → binding → bound
        # local and residual conditions): an instance's bindings never
        # change, so binding parameters into the templates happens once.
        self._bound: Dict[int, Dict[str, Tuple[list, Optional[list]]]] = {}
        self.analyses_computed = 0
        self.checks_performed = 0

    def instance_dropped(self, instance: QueryInstance) -> None:
        self._bound.pop(instance.instance_id, None)

    def analysis_for(self, query_type: QueryType) -> TypeAnalysis:
        analysis = self._analyses.get(query_type.type_id)
        if analysis is None:
            analysis = TypeAnalysis.of(query_type)
            self._analyses[query_type.type_id] = analysis
            self.analyses_computed += 1
        return analysis

    def check_instance(self, instance: QueryInstance, record: UpdateRecord) -> Verdict:
        """Classify one update against one instance via its type analysis."""
        self.checks_performed += 1
        analysis = self.analysis_for(instance.query_type)
        if record.table not in analysis.all_tables:
            return Verdict(VerdictKind.UNAFFECTED, reason="table not referenced")
        if analysis.is_union:
            return Verdict(VerdictKind.AFFECTED, reason="union: conservative")
        if record.table not in set(analysis.aliases.values()):
            return Verdict(
                VerdictKind.AFFECTED, reason="referenced via subquery: conservative"
            )
        if analysis.has_left_join:
            return Verdict(VerdictKind.AFFECTED, reason="left join: conservative")

        bindings = instance.bindings
        # Constant conditions apply query-wide: a provably false one means
        # the query is always empty, hence unaffected by anything.
        for template in analysis.constant_templates:
            value = self._evaluate_constant(template, bindings)
            if value is False:
                return Verdict(VerdictKind.UNAFFECTED, reason="constant-false condition")

        tuple_values = record.as_dict()
        overall: Optional[Verdict] = None
        for binding, binding_analysis in analysis.by_binding.items():
            if binding_analysis.base_table != record.table:
                continue
            locals_bound, residuals_bound = self._bound_conditions(
                instance, binding_analysis
            )
            verdict = self._check_binding(
                analysis, binding_analysis, locals_bound, residuals_bound, tuple_values
            )
            overall = IndependenceChecker._combine(overall, verdict)
            if overall.kind is VerdictKind.AFFECTED:
                return overall
        return overall or Verdict(VerdictKind.UNAFFECTED)

    def _bound_conditions(
        self, instance: QueryInstance, binding_analysis: BindingAnalysis
    ) -> Tuple[list, Optional[list]]:
        """Bind the instance's parameters into the templates, memoized."""
        per_binding = self._bound.setdefault(instance.instance_id, {})
        cached = per_binding.get(binding_analysis.binding)
        if cached is not None:
            return cached
        try:
            locals_bound = [
                bind_expression(template, instance.bindings)
                for template in binding_analysis.local_templates
            ]
            residuals_bound = [
                bind_expression(template, instance.bindings)
                for template in binding_analysis.residual_templates
            ]
        except (DatabaseError, ReproError):
            locals_bound, residuals_bound = [], None  # None: unbindable
        per_binding[binding_analysis.binding] = (locals_bound, residuals_bound)
        return locals_bound, residuals_bound

    # -- internals --------------------------------------------------------------

    def _evaluate_constant(
        self, template: ast.Expr, bindings: Tuple[Value, ...]
    ) -> Optional[bool]:
        try:
            bound = bind_expression(template, bindings)
            value = evaluate(bound, (), Scope([]))
        except (DatabaseError, ReproError):
            return None
        if value is True:
            return True
        if value is False:
            return False
        return None

    def _check_binding(
        self,
        analysis: TypeAnalysis,
        binding_analysis: BindingAnalysis,
        locals_bound: list,
        residuals_bound: Optional[list],
        tuple_values: Dict[str, Value],
    ) -> Verdict:
        scope = Scope([(binding_analysis.binding, list(tuple_values.keys()))])
        row = tuple(tuple_values.values())
        for condition in locals_bound:
            try:
                value = evaluate(condition, row, scope)
            except (DatabaseError, ReproError):
                continue  # cannot evaluate: do not use it to rule out
            if value is not True:
                return Verdict(
                    VerdictKind.UNAFFECTED,
                    reason=f"tuple fails local condition {to_sql(condition)}",
                )

        other_bindings = [
            name for name in analysis.aliases if name != binding_analysis.binding
        ]
        if not other_bindings:
            return Verdict(VerdictKind.AFFECTED, reason="single-table query")

        if residuals_bound is None:
            return Verdict(VerdictKind.AFFECTED, reason="unbindable residual")
        substituter = _ValueSubstituter(
            binding_analysis.binding, tuple_values, binding_analysis.base_table
        )
        substituted: List[ast.Expr] = []
        for bound in residuals_bound:
            rewritten = substituter.rewrite(bound)
            if substituter.failed:
                return Verdict(VerdictKind.AFFECTED, reason="unsubstitutable residual")
            for node in ast.walk(rewritten):
                if isinstance(node, ast.ColumnRef) and node.table is not None:
                    if node.table.lower() == binding_analysis.binding:
                        return Verdict(
                            VerdictKind.AFFECTED,
                            reason="unsubstitutable residual",
                        )
            substituted.append(rewritten)
        sources = tuple(
            ast.TableRef(
                analysis.aliases[name],
                alias=name if name != analysis.aliases[name] else None,
            )
            for name in sorted(analysis.aliases)
            if name != binding_analysis.binding
        )
        polling = ast.Select(
            items=(ast.SelectItem(ast.FunctionCall("COUNT", (ast.Star(),))),),
            sources=sources,
            where=conjoin(substituted),
        )
        return Verdict(VerdictKind.NEEDS_POLLING, polling_query=polling)
