"""The independence check: does an update affect a query instance?

This implements the decision procedure of paper Example 4.1.  Given a
bound SELECT and one changed tuple (an insertion into or deletion from
relation R), classify:

* **UNAFFECTED** — the tuple provably cannot satisfy the query's
  conditions on R, so the cached pages built from this query stay fresh;
* **AFFECTED** — the tuple satisfies all conditions the query places on R
  and the query reads no other table, so the result has changed;
* **NEEDS_POLLING** — the tuple satisfies R's local conditions but the
  query joins R with other tables; a *polling query* over the remaining
  tables (with R's columns substituted by the tuple's values) decides.

The checker is conservative by construction: whenever a condition cannot
be evaluated or attributed, it errs towards AFFECTED/NEEDS_POLLING.
Over-invalidation costs a cache miss; under-invalidation serves stale
data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import DatabaseError, ReproError
from repro.sql import ast
from repro.sql.analysis import all_conditions, alias_map, conjoin, has_left_join
from repro.sql.printer import to_sql
from repro.db.expr import Scope, evaluate
from repro.db.log import UpdateRecord
from repro.db.types import Value

# Historical alias: the helper moved to repro.sql.analysis once the
# grouped checker needed it too.
_has_left_join = has_left_join


class VerdictKind(enum.Enum):
    UNAFFECTED = "unaffected"
    AFFECTED = "affected"
    NEEDS_POLLING = "needs-polling"


@dataclass
class Verdict:
    """Outcome of the independence check for one (instance, update) pair."""

    kind: VerdictKind
    polling_query: Optional[ast.Select] = None
    reason: str = ""

    @property
    def polling_sql(self) -> Optional[str]:
        if self.polling_query is None:
            return None
        return to_sql(self.polling_query)


class _ValueSubstituter:
    """Rewrites references to one binding's columns into literals.

    Matching is by the *binding* name only: in a self-join (``car a,
    car b``) a reference qualified by the base-table name belongs to the
    unaliased occurrence, never to an aliased one, so substituting it with
    another role's tuple values would corrupt the polling query.
    """

    def __init__(self, binding: str, values: Dict[str, Value], base_table: str) -> None:
        self.binding = binding
        self.base_table = base_table
        self.values = values
        self.failed = False

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.ColumnRef):
            table = node.table.lower() if node.table else None
            if table == self.binding:
                column = node.column.lower()
                if column not in self.values:
                    self.failed = True
                    return node
                return ast.Literal(self.values[column])
            return node
        if isinstance(node, ast.Binary):
            return ast.Binary(node.op, self.rewrite(node.left), self.rewrite(node.right))
        if isinstance(node, ast.Unary):
            return ast.Unary(node.op, self.rewrite(node.operand))
        if isinstance(node, ast.Between):
            return ast.Between(
                self.rewrite(node.expr),
                self.rewrite(node.low),
                self.rewrite(node.high),
                node.negated,
            )
        if isinstance(node, ast.InList):
            return ast.InList(
                self.rewrite(node.expr),
                tuple(self.rewrite(item) for item in node.items),
                node.negated,
            )
        if isinstance(node, ast.IsNull):
            return ast.IsNull(self.rewrite(node.expr), node.negated)
        if isinstance(node, ast.FunctionCall):
            return ast.FunctionCall(
                node.name, tuple(self.rewrite(arg) for arg in node.args), node.distinct
            )
        if isinstance(node, ast.Case):
            whens = tuple(
                (self.rewrite(cond), self.rewrite(value)) for cond, value in node.whens
            )
            default = self.rewrite(node.default) if node.default is not None else None
            return ast.Case(whens, default)
        return node


class IndependenceChecker:
    """Stateless decision procedure over (SELECT, changed tuple) pairs."""

    def check(self, stmt, record: UpdateRecord) -> Verdict:
        """Classify one update against one bound query instance."""
        from repro.sql.analysis import referenced_tables

        if isinstance(stmt, ast.Union):
            # Compound queries: the combinator hides which part a tuple
            # lands in; stay conservative per referenced table.
            if record.table in referenced_tables(stmt):
                return Verdict(VerdictKind.AFFECTED, reason="union: conservative")
            return Verdict(VerdictKind.UNAFFECTED, reason="table not referenced")
        aliases = alias_map(stmt)
        outer_tables = set(aliases.values())
        all_tables = referenced_tables(stmt)  # includes subquery tables
        if record.table not in all_tables:
            return Verdict(VerdictKind.UNAFFECTED, reason="table not referenced")
        if record.table not in outer_tables:
            # Referenced only inside a subquery: subquery results can
            # flip without any outer-table change we could reason about.
            return Verdict(
                VerdictKind.AFFECTED, reason="referenced via subquery: conservative"
            )
        if _has_left_join(stmt):
            # A LEFT JOIN makes absence of matches observable; local
            # reasoning on one side is unsound, so stay conservative.
            return Verdict(VerdictKind.AFFECTED, reason="left join: conservative")

        bindings_of_table = [
            binding for binding, table in aliases.items() if table == record.table
        ]
        conditions = all_conditions(stmt)
        tuple_values = record.as_dict()

        overall: Optional[Verdict] = None
        for binding in bindings_of_table:
            verdict = self._check_binding(
                stmt, binding, aliases, conditions, tuple_values, record
            )
            overall = self._combine(overall, verdict)
            if overall.kind is VerdictKind.AFFECTED:
                return overall
        return overall or Verdict(VerdictKind.UNAFFECTED)

    # -- per-binding analysis ---------------------------------------------------

    def _check_binding(
        self,
        stmt: ast.Select,
        binding: str,
        aliases: Dict[str, str],
        conditions: Sequence[ast.Expr],
        tuple_values: Dict[str, Value],
        record: UpdateRecord,
    ) -> Verdict:
        single_binding = len(aliases) == 1
        local: List[ast.Expr] = []
        residual: List[ast.Expr] = []
        for condition in conditions:
            placement = self._classify(condition, binding, aliases, single_binding)
            if placement == "local":
                local.append(condition)
            elif placement == "constant":
                verdict = self._evaluate_constant(condition)
                if verdict is False:
                    return Verdict(
                        VerdictKind.UNAFFECTED, reason="constant-false condition"
                    )
                # TRUE/unknown constants don't constrain the tuple.
            else:
                residual.append(condition)

        # Evaluate the local conditions directly on the changed tuple.
        scope = Scope([(binding, list(tuple_values.keys()))])
        row = tuple(tuple_values.values())
        for condition in local:
            try:
                value = evaluate(condition, row, scope)
            except (DatabaseError, ReproError):
                continue  # cannot evaluate: do not use it to rule out
            if value is not True:
                # FALSE or NULL: the tuple cannot satisfy the query's
                # conditions on this occurrence of R.
                return Verdict(
                    VerdictKind.UNAFFECTED,
                    reason=f"tuple fails local condition {to_sql(condition)}",
                )

        other_bindings = [name for name in aliases if name != binding]
        if not other_bindings:
            return Verdict(VerdictKind.AFFECTED, reason="single-table query")
        if not residual:
            # The tuple joins unconditionally with the other tables; any
            # non-empty other table makes the change visible.  Checking
            # emptiness requires a (trivial) polling query.
            residual = []
        polling = self._build_polling_query(
            stmt, binding, aliases, residual, tuple_values, record
        )
        if polling is None:
            return Verdict(VerdictKind.AFFECTED, reason="unsubstitutable residual")
        return Verdict(VerdictKind.NEEDS_POLLING, polling_query=polling)

    def _classify(
        self,
        condition: ast.Expr,
        binding: str,
        aliases: Dict[str, str],
        single_binding: bool,
    ) -> str:
        """'local' (only this binding), 'constant' (no columns), 'residual'."""
        base_table = aliases[binding]
        referenced: Set[Optional[str]] = set()
        for node in ast.walk(condition):
            if isinstance(node, ast.ColumnRef):
                referenced.add(node.table.lower() if node.table else None)
        if not referenced:
            return "constant"
        if None in referenced and not single_binding:
            return "residual"  # ambiguous without a schema: be conservative
        qualified = {name for name in referenced if name is not None}
        if qualified <= {binding, base_table}:
            return "local"
        return "residual"

    def _evaluate_constant(self, condition: ast.Expr) -> Optional[bool]:
        try:
            value = evaluate(condition, (), Scope([]))
        except (DatabaseError, ReproError):
            return None
        if value is True:
            return True
        if value is None:
            return None
        return bool(value) if isinstance(value, bool) else None

    # -- polling-query construction ------------------------------------------------

    def _build_polling_query(
        self,
        stmt: ast.Select,
        binding: str,
        aliases: Dict[str, str],
        residual: Sequence[ast.Expr],
        tuple_values: Dict[str, Value],
        record: UpdateRecord,
    ) -> Optional[ast.Select]:
        """Example 4.1's PollQuery: the remaining tables, with the changed
        tuple's values substituted for R's columns."""
        substituter = _ValueSubstituter(binding, tuple_values, aliases[binding])
        substituted: List[ast.Expr] = []
        for condition in residual:
            rewritten = substituter.rewrite(condition)
            if substituter.failed:
                return None
            # Leftover qualified references to the substituted binding
            # (e.g. inside a subquery the substituter does not descend
            # into) would make the polling query unexecutable or wrong.
            for node in ast.walk(rewritten):
                if isinstance(node, ast.ColumnRef) and node.table is not None:
                    if node.table.lower() == binding:
                        return None
            substituted.append(rewritten)
        sources = tuple(
            ast.TableRef(aliases[name], alias=name if name != aliases[name] else None)
            for name in sorted(aliases)
            if name != binding
        )
        return ast.Select(
            items=(ast.SelectItem(ast.FunctionCall("COUNT", (ast.Star(),))),),
            sources=sources,
            where=conjoin(substituted),
        )

    @staticmethod
    def _combine(current: Optional[Verdict], new: Verdict) -> Verdict:
        if current is None:
            return new
        order = {
            VerdictKind.UNAFFECTED: 0,
            VerdictKind.NEEDS_POLLING: 1,
            VerdictKind.AFFECTED: 2,
        }
        return new if order[new.kind] > order[current.kind] else current
