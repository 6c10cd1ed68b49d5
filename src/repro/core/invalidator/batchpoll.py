"""Set-oriented polling: batch may-affect checks into delta-join queries.

The per-instance polling path (§4.2.2) issues one ``SELECT COUNT(*) ...``
round trip per (instance, changed tuple) pair that needs polling.  Under
bursty update load thousands of those queries differ only in constants:
they are instances of the *same* polling-query type, with different
parameter bindings and tuple values substituted in.

This module folds each such group into ONE set-oriented query.  The
per-instance polling query is parameterized (:func:`repro.sql.params
.parameterize`); its signature is the group key.  All member bindings are
packed into an inline ``VALUES`` derived table that also projects a
synthetic instance id, the residual condition is rewritten to reference
the probe's columns, and the batched query returns the ids of exactly the
members whose per-instance ``COUNT(*)`` would have been positive::

    -- per instance (one of thousands):
    SELECT COUNT(*) FROM car WHERE car.model = 'A4' AND car.price < 20000
    -- batched (one round trip):
    SELECT DISTINCT __probe.__tid
    FROM (VALUES (0, 'A4', 20000), (1, 'TT', 45000), ...)
         AS __probe (__tid, __p1, __p2), car
    WHERE car.model = __probe.__p1 AND car.price < __probe.__p2

Equivalence: ``COUNT(*) > 0`` is row existence, and a probe row's id
appears in the DISTINCT semi-join output exactly when a joined row
exists for its constants — including NULL bindings, which fail
comparisons identically inline or via the probe column.

Demultiplexing threads each id's yes/no verdict back through
per-instance bookkeeping: the cross-cycle polling-result cache is
consulted first and updated per member, and the per-cycle coalescing
memo (keyed by canonical ``polling_key``) absorbs duplicate members, so
result caching and POLL_ONLY fingerprints observe per-instance results.

Queries the compiler cannot express set-orientedly — subquery residuals
(probe references inside them would be correlated) or non-``COUNT(*)``
shapes — are polled one task at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.sql import ast
from repro.sql.params import ParameterizedQuery, parameterize
from repro.sql.printer import to_sql
from repro.core.invalidator.infomgmt import InformationManager
from repro.core.invalidator.polling import PollingQueryGenerator

#: Binding name of the synthetic derived table.  Per-instance polling
#: queries never contain dunder-named bindings (``batch_key`` enforces
#: it), so the probe cannot collide with a real table occurrence.
PROBE_NAME = "__probe"

#: Probe column carrying the synthetic member id.
TID_COLUMN = "__tid"


def batch_key(
    query: object, parameterized: "Optional[ParameterizedQuery]" = None
) -> Optional[str]:
    """Group identity of a per-instance polling query, or None.

    Two polling queries fold into the same batch exactly when they are
    instances of one parameterized template — the returned key is that
    template's canonical signature.  None means the query must take the
    per-instance path: it is not the generator's ``SELECT COUNT(*)``
    shape, mixes in subqueries (a probe reference inside one would be a
    correlated subquery, which the engine rejects), or already contains
    placeholders (only fully bound instances carry batchable constants).

    ``parameterized`` may carry the query's precomputed
    :func:`~repro.sql.params.parameterize` result; callers that already
    have one (the batch poller computes it for coalescing) avoid a
    second template rewrite here.
    """
    if not isinstance(query, ast.Select):
        return None
    if query.distinct or query.group_by or query.having is not None:
        return None
    if query.order_by or query.limit is not None or query.offset is not None:
        return None
    if len(query.items) != 1 or not query.sources:
        return None
    expr = query.items[0].expr
    if (
        not isinstance(expr, ast.FunctionCall)
        or expr.name.upper() != "COUNT"
        or expr.distinct
        or len(expr.args) != 1
        or not isinstance(expr.args[0], ast.Star)
    ):
        return None
    for source in query.sources:
        if not isinstance(source, ast.TableRef):
            return None
        if source.binding.lower().startswith("__"):
            return None
    if query.where is not None:
        for node in ast.walk(query.where):
            if isinstance(node, (ast.Exists, ast.InSelect, ast.ScalarSubquery)):
                return None
            if isinstance(node, ast.Parameter):
                return None
            if isinstance(node, ast.ColumnRef) and node.column.startswith("__"):
                return None
    if parameterized is None:
        parameterized = parameterize(query)
    return parameterized.signature


class _ParamToProbe:
    """Rewrites ``$k`` parameters into ``__probe.__pk`` column references.

    Applied to the parameterized template's WHERE clause; subqueries were
    excluded by :func:`batch_key`, so the expression grammar here is the
    subquery-free subset.
    """

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter):
            return ast.ColumnRef(f"__p{node.index}", PROBE_NAME)
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


def compile_batch(
    template: ast.Select, rows: Sequence[Tuple[ast.Expr, ...]]
) -> ast.Select:
    """Build the one set-oriented query for a group of member rows.

    ``template`` is the shared parameterized polling template; each row is
    ``(Literal(member id), Literal(binding 1), ...)`` in parameter order.
    The result is the DISTINCT delta-join of the probe against the
    template's sources — the planner recognizes this shape and runs it as
    a (hash) semi-join, stopping at each probe row's first match.
    """
    width = len(rows[0]) if rows else 1
    columns = (TID_COLUMN,) + tuple(f"__p{i}" for i in range(1, width))
    probe = ast.ValuesSource(rows=tuple(rows), name=PROBE_NAME, columns=columns)
    where = (
        _ParamToProbe().rewrite(template.where)
        if template.where is not None
        else None
    )
    return ast.Select(
        items=(ast.SelectItem(ast.ColumnRef(TID_COLUMN, PROBE_NAME)),),
        sources=(probe,) + template.sources,
        where=where,
        distinct=True,
    )


@dataclass
class PollOutcome:
    """One task's demultiplexed polling answer.

    ``work_units`` is the task's share of measured database work (an even
    split of its batch's cost), which feeds the per-type EMA cost
    estimate.  ``source`` records how the answer was obtained: ``cache``
    (cross-cycle result cache), ``coalesced`` (another task this cycle),
    ``batched``, or ``fallback`` (a query polled on its own).
    """

    impacted: bool
    work_units: float = 0.0
    source: str = "batched"


@dataclass
class _Group:
    """One pending batch: shared template plus accumulated member rows."""

    template: ast.Select
    rows: List[Tuple[ast.Expr, ...]] = field(default_factory=list)
    #: bindings tuple → member id, for within-batch coalescing.
    row_ids: Dict[Tuple, int] = field(default_factory=dict)
    #: member id → [(task key, query, printed sql, polling key), ...]
    members: List[List[Tuple[Hashable, ast.Select, str, Tuple]]] = field(
        default_factory=list
    )


class BatchPollExecutor:
    """Executes one cycle's scheduled polls set-orientedly.

    Shared by both consumers (the synchronous invalidator and the
    streaming pipeline); all statistics flow into the given
    generator's :class:`~repro.core.invalidator.polling.PollingStats`, so
    existing counters (``issued``, ``coalesced``, ``cache_hits``,
    ``total_work_units``) keep their meaning and the new round-trip
    counters ride alongside.
    """

    def __init__(
        self, infomgmt: InformationManager, generator: PollingQueryGenerator
    ) -> None:
        self.infomgmt = infomgmt
        self.generator = generator

    def execute(
        self, tasks: Sequence[Tuple[Hashable, ast.Select]]
    ) -> Dict[Hashable, PollOutcome]:
        """Answer every (key, polling query) task; returns key → outcome.

        Per-task order of authority: cross-cycle result cache, then this
        cycle's coalescing memo, then the database — batched when
        possible, per instance otherwise.
        """
        outcomes: Dict[Hashable, PollOutcome] = {}
        groups: "Dict[str, _Group]" = {}
        generator = self.generator
        stats = generator.stats
        result_cache = self.infomgmt.result_cache
        for key, query in tasks:
            sql = to_sql(query)
            cached = result_cache.get(sql)
            if cached is not None:
                stats.cache_hits += 1
                outcomes[key] = PollOutcome(cached, 0.0, "cache")
                continue
            # One parameterize pass per task: its (signature, bindings)
            # pair is both the cycle-coalescing key and (signature alone)
            # the batch group identity, so compute it once and thread it
            # through rather than re-deriving it at each step.
            parameterized = parameterize(query)
            pkey = (parameterized.signature, parameterized.bindings)
            memoized = generator.cycle_result_keyed(pkey)
            if memoized is not None:
                stats.coalesced += 1
                result_cache.put(sql, query, memoized)
                outcomes[key] = PollOutcome(memoized, 0.0, "coalesced")
                continue
            signature = batch_key(query, parameterized)
            if signature is None:
                outcomes[key] = self._poll_single(query, sql)
                continue
            group = groups.get(signature)
            if group is None:
                group = _Group(template=parameterized.template)
                groups[signature] = group
            member_id = group.row_ids.get(parameterized.bindings)
            if member_id is None:
                member_id = len(group.rows)
                group.row_ids[parameterized.bindings] = member_id
                group.rows.append(
                    tuple(
                        ast.Literal(value)
                        for value in (member_id,) + parameterized.bindings
                    )
                )
                group.members.append([])
            else:
                # Same canonical polling key as an earlier member: one
                # probe row serves both (the per-instance path would have
                # coalesced the second poll the same way).
                stats.coalesced += 1
            group.members[member_id].append((key, query, sql, pkey))
        for group in groups.values():
            self._execute_group(group, outcomes)
        return outcomes

    def _poll_single(self, query: ast.Select, sql: str) -> PollOutcome:
        """One query ``batch_key`` cannot fold, polled on its own (the
        caller's loop already consulted the result cache)."""
        generator = self.generator
        before = generator.stats.total_work_units
        impacted = generator.poll(query)
        self.infomgmt.result_cache.put(sql, query, impacted)
        work = generator.stats.total_work_units - before
        return PollOutcome(impacted, float(work), "fallback")

    def _execute_group(
        self, group: _Group, outcomes: Dict[Hashable, PollOutcome]
    ) -> None:
        batched = compile_batch(group.template, group.rows)
        result = self.generator.database.execute(batched)
        stats = self.generator.stats
        stats.batched_queries += 1
        stats.batched_instances += len(group.rows)
        stats.total_work_units += result.work_units
        returned = set()
        for row in result.rows:
            member_id = row[0]
            if isinstance(member_id, int) and 0 <= member_id < len(group.rows):
                returned.add(member_id)
            else:  # pragma: no cover - engine would have to corrupt ids
                stats.demux_misses += 1
        share = float(result.work_units) / len(group.rows) if group.rows else 0.0
        for member_id, members in enumerate(group.members):
            impacted = member_id in returned
            for key, query, sql, pkey in members:
                self.generator.record_cycle_result_keyed(pkey, impacted)
                self.infomgmt.result_cache.put(sql, query, impacted)
                outcomes[key] = PollOutcome(impacted, share, "batched")
