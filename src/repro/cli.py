"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table2`` / ``table3`` — regenerate the paper's evaluation tables on
  the discrete-event simulator;
* ``sweep`` — expected response vs request rate for Configs II/III (the
  scalability view behind the paper's 30 req/s operating point);
* ``demo`` — the quickstart loop: cache, hit, update, invalidate;
* ``example41`` — the paper's Example 4.1 decision walkthrough;
* ``stream`` / ``cycle`` — the portal's invalidation pipeline over one
  two-table demo site, drained in one go or run cycle by cycle;
* ``serve http`` — runs a CachePortal site as a real HTTP server via
  wsgiref;
* ``audit`` — crash/restart staleness audit of checkpoint recovery,
  optionally fronted by a sharded cache cluster whose shards crash too;
* ``analyze`` — static template-conflict analysis of SQL workload files;
* ``lint`` — invalidation-safety lint of SQL workload files (or of the
  query instances inside a checkpoint), with machine-readable output
  and CI-friendly ``--fail-on`` exit codes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.sim.configs import ConfigurationModel


def _model_from_args(args: argparse.Namespace) -> ConfigurationModel:
    return ConfigurationModel(
        duration=args.duration,
        warmup=min(10.0, args.duration / 10),
        seed=args.seed,
        requests_per_second=getattr(args, "rate", 30.0),
    )


def cmd_table2(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_table2

    run_table2(_model_from_args(args))
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_table3

    run_table3(_model_from_args(args))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.sim.configs import (
        DataCacheMode,
        simulate_config2,
        simulate_config3,
    )
    from repro.sim.workload import UPDATES_5

    base = _model_from_args(args)
    print("Expected response (ms) vs request rate, <5,5,5,5> updates/s")
    print(f"{'req/s':>6s} {'Conf II':>10s} {'Conf III':>10s}")
    for rate in args.rates:
        model = dataclasses.replace(base, requests_per_second=rate)
        conf2 = simulate_config2(UPDATES_5, model, DataCacheMode.NEGLIGIBLE)
        conf3 = simulate_config3(UPDATES_5, model)
        print(f"{rate:6.0f} {conf2.exp_resp_ms:10.0f} {conf3.exp_resp_ms:10.0f}")
    return 0


def _run_demo() -> int:
    from repro import CachePortal, Configuration, Database, KeySpec, build_site
    from repro.web import QueryPageServlet
    from repro.web.servlet import QueryBinding

    db = Database()
    db.execute("CREATE TABLE product (name TEXT, price INT)")
    db.execute("INSERT INTO product VALUES ('phone', 800), ('desk', 300)")
    servlet = QueryPageServlet(
        name="catalog",
        path="/catalog",
        queries=[
            (
                "SELECT name, price FROM product WHERE price < ?",
                [QueryBinding("get", "max_price", int)],
            )
        ],
        key_spec=KeySpec.make(get_keys=["max_price"]),
    )
    site = build_site(Configuration.WEB_CACHE, [servlet], database=db)
    portal = CachePortal(site)
    url = "/catalog?max_price=1000"
    site.get(url)
    print("request 1: MISS (generated and cached)")
    site.get(url)
    print(f"request 2: {'HIT' if site.stats.page_cache_hits else 'MISS'}")
    db.execute("INSERT INTO product VALUES ('tablet', 450)")
    report = portal.run_invalidation_cycle()
    print(f"update    : {report.urls_ejected} page(s) ejected")
    body = site.get(url).body
    print(f"request 3: regenerated ({'tablet' in body and 'tablet visible'})")
    return 0


def _run_example41() -> int:
    # Reuse the packaged walkthrough logic without importing examples/.
    from repro.db import Database
    from repro.db.log import ChangeKind, UpdateRecord
    from repro.sql.parser import parse_statement
    from repro.core.invalidator.analysis import IndependenceChecker

    db = Database()
    db.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    db.execute("CREATE TABLE mileage (model TEXT, epa INT)")
    db.execute("INSERT INTO mileage VALUES ('Avalon', 28)")
    query1 = parse_statement(
        "SELECT car.maker, car.model, car.price, mileage.epa FROM car, mileage "
        "WHERE car.model = mileage.model AND car.price < 23000"
    )
    checker = IndependenceChecker()
    for maker, model, price in [
        ("Toyota", "Avalon", 25000),
        ("Toyota", "Avalon", 20000),
        ("Kia", "Rio", 15000),
    ]:
        record = UpdateRecord(
            1, 0.0, "car", ChangeKind.INSERT,
            (maker, model, price), ("maker", "model", "price"),
        )
        verdict = checker.check(query1, record)
        line = f"insert ({maker}, {model}, {price}): {verdict.kind.value}"
        if verdict.polling_query is not None:
            impacted = bool(db.execute(verdict.polling_query).rows[0][0])
            line += f" → poll: {verdict.polling_sql} → {'STALE' if impacted else 'fresh'}"
        print(line)
    return 0


def _build_demo_site():
    """The ``stream``/``cycle`` demo: a two-table product/review site
    (a catalog page and a join page) in Configuration III."""
    from repro import Configuration, Database, KeySpec, build_site
    from repro.web import QueryPageServlet
    from repro.web.servlet import QueryBinding

    db = Database()
    db.execute("CREATE TABLE product (name TEXT, price INT)")
    db.execute("CREATE TABLE review (name TEXT, stars INT)")
    db.execute("INSERT INTO product VALUES ('phone', 800), ('desk', 300)")
    db.execute("INSERT INTO review VALUES ('phone', 5), ('desk', 4)")
    servlets = [
        QueryPageServlet(
            name="catalog",
            path="/catalog",
            queries=[
                (
                    "SELECT name, price FROM product WHERE price < ?",
                    [QueryBinding("get", "max_price", int)],
                )
            ],
            key_spec=KeySpec.make(get_keys=["max_price"]),
        ),
        QueryPageServlet(
            name="reviews",
            path="/reviews",
            queries=[
                (
                    "SELECT product.name, review.stars FROM product, review "
                    "WHERE product.name = review.name AND review.stars > ?",
                    [QueryBinding("get", "min_stars", int)],
                )
            ],
            key_spec=KeySpec.make(get_keys=["min_stars"]),
        ),
    ]
    return db, build_site(Configuration.WEB_CACHE, servlets, database=db)


def _run_stream(args: argparse.Namespace) -> int:
    """Drive the streaming invalidation pipeline and print its stats."""
    import json

    from repro import CachePortal

    db, site = _build_demo_site()
    portal = CachePortal(
        site,
        polling_budget=args.polling_budget,
        version_keys=not args.no_version_keys,
        conflict_matrix=not args.no_conflict_matrix,
    )
    pipeline = portal.pipeline
    for i in range(args.pages):
        site.get(f"/catalog?max_price={500 + 100 * i}")
        site.get(f"/reviews?min_stars={1 + i % 4}")
    for i in range(args.updates):
        db.execute(f"INSERT INTO product VALUES ('gadget{i}', {400 + i})")
        if i % 3 == 0:
            db.execute(f"INSERT INTO review VALUES ('gadget{i}', {1 + i % 5})")
    drained = pipeline.drain(timeout=30.0)
    stats = pipeline.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        tailer, workers, bus = stats["tailer"], stats["workers"], stats["bus"]
        print(f"pipeline: drained={drained}")
        print(
            f"tailer  : {tailer['records_tailed']} records in "
            f"{tailer['batches_tailed']} batches, lag={tailer['lag_records']}"
        )
        registry = stats["registry"]
        print(
            f"workers : {workers['pairs_checked']} pairs checked — "
            f"{workers['unaffected']} unaffected, {workers['affected']} affected, "
            f"{workers['polls_executed']} polled, "
            f"{workers['over_invalidated']} over-invalidated"
        )
        print(
            f"polling : {workers['batched_queries']} batched queries over "
            f"{workers['batched_instances']} instances "
            f"({workers['poll_round_trips_saved']} round trips saved, "
            f"{workers['demux_misses']} demux misses)"
        )
        print(
            f"index   : {workers['pairs_pruned']} pairs pruned in "
            f"{workers['index_probes']} probes "
            f"({workers['probe_time_ms']}ms probing)"
        )
        if stats.get("version_keys") is not None:
            print(
                f"verkeys : {workers['polls_avoided']} polls avoided in "
                f"{workers['version_key_checks']} version-key checks "
                f"({workers['version_key_instances']} fast-path instances)"
            )
        if stats.get("conflict_matrix") is not None:
            matrix = stats["conflict_matrix"]
            print(
                f"matrix  : {workers['static_disjoint_skips']} pairs "
                f"skipped statically ({workers['template_pairs_pruned']} "
                f"template-level) across {matrix['cells_computed']} cells, "
                f"{matrix['instance_disjoint_proofs']} instance proofs"
            )
        print(
            f"registry: {registry['query_types']} types, "
            f"{registry['query_instances']} instances, "
            f"{registry['urls']} urls, {registry['map_rows']} map rows"
        )
        print(
            f"bus     : {bus['deliveries_ok']} ejects delivered "
            f"({bus['pages_removed']} pages removed, "
            f"{bus['ejects_coalesced']} coalesced) at "
            f"{bus['ejects_per_second']}/s, "
            f"mean latency {bus['eject_latency_mean_ms']}ms"
        )
        print(
            f"faults  : {bus['retries']} retries, "
            f"{bus['dead_letters']} dead letters, "
            f"{bus['breaker_opens']} breaker opens"
        )
    return 0


def _run_cycle(args: argparse.Namespace) -> int:
    """Run invalidation cycles and print their reports."""
    import dataclasses
    import json

    from repro import CachePortal

    db, site = _build_demo_site()
    portal = CachePortal(
        site,
        polling_budget=args.polling_budget,
        version_keys=not args.no_version_keys,
        conflict_matrix=not args.no_conflict_matrix,
    )
    reports = []
    for cycle in range(args.cycles):
        for i in range(args.pages):
            site.get(f"/catalog?max_price={500 + 100 * i}")
            site.get(f"/reviews?min_stars={1 + i % 4}")
        for i in range(args.updates):
            db.execute(
                f"INSERT INTO product VALUES ('gadget{cycle}_{i}', {400 + i})"
            )
            if i % 3 == 0:
                db.execute(
                    f"INSERT INTO review VALUES ('gadget{cycle}_{i}', {1 + i % 5})"
                )
        reports.append(portal.run_invalidation_cycle())
    status = portal.status()
    if args.json:
        payload = {
            "version_keys": not args.no_version_keys,
            "cycles": [dataclasses.asdict(report) for report in reports],
            "status": status,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"portal  : {args.cycles} cycle(s)")
        for index, report in enumerate(reports, start=1):
            print(
                f"cycle {index} : {report.records_processed} records, "
                f"{report.pairs_checked} pairs checked, "
                f"{report.polls_executed} polled, "
                f"{report.urls_ejected} urls ejected"
            )
            print(
                f"          {report.batched_queries} batched queries over "
                f"{report.batched_instances} instances "
                f"({report.poll_round_trips_saved} round trips saved, "
                f"{report.demux_misses} demux misses)"
            )
        invalidator = status["invalidator"]
        print(
            f"totals  : {invalidator['polls_issued']} per-instance polls, "
            f"{invalidator['batched_queries']} batched queries, "
            f"{invalidator['poll_round_trips_saved']} round trips saved, "
            f"{invalidator['polls_coalesced']} coalesced, "
            f"{invalidator['poll_cache_hits']} cache hits"
        )
        if status.get("version_keys") is not None:
            keys = status["version_keys"]
            print(
                f"verkeys : {keys['fresh_hits']} fresh of {keys['checks']} "
                f"checks across {keys['keys']} keys "
                f"({keys['keyed_instances']} keyed instances)"
            )
        if status.get("conflict_matrix") is not None:
            matrix = status["conflict_matrix"]
            static_total = sum(r.static_disjoint_skips for r in reports)
            template_total = sum(r.template_pairs_pruned for r in reports)
            print(
                f"matrix  : {static_total} pairs skipped statically "
                f"({template_total} template-level) across "
                f"{matrix['cells_computed']} cells, "
                f"{matrix['instance_disjoint_proofs']} instance proofs"
            )
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    """Replay a workload with random portal kill/restart points and
    verify no invalidation cycle leaves a stale page cached."""
    import json

    from repro.core.audit import AuditConfig, run_audit

    config = AuditConfig(
        ops=args.ops,
        restarts=args.restarts,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        log_capacity=args.log_capacity,
        recover=not args.no_recover,
        safety=not args.no_safety,
        cluster_shards=args.cluster_shards,
        warm_shards=not args.cold_shards,
    )
    report = run_audit(config)
    payload = report.to_dict()
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json is True:
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"audit report written to {args.json}")
    if not args.json or args.json is not True:
        mode = "recover" if config.recover else "no-recover (control)"
        if not config.safety:
            mode += ", no-safety (control)"
        print(
            f"audit   : {report.ops_executed} ops, {report.cycles} cycles, "
            f"{report.restarts_performed} restart(s) [{mode}]"
        )
        print(
            f"safety  : {report.fallback_ejects} fallback eject(s), "
            f"{report.poll_only_checks} poll-only check(s)"
        )
        print(
            f"recovery: {report.checkpoints_written} checkpoint(s), "
            f"{report.map_rows_restored} map rows + "
            f"{report.instances_restored} instances restored, "
            f"{report.orphans_ejected} orphan(s) ejected, "
            f"{report.flush_alls} flush-all(s), "
            f"{report.cold_restores} cold restore(s)"
        )
        if config.cluster_shards:
            print(
                f"cluster : {config.cluster_shards} shard(s), "
                f"{report.shard_kills} shard kill(s), "
                f"{report.shard_pages_restored} page(s) warm-restored, "
                f"{report.shard_pages_dropped} dropped by the eject journal"
            )
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"verdict : {verdict} — {report.serves_checked} cached pages "
            f"checked, {len(report.stale_serves)} stale"
        )
        for stale in report.stale_serves[:10]:
            print(f"  STALE {stale['url']} (after op {stale['op']})")
    return 0 if report.passed else 1


def _split_statements(text: str) -> List[str]:
    """Split a workload file into statements: strip ``--`` comments,
    then cut on semicolons; blank statements are dropped."""
    lines = []
    for line in text.splitlines():
        comment = line.find("--")
        if comment >= 0:
            line = line[:comment]
        lines.append(line)
    return [
        stmt.strip() for stmt in "\n".join(lines).split(";") if stmt.strip()
    ]


def _run_lint(args: argparse.Namespace) -> int:
    """Lint SQL workload files (or a checkpoint's registered instances)
    for invalidation-safety hazards; exit non-zero per ``--fail-on``."""
    import json

    from repro.sql.lint import Severity, lint_sql

    fail_on = Severity.parse(args.fail_on) if args.fail_on else None
    sources = []
    for path in args.files:
        if args.checkpoint:
            from repro.core.recovery import read_checkpoint

            payload = read_checkpoint(path)
            statements = [
                spec["sql"]
                for spec in payload.get("registry", {}).get("instances", [])
            ]
        else:
            with open(path, "r", encoding="utf-8") as handle:
                statements = _split_statements(handle.read())
        reports = [lint_sql(sql) for sql in statements]
        sources.append((path, reports))

    total = 0
    failing = 0
    rules = set()
    for _, reports in sources:
        for report in reports:
            total += len(report.findings)
            rules.update(f.rule for f in report.findings)
            if fail_on is not None:
                failing += len(report.at_or_above(fail_on))

    if args.json:
        payload = {
            "sources": [
                {
                    "source": path,
                    "statements": [report.to_dict() for report in reports],
                }
                for path, reports in sources
            ],
            "total_findings": total,
            "distinct_rules": sorted(rules),
            "fail_on": args.fail_on,
            "failing_findings": failing if fail_on is not None else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for path, reports in sources:
            for index, report in enumerate(reports, start=1):
                for finding in report.findings:
                    start, end = finding.span
                    print(
                        f"{path}:{index}: {finding.severity.name.lower()} "
                        f"[{finding.rule}] at {start}..{end}: "
                        f"{finding.message}"
                    )
                    print(f"    {finding.snippet}")
                    if finding.hint:
                        print(f"    hint: {finding.hint}")
        statements_seen = sum(len(reports) for _, reports in sources)
        print(
            f"lint    : {statements_seen} statement(s), {total} finding(s), "
            f"{len(rules)} distinct rule(s)"
        )
        if fail_on is not None:
            print(
                f"fail-on : {args.fail_on} — {failing} finding(s) at or "
                "above threshold"
            )
    return 1 if failing else 0


def _parse_class_spec(spec: str):
    """Parse a ``--update-class`` spec: ``name:table[:kind[:where]]``."""
    parts = spec.split(":", 3)
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise SystemExit(
            f"bad --update-class {spec!r} (want name:table[:kind[:where]])"
        )
    name, table = parts[0], parts[1]
    kind = parts[2] if len(parts) > 2 and parts[2] else None
    where = parts[3] if len(parts) > 3 else ""
    return name, table, kind, where


def _run_analyze(args: argparse.Namespace) -> int:
    """Static template-conflict analysis of SQL workload files: register
    every SELECT, classify each (query-template, update-class) pair, and
    print the conflict matrix with per-cell provenance."""
    import json

    from repro.errors import ReproError
    from repro.core.invalidator.conflict import ConflictMatrix
    from repro.core.invalidator.registration import QueryTypeRegistry
    from repro.sql.printer import to_sql

    registry = QueryTypeRegistry()
    matrix = ConflictMatrix().attach_to(registry)
    for spec in args.update_class or []:
        name, table, kind, where = _parse_class_spec(spec)
        try:
            matrix.declare_class(name, table, kind, where)
        except ReproError as exc:
            print(f"error: cannot declare class {name!r}: {exc}", file=sys.stderr)
            return 2

    statements_seen = registered = 0
    skipped = []  # (source, index, reason)
    for path in args.files:
        with open(path, "r", encoding="utf-8") as handle:
            statements = _split_statements(handle.read())
        for index, sql in enumerate(statements, start=1):
            statements_seen += 1
            try:
                registry.observe_instance(sql, url_key=f"{path}#{index}")
            except ReproError as exc:
                skipped.append((path, index, str(exc)))
            else:
                registered += 1

    instances_by_type: "dict[int, list]" = {}
    for instance in registry.instances():
        instances_by_type.setdefault(
            instance.query_type.type_id, []
        ).append(instance)

    types_payload = []
    for query_type in registry.types():
        cells_payload = []
        for table in sorted(query_type.tables):
            for update_class in matrix.classes_for_table(table):
                cell = matrix.cell(query_type, update_class.name)
                refinements = []
                for instance in instances_by_type.get(query_type.type_id, []):
                    certificates = matrix.instance_certificates(
                        instance, update_class.name
                    )
                    if certificates is not None:
                        refinements.append(
                            {
                                "instance_id": instance.instance_id,
                                "sql": instance.sql,
                                "certificates": certificates,
                            }
                        )
                cells_payload.append(
                    {
                        "class": update_class.name,
                        "verdict": cell.verdict.value,
                        "reason": cell.reason,
                        "certificates": list(cell.certificates),
                        "columns_required": sorted(cell.columns_required),
                        "instance_refinements": refinements,
                    }
                )
        types_payload.append(
            {
                "name": query_type.name,
                "signature": query_type.signature,
                "template": to_sql(query_type.template),
                "tables": sorted(query_type.tables),
                "instances": len(instances_by_type.get(query_type.type_id, [])),
                "cells": cells_payload,
            }
        )

    stats = matrix.stats()
    failures = int(stats["certificate_failures"])  # type: ignore[arg-type]
    if args.json:
        payload = {
            "files": list(args.files),
            "statements": statements_seen,
            "registered": registered,
            "skipped": [
                {"source": path, "statement": index, "reason": reason}
                for path, index, reason in skipped
            ],
            "types": types_payload,
            "stats": stats,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"analyze : {len(args.files)} file(s), {statements_seen} "
            f"statement(s), {registered} registered, "
            f"{len(types_payload)} type(s), {stats['classes']} update class(es)"
        )
        for path, index, reason in skipped:
            print(f"  skipped {path}:{index}: {reason}")
        for entry in types_payload:
            print(f"{entry['name']} ({entry['instances']} instance(s)): "
                  f"{entry['template']}")
            for cell in entry["cells"]:
                verdict = cell["verdict"].upper()
                line = f"  {cell['class']:24s} {verdict}"
                if cell["reason"]:
                    line += f" — {cell['reason']}"
                print(line)
                for certificate in cell["certificates"]:
                    print(f"      certificate: {certificate['why']}")
                for refinement in cell["instance_refinements"]:
                    whys = ", ".join(
                        str(certificate["why"])
                        for certificate in refinement["certificates"]
                    )
                    print(
                        f"      instance #{refinement['instance_id']} "
                        f"DISJOINT ({whys or 'constant-false'})"
                    )
        print(
            f"matrix  : {stats['cells_computed']} cell(s), "
            f"{stats['template_disjoint']} template-disjoint, "
            f"{stats['instance_disjoint_proofs']} instance proof(s), "
            f"{failures} certificate failure(s)"
        )
    return 1 if failures else 0


def _run_serve_http(args: argparse.Namespace) -> int:
    from wsgiref.simple_server import make_server

    from repro import CachePortal, Configuration, Database, KeySpec, build_site
    from repro.web import QueryPageServlet
    from repro.web.servlet import QueryBinding
    from repro.web.wsgi import SiteWSGIApp

    db = Database()
    db.execute("CREATE TABLE product (name TEXT, price INT)")
    db.execute("INSERT INTO product VALUES ('phone', 800), ('desk', 300)")
    servlet = QueryPageServlet(
        name="catalog",
        path="/catalog",
        queries=[
            (
                "SELECT name, price FROM product WHERE price < ?",
                [QueryBinding("get", "max_price", int, default=10**9)],
            )
        ],
        key_spec=KeySpec.make(get_keys=["max_price"]),
    )
    site = build_site(Configuration.WEB_CACHE, [servlet], database=db)
    CachePortal(site)
    app = SiteWSGIApp(site)
    server = make_server(args.host, args.port, app)
    print(f"serving on http://{args.host or 'localhost'}:{args.port}/catalog")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CachePortal reproduction (SIGMOD 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sim_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--duration", type=float, default=120.0,
                       help="simulated seconds (default 120)")
        p.add_argument("--seed", type=int, default=7)

    p_table2 = sub.add_parser("table2", help="regenerate Table 2")
    add_sim_args(p_table2)
    p_table2.set_defaults(func=cmd_table2)

    p_table3 = sub.add_parser("table3", help="regenerate Table 3")
    add_sim_args(p_table3)
    p_table3.set_defaults(func=cmd_table3)

    p_sweep = sub.add_parser("sweep", help="response vs request rate")
    add_sim_args(p_sweep)
    p_sweep.add_argument(
        "--rates", type=float, nargs="+", default=[15, 30, 45, 60]
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="cache/hit/invalidate walkthrough")
    p_demo.set_defaults(func=lambda args: _run_demo())

    p_e41 = sub.add_parser("example41", help="paper Example 4.1 decisions")
    p_e41.set_defaults(func=lambda args: _run_example41())

    p_stream = sub.add_parser(
        "stream", help="run the streaming invalidation pipeline demo"
    )
    p_stream.add_argument("--pages", type=int, default=12,
                          help="pages to cache before the update burst")
    p_stream.add_argument("--updates", type=int, default=50,
                          help="updates to stream through the pipeline")
    p_stream.add_argument("--polling-budget", type=int, default=None,
                          help="max polling queries per tail batch")
    p_stream.add_argument("--json", action="store_true",
                          help="emit the raw stats() snapshot as JSON")
    p_stream.add_argument("--no-version-keys", action="store_true",
                          help="disable the version-key O(1) fast path "
                               "(A/B control arm; ejects are identical)")
    p_stream.add_argument("--no-conflict-matrix", action="store_true",
                          help="disable static (template × update-class) "
                               "disjointness pruning (A/B control arm; "
                               "ejects are identical)")
    p_stream.set_defaults(func=_run_stream)

    p_cycle = sub.add_parser(
        "cycle", help="run invalidation cycles on a demo portal"
    )
    p_cycle.add_argument("--pages", type=int, default=12,
                         help="pages to cache before the update burst")
    p_cycle.add_argument("--updates", type=int, default=50,
                         help="updates to apply before each cycle")
    p_cycle.add_argument("--cycles", type=int, default=2,
                         help="invalidation cycles to run (default 2)")
    p_cycle.add_argument("--polling-budget", type=int, default=None,
                         help="max polling round trips per cycle")
    p_cycle.add_argument("--no-version-keys", action="store_true",
                         help="disable the version-key O(1) fast path "
                              "(A/B control arm; ejects are identical)")
    p_cycle.add_argument("--no-conflict-matrix", action="store_true",
                         help="disable static (template × update-class) "
                              "disjointness pruning (A/B control arm; "
                              "ejects are identical)")
    p_cycle.add_argument("--json", action="store_true",
                         help="emit per-cycle reports and portal status as JSON")
    p_cycle.set_defaults(func=_run_cycle)

    p_audit = sub.add_parser(
        "audit", help="crash/restart staleness audit of checkpoint recovery"
    )
    p_audit.add_argument("--ops", type=int, default=400,
                         help="workload length (default 400)")
    p_audit.add_argument("--restarts", type=int, default=3,
                         help="portal kill/restart points (default 3)")
    p_audit.add_argument("--seed", type=int, default=7)
    p_audit.add_argument("--checkpoint-every", type=int, default=25,
                         help="ops between checkpoints (default 25)")
    p_audit.add_argument("--log-capacity", type=int, default=None,
                         help="bound the update log to force truncation paths")
    p_audit.add_argument("--no-recover", action="store_true",
                         help="control arm: restart without restoring "
                              "(expected to FAIL)")
    p_audit.add_argument("--no-safety", action="store_true",
                         help="control arm: disable lint-derived safety "
                              "enforcement (expected to FAIL)")
    p_audit.add_argument("--json", nargs="?", const=True, default=False,
                         metavar="FILE",
                         help="emit the report as JSON (to FILE if given)")
    p_audit.add_argument("--cluster-shards", type=int, default=0,
                         help="front the site with a sharded cache cluster "
                              "of N shards; each portal crash also kills "
                              "one shard (0 = single cache, default)")
    p_audit.add_argument("--cold-shards", action="store_true",
                         help="control arm: restart killed shards empty "
                              "instead of warm-restoring their snapshots")
    p_audit.set_defaults(func=_run_audit)

    p_analyze = sub.add_parser(
        "analyze",
        help="static template-conflict analysis of SQL workload files",
    )
    p_analyze.add_argument("files", nargs="+", metavar="FILE",
                           help="workload file(s) of ;-separated SQL "
                                "statements (-- comments allowed)")
    p_analyze.add_argument("--update-class", action="append", default=[],
                           metavar="SPEC",
                           help="declare a refined update class as "
                                "name:table[:kind[:where]] (repeatable); "
                                "per-table insert/delete defaults are "
                                "always present")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the conflict matrix as JSON")
    p_analyze.set_defaults(func=_run_analyze)

    p_lint = sub.add_parser(
        "lint", help="invalidation-safety lint of SQL workload files"
    )
    p_lint.add_argument("files", nargs="+", metavar="FILE",
                        help="workload file(s) of ;-separated SQL "
                             "statements (-- comments allowed)")
    p_lint.add_argument("--checkpoint", action="store_true",
                        help="treat FILEs as portal checkpoints and lint "
                             "their registered query instances")
    p_lint.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    p_lint.add_argument("--fail-on", metavar="SEVERITY", default=None,
                        help="exit non-zero when any finding is at or "
                             "above this severity (info|warning|error)")
    p_lint.set_defaults(func=_run_lint)

    p_serve = sub.add_parser(
        "serve", help="the serving front end over real HTTP"
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)

    p_sv_http = serve_sub.add_parser(
        "http", help="serve a demo site over HTTP (wsgiref)"
    )
    p_sv_http.add_argument("--host", default="")
    p_sv_http.add_argument("--port", type=int, default=8000)
    p_sv_http.set_defaults(func=_run_serve_http)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
