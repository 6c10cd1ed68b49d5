"""The metric tables: the one place names, units, directions and bounds live.

``spec()`` renders them as the ``BENCHMARK.json`` document
(``python3 bench/run.py --print-spec``); a test keeps the committed file
equal to it.  ``moves`` says which end-to-end metric a layer metric should
move, on which workload — written down before any optimisation is tried.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from bench.workloads import DEFAULT_SECONDS, WORKLOADS


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: How much worse than the baseline's median a run may be: a difference
    #: in the metric's own unit when ``absolute``, else a share of that median.
    bound: float
    absolute: bool
    meaning: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


#: The issue's ten, with the issue's bounds.  ``compare.py`` gates all of them.
END_TO_END = (
    EndToEnd("sat_rps", "req/s", "higher", 0.10, False,
             "saturation phase: good responses per second, median over 0.25 s slices"),
    EndToEnd("req_within_limit", "ratio", "higher", 0.03, True,
             "paced phase: 200 + body within 20 ms of the due time / requests sent"),
    EndToEnd("req_fail_ratio", "ratio", "lower", 0.001, True,
             "non-200, shed, exception or empty body / requests attempted, both phases"),
    EndToEnd("hit_ratio", "ratio", "higher", 0.02, True,
             "paced phase: gateway hits / requests"),
    EndToEnd("eject_p50_ms", "ms", "lower", 0.10, False,
             "last eject of a commit group on the probe cache - oldest commit's return"),
    EndToEnd("inv_updates_per_s", "updates/s", "higher", 0.10, False,
             "storm updates / seconds from first commit to last drain"),
    EndToEnd("over_eject_ratio", "ratio", "lower", 0.02, True,
             "storm ejects whose regeneration equals the bytes cached before / storm ejects"),
    EndToEnd("stale_pages", "count", "lower", 0.0, True,
             "cached body != regeneration at quiescence; non-zero fails the pass"),
    EndToEnd("setup_s", "s", "lower", 0.15, False,
             "inputs + database + site + warm-up, median of the run's set-ups"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, False,
             "ru_maxrss of the workload's process"),
)

#: Healthy value 0.  The driver's contract takes only metrics that are never
#: 0, with a bound relative to the median, so BENCHMARK.json lists these three
#: under ``per_layer``; the suite and ``compare.py`` still gate them.
ZERO_HEALTHY = ("req_fail_ratio", "over_eject_ratio", "stale_pages")
#: What BENCHMARK.json lists under ``end_to_end``.  A ratio is at most 1, so
#: an absolute bound read as a share of the median is never the wider one.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.name not in ZERO_HEALTHY)

_HOT = "sat_rps read_hot"
_COLD = "sat_rps, req_within_limit read_cold"
_STORM = "inv_updates_per_s, eject_p50_ms update_storm"
_MIXED = "req_within_limit, sat_rps, eject_p50_ms mixed_update"
_NONE = "diagnostic, gates nothing"

PER_LAYER = (
    # serve
    Layer("serve.hit_us", "us", "lower", _HOT),
    Layer("serve.miss_overhead_us", "us", "lower", _COLD),
    Layer("serve.tick_block_ms_p50", "ms", "lower", _MIXED),
    Layer("serve.tick_block_ms_p90", "ms", "lower", _MIXED),
    Layer("serve.tick_busy_share", "ratio", "lower", _MIXED),
    Layer("serve.coalesced_ratio", "ratio", "lower", "req_within_limit read_cold, mixed_update"),
    Layer("serve.shed", "count", "lower", "req_fail_ratio read_cold, mixed_update"),
    Layer("serve.worker_errors", "count", "lower", "req_fail_ratio read_cold, mixed_update"),
    Layer("serve.queue_depth_peak", "count", "lower", "req_within_limit read_cold, mixed_update"),
    Layer("serve.req_p50_ms", "ms", "lower", _NONE),
    Layer("serve.req_p99_ms", "ms", "lower", _NONE),
    Layer("serve.req_p999_ms", "ms", "lower", _NONE),
    Layer("serve.gen_late_p99_ms", "ms", "lower", _NONE),
    # web
    Layer("web.request_parse_us", "us", "lower", _HOT),
    Layer("web.page_key_us", "us", "lower", _HOT),
    Layer("web.cache_get_us", "us", "lower", _HOT),
    Layer("web.cache_put_us", "us", "lower", "sat_rps read_cold"),
    Layer("web.cache_evictions", "count", "lower", "sat_rps read_cold"),
    Layer("web.cache_bytes_used", "bytes", "lower", "peak_rss_mb all"),
    Layer("web.cache_eject_us", "us", "lower", "eject_p50_ms update_storm"),
    Layer("web.balancer_self_us", "us", "lower", "sat_rps read_cold"),
    Layer("web.appserver_self_us", "us", "lower", "sat_rps read_cold"),
    Layer("web.servlet_self_us", "us", "lower", "sat_rps read_cold"),
    # db
    Layer("db.pool_wait_us", "us", "lower", "req_within_limit read_cold"),
    Layer("db.pool_exhausted", "count", "lower", "req_fail_ratio read_cold"),
    Layer("db.dbapi_self_us", "us", "lower", "sat_rps read_cold"),
    Layer("db.select_light_us", "us", "lower", "sat_rps read_cold"),
    Layer("db.select_medium_us", "us", "lower", "sat_rps read_cold"),
    Layer("db.select_heavy_us", "us", "lower", "sat_rps read_cold"),
    Layer("db.plan_cache_hit_ratio", "ratio", "higher", "sat_rps read_cold"),
    Layer("db.rows_examined_per_row", "ratio", "lower", "sat_rps read_cold"),
    Layer("db.dml_us", "us", "lower", "inv_updates_per_s update_storm"),
    Layer("db.poll_query_us", "us", "lower", _STORM + "; req_within_limit mixed_update"),
    # sql
    Layer("sql.parse_us", "us", "lower", "sat_rps read_cold (via register_us_per_instance)"),
    # core.sniffer
    Layer("core.sniffer.request_log_us", "us", "lower", "sat_rps read_cold"),
    Layer("core.sniffer.query_log_us", "us", "lower", "sat_rps read_cold"),
    Layer("core.sniffer.mapper_us_per_request", "us", "lower",
          "sat_rps read_cold; eject_p50_ms mixed_update"),
    Layer("core.sniffer.pairs_written", "count", "lower", "sat_rps read_cold"),
    Layer("core.sniffer.queries_held", "count", "lower", "eject_p50_ms mixed_update"),
    # core.invalidator
    Layer("core.invalidator.register_us_per_instance", "us", "lower",
          "sat_rps read_cold; setup_s update_storm"),
    Layer("core.invalidator.instances_registered", "count", "lower", "sat_rps read_cold"),
    Layer("core.invalidator.decide_ms_per_update", "ms", "lower",
          _STORM + "; req_within_limit mixed_update"),
    Layer("core.invalidator.pairs_checked_per_update", "count", "lower", _STORM),
    Layer("core.invalidator.version_key_share", "ratio", "higher", _STORM),
    Layer("core.invalidator.static_skip_share", "ratio", "higher", _STORM),
    Layer("core.invalidator.index_pruned_share", "ratio", "higher", _STORM),
    Layer("core.invalidator.polls_per_update", "count", "lower", _STORM),
    Layer("core.invalidator.poll_round_trips_per_update", "count", "lower", _STORM),
    Layer("core.invalidator.over_invalidated", "count", "lower",
          "over_eject_ratio, hit_ratio update_storm"),
    Layer("core.invalidator.sync_cycle_ms_per_update", "ms", "lower",
          "none: the second consumer ROADMAP B merges"),
    # stream
    Layer("stream.tailer_us_per_record", "us", "lower", _STORM),
    Layer("stream.pump_ms_p50", "ms", "lower", _STORM),
    Layer("stream.bus_publish_us_per_eject", "us", "lower", _STORM),
    Layer("stream.bus_deliver_us_per_eject", "us", "lower", _STORM),
    Layer("stream.ejects_coalesced_ratio", "ratio", "higher", _STORM),
    Layer("stream.retries", "count", "lower", _STORM),
    Layer("stream.dead_letters", "count", "lower", "stale_pages all"),
    Layer("stream.lag_records_peak", "count", "lower", "eject_p50_ms mixed_update"),
    Layer("stream.eject_p90_ms", "ms", "lower", _NONE),
    Layer("stream.eject_max_ms", "ms", "lower", _NONE),
    Layer("stream.clear_p50_ms", "ms", "lower", _NONE),
    # core.recovery
    Layer("core.recovery.checkpoint_s", "s", "lower", "none: held for ROADMAP D"),
    Layer("core.recovery.restore_s", "s", "lower", "none: held for ROADMAP D"),
    Layer("core.recovery.checkpoint_bytes", "bytes", "lower", "none: held for ROADMAP D"),
    # cluster (probe only; no workload is cluster-fronted yet)
    Layer("cluster.get_us", "us", "lower", "none: parity record for ROADMAP C"),
    Layer("cluster.put_us", "us", "lower", "none: parity record for ROADMAP C"),
    Layer("cluster.routed_eject_us", "us", "lower", "none: parity record for ROADMAP C"),
    # ledger sanity
    Layer("trace_overhead_ratio", "ratio", "higher", "traced / untraced sat_rps slices"),
    Layer("ledger_unattributed_share", "ratio", "lower",
          "root-span time no layer's self time covers"),
    Layer("speed.slowdown", "ratio", "lower",
          "none: median kernel slowdown of the run (bench/speed.py); the "
          "per-layer timings are raw, divide by it to compare runs"),
) + tuple(
    # end-to-end metrics the driver's contract cannot carry (ZERO_HEALTHY)
    Layer(m.name, m.unit, m.better, "end-to-end: " + m.meaning)
    for m in END_TO_END
    if m.name in ZERO_HEALTHY
)


def spec() -> Dict[str, object]:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why} for workload in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }


def names(table) -> List[str]:
    return [metric.name for metric in table]
