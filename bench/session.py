"""One workload, one pass, one process: set up, measure, check, report.

The order of work is fixed: set up ``setups`` times (the last one is
kept), ``gc.freeze()``, then the phases — storm, paced, saturation —
then stop the gateway with drain and audit the cache at quiescence.  The
untraced pass yields the end-to-end metrics; the traced pass installs
``bench.trace`` wrappers and yields the per-layer ledger.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import StreamingInvalidationPipeline
from repro.cluster import CacheCluster, attach_cluster_to_bus
from repro.serve.gateway import AsyncGateway
from repro.sql import parse_statement, to_sql
from repro.stream.bus import EjectBus
from repro.web.http import HttpRequest
from repro.web.urlkey import page_key

from bench import checks, drivers
from bench.metrics import (
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    ZERO_HEALTHY,
    names,
)
from bench.site import Bed, build_bed
from bench.speed import SpeedLog
from bench.trace import REQUEST_ROOT, Tracer
from bench.workloads import (
    BURST,
    CLIENTS,
    MISS_WORKERS,
    REQ_LIMIT_MS,
    SAMPLE_EVERY,
    SPEED_INTERVAL_S,
    TICK_INTERVAL_S,
    TWIN_UPDATES,
    YIELD_EVERY,
    Inputs,
    Scale,
    Workload,
    make_inputs,
    slicing,
    windows,
)

_now = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
CONTROLS = ("no-invalidation", "planted-eject")


@dataclass
class Config:
    workload: Workload
    scale: Scale
    seed: int
    seconds: float
    trace: bool
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    control: Optional[str] = None


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of unsorted ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def supported(count: int, q: float) -> float:
    """The highest quantile <= ``q`` with at least ten samples beyond it."""
    return max(0.5, min(q, 1.0 - 10.0 / count)) if count else q


def slice_rates(sat: drivers.SatResult, speed: Optional[SpeedLog]) -> List[float]:
    """Good responses per second of each slice — at reference speed when
    ``speed`` is given: a slice run 1.7x slowed counts 1.7x its raw rate."""
    rates = []
    for index, count in enumerate(sat.slices):
        begins = sat.start + index * sat.slice_s
        slowed = speed.slowdown(begins, begins + sat.slice_s) if speed else 1.0
        rates.append(slowed * count / sat.slice_s)
    return rates


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """The measured part of one pass over one warmed bed."""

    def __init__(
        self,
        config: Config,
        bed: Bed,
        gateway: AsyncGateway,
        inputs: Inputs,
        tracer: Optional[Tracer],
        speed: SpeedLog,
    ) -> None:
        self.speed = speed
        self.config = config
        self.bed = bed
        self.gateway = gateway
        self.inputs = inputs
        self.tracer = tracer
        self.urls_by_key = checks.key_to_url(bed, inputs.urls)
        self.dml = array("d")
        self.paced = drivers.PacedResult()
        self.sat = drivers.SatResult()
        self.hit_ratio = 0.0
        self.serve_wall = 0.0
        self.commits_beside = 0
        self.wrong_samples = 0
        self.bursts: List[Tuple[float, float]] = []
        self.storm_ejected = 0
        self.over_ejected = 0
        self.stream_twin_keys: List[str] = []
        self.traced_rps = 0.0
        self.untraced_rps = 0.0
        #: Leading saturation slices left out of every median.
        self.sat_skip = 0

    def _get(self, url: str):
        # looked up per call: the traced pass swaps gateway.get in and out
        return self.gateway.get(url)

    def _on_slice(self, index: int) -> None:
        """Traced pass: odd slices run with the wrappers, even without."""
        if index % 2:
            self.tracer.install(self.bed, self.gateway)
        else:
            self.tracer.uninstall()

    async def serve(self) -> None:
        config, bed, pump = self.config, self.bed, self.bed.pump
        workload = config.workload
        _paced_s, sat_s, _storm = windows(config.seconds)
        stats = self.gateway.stats
        commits = None
        began = _now()
        committed = len(self.dml)
        if self.inputs.serve_updates:
            ticked = asyncio.Event()
            pump.after_tick = ticked.set
            commits = asyncio.ensure_future(
                drivers.commit_stream(
                    bed.site.update,
                    pump.committed,
                    self.inputs.serve_updates,
                    workload.update_rps,
                    self.dml,
                    ticked,
                )
            )
        pump.phase = "paced"
        hits, requests = stats.hits, stats.requests
        self.paced = await drivers.paced(
            self._get,
            self.inputs.paced,
            workload.paced_rps * config.scale.load,
            REQ_LIMIT_MS / 1e3,
            SAMPLE_EVERY,
        )
        self.hit_ratio = (stats.hits - hits) / max(1, stats.requests - requests)
        pump.phase = "sat"
        slice_s, self.sat_skip = slicing(sat_s)
        self.sat = await drivers.saturate(
            self._get,
            self.inputs.rings,
            sat_s,
            slice_s,
            YIELD_EVERY,
            self._on_slice if self.tracer is not None else None,
        )
        if commits is not None:
            commits.cancel()
            await asyncio.gather(commits, return_exceptions=True)
            pump.after_tick = None
        self.commits_beside = len(self.dml) - committed
        self.serve_wall = _now() - began
        if self.tracer is not None:
            self.tracer.install(bed, self.gateway)
            kept = list(enumerate(slice_rates(self.sat, self.speed)))[self.sat_skip :]
            self.traced_rps = median([rate for index, rate in kept if index % 2])
            self.untraced_rps = median([rate for index, rate in kept if not index % 2])
        if not self.inputs.serve_updates:
            self.wrong_samples = checks.wrong_samples(bed, self.paced.samples)

    def storm(self) -> None:
        config, bed = self.config, self.bed
        bed.pump.phase = "storm"
        before = checks.cached_bodies(bed)
        events = bed.probe.events
        mark = twin_mark = len(events)
        twin_updates = min(TWIN_UPDATES, len(self.inputs.storm_updates))

        def after_burst(done: int) -> None:
            nonlocal twin_mark
            self.speed.sample()
            if done <= twin_updates:
                twin_mark = len(events)

        self.speed.sample()
        self.bursts = drivers.storm(
            bed.site.update,
            bed.pump.committed,
            bed.pump.tick,
            self.inputs.storm_updates,
            BURST,
            self.dml,
            after_burst,
        )
        if config.control == "planted-eject":
            # ejects for pages no update touched: each must count as needless
            untouched = sorted(before.keys() - {key for _at, key in events[mark:]})
            bed.pipeline.bus.publish(untouched[: max(1, len(untouched) // 50)])
            bed.pump.tick()
        ejected = {key for _at, key in events[mark:]} & before.keys()
        self.storm_ejected = len(ejected)
        self.over_ejected = checks.over_ejected(
            bed, before, ejected, self.urls_by_key
        )
        self.stream_twin_keys = sorted(
            {key for _at, key in events[mark:twin_mark]} & before.keys()
        )


async def _setup(
    config: Config, speed: SpeedLog
) -> Tuple[Bed, AsyncGateway, Inputs, int]:
    """Inputs, site, gateway, warm-up, registration; a kernel sample
    between the stages that never yield to the loop's sampler."""
    speed.sample()
    inputs = make_inputs(config.workload, config.scale, config.seed, config.seconds)
    speed.sample()
    bed = build_bed(
        config.workload,
        config.scale,
        config.seed,
        invalidate=config.control != "no-invalidation",
    )
    speed.sample()
    gateway = AsyncGateway(
        bed.site,
        workers=MISS_WORKERS,
        tick=bed.pump.tick,
        tick_interval=TICK_INTERVAL_S,
    )
    await gateway.start()
    failed = await drivers.warm(gateway.get, inputs.warm, CLIENTS)
    await gateway.join()
    speed.sample()
    bed.pump.tick()  # map and register the warm set before anything is measured
    speed.sample()
    return bed, gateway, inputs, failed


def _eject_ms(
    speed: SpeedLog, samples: Sequence[Tuple[str, float, float, float]], beside: bool
) -> Tuple[List[float], List[float]]:
    """(raw, at reference speed) commit -> eject times of pump samples.

    Beside traffic the time before the drain is the gateway's tick timer,
    which no neighbour slows; in the storm it is the burst's other
    commits.  So only CPU work is brought to reference speed."""
    phases = ("paced", "sat") if beside else ("storm",)
    raw, scaled = [], []
    for phase, before, drain, when in samples:
        if phase not in phases:
            continue
        slowed = speed.slowdown(when, when)
        raw.append(before + drain)
        scaled.append(before + drain / slowed if beside else (before + drain) / slowed)
    return raw, scaled


async def _session(config: Config, scratch: Path) -> Dict[str, object]:
    workload = config.workload
    load_before = os.getloadavg()[0]
    speed = SpeedLog()
    sampler = asyncio.ensure_future(speed.keep_sampling(SPEED_INTERVAL_S))
    setups: List[Tuple[float, float]] = []  # (began, seconds)
    for attempt in range(config.setups):
        began = _now()
        bed, gateway, inputs, warm_failed = await _setup(config, speed)
        setups.append((began, _now() - began))
        if attempt + 1 < config.setups:
            await gateway.stop()
            del bed, gateway, inputs
            gc.collect()
    gc.collect()
    gc.freeze()

    tracer = Tracer() if config.trace else None
    run = Run(config, bed, gateway, inputs, tracer, speed)
    counters = _Counters(bed, gateway)
    try:
        if tracer is not None:
            tracer.install(bed, gateway)
        run.storm()
        await run.serve()
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        if tracer is not None:
            tracer.uninstall()
        await gateway.stop()  # drain: queued misses, final tick, bus empty
    delta = counters.delta()
    stale = checks.stale_pages(bed, run.urls_by_key)

    pump, paced, sat = bed.pump, run.paced, run.sat
    ejects_raw, ejects = _eject_ms(speed, pump.eject_ms, beside=workload.update_rps > 0)
    storm_n = len(inputs.storm_updates)
    storm_raw = sum(seconds for _began, seconds in run.bursts)
    storm_s = sum(
        seconds / speed.slowdown(began, began + seconds) for began, seconds in run.bursts
    )
    slowed: Dict[int, float] = {}  # per kernel interval, not per request
    within = 0
    for latency, done in zip(paced.latency, paced.done_at):
        bucket = int(done / SPEED_INTERVAL_S)
        if bucket not in slowed:
            slowed[bucket] = speed.slowdown(done, done)
        within += latency / slowed[bucket] <= REQ_LIMIT_MS / 1e3
    requests = paced.sent + sat.sent
    failed = paced.failed + sat.failed + warm_failed
    kept = slice_rates(sat, speed)[run.sat_skip :]
    end_to_end = {
        "sat_rps": median(kept),
        "req_within_limit": within / max(1, paced.sent),
        "req_fail_ratio": failed / max(1, requests),
        "hit_ratio": run.hit_ratio,
        "eject_p50_ms": quantile(ejects, 0.5),
        "inv_updates_per_s": storm_n / storm_s if storm_s else 0.0,
        "over_eject_ratio": run.over_ejected / max(1, run.storm_ejected),
        "stale_pages": float(stale),
        "setup_s": median(
            [seconds / speed.slowdown(began, began + seconds) for began, seconds in setups]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    #: The same numbers as the wall clock saw them, whatever the neighbours did.
    raw = {
        "sat_rps": median(slice_rates(sat, None)[run.sat_skip :]),
        "req_within_limit": paced.within / max(1, paced.sent),
        "eject_p50_ms": quantile(ejects_raw, 0.5),
        "inv_updates_per_s": storm_n / storm_raw if storm_raw else 0.0,
        "setup_s": median([seconds for _began, seconds in setups]),
        "slowdown": speed.overall(),
    }
    latency_ms = [1e3 * value for value in paced.latency]
    all_ejects = [before + drain for _phase, before, drain, _when in pump.eject_ms]
    ticks = [seconds for phase, seconds in pump.blocks if phase in ("paced", "sat")]
    diagnostics = {
        "serve.req_p50_ms": quantile(latency_ms, 0.5),
        "serve.req_p99_ms": quantile(latency_ms, supported(len(latency_ms), 0.99)),
        "serve.req_p999_ms": quantile(latency_ms, supported(len(latency_ms), 0.999)),
        "serve.gen_late_p99_ms": 1e3 * quantile(paced.lateness, 0.99),
        "serve.tick_block_ms_p50": 1e3 * quantile(ticks, 0.5),
        "serve.tick_block_ms_p90": 1e3 * quantile(ticks, 0.9),
        "serve.tick_busy_share": sum(ticks) / run.serve_wall if run.serve_wall else 0.0,
        "stream.eject_p90_ms": quantile(all_ejects, 0.9),
        "stream.eject_max_ms": max(all_ejects, default=0.0),
        "stream.clear_p50_ms": quantile(
            [before + drain for _phase, before, drain, _when in pump.clear_ms], 0.5
        ),
        "stream.lag_records_peak": float(pump.lag_peak),
        "db.dml_us": 1e6 * quantile(run.dml, 0.5),
        "speed.slowdown": speed.overall(),
    }
    verdicts = {
        "stale_pages == 0": stale == 0,
        "no request failed": failed == 0,
        "sampled bodies == regeneration": run.wrong_samples == 0,
        "no worker error, shed or dead letter": not (
            delta["worker_errors"] or delta["shed"] or delta["dead_letters"]
        ),
        # a window too short for whole slices would report sat_rps 0 and pass
        "saturation slices >= 4, none empty": len(kept) >= 4 and min(kept) > 0,
    }
    if config.scale.load >= 1.0:
        # the short --smoke windows may simply commit nothing that ejects
        verdicts["eject samples >= 1"] = bool(ejects)
    sample_counts = {
        "paced_requests": paced.sent,
        "sat_requests": sat.sent,
        "eject_groups": len(ejects),
        "clear_groups": len(pump.clear_ms),
        "storm_updates": storm_n,
        "commits_beside_traffic": run.commits_beside,
        "storm_ejected_pages": run.storm_ejected,
        "sampled_bodies": len(dict(paced.samples)),
    }

    per_layer: Dict[str, float] = {}
    if tracer is not None:
        per_layer = {name: end_to_end[name] for name in ZERO_HEALTHY}
        per_layer.update(diagnostics)
        per_layer.update(_ledger(run, tracer, delta))
        per_layer.update(_probes(run, tracer, scratch))
        twin_ms, twin_keys = await checks.sync_twin(
            workload,
            config.scale,
            config.seed,
            inputs,
            min(TWIN_UPDATES, storm_n),
        )
        per_layer["core.invalidator.sync_cycle_ms_per_update"] = twin_ms
        if config.control is None:
            verdicts["stream eject set == sync twin's"] = (
                run.stream_twin_keys == twin_keys
            )

    if sorted(end_to_end) != sorted(names(END_TO_END)) or (
        config.trace and sorted(per_layer) != sorted(names(PER_LAYER))
    ):
        raise RuntimeError("metric tables and session disagree")
    # the driver's result line: its contract's end-to-end metrics, or the ledger
    shown = per_layer if config.trace else end_to_end
    wanted = names(PER_LAYER if config.trace else DRIVER_END_TO_END)
    units = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
    load_after = os.getloadavg()[0]
    return {
        "correct": all(verdicts.values()),
        "attempted": requests + run.commits_beside + storm_n,
        "failed": failed,
        "metrics": {
            name: {"value": shown[name], "unit": units[name]} for name in wanted
        },
        "detail": {
            "workload": workload.name,
            "seed": config.seed,
            "seconds": config.seconds,
            "trace": int(config.trace),
            "control": config.control,
            "inputs_sha256": inputs.sha256,
            "windows": dict(
                zip(("paced_s", "sat_s", "storm_updates"), windows(config.seconds)),
                setups=config.setups,
            ),
            "rates": {
                "paced_rps": workload.paced_rps * config.scale.load,
                "update_rps": workload.update_rps,
            },
            "checks": verdicts,
            "samples": sample_counts,
            "end_to_end": end_to_end,
            "diagnostics": diagnostics,
            "raw": raw,
            "loadavg_1m": [load_before, load_after],
            "first_error": paced.first_error or sat.first_error,
        },
    }


class _Counters:
    """Public counters read before and after the measured window."""

    def __init__(self, bed: Bed, gateway: AsyncGateway) -> None:
        self.bed = bed
        self.gateway = gateway
        self.before = self._read()

    def _read(self) -> Dict[str, float]:
        bed, stats = self.bed, self.gateway.stats
        pipeline = bed.pipeline.stats()
        workers, bus = pipeline["workers"], pipeline["bus"]
        mapper = bed.portal.sniffer.mapper
        pools = [server.pool.stats() for server in bed.site.app_servers]
        cache = bed.site.web_cache.stats
        return {
            "requests": stats.requests,
            "misses": stats.misses,
            "coalesced": stats.coalesced,
            "shed": stats.shed,
            "worker_errors": stats.worker_errors,
            "evictions": cache.evictions,
            "pool_exhausted": sum(pool["acquire_timeouts"] for pool in pools),
            "plan_hits": bed.database.plan_cache_hits,
            "plan_misses": bed.database.plan_cache_misses,
            "requests_mapped": mapper.requests_mapped,
            "pairs_written": mapper.pairs_written,
            "rows_scanned": bed.pipeline.registration.rows_scanned,
            "records_tailed": pipeline["tailer"]["records_tailed"],
            "pairs_checked": workers["pairs_checked"],
            "pairs_pruned": workers["pairs_pruned"],
            "polls_avoided": workers["polls_avoided"],
            "static_skips": workers["static_disjoint_skips"],
            "polls_executed": workers["polls_executed"],
            "batched_queries": workers["batched_queries"],
            "batched_instances": workers["batched_instances"],
            "over_invalidated": workers["over_invalidated"],
            "ejects_requested": bus["ejects_requested"],
            "ejects_coalesced": bus["ejects_coalesced"],
            "deliveries_ok": bus["deliveries_ok"],
            "retries": bus["retries"],
            "dead_letters": bus["dead_letters"],
        }

    def delta(self) -> Dict[str, float]:
        after = self._read()
        return {name: after[name] - self.before[name] for name in after}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def _ledger(run: Run, tracer: Tracer, delta: Dict[str, float]) -> Dict[str, float]:
    """Per-layer numbers from the spans and the public counters."""
    bed, stats = run.bed, run.gateway.stats
    updates = run.commits_beside + len(run.inputs.storm_updates)
    pairs = delta["pairs_checked"]
    round_trips = delta["batched_queries"] + (
        delta["polls_executed"] - delta["batched_instances"]
    )
    moved = [1e3 * value for value in tracer.durations.get("stream.pump_once", ())]
    return {
        "serve.hit_us": tracer.median_us("serve.handle.hit"),
        "serve.miss_overhead_us": tracer.median_us("serve.handle.miss"),
        "serve.coalesced_ratio": _per(delta["coalesced"], delta["misses"]),
        "serve.shed": delta["shed"],
        "serve.worker_errors": delta["worker_errors"],
        "serve.queue_depth_peak": float(stats.queue_depth_peak),
        "web.request_parse_us": tracer.median_us(REQUEST_ROOT),
        "web.cache_get_us": tracer.median_us("web.cache.get"),
        "web.cache_put_us": tracer.median_us("web.cache.put"),
        "web.cache_evictions": delta["evictions"],
        "web.cache_bytes_used": float(bed.site.web_cache.stats.bytes_used),
        "web.cache_eject_us": tracer.median_us("web.cache.eject"),
        "web.balancer_self_us": tracer.median_us("web.balancer"),
        "web.appserver_self_us": tracer.median_us("web.appserver"),
        "web.servlet_self_us": tracer.median_us("web.servlet"),
        "db.pool_wait_us": tracer.median_us("db.pool_wait"),
        "db.pool_exhausted": delta["pool_exhausted"],
        "db.dbapi_self_us": tracer.median_us("db.dbapi"),
        "db.select_light_us": tracer.median_us("db.select.light"),
        "db.select_medium_us": tracer.median_us("db.select.medium"),
        "db.select_heavy_us": tracer.median_us("db.select.heavy"),
        "db.plan_cache_hit_ratio": _per(
            delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
        ),
        "db.rows_examined_per_row": _per(
            tracer.counts["rows_examined"], tracer.counts["rows_returned"]
        ),
        "db.poll_query_us": tracer.median_us("db.poll_query"),
        "core.sniffer.request_log_us": tracer.median_us("core.sniffer.request_log"),
        "core.sniffer.query_log_us": tracer.median_us("core.sniffer.query_log"),
        "core.sniffer.mapper_us_per_request": _per(
            tracer.total("core.sniffer.mapper"), delta["requests_mapped"], 1e6
        ),
        "core.sniffer.pairs_written": delta["pairs_written"],
        "core.sniffer.queries_held": float(bed.portal.sniffer.mapper.queries_held),
        "core.invalidator.register_us_per_instance": _per(
            tracer.total("core.invalidator.register"), delta["rows_scanned"], 1e6
        ),
        "core.invalidator.instances_registered": delta["rows_scanned"],
        "core.invalidator.decide_ms_per_update": _per(
            tracer.total("core.invalidator.decide"), updates, 1e3
        ),
        "core.invalidator.pairs_checked_per_update": _per(pairs, updates),
        "core.invalidator.version_key_share": _per(delta["polls_avoided"], pairs),
        "core.invalidator.static_skip_share": _per(delta["static_skips"], pairs),
        "core.invalidator.index_pruned_share": _per(delta["pairs_pruned"], pairs),
        "core.invalidator.polls_per_update": _per(delta["polls_executed"], updates),
        "core.invalidator.poll_round_trips_per_update": _per(round_trips, updates),
        "core.invalidator.over_invalidated": delta["over_invalidated"],
        "stream.tailer_us_per_record": _per(
            tracer.total("stream.tailer"), delta["records_tailed"], 1e6
        ),
        "stream.pump_ms_p50": quantile(moved, 0.5),
        "stream.bus_publish_us_per_eject": _per(
            tracer.total("stream.bus.publish"), delta["ejects_requested"], 1e6
        ),
        "stream.bus_deliver_us_per_eject": _per(
            tracer.total("stream.bus.deliver"), delta["deliveries_ok"], 1e6
        ),
        "stream.ejects_coalesced_ratio": _per(
            delta["ejects_coalesced"], delta["ejects_requested"]
        ),
        "stream.retries": delta["retries"],
        "stream.dead_letters": delta["dead_letters"],
        "trace_overhead_ratio": _per(run.traced_rps, run.untraced_rps),
        "ledger_unattributed_share": tracer.unattributed_share(),
    }


def _median_call_us(call, arguments: Sequence[tuple]) -> float:
    times = []
    for args in arguments:
        began = _now()
        call(*args)
        times.append(_now() - began)
    return 1e6 * quantile(times, 0.5)


def _probes(run: Run, tracer: Tracer, scratch: Path) -> Dict[str, float]:
    """Layers no workload drives through a wrappable attribute: timed by
    calling their public entry point directly on this run's own data."""
    bed = run.bed
    urls = run.inputs.paced[:2000]
    requests = [HttpRequest.from_url(url) for url in urls]
    page_key_us = _median_call_us(
        page_key,
        [(request, bed.servlets[request.path].key_spec) for request in requests],
    )
    statements = [
        "SELECT id, cat, price, stock FROM item WHERE id = 17",
        "SELECT id, price FROM item WHERE cat = 3 AND price < 550",
        "SELECT item.id, item.price, review.stars FROM item, review WHERE "
        "item.id = review.item_id AND item.cat = 3 AND review.stars >= 5",
    ]
    poll = tracer.poll_statement
    if poll is not None:
        statements.append(poll if isinstance(poll, str) else to_sql(poll))
    parse_us = _median_call_us(parse_statement, [(sql,) for sql in statements] * 50)

    entries = bed.site.web_cache.entries()[:2000]
    cluster = CacheCluster(num_shards=4, checkpoint_dir=scratch / "cluster")
    put_us = _median_call_us(
        cluster.put, [(entry.url_key, entry.response) for entry in entries]
    )
    get_us = _median_call_us(cluster.get, [(entry.url_key,) for entry in entries])
    bus = EjectBus()
    attach_cluster_to_bus(bus, cluster)
    began = _now()
    bus.publish([entry.url_key for entry in entries])
    while bus.outstanding:
        bus.pump()
    eject_us = _per(_now() - began, len(entries), 1e6)

    checkpoint = scratch / "pipeline.ckpt"
    began = _now()
    bed.pipeline.checkpoint(checkpoint)
    checkpoint_s = _now() - began
    restored = StreamingInvalidationPipeline(database=bed.database)
    began = _now()
    restored.restore(checkpoint, reconcile_caches=False)
    restore_s = _now() - began
    return {
        "web.page_key_us": page_key_us,
        "sql.parse_us": parse_us,
        "cluster.get_us": get_us,
        "cluster.put_us": put_us,
        "cluster.routed_eject_us": eject_us,
        "core.recovery.checkpoint_s": checkpoint_s,
        "core.recovery.restore_s": restore_s,
        "core.recovery.checkpoint_bytes": float(checkpoint.stat().st_size),
    }


def pin_to_one_cpu() -> Optional[int]:
    """Noise control: run every thread of this process on one CPU.

    The program's threads are serialised by the GIL, so a second core
    adds no throughput — measured here it halves the miss lane's, the
    hand-off crossing cores — while each vCPU's sibling hyperthread is
    slowed by a different neighbour.  On one CPU the speed kernel and the
    miss threads see the same machine.  Returns the CPU, or None where
    the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(config: Config) -> Dict[str, object]:
    """Run one pass; returns the result record (contract keys + detail)."""
    pinned = pin_to_one_cpu()
    scratch = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        record = asyncio.run(_session(config, scratch))
        record["detail"]["pinned_cpu"] = pinned
        return record
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
