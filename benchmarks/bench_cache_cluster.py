"""Cache-cluster benchmark: serving parity across shard counts, warm
restarts, and routed eject fan-out.

Sharding the page cache is only worth it if it is *free* at the serving
layer: the paper's hit-ratio and invalidation-latency story must hold
whether the cache is one process or 64.  This bench fixes the **total**
DRAM budget and sweeps the shard count under a Zipfian hot set:

* **serving parity** — hit ratio within 10% from 1 → 64 shards (the
  consistent-hash ring spreads the hot set; a broken ring would crater
  the tail shards' hit ratios);
* **eject parity** — mean eject latency within 10% plus a small absolute
  slack floor (sub-millisecond in-process timings jitter more than 10%
  on CI runners);
* **warm restart** — kill shards mid-workload, restore from per-shard
  snapshots, and require ≥95% of the pre-kill hit ratio within one
  workload pass; the cold-restart control arm shows the gap warm
  restores close;
* **routed fan-out** — the bus counters must show every eject delivered
  to owning shards only, with byte-identical surviving contents vs the
  broadcast control arm.

Scale knobs (CI smoke runs tiny values):
``REPRO_BENCH_CLUSTER_SHARDS`` (comma list, default ``1,4,16,64``),
``REPRO_BENCH_CLUSTER_KEYS``, ``REPRO_BENCH_CLUSTER_REQUESTS``,
``REPRO_BENCH_CLUSTER_WARMUP``, ``REPRO_BENCH_CLUSTER_EJECTS``,
``REPRO_BENCH_CLUSTER_LAT_SLACK_MS``.
"""

import os
from dataclasses import asdict

from repro.cluster import CacheCluster

from cluster_workload import ClusterWorkloadConfig, cluster_contents, run_cluster_workload
from conftest import emit

SHARD_COUNTS = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_CLUSTER_SHARDS", "1,4,16,64").split(",")
    if part.strip()
]
KEYS = int(os.environ.get("REPRO_BENCH_CLUSTER_KEYS", "5000"))
REQUESTS = int(os.environ.get("REPRO_BENCH_CLUSTER_REQUESTS", "8000"))
WARMUP = int(os.environ.get("REPRO_BENCH_CLUSTER_WARMUP", "6000"))
EJECTS = int(os.environ.get("REPRO_BENCH_CLUSTER_EJECTS", "1500"))

#: Fixed *total* budgets, split across however many shards run.
TOTAL_HOT_BYTES = 3 * 1024 * 1024
TOTAL_COLD_ENTRIES = 8192

#: Relative tolerance for the 1→64 shard parity criteria.
SPREAD = 0.10
#: Absolute slack floor for eject-latency spread: in-process delivery is
#: sub-millisecond, where scheduler noise exceeds any relative bound.
LAT_SLACK_MS = float(os.environ.get("REPRO_BENCH_CLUSTER_LAT_SLACK_MS", "0.5"))

SEED = 1337


def config_for(shards, **overrides):
    base = dict(
        shards=shards,
        hot_bytes=max(4096, TOTAL_HOT_BYTES // shards),
        cold_entries=max(16, TOTAL_COLD_ENTRIES // shards),
        keys=KEYS,
        warmup=WARMUP,
        requests=REQUESTS,
        ejects=EJECTS,
        seed=SEED,
    )
    base.update(overrides)
    return ClusterWorkloadConfig(**base)


def test_shard_count_sweep(tmp_path):
    """Hit ratio and eject latency must not degrade with shard count."""
    rows = []
    for shards in SHARD_COUNTS:
        result = run_cluster_workload(
            config_for(shards, checkpoint_dir=tmp_path / f"sweep{shards}")
        )
        # routed fan-out sanity at every scale: one delivery per eject
        assert result.ejects_broadcast == 0
        assert result.deliveries_ok == result.ejects_routed
        rows.append(result)

    hit_ratios = [row.hit_ratio_pass2 for row in rows]
    latencies = [row.eject_latency_mean_ms for row in rows]
    hit_spread = (max(hit_ratios) - min(hit_ratios)) / max(hit_ratios)
    lat_spread = max(latencies) - min(latencies)
    lat_budget = max(SPREAD * max(latencies), LAT_SLACK_MS)

    emit(
        "Cache cluster: 1→64 shard sweep (fixed total budget)",
        [
            f"{'shards':>7s} {'hit p1':>8s} {'hit p2':>8s} {'eject ms':>9s} "
            f"{'saved':>7s} {'bytes':>9s}"
        ]
        + [
            f"{row.config.shards:7d} {row.hit_ratio_pass1:8.4f} "
            f"{row.hit_ratio_pass2:8.4f} {row.eject_latency_mean_ms:9.3f} "
            f"{row.routed_deliveries_saved:7d} {row.bytes_used:9d}"
            for row in rows
        ]
        + [
            f"hit-ratio spread  : {hit_spread * 100:.2f}% (budget {SPREAD * 100:.0f}%)",
            f"latency spread    : {lat_spread:.3f} ms (budget {lat_budget:.3f} ms)",
        ],
        data={
            "shard_counts": SHARD_COUNTS,
            "results": [asdict(row) for row in rows],
            "hit_ratio_spread": round(hit_spread, 4),
            "latency_spread_ms": round(lat_spread, 4),
        },
    )

    assert hit_spread <= SPREAD, (
        f"hit ratio degraded {hit_spread:.2%} across shard counts "
        f"{SHARD_COUNTS}: {hit_ratios}"
    )
    assert lat_spread <= lat_budget, (
        f"eject latency spread {lat_spread:.3f} ms exceeds "
        f"{lat_budget:.3f} ms across {SHARD_COUNTS}: {latencies}"
    )


def test_warm_restart_recovers_hot_set(tmp_path):
    """Kill/restart arms: warm restores ≥95% of the pre-kill hit ratio
    within one workload pass; cold restarts show the re-warm gap."""
    shards = 8
    kills = 2
    baseline = run_cluster_workload(
        config_for(shards, checkpoint_dir=tmp_path / "base")
    )
    warm = run_cluster_workload(
        config_for(
            shards,
            kill_shards=kills,
            restart="warm",
            checkpoint_dir=tmp_path / "warm",
        )
    )
    cold = run_cluster_workload(
        config_for(
            shards,
            kill_shards=kills,
            restart="cold",
            checkpoint_dir=tmp_path / "cold",
        )
    )
    recovery_ratio = warm.hit_ratio_pass2 / baseline.hit_ratio_pass2

    emit(
        "Cache cluster: warm vs cold restart recovery",
        [
            f"shards/kills      : {shards}/{kills}",
            f"baseline pass-2   : {baseline.hit_ratio_pass2:.4f}",
            f"warm pass-2       : {warm.hit_ratio_pass2:.4f} "
            f"({warm.pages_restored} pages restored, "
            f"{warm.pages_dropped_on_restore} journal-dropped)",
            f"cold pass-2       : {cold.hit_ratio_pass2:.4f} "
            f"({cold.pages_lost} pages lost)",
            f"warm recovery     : {recovery_ratio * 100:.1f}% of baseline "
            f"(target ≥95%)",
        ],
        data={
            "baseline": asdict(baseline),
            "warm": asdict(warm),
            "cold": asdict(cold),
            "recovery_ratio": round(recovery_ratio, 4),
        },
    )

    assert warm.pages_restored > 0
    assert recovery_ratio >= 0.95, (
        f"warm restart recovered only {recovery_ratio:.2%} of the "
        f"baseline hit ratio"
    )
    # the whole point of warm restores: they beat re-warming from cold
    assert warm.hit_ratio_pass2 >= cold.hit_ratio_pass2


def test_routed_fanout_parity_with_broadcast(tmp_path):
    """Routing delivers to owners only, and the surviving cache contents
    are byte-identical to the broadcast control arm's."""
    shards = 8
    config = config_for(shards)
    routed_cluster, bcast_cluster = (
        CacheCluster(
            num_shards=shards,
            hot_bytes=config.hot_bytes,
            cold_entries=config.cold_entries,
        )
        for _ in range(2)
    )
    routed = run_cluster_workload(
        config_for(shards, routed=True, checkpoint_dir=tmp_path / "r"),
        cluster=routed_cluster,
    )
    bcast = run_cluster_workload(
        config_for(shards, routed=False, checkpoint_dir=tmp_path / "b"),
        cluster=bcast_cluster,
    )
    routed_pages = cluster_contents(routed_cluster)
    bcast_pages = cluster_contents(bcast_cluster)
    identical = routed_pages == bcast_pages

    emit(
        "Cache cluster: routed vs broadcast eject fan-out",
        [
            f"routed            : {routed.ejects_routed} ejects, "
            f"{routed.deliveries_ok} deliveries, "
            f"{routed.routed_deliveries_saved} deliveries saved",
            f"broadcast         : {bcast.ejects_broadcast} ejects, "
            f"{bcast.deliveries_ok} deliveries",
            f"surviving pages   : {len(routed_pages)} routed vs "
            f"{len(bcast_pages)} broadcast — "
            f"{'byte-identical' if identical else 'DIVERGED'}",
        ],
        data={
            "routed": asdict(routed),
            "broadcast": asdict(bcast),
            "pages_identical": identical,
        },
    )

    assert routed.ejects_routed > 0 and routed.ejects_broadcast == 0
    # owners-only delivery: with 1 replica each eject is ONE delivery,
    # saving (shards - 1) broadcasts
    assert routed.deliveries_ok == routed.ejects_routed
    assert routed.routed_deliveries_saved == routed.ejects_routed * (shards - 1)
    assert bcast.deliveries_ok == bcast.ejects_broadcast * shards
    assert identical
