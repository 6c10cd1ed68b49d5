"""Sharded, restart-tolerant cache cluster (CachePortal at cluster scale).

The single-node :class:`~repro.web.cache.WebCache` scaled out: a
consistent-hash ring places URL keys on two-tier (DRAM + overflow)
shards, the PR-3 checkpoint subsystem gives each shard warm restarts,
and a ring-driven router narrows the EjectBus fan-out so each
invalidation reaches only the shard(s) that own the page.
"""

from repro.cluster.cluster import CacheCluster, ShardFactory, shard_names
from repro.cluster.persistence import (
    SHARD_SNAPSHOT_KIND,
    ShardCheckpointer,
    ShardRestoreReport,
)
from repro.cluster.ring import (
    DEFAULT_VNODES,
    ConsistentHashRing,
    stable_hash,
)
from repro.cluster.router import (
    DEFAULT_PREFIX,
    ShardEjectRouter,
    attach_cluster_to_bus,
)
from repro.cluster.shard import (
    DEFAULT_COLD_ENTRIES,
    DEFAULT_HOT_BYTES,
    CacheShard,
    EjectJournal,
    ShardStats,
)

__all__ = [
    "CacheCluster",
    "CacheShard",
    "ConsistentHashRing",
    "DEFAULT_COLD_ENTRIES",
    "DEFAULT_HOT_BYTES",
    "DEFAULT_PREFIX",
    "DEFAULT_VNODES",
    "EjectJournal",
    "SHARD_SNAPSHOT_KIND",
    "ShardCheckpointer",
    "ShardEjectRouter",
    "ShardFactory",
    "ShardRestoreReport",
    "ShardStats",
    "attach_cluster_to_bus",
    "shard_names",
    "stable_hash",
]
