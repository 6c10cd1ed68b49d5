"""The cache cluster facade: N two-tier shards behind one ring.

This is the serving substrate the ROADMAP names: the single-node
``WebCache`` scaled out to a consistent-hash cluster of byte-budget,
restart-tolerant shards.  The facade plays two roles:

* **data plane drop-in** — it implements the full ``WebCache`` protocol
  (``get``/``put``/``eject``/``handle_message``/``keys``/``clear``/
  ``stats``), so a Configuration III site, the synchronous portal, the
  staleness auditor, and the recovery reconciler all treat the cluster
  as "the web cache" unchanged while every operation is routed to the
  owning shard;
* **control plane** — membership (add/remove shards), per-shard
  kill/restart with warm restore from the PR-3 checkpoint subsystem,
  the shared eject journal that makes warm restarts staleness-safe, and
  the aggregated health view of :meth:`CacheCluster.status`.

The facade survives individual shard kills (it is the membership
service, not a cache process); whole-cluster restarts go through the
``snapshot_state``/``restore_state`` envelope carried by
:mod:`repro.core.recovery`.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.errors import ClusterError
from repro.web.cache import CacheStats
from repro.web.http import HttpRequest, HttpResponse
from repro.cluster.persistence import ShardCheckpointer, ShardRestoreReport
from repro.cluster.ring import DEFAULT_VNODES, ConsistentHashRing
from repro.cluster.shard import (
    DEFAULT_COLD_ENTRIES,
    DEFAULT_HOT_BYTES,
    CacheShard,
    EjectJournal,
)

#: ``ShardFactory(name, journal) -> CacheShard`` — lets benches inject
#: FlakyCache-style shards with per-shard seeded RNGs.
ShardFactory = Callable[[str, EjectJournal], CacheShard]


def shard_names(count: int) -> List[str]:
    """Stable shard identities: ``s00`` … ``s63``."""
    width = max(2, len(str(max(count - 1, 0))))
    return [f"s{i:0{width}d}" for i in range(count)]


class CacheCluster:
    """A consistent-hash cluster of two-tier cache shards.

    Args:
        num_shards: initial shard count.
        vnodes: virtual nodes per shard on the placement ring.
        hot_bytes: per-shard DRAM budget.
        cold_entries: per-shard overflow capacity (0 disables the tier).
        replicas: owners per key; ejects reach every replica, stores go
            to every replica, gets probe primary-first.
        default_ttl / clock: forwarded to each shard's tiers.
        checkpoint_dir: where per-shard snapshots live; a private temp
            directory is created when omitted.
        shard_factory: custom shard construction (fault injection).
    """

    def __init__(
        self,
        num_shards: int = 4,
        vnodes: int = DEFAULT_VNODES,
        hot_bytes: int = DEFAULT_HOT_BYTES,
        cold_entries: int = DEFAULT_COLD_ENTRIES,
        replicas: int = 1,
        default_ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        shard_factory: Optional[ShardFactory] = None,
    ) -> None:
        if num_shards < 1:
            raise ClusterError("a cluster needs at least one shard")
        if replicas < 1:
            raise ClusterError("replicas must be >= 1")
        self.hot_bytes = hot_bytes
        self.cold_entries = cold_entries
        self.replicas = replicas
        self.default_ttl = default_ttl
        self._clock = clock
        self.journal = EjectJournal()
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self._shards: Dict[str, CacheShard] = {}
        self._shard_factory = shard_factory
        if checkpoint_dir is None:
            checkpoint_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        self.checkpointer = ShardCheckpointer(checkpoint_dir)
        for name in shard_names(num_shards):
            self.add_shard(name)

    # -- membership -----------------------------------------------------------

    def _build_shard(self, name: str) -> CacheShard:
        if self._shard_factory is not None:
            return self._shard_factory(name, self.journal)
        return CacheShard(
            name,
            hot_bytes=self.hot_bytes,
            cold_entries=self.cold_entries,
            default_ttl=self.default_ttl,
            clock=self._clock,
            journal=self.journal,
        )

    def add_shard(self, name: str) -> CacheShard:
        if name in self._shards:
            raise ClusterError(f"shard {name!r} already in the cluster")
        shard = self._build_shard(name)
        if shard.journal is not self.journal:
            # A factory-built shard must share the cluster journal or the
            # warm-restart staleness guard silently stops working.
            shard.journal = self.journal
        self._shards[name] = shard
        self.ring.add_shard(name)
        return shard

    def remove_shard(self, name: str) -> int:
        """Decommission a shard; its pages are dropped (they remap to
        other owners and regenerate on demand — never served stale).
        Returns how many pages were dropped."""
        shard = self._shards.pop(name, None)
        if shard is None:
            raise ClusterError(f"shard {name!r} not in the cluster")
        self.ring.remove_shard(name)
        dropped = len(shard)
        shard.clear()
        return dropped

    @property
    def shards(self) -> List[CacheShard]:
        return [self._shards[name] for name in sorted(self._shards)]

    def shard(self, name: str) -> CacheShard:
        try:
            return self._shards[name]
        except KeyError:
            raise ClusterError(f"shard {name!r} not in the cluster") from None

    def owners_of(self, url_key: str) -> List[CacheShard]:
        return [
            self._shards[name]
            for name in self.ring.owners(url_key, self.replicas)
        ]

    # -- the WebCache protocol --------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def __contains__(self, url_key: str) -> bool:
        return any(url_key in shard for shard in self.owners_of(url_key))

    @property
    def bytes_used(self) -> int:
        return sum(shard.bytes_used for shard in self._shards.values())

    @property
    def capacity_bytes(self) -> int:
        return self.hot_bytes * len(self._shards)

    def keys(self) -> List[str]:
        seen: Dict[str, None] = {}
        for shard in self.shards:
            for key in shard.keys():
                seen.setdefault(key)
        return list(seen)

    def get(self, url_key: str) -> Optional[HttpResponse]:
        """Probe the owners primary-first (replicas are fallbacks)."""
        for shard in self.owners_of(url_key):
            response = shard.get(url_key)
            if response is not None:
                return response
        return None

    def put(
        self, url_key: str, response: HttpResponse, ttl: Optional[float] = None
    ) -> bool:
        """Store on every owner; True when the primary stored it."""
        owners = self.owners_of(url_key)
        stored = [shard.put(url_key, response, ttl=ttl) for shard in owners]
        return stored[0]

    def eject(self, url_key: str) -> bool:
        """Shard-targeted eject: only the owners are touched."""
        removed = False
        for shard in self.owners_of(url_key):
            removed = shard.eject(url_key) or removed
        return removed

    def eject_many(self, url_keys: Iterable[str]) -> int:
        return sum(1 for key in url_keys if self.eject(key))

    def handle_message(self, request: HttpRequest, url_key: str) -> bool:
        control = request.cache_control
        if control is not None and control.has("eject"):
            return self.eject(url_key)
        return False

    def clear(self) -> None:
        for shard in self._shards.values():
            shard.clear()

    @property
    def stats(self) -> CacheStats:
        """Aggregated ``WebCache``-shaped stats (portal dashboards)."""
        totals = CacheStats()
        for shard in self._shards.values():
            totals.hits += shard.stats.hot_hits + shard.stats.cold_hits
            totals.misses += shard.stats.misses
            totals.stores += shard.hot.stats.stores
            totals.ejects += shard.stats.ejects
            totals.evictions += shard.stats.cold_evictions
            totals.expirations += (
                shard.hot.stats.expirations + shard.stats.expirations
            )
            totals.bytes_used += shard.bytes_used
            totals.bytes_evicted += shard.hot.stats.bytes_evicted
        return totals

    #: The portal's status() reads ``cache.capacity``; report the only
    #: entry-shaped capacity a byte-budget cluster has (overflow slots).
    @property
    def capacity(self) -> int:
        return self.cold_entries * max(1, len(self._shards))

    # -- kill / restart ---------------------------------------------------------

    def checkpoint_shard(self, name: str) -> str:
        return self.checkpointer.save(self.shard(name))

    def checkpoint_all(self) -> Dict[str, str]:
        return self.checkpointer.save_all(self.shards)

    def kill_shard(self, name: str) -> int:
        """Crash one shard: its DRAM and overflow die, membership stays.

        Returns how many pages were lost.  The shard keeps serving (as
        an empty cache) until :meth:`restart_shard` restores it — the
        paper's staleness guarantees hold either way, because ejects
        keep routing to it and a miss merely regenerates.
        """
        shard = self.shard(name)
        lost = len(shard)
        shard.clear()
        return lost

    def restart_shard(
        self, name: str, warm: bool = True
    ) -> Optional[ShardRestoreReport]:
        """Bring a killed shard back, warm (from its snapshot) or cold.

        Returns the restore report for warm restarts (``None`` when no
        snapshot exists or ``warm=False``).
        """
        shard = self.shard(name)
        if not warm:
            shard.clear()
            return None
        return self.checkpointer.load_if_present(shard)

    # -- whole-cluster checkpointing -------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        return {
            "ring": self.ring.snapshot_state(),
            "journal": self.journal.snapshot_state(),
            "replicas": self.replicas,
            "shards": {
                name: shard.snapshot_state()
                for name, shard in self._shards.items()
            },
        }

    def restore_state(self, data: Dict[str, object]) -> Dict[str, int]:
        """Reload a whole-cluster snapshot into this cluster.

        Membership is rebuilt from the snapshot's ring; the journal is
        restored *before* shard contents so the staleness guard applies.
        """
        self.journal.restore_state(dict(data.get("journal", {})))
        self.replicas = int(data.get("replicas", self.replicas))
        ring_state = dict(data.get("ring", {}))
        wanted = [str(name) for name in ring_state.get("shards", [])]
        for name in list(self._shards):
            if name not in wanted:
                self.remove_shard(name)
        for name in wanted:
            if name not in self._shards:
                self.add_shard(name)
        self.ring.restore_state(ring_state)
        pages = dropped = 0
        for name, shard_state in dict(data.get("shards", {})).items():
            if name not in self._shards:
                continue
            outcome = self._shards[name].restore_state(dict(shard_state))
            pages += outcome["pages_restored"]
            dropped += outcome["pages_dropped"]
        return {
            "shards_restored": len(wanted),
            "pages_restored": pages,
            "pages_dropped": dropped,
        }

    # -- observability ----------------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        lookups = hits = 0
        for shard in self._shards.values():
            lookups += shard.stats.lookups
            hits += shard.stats.hot_hits + shard.stats.cold_hits
        return hits / lookups if lookups else 0.0

    def status(self) -> Dict[str, object]:
        """Cluster health: per-shard tiers, ring balance, hit ratio."""
        return {
            "shards": [shard.status() for shard in self.shards],
            "ring": self.ring.stats(),
            "replicas": self.replicas,
            "pages": len(self),
            "bytes_used": self.bytes_used,
            "hot_bytes_budget": self.hot_bytes * len(self._shards),
            "hit_ratio": round(self.hit_ratio, 4),
            "journal_keys": len(self.journal),
            "checkpoint_dir": str(self.checkpointer.directory),
        }
