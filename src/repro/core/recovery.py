"""Crash-safe checkpoint/recovery for CachePortal state.

The invalidator is the *only* defense against serving stale dynamic
pages (§2, §4), yet all of its working state — the QI/URL map, the query
registry, the update-log cursor, undelivered ejects — is in-memory: a
restart without recovery silently orphans every cached page, with no
eject path left to it.  This module makes portal state durable:

* :func:`write_checkpoint` / :func:`read_checkpoint` persist a
  **versioned, checksummed** snapshot **atomically** (write to a temp
  file in the same directory, fsync, then ``os.replace`` — a crash
  mid-write leaves the previous checkpoint intact, and a corrupt or
  torn file is rejected by its SHA-256 checksum instead of being
  half-loaded);
* :func:`snapshot_pipeline` / :func:`restore_pipeline` capture and
  reload a :class:`~repro.stream.pipeline.StreamingInvalidationPipeline`
  — the invalidation consumer a :class:`~repro.core.portal.CachePortal`
  owns — including the tailer's LSN cursor and the eject bus's
  undelivered/dead-letter state.

**What is serialized** is source state only: QI/URL rows, query-type
signatures with their tuning knobs and statistics, instance SQL with
dependent URLs, the LSN cursor, and undelivered ejects.  **Derived state
is never serialized**: parsed ASTs, per-table maps, and the predicate
index are rebuilt on restore by replaying registrations through the
registry's listener protocol.

Restore closes three staleness holes:

1. *Updates after the checkpoint*: the cursor is restored, so the next
   cycle replays every logged change the dead invalidator missed.
2. *Pages cached (or mapped) after the checkpoint*: they have no QI/URL
   row in the snapshot and hence no eject path — restore reconciles the
   caches and ejects these orphans.
3. *Update-log truncation past the checkpoint*: the missed changes are
   unknowable, so restore triggers the existing flush-all safety valve
   (every watched page is ejected) instead of silently resuming.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import CachePortalError

FORMAT_VERSION = 1


class CheckpointError(CachePortalError):
    """Raised when a checkpoint cannot be read back safely."""


@dataclass
class RecoveryReport:
    """What a restore did — the operator-facing outcome summary."""

    #: Where the snapshot came from (``None`` for in-memory restores).
    path: Optional[str] = None
    map_rows_restored: int = 0
    types_restored: int = 0
    instances_restored: int = 0
    cursor_lsn: int = 0
    #: True when the update log truncated past the checkpointed cursor:
    #: the flush-all safety valve fired instead of a silent resume.
    log_truncated: bool = False
    #: Inclusive LSN range the restore could not replay (when truncated).
    lost_range: Optional[Tuple[int, int]] = None
    #: Pages ejected by the flush-all valve.
    flushed_urls: int = 0
    #: Cached pages with no QI/URL row in the snapshot (cached or mapped
    #: after the checkpoint): no eject path exists for them, so restore
    #: ejects them from every reachable cache.
    orphans_ejected: int = 0
    #: Ejects that were undelivered at checkpoint time and re-published.
    ejects_republished: int = 0
    dead_letters_restored: int = 0
    #: POLL_ONLY result fingerprints carried over from the snapshot (they
    #: were trusted at checkpoint time and stay trusted after restore).
    fingerprints_restored: int = 0
    #: Version-key counters overlaid from the snapshot onto the
    #: replay-rebuilt key index (0 when the fast path is disabled or the
    #: snapshot predates it — the index floors itself conservatively).
    version_keys_restored: int = 0
    #: Update classes re-declared from the snapshot (the conflict matrix
    #: itself is derived state: its cells are recomputed by replay).
    conflict_classes_restored: int = 0
    #: Checkpointed conflict-matrix cells recomputed-and-compared after
    #: replay; a mismatch means the decision procedure changed verdicts
    #: across the restart (the fresh — conservative — verdict wins).
    conflict_cells_compared: int = 0
    conflict_cell_mismatches: int = 0


# -- the on-disk format -------------------------------------------------------


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: Dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def write_checkpoint(path: Union[str, Path], payload: Dict) -> str:
    """Atomically persist ``payload`` under a versioned, checksummed
    envelope.  Returns the checksum.

    The write goes to a temporary sibling first and is published with
    ``os.replace`` — readers see either the previous checkpoint or the
    complete new one, never a torn file.
    """
    path = Path(path)
    checksum = _checksum(payload)
    envelope = {
        "format": FORMAT_VERSION,
        "checksum": checksum,
        "payload": payload,
    }
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=1, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return checksum


def read_checkpoint(path: Union[str, Path]) -> Dict:
    """Load and verify a checkpoint; returns the payload dictionary.

    Raises:
        CheckpointError: on a missing file, unparseable JSON, an
        unsupported format version, or a checksum mismatch (torn or
        tampered file).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {envelope.get('format')!r} "
            f"in {path} (expected {FORMAT_VERSION})"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} has no payload")
    if _checksum(payload) != envelope.get("checksum"):
        raise CheckpointError(
            f"checkpoint {path} failed checksum verification "
            "(torn write or corruption)"
        )
    return payload


# -- pipeline snapshots -------------------------------------------------------


def snapshot_pipeline(pipeline) -> Dict:
    """Capture a streaming pipeline's durable state (tailer + bus too)."""
    index = pipeline.version_index
    matrix = pipeline.conflict_matrix
    return {
        "kind": "pipeline",
        "qiurl": pipeline.qiurl_map.snapshot_state(),
        "registry": pipeline.registry.snapshot_state(),
        "cursor_lsn": pipeline.tailer.checkpoint(),
        "bus": pipeline.bus.snapshot_state(),
        "version_keys": index.snapshot_state() if index is not None else None,
        "conflict_matrix": (
            matrix.snapshot_state() if matrix is not None else None
        ),
    }


def restore_pipeline(
    pipeline, payload: Dict, reconcile_caches: bool = True
) -> RecoveryReport:
    """Reload a snapshot into a (not yet pumped) streaming pipeline."""
    report = RecoveryReport()
    report.map_rows_restored = pipeline.qiurl_map.restore_state(payload["qiurl"])
    matrix = pipeline.conflict_matrix
    conflict_state = payload.get("conflict_matrix")
    if matrix is not None and conflict_state:
        report.conflict_classes_restored = matrix.restore_classes(conflict_state)
    registry_stats = pipeline.registry.restore_state(payload["registry"])
    if matrix is not None and conflict_state:
        comparison = matrix.compare_cells(conflict_state, pipeline.registry)
        report.conflict_cells_compared = comparison["compared"]
        report.conflict_cell_mismatches = comparison["mismatches"]
    pipeline.safety.after_restore()
    report.fingerprints_restored = _count_fingerprints(pipeline.registry)
    report.types_restored = registry_stats["query_types"]
    report.instances_restored = registry_stats["query_instances"]
    cursor = int(payload["cursor_lsn"])
    report.cursor_lsn = cursor
    # Portal checkpoints of earlier releases kept their retry set beside
    # a null bus; its ejects are re-published all the same.
    bus_state = payload.get("bus") or {"undelivered": payload.get("undelivered", [])}
    report.ejects_republished = pipeline.bus.restore_state(bus_state)
    report.dead_letters_restored = len(bus_state.get("dead_letters", []))
    log = pipeline.database.update_log
    if cursor + 1 < log.oldest_lsn:
        report.log_truncated = True
        report.lost_range = (cursor + 1, max(log.last_lsn, log.oldest_lsn - 1))
        pipeline.tailer.seek(max(log.last_lsn, log.oldest_lsn - 1))
        pipeline.tailer.last_lost_range = report.lost_range
        report.flushed_urls = len(pipeline._flush_everything())
        # Deliver now: every flushed page may already be stale.  An eject
        # some cache refuses stays on the bus for retry.
        pipeline.bus.pump()
    else:
        pipeline.tailer.seek(cursor)
    if pipeline.version_index is not None:
        # Registry replay rebuilt the keys; overlay the checkpointed
        # counters.  On truncation _flush_everything already raised the
        # floor to the resynced cursor, so older stamps stay unvouchable.
        report.version_keys_restored = pipeline.version_index.restore_state(
            payload.get("version_keys"), fallback_floor=cursor
        )
    if reconcile_caches:
        caches = [
            target.cache
            for target in pipeline.bus.targets()
            if hasattr(target.cache, "keys") and hasattr(target.cache, "eject")
        ]
        report.orphans_ejected = _eject_orphans(caches, pipeline.qiurl_map)
    return report


# -- cache-cluster snapshots --------------------------------------------------

#: Envelope kind for whole-cluster snapshots (per-shard snapshots use
#: :data:`repro.cluster.persistence.SHARD_SNAPSHOT_KIND`).
CLUSTER_SNAPSHOT_KIND = "cache-cluster"


def snapshot_cluster(cluster) -> Dict:
    """Capture a whole cache cluster: ring membership, the eject
    journal (the warm-restart staleness guard), and every shard's pages.

    Duck-typed (anything with ``snapshot_state``) so this module never
    imports :mod:`repro.cluster` — the cluster package already imports
    the checkpoint envelope from here.
    """
    return {"kind": CLUSTER_SNAPSHOT_KIND, "cluster": cluster.snapshot_state()}


def restore_cluster(cluster, payload: Dict) -> Dict[str, int]:
    """Reload a whole-cluster snapshot; returns the restore counters
    (``shards_restored`` / ``pages_restored`` / ``pages_dropped``).

    The journal restores *before* shard contents, so pages ejected after
    the snapshot are discarded instead of resurrected.
    """
    if payload.get("kind") != CLUSTER_SNAPSHOT_KIND:
        raise CheckpointError(
            f"not a cache-cluster snapshot (kind={payload.get('kind')!r})"
        )
    return cluster.restore_state(dict(payload["cluster"]))


def checkpoint_cluster(cluster, path: Union[str, Path]) -> str:
    """Atomically persist a whole-cluster snapshot; returns the checksum."""
    return write_checkpoint(path, snapshot_cluster(cluster))


def recover_cluster(cluster, path: Union[str, Path]) -> Dict[str, int]:
    """Load and verify a whole-cluster checkpoint into ``cluster``."""
    return restore_cluster(cluster, read_checkpoint(path))


def _count_fingerprints(registry) -> int:
    return sum(
        1
        for instance in registry.instances()
        if instance.result_fingerprint is not None
    )


def _eject_orphans(caches, qiurl_map) -> int:
    """Eject cached pages the restored QI/URL map knows nothing about.

    A page cached — or mapped — after the checkpoint has no row in the
    snapshot: no future update can ever reach it, so leaving it cached is
    guaranteed eventual staleness.  Ejecting it merely costs one
    regeneration.
    """
    known = set(qiurl_map.urls())
    ejected = 0
    for cache in caches:
        for url_key in list(cache.keys()):
            if url_key not in known:
                cache.eject(url_key)
                ejected += 1
    return ejected
