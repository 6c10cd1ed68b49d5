"""Streaming invalidation pipeline (the real-time form of paper §4.2).

The paper requires the invalidator to "function in real time"; this
package runs the invalidation pass as an incremental pipeline — the
portal's one consumer — that one caller drives, tick by tick, on its
own thread:

* :mod:`tailer` — CDC consumption of the Δ⁺R/Δ⁻R update stream with
  bounded buffering and resumable offsets;
* :mod:`workers` — the one lane running the grouped independence
  analysis and budgeted polling per tail batch, in log order;
* :mod:`bus` — coalescing eject delivery with retry, backoff, per-cache
  circuit breaking, and a dead-letter queue;
* :mod:`metrics` — lag, ejects/sec, poll-budget utilization, retry
  counts: the ``stats()`` snapshot;
* :mod:`pipeline` — the orchestrator wiring the above to a database,
  a QI/URL map, and a set of caches.
"""

from repro.stream.bus import CacheTarget, CircuitBreaker, DeadLetter, EjectBus
from repro.stream.metrics import PipelineMetrics
from repro.stream.pipeline import StreamingInvalidationPipeline
from repro.stream.tailer import LogTailer, TailBatch
from repro.stream.workers import InvalidationWorker

__all__ = [
    "CacheTarget",
    "CircuitBreaker",
    "DeadLetter",
    "EjectBus",
    "InvalidationWorker",
    "LogTailer",
    "PipelineMetrics",
    "StreamingInvalidationPipeline",
    "TailBatch",
]
