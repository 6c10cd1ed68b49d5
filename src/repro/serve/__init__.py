"""The asynchronous serving front end.

This package ports the synchronous ``LoadBalancer → WebServer →
ApplicationServer → sniffer`` request path to cooperative concurrency
without forking any of those classes:
:class:`~repro.serve.gateway.AsyncGateway` fronts a
:class:`~repro.web.site.Site` (optionally with a
:class:`~repro.cluster.cluster.CacheCluster` as its page cache), serving
cache hits entirely on the event loop and running servlet+DB work for
misses on a bounded pool of worker threads.

The traffic that exercises it belongs to the experiment, not the
product: ``bench/`` drives the gateway open- and closed-loop.
"""

from repro.serve.gateway import AsyncGateway, GatewayStats

__all__ = ["AsyncGateway", "GatewayStats"]
