"""Span recorder for the traced pass — timing wrappers owned by the benchmark.

``Tracer.install`` sets *instance attributes* on the bed's public objects
(``gateway.get``, ``site.balancer.handle``, ``database.execute`` ...), each
a wrapper that records a span around the original bound method;
``uninstall`` deletes them again, which is how the saturation phase
alternates traced and untraced slices to price the tracing itself.
Nothing under ``src/`` is edited or imported for its internals; spans
inside the program are a later change.

A span has a name, a start, an end and the span that caused it.  The
current span rides a ``ContextVar``, so each asyncio task and each miss
thread has its own chain; a miss thread's ``balancer.handle`` span finds
the request that caused it through the request object's identity.  A
span's *self time* is its duration minus its child spans'.  Per name the
tracer keeps every duration and self time (seconds) in memory.

Hot-path wrappers (``gateway.get`` and below) record one request in
``TRACE_EVERY`` and pass the rest straight through; everything that is
not per-request (ticks, the miss lane, the pipeline) is always recorded.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict
from contextvars import ContextVar
from typing import Callable, Dict, List, Optional, Tuple

from bench.site import PAGE_CLASS, Bed

_now = time.perf_counter
_CURRENT: ContextVar = ContextVar("bench_span", default=None)

#: The hit path records one request in this many.
TRACE_EVERY = 8
#: The two kinds of root span: a sampled request and an invalidation tick.
REQUEST_ROOT = "web.request_parse"
TICK_ROOT = "tick"
#: A request that waited on another request's regeneration or was refused.
REQUEST_OTHER = "serve.handle.other"
_MISSING = object()


class Span:
    __slots__ = ("name", "start", "child", "parent")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.start = _now()


class Tracer:
    def __init__(self) -> None:
        self.durations: Dict[str, array] = defaultdict(lambda: array("d"))
        self.self_times: Dict[str, array] = defaultdict(lambda: array("d"))
        #: Per-name integer tallies made where the work happens.
        self.counts: Dict[str, int] = defaultdict(int)
        self.poll_statement: object = None
        self._requests = 0
        self._by_request: Dict[int, Span] = {}
        #: (object, attribute, instance attribute it had before or _MISSING)
        self._installed: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.installed = False

    # -- recording ------------------------------------------------------------

    def close(self, span: Span) -> None:
        duration = _now() - span.start
        with self._lock:
            self.durations[span.name].append(duration)
            self.self_times[span.name].append(duration - span.child)
            if span.parent is not None:
                span.parent.child += duration

    def wrap(self, name: str, call: Callable, root: bool = False) -> Callable:
        """A synchronous span around ``call``.  Without a current span the
        call is a root when ``root`` is set and passes through otherwise."""

        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is None and not root:
                return call(*args, **kwargs)
            span = Span(name, parent)
            token = _CURRENT.set(span)
            try:
                return call(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                self.close(span)

        return traced

    # -- aggregates -----------------------------------------------------------

    def median_us(self, name: str, self_time: bool = True) -> float:
        values = (self.self_times if self_time else self.durations).get(name)
        if not values:
            return 0.0
        ordered = sorted(values)
        return 1e6 * ordered[len(ordered) // 2]

    def total(self, name: str, self_time: bool = True) -> float:
        values = (self.self_times if self_time else self.durations).get(name)
        return float(sum(values)) if values else 0.0

    def unattributed_share(self) -> float:
        """Root-span time no layer's self time accounts for: the glue of
        ``process_available`` and requests that only waited.  Requests are
        sampled one in ``TRACE_EVERY`` and ticks are not, hence the weight."""
        weight = TRACE_EVERY
        roots = weight * self.total(REQUEST_ROOT, self_time=False) + self.total(
            TICK_ROOT, self_time=False
        )
        if roots <= 0.0:
            return 0.0
        return (self.total(TICK_ROOT) + weight * self.total(REQUEST_OTHER)) / roots

    # -- installation ---------------------------------------------------------

    def _set(self, target: object, attribute: str, wrapper: object) -> None:
        self._installed.append(
            (target, attribute, vars(target).get(attribute, _MISSING))
        )
        setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        for target, attribute, before in reversed(self._installed):
            if before is _MISSING:
                delattr(target, attribute)
            else:
                setattr(target, attribute, before)
        self._installed.clear()
        self.installed = False

    def install(self, bed: Bed, gateway: object) -> None:
        """Wrap every layer boundary reachable as a public attribute."""
        if self.installed:
            return
        self.installed = True
        site, pipeline, portal = bed.site, bed.pipeline, bed.portal
        cache, database = site.web_cache, bed.database

        # serve: one request in TRACE_EVERY gets a root span around
        # gateway.get (URL parse) and a child around gateway.handle.
        get, handle = gateway.get, gateway.handle

        # Plain functions that hand back the original coroutine for the
        # requests not sampled: no extra coroutine frame on 7 hits in 8.
        def traced_get(url):
            self._requests += 1
            if self._requests % TRACE_EVERY:
                return get(url)
            return sampled_get(url)

        async def sampled_get(url):
            span = Span(REQUEST_ROOT, None)
            token = _CURRENT.set(span)
            try:
                return await get(url)
            finally:
                _CURRENT.reset(token)
                self.close(span)

        def traced_handle(request):
            parent = _CURRENT.get()
            if parent is None:
                return handle(request)
            return sampled_handle(request, parent)

        async def sampled_handle(request, parent):
            span = Span(REQUEST_OTHER, parent)
            self._by_request[id(request)] = span
            token = _CURRENT.set(span)
            try:
                return await handle(request)
            finally:
                _CURRENT.reset(token)
                self._by_request.pop(id(request), None)
                self.close(span)

        self._set(gateway, "get", traced_get)
        self._set(gateway, "handle", traced_handle)

        cache_get = cache.get

        def traced_cache_get(url_key):
            parent = _CURRENT.get()
            if parent is None:
                return cache_get(url_key)
            span = Span("web.cache.get", parent)
            try:
                found = cache_get(url_key)
            finally:
                self.close(span)
            if found is not None and parent.name == REQUEST_OTHER:
                parent.name = "serve.handle.hit"
            return found

        self._set(cache, "get", traced_cache_get)

        cache_put = cache.put

        def traced_cache_put(*args, **kwargs):
            span = Span("web.cache.put", None)
            try:
                return cache_put(*args, **kwargs)
            finally:
                self.close(span)

        self._set(cache, "put", traced_cache_put)
        self._set(
            cache, "handle_message", self.wrap("web.cache.eject", cache.handle_message)
        )

        # web + sniffer + db: the miss lane, on the miss threads.
        balancer_handle = site.balancer.handle

        def traced_balancer(request):
            parent = self._by_request.get(id(request))
            if parent is not None:
                parent.name = "serve.handle.miss"
            span = Span("web.balancer", parent)
            token = _CURRENT.set(span)
            try:
                return balancer_handle(request)
            finally:
                _CURRENT.reset(token)
                self.close(span)

        self._set(site.balancer, "handle", traced_balancer)
        for server in site.app_servers:
            self._set(server, "handle", self.wrap("web.appserver", server.handle))
            self._wrap_pool(server.pool)
            for logging_servlet in server.servlets.all():
                self._set(
                    logging_servlet,
                    "service",
                    self.wrap("core.sniffer.request_log", logging_servlet.service),
                )
        for servlet in bed.servlets.values():
            self._set(servlet, "service", self.wrap("web.servlet", servlet.service))
        for driver in portal.sniffer.query_loggers:
            self._set(driver, "run", self.wrap("core.sniffer.query_log", driver.run))
        self._wrap_database(database)

        # stream + core.invalidator: everything under a tick.
        self._set(
            pipeline,
            "process_available",
            self.wrap(TICK_ROOT, pipeline.process_available, root=True),
        )
        pump_once = pipeline.pump_once

        def traced_pump_once():
            # An iteration that tailed nothing only mapped and registered.
            span = Span("core.invalidator.register", _CURRENT.get())
            token = _CURRENT.set(span)
            try:
                moved = pump_once()
                if moved:
                    span.name = "stream.pump_once"
                return moved
            finally:
                _CURRENT.reset(token)
                self.close(span)

        self._set(pipeline, "pump_once", traced_pump_once)
        self._set(
            pipeline, "pre_ingest", self.wrap("core.sniffer.mapper", pipeline.pre_ingest)
        )
        self._set(
            pipeline.tailer, "poll", self.wrap("stream.tailer", pipeline.tailer.poll)
        )
        for worker in pipeline.pool.workers:
            self._set(
                worker,
                "process_batch",
                self.wrap("core.invalidator.decide", worker.process_batch),
            )
        self._set(
            pipeline.bus, "publish", self.wrap("stream.bus.publish", pipeline.bus.publish)
        )
        self._set(pipeline.bus, "pump", self.wrap("stream.bus.deliver", pipeline.bus.pump))

    def _wrap_pool(self, pool: object) -> None:
        acquire = pool.acquire
        timed_acquire = self.wrap("db.pool_wait", acquire)

        def traced_acquire(*args, **kwargs):
            connection = timed_acquire(*args, **kwargs)
            if self.installed and "execute" not in vars(connection):
                self._set(
                    connection, "execute", self.wrap("db.dbapi", connection.execute)
                )
            return connection

        self._set(pool, "acquire", traced_acquire)

    def _wrap_database(self, database: object) -> None:
        execute = database.execute

        def traced_execute(statement, params=None):
            parent = _CURRENT.get()
            if parent is None:
                return execute(statement, params)
            page_class = PAGE_CLASS.get(statement) if isinstance(statement, str) else None
            if page_class is None:
                name = "db.poll_query"
                if self.poll_statement is None:
                    self.poll_statement = statement
            else:
                name = "db.select." + page_class
            span = Span(name, parent)
            try:
                result = execute(statement, params)
            finally:
                self.close(span)
            if page_class is not None:
                self.counts["rows_examined"] += result.rows_examined
                self.counts["rows_returned"] += len(result.rows)
            return result

        self._set(database, "execute", traced_execute)
