"""The site under test, assembled through public entry points only.

Three page classes mirror the paper's light / medium / heavy queries:

* ``/item?id=K``      — ``WHERE id = ?``                 (version-key tier)
* ``/cat?c=C&max=P``  — ``WHERE cat = ? AND price < ?``  (predicate-index tier)
* ``/top?c=C``        — ``item JOIN review`` on a category (polling tier)

``audit_log`` is written by the update mix and read by no page.  A
Configuration III site with two servers, ``CachePortal`` installed and a
streaming pipeline whose ejects also reach a benchmark-owned probe cache,
so the benchmark sees every eject from outside.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    CachePortal,
    Configuration,
    Database,
    KeySpec,
    QueryPageServlet,
    StreamingInvalidationPipeline,
    build_site,
    connect,
)
from repro.sql import ast
from repro.web.http import HttpRequest
from repro.web.servlet import QueryBinding
from repro.web.urlkey import page_key

from bench.workloads import FULL, Scale, Workload

ITEM_SQL = "SELECT id, cat, price, stock FROM item WHERE id = ?"
CAT_SQL = "SELECT id, price FROM item WHERE cat = ? AND price < ?"
TOP_SQL = (
    "SELECT item.id, item.price, review.stars FROM item, review "
    "WHERE item.id = review.item_id AND item.cat = ? AND review.stars >= 5"
)
#: Page-class label of each template, for the per-class select timings.
PAGE_CLASS = {ITEM_SQL: "light", CAT_SQL: "medium", TOP_SQL: "heavy"}

_now = time.perf_counter


def build_database(scale: Scale, seed: int) -> Database:
    """Seeded rows, loaded as AST inserts (the SQL text of a 10k-row
    INSERT spends three quarters of its time in the parser)."""
    rng = random.Random(f"db:{seed}")
    db = Database()
    db.execute("CREATE TABLE item (id INT, cat INT, price INT, stock INT)")
    db.execute("CREATE INDEX idx_item_id ON item (id)")
    db.execute("CREATE INDEX idx_item_cat ON item (cat)")
    db.execute("CREATE TABLE review (id INT, item_id INT, stars INT)")
    db.execute("CREATE INDEX idx_review_item ON review (item_id)")
    db.execute("CREATE TABLE audit_log (id INT, note TEXT)")
    literal = ast.Literal
    items = tuple(
        (
            literal(item),
            literal(item % scale.cats),
            literal(rng.randrange(100, 1000)),
            literal(rng.randrange(0, 50)),
        )
        for item in range(scale.items)
    )
    db.execute(ast.Insert("item", (), items))
    reviews = tuple(
        (
            literal(review),
            literal(rng.randrange(scale.items)),
            literal(rng.randrange(1, 6)),
        )
        for review in range(scale.reviews)
    )
    db.execute(ast.Insert("review", (), reviews))
    return db


def make_servlets() -> List[QueryPageServlet]:
    as_int = int
    return [
        QueryPageServlet(
            name="item",
            path="/item",
            queries=[(ITEM_SQL, [QueryBinding("get", "id", as_int)])],
            key_spec=KeySpec.make(get_keys=["id"]),
        ),
        QueryPageServlet(
            name="cat",
            path="/cat",
            queries=[
                (
                    CAT_SQL,
                    [
                        QueryBinding("get", "c", as_int),
                        QueryBinding("get", "max", as_int),
                    ],
                )
            ],
            key_spec=KeySpec.make(get_keys=["c", "max"]),
        ),
        QueryPageServlet(
            name="top",
            path="/top",
            queries=[(TOP_SQL, [QueryBinding("get", "c", as_int)])],
            key_spec=KeySpec.make(get_keys=["c"]),
        ),
    ]


class ProbeCache:
    """A bus target that stores nothing and timestamps every eject.

    Registered after the real cache, so an event's time is the moment the
    page was already gone from the cache users read."""

    def __init__(self) -> None:
        self.events: List[Tuple[float, str]] = []

    def handle_message(self, request: HttpRequest, url_key: str) -> bool:
        self.events.append((_now(), url_key))
        return False


class Pump:
    """The benchmark-owned invalidation tick.

    Passed to the gateway as ``tick=`` and called by the storm driver;
    either way it drains the pipeline on the caller's thread, times how
    long that blocked, and charges the ejects it saw on the probe cache to
    the commits that were waiting — all of them from the oldest.
    """

    def __init__(
        self,
        pipeline: StreamingInvalidationPipeline,
        probe: ProbeCache,
        enabled: bool = True,
    ) -> None:
        self.pipeline = pipeline
        self.probe = probe
        #: ``--control no-invalidation`` turns the tick into a no-op.
        self.enabled = enabled
        self.phase = "setup"
        self.waiting: List[float] = []
        #: (phase, seconds) per tick.
        self.blocks: List[Tuple[str, float]] = []
        #: Per drained commit group that ejected something: (phase, ms from
        #: the oldest commit's return to the start of the drain, ms from
        #: there to the group's last eject, when) ...
        self.eject_ms: List[Tuple[str, float, float, float]] = []
        #: ... and per group proven to affect nothing (to the end of the drain).
        self.clear_ms: List[Tuple[str, float, float, float]] = []
        self.lag_peak = 0
        #: Called when a tick ends (the commit stream waits on it).
        self.after_tick: Optional[Callable[[], None]] = None

    def committed(self, returned_at: float) -> None:
        self.waiting.append(returned_at)

    def tick(self) -> None:
        if self.enabled:
            self._drain()
        if self.after_tick is not None:
            self.after_tick()

    def _drain(self) -> None:
        start = _now()
        self.lag_peak = max(self.lag_peak, self.pipeline.tailer.lag)
        waiting, self.waiting = self.waiting, []
        seen = len(self.probe.events)
        self.pipeline.process_available()
        end = _now()
        self.blocks.append((self.phase, end - start))
        if waiting:
            events = self.probe.events
            before = 1e3 * (start - waiting[0])
            if len(events) > seen:
                self.eject_ms.append(
                    (self.phase, before, 1e3 * (events[-1][0] - start), end)
                )
            else:
                self.clear_ms.append((self.phase, before, 1e3 * (end - start), end))


@dataclass
class Bed:
    """One assembled site plus the benchmark's handles on it."""

    database: Database
    site: object
    portal: CachePortal
    pipeline: StreamingInvalidationPipeline
    probe: ProbeCache
    pump: Pump
    servlets: Dict[str, QueryPageServlet]

    def url_key(self, url: str) -> str:
        request = HttpRequest.from_url(url)
        return page_key(request, self.servlets[request.path].key_spec)

    def fresh_body(self, url: str) -> str:
        """Regenerate a page from the database with no side effect: the
        original servlet over a native (unlogged) connection, so the
        sniffer never sees the oracle's queries."""
        request = HttpRequest.from_url(url)
        return self.servlets[request.path].service(request, self._oracle).body

    def __post_init__(self) -> None:
        self._oracle = connect(self.database)


def build_site_only(workload: Workload, scale: Scale, seed: int):
    """(database, site, servlets): the bare Configuration III site."""
    database = build_database(scale, seed)
    servlets = make_servlets()
    capacity = max(16, workload.cache_capacity * scale.items // FULL.items)
    site = build_site(
        Configuration.WEB_CACHE,
        servlets,
        database=database,
        num_servers=2,
        web_cache_capacity=capacity,
    )
    return database, site, servlets


def build_bed(
    workload: Workload, scale: Scale, seed: int, invalidate: bool = True
) -> Bed:
    """Site, portal, streaming pipeline and probe for one workload."""
    database, site, servlets = build_site_only(workload, scale, seed)
    portal = CachePortal(site)
    pipeline = StreamingInvalidationPipeline.for_portal(portal)
    probe = ProbeCache()
    pipeline.register_cache("probe", probe)
    return Bed(
        database=database,
        site=site,
        portal=portal,
        pipeline=pipeline,
        probe=probe,
        pump=Pump(pipeline, probe, enabled=invalidate),
        servlets={servlet.path: servlet for servlet in servlets},
    )
