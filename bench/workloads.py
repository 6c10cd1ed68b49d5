"""The four workloads and their seeded input generators.

Everything the program under test receives is generated here from
``--seed``: the URL population, the request sequences and the update
lists.  The paced rates are constants, never scaled at run time, so a
slower program shows up as a worse number and not as a lighter load.

How they were sized.  The reference box runs 1.6-1.8x slower whenever a
neighbour is busy (``speed.py``), and a speed index can bring latencies
back to reference speed only below the knee of the queueing curve.  So
each rate is about half of what the *slowed* box sustains open loop.  One
task per arrival costs 2.3x a closed-loop request (35,000 req/s of hits
undisturbed, 21,000 slowed), hence 12,000 on ``read_hot`` and 10,000 on
``mixed_update``, which also gives a tenth of the loop to ticks; a miss
costs the same either way, hence 1,500 on ``read_cold`` (``sat_rps``
5,000 / 3,000).  As shares of the same run's wall-clock ``sat_rps`` that
is 15-30 % undisturbed and 25-50 % slowed — not the 40-50 % the issue
asked for, which on the slowed box is past the knee.  ``update_storm``
re-reads its pages at a token 2,000 req/s: that phase prices ejection in
hits, not load.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence, Tuple

#: A request counts only when answered within this many ms of its due time.
REQ_LIMIT_MS = 20.0
#: Gateway invalidation tick (the streaming pipeline runs on the serving loop).
TICK_INTERVAL_S = 0.02
#: Miss threads = closed-loop clients = nproc of the reference box; never more.
MISS_WORKERS = 2
CLIENTS = 2
#: Storm commits per drain: one period of the update mix, so every burst
#: does the same kinds of work.
BURST = 5
#: Saturation throughput is the median over slices of this length ...
SLICE_S = 0.25
#: ... after discarding the first second.
SAT_DISCARD_S = 1.0
#: Shares of --seconds spent in the paced and the saturation phase.
PACED_SHARE = 0.4
SAT_SHARE = 0.4
#: Closed-loop clients yield to the loop this often (a hit never suspends).
YIELD_EVERY = 64
#: One response body in this many is kept and compared with a regeneration.
SAMPLE_EVERY = 50
#: ``run_seconds`` of BENCHMARK.json; windows scale linearly with --seconds.
DEFAULT_SECONDS = 20
#: Storm updates at DEFAULT_SECONDS.  The storm is sized by count and runs
#: straight after warm-up, where the site's state is a function of the
#: seed alone, so its invalidation counters repeat.
STORM_UPDATES = 300
#: ``/cat?c=C&max=P`` price tiers (item prices are uniform in 100..999).
PRICE_TIERS = (250, 400, 550, 700, 850)
#: How often the speed kernel runs beside whatever is being timed.
SPEED_INTERVAL_S = 0.1
#: Sync-cycle twin replays at most this many storm updates.
TWIN_UPDATES = 100

Update = Tuple[str, Tuple[object, ...]]


@dataclass(frozen=True)
class Scale:
    """Row counts of the site under test and the load factor that goes
    with them (``--smoke`` shrinks both)."""

    items: int
    cats: int
    reviews: int
    hot_items: int
    load: float

    @property
    def pages(self) -> int:
        return self.items + self.cats * len(PRICE_TIERS) + self.cats


FULL = Scale(items=10_000, cats=100, reviews=4_000, hot_items=300, load=1.0)
SMOKE = Scale(items=600, cats=12, reviews=240, hot_items=30, load=0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    zipf_s: float
    #: The workload draws from this many top-ranked pages (FULL scale).
    pages: int
    #: Page-cache capacity in entries at FULL scale.
    cache_capacity: int
    #: Zipf draws whose distinct pages are generated during warm-up.
    warm_draws: int
    #: Open-loop arrival rate of the paced phase (req/s).
    paced_rps: float
    #: Commits per second beside the traffic, both serving phases.  Where
    #: there are any, ``eject_p50_ms`` is read from them (drained by the
    #: gateway tick); elsewhere from the storm's bursts.
    update_rps: float


def windows(seconds: float) -> Tuple[float, float, int]:
    """(paced seconds, saturation seconds, storm updates) for --seconds."""
    bursts = max(1, round(STORM_UPDATES * seconds / DEFAULT_SECONDS / BURST))
    return PACED_SHARE * seconds, SAT_SHARE * seconds, bursts * BURST


def slicing(sat_s: float) -> Tuple[float, int]:
    """(slice seconds, leading slices discarded) of a saturation window:
    SLICE_S and SAT_DISCARD_S, both shrunk for a window (``--smoke``) too
    short to hold ten such slices."""
    slice_s = min(SLICE_S, sat_s / 10)
    return slice_s, round(min(SAT_DISCARD_S, sat_s / 5) / slice_s)


WORKLOADS = (
    Workload(
        name="read_hot",
        why="Zipf 1.1, cache holds every page, no updates: hit path only; "
        "an invalidation-side change must leave its serving numbers alone",
        zipf_s=1.1,
        pages=2_500,
        cache_capacity=1 << 20,
        warm_draws=12_000,
        paced_rps=12_000.0,
        update_rps=0.0,
    ),
    Workload(
        name="read_cold",
        why="Zipf 0.8 over a cache a tenth of the pages touched: constant "
        "eviction, the miss lane (servlet, db, sniffer, registration) does the work",
        zipf_s=0.8,
        pages=FULL.pages,
        cache_capacity=1_000,
        warm_draws=2_500,
        paced_rps=1_500.0,
        update_rps=0.0,
    ),
    Workload(
        name="mixed_update",
        why="read_hot traffic plus 8 commits/s invalidated by the gateway tick "
        "on the serving loop: writes beside reads, either side can starve the other",
        zipf_s=1.1,
        pages=2_500,
        cache_capacity=1 << 20,
        warm_draws=12_000,
        paced_rps=10_000.0,
        update_rps=8.0,
    ),
    Workload(
        name="update_storm",
        why="300 commits in bursts of 5 drained closed-loop on a warm registry, "
        "then the same pages re-read: invalidator, stream and polling do the work",
        zipf_s=0.8,
        pages=2_500,
        cache_capacity=1 << 20,
        warm_draws=12_000,
        paced_rps=2_000.0,
        update_rps=0.0,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Inputs:
    """Everything one run feeds the program, all derived from the seed."""

    urls: List[str]
    warm: List[str]
    paced: List[str]
    rings: List[List[str]]
    serve_updates: List[Update]
    storm_updates: List[Update]
    sha256: str


def page_urls(scale: Scale, seed: int) -> List[str]:
    """The URL population in popularity order (rank 0 is the hottest).

    Each page class is shuffled by seed, then the classes are merged in a
    fixed pattern proportional to their sizes: *which* item or category
    sits at a rank is the seed's choice, *what class of page* does not
    vary — a ``/top`` miss costs 25 ``/item`` misses, and a seed that put
    one at rank 0 would measure a different workload."""
    rng = random.Random(f"pages:{seed}")
    classes = [
        [f"/item?id={item}" for item in range(scale.items)],
        [
            f"/cat?c={cat}&max={tier}"
            for cat in range(scale.cats)
            for tier in PRICE_TIERS
        ],
        [f"/top?c={cat}" for cat in range(scale.cats)],
    ]
    for pages in classes:
        rng.shuffle(pages)
    total = sum(len(pages) for pages in classes)
    taken = [0] * len(classes)
    urls = []
    for rank in range(total):
        # the class furthest behind its share of the ranks so far
        behind = max(
            range(len(classes)),
            key=lambda c: (rank + 1) * len(classes[c]) / total - taken[c],
        )
        urls.append(classes[behind][taken[behind]])
        taken[behind] += 1
    return urls


def zipf_draws(
    rng: random.Random, urls: Sequence[str], s: float, count: int
) -> List[str]:
    """``count`` draws with P(rank r) proportional to 1 / (r + 1) ** s,
    as a stratified sample in seeded order: draw i comes from the i-th of
    ``count`` equal slices of the distribution, so every page appears
    within one of its expected number of times and the seed decides the
    order.  Independent draws would make ``hit_ratio`` a binomial whose
    spread over seeds (0.006 of 0.42 on ``read_cold``) is most of its
    bound; stratified, the spread is a third of that."""
    weights = list(accumulate((rank + 1) ** -s for rank in range(len(urls))))
    total = weights[-1]
    draws = [
        urls[min(len(urls) - 1, bisect_left(weights, (i + rng.random()) / count * total))]
        for i in range(count)
    ]
    rng.shuffle(draws)
    return draws


def by_last_use(draws: Sequence[str]) -> List[str]:
    """Distinct URLs ordered by their last occurrence: generating them in
    this order leaves an LRU cache in the state a full replay would."""
    last = {url: position for position, url in enumerate(draws)}
    return sorted(last, key=last.__getitem__)


def hot_item_ids(urls: Sequence[str], count: int) -> List[int]:
    """Ids of the ``count`` highest-ranked ``/item`` pages."""
    ids = [
        int(url.partition("=")[2]) for url in urls if url.startswith("/item?")
    ]
    return ids[:count]


#: One period of the update mix: 40 % price, 20 % review, 20 % stock,
#: 20 % audit_log.  A fixed cycle, not a draw per update, so every seed
#: and every storm burst carries the same kinds of work; which rows are
#: hit is what the seed decides.
UPDATE_CYCLE = ("price", "review", "price", "stock", "audit")


def make_updates(
    rng: random.Random, scale: Scale, hot_ids: Sequence[int], count: int, base: int
) -> List[Update]:
    """The seeded update stream: price changes on the hottest ``/item``
    pages, review inserts with random stars, stock changes on random
    items, ``audit_log`` inserts (a table no page reads).  ``base`` keeps
    inserted ids unique."""
    updates: List[Update] = []
    for number in range(count):
        kind = UPDATE_CYCLE[number % len(UPDATE_CYCLE)]
        row_id = base + number
        if kind == "price":
            updates.append(
                (
                    "UPDATE item SET price = ? WHERE id = ?",
                    (rng.randrange(100, 1000), rng.choice(hot_ids)),
                )
            )
        elif kind == "review":
            updates.append(
                (
                    "INSERT INTO review VALUES (?, ?, ?)",
                    (row_id, rng.randrange(scale.items), rng.randrange(1, 6)),
                )
            )
        elif kind == "stock":
            updates.append(
                (
                    "UPDATE item SET stock = ? WHERE id = ?",
                    (rng.randrange(0, 50), rng.randrange(scale.items)),
                )
            )
        else:
            updates.append(
                ("INSERT INTO audit_log VALUES (?, ?)", (row_id, f"note-{row_id}"))
            )
    return updates


def make_inputs(
    workload: Workload, scale: Scale, seed: int, seconds: float
) -> Inputs:
    paced_s, sat_s, storm_n = windows(seconds)
    shrink = scale.items / FULL.items
    urls = page_urls(scale, seed)[: max(64, int(workload.pages * shrink))]
    rng = random.Random(f"{workload.name}:{seed}")
    warm_draws = max(64, int(workload.warm_draws * shrink))
    warm = by_last_use(zipf_draws(rng, urls, workload.zipf_s, warm_draws))
    paced_n = int(workload.paced_rps * scale.load * paced_s)
    paced = zipf_draws(rng, urls, workload.zipf_s, max(1, paced_n))
    rings = [
        zipf_draws(rng, urls, workload.zipf_s, 50_000) for _ in range(CLIENTS)
    ]
    hot_ids = hot_item_ids(urls, scale.hot_items)
    serve_n = int(workload.update_rps * (paced_s + sat_s))
    serve_updates = make_updates(rng, scale, hot_ids, serve_n, 10_000_000)
    storm_updates = make_updates(rng, scale, hot_ids, storm_n, 20_000_000)
    digest = hashlib.sha256()
    for sequence in (warm, paced, *rings):
        digest.update("\n".join(sequence).encode())
    digest.update(repr((serve_updates, storm_updates)).encode())
    return Inputs(
        urls=urls,
        warm=warm,
        paced=paced,
        rings=rings,
        serve_updates=serve_updates,
        storm_updates=storm_updates,
        sha256=digest.hexdigest(),
    )
