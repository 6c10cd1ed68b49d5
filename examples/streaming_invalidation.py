"""Streaming invalidation: tail the update log, decide each relation's
changes in log order, batch ejects through the bus.

Builds Configuration III and deploys CachePortal, whose invalidator is
the streaming pipeline, then drains it *incrementally* instead of
cycle by cycle: a CDC tailer follows the update log, one lane analyzes
each tail batch's changes in log order, and the eject bus coalesces,
retries and dead-letters `Cache-Control: eject` deliveries.  The
pipeline runs on the thread that drains it; the database writers may be
anywhere.

Run with::

    python examples/streaming_invalidation.py
"""

import threading

from repro import CachePortal, Configuration, Database, KeySpec, build_site
from repro.web import QueryPageServlet
from repro.web.cache import FlakyCache
from repro.web.servlet import QueryBinding


def build_demo_site():
    db = Database()
    db.execute("CREATE TABLE product (name TEXT, category TEXT, price INT)")
    db.execute("CREATE TABLE review (name TEXT, stars INT)")
    db.execute(
        "INSERT INTO product VALUES ('laptop','electronics',1200), "
        "('phone','electronics',800), ('desk','furniture',300)"
    )
    db.execute("INSERT INTO review VALUES ('laptop',5), ('desk',4)")

    catalog = QueryPageServlet(
        name="catalog",
        path="/catalog",
        queries=[(
            "SELECT name, price FROM product WHERE category = ?",
            [QueryBinding("get", "category")],
        )],
        key_spec=KeySpec.make(get_keys=["category"]),
        title="Catalog",
    )
    top_rated = QueryPageServlet(
        name="top_rated",
        path="/top",
        queries=[(
            "SELECT product.name, review.stars FROM product, review "
            "WHERE product.name = review.name AND review.stars >= ?",
            [QueryBinding("get", "min_stars", int)],
        )],
        key_spec=KeySpec.make(get_keys=["min_stars"]),
        title="Top rated",
    )
    site = build_site(
        Configuration.WEB_CACHE, [catalog, top_rated], database=db,
        num_servers=2,
    )
    return db, site


def main() -> None:
    db, site = build_demo_site()
    portal = CachePortal(site)

    # The portal's own pipeline: it reads the portal's QI/URL map and
    # ejects from the site's web cache.
    pipeline = portal.pipeline

    # A second, unreliable edge cache also wants eject messages — the
    # bus will retry with backoff and dead-letter what never succeeds.
    edge = FlakyCache(fail_first=2)
    pipeline.register_cache("edge", edge)
    pipeline.bus.backoff_base = 0.005

    urls = ["/catalog?category=electronics", "/catalog?category=furniture",
            "/top?min_stars=4"]
    for url in urls:
        site.get(url)
    print(f"cached          : {len(site.web_cache)} pages")

    # Updates stream in from concurrent writers; the tailer picks them
    # up from the update log, and drain() invalidates everything they
    # committed.
    def writer(statements):
        for statement in statements:
            db.execute(statement)

    threads = [
        threading.Thread(target=writer, args=([
            "INSERT INTO product VALUES ('tablet','electronics',450)",
            "INSERT INTO product VALUES ('lamp','furniture',60)",
        ],)),
        threading.Thread(target=writer, args=([
            "INSERT INTO review VALUES ('phone', 5)",
        ],)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    drained = pipeline.drain(timeout=10.0)
    print(f"drained         : {drained}")

    stats = pipeline.stats()
    print(f"records tailed  : {stats['tailer']['records_tailed']}"
          f" (lag {stats['tailer']['lag_records']})")
    print(f"pairs checked   : {stats['workers']['pairs_checked']}"
          f" ({stats['workers']['unaffected']} proven unaffected,"
          f" {stats['workers']['polls_executed']} polled)")
    print(f"ejects          : {stats['bus']['deliveries_ok']} delivered,"
          f" {stats['bus']['retries']} retries,"
          f" {stats['bus']['dead_letters']} dead-lettered")
    print(f"edge cache      : saw {edge.messages_seen} messages,"
          f" {edge.messages_failed} failed before recovery")
    print(f"surviving pages : {sorted(site.web_cache.keys())}")

    # The catalog pages regenerate with the new rows on next request.
    page = site.get("/catalog?category=electronics")
    print(f"regenerated     : tablet shown = {'tablet' in page.body}")


if __name__ == "__main__":
    main()
