"""Edge caching: dynamic pages in a four-level cache hierarchy (Figure 1).

The paper's Figure 1 shows the places a page can be cached on its way to
the user: the site's reverse proxy (B), a CDN edge cache (C), an ISP
proxy (A), and the user side (D).  CachePortal's invalidation is
*vertical*: when the database changes, eject messages travel from the
invalidator out to every level — so a dynamic page can safely live at
the very edge.

Run with::

    python examples/edge_caching.py
"""

from repro.db import Database
from repro.web import Configuration, KeySpec, QueryPageServlet, build_site
from repro.web.hierarchy import HierarchicalSite, standard_hierarchy
from repro.web.servlet import QueryBinding
from repro.core import CachePortal


def main() -> None:
    db = Database()
    db.execute("CREATE TABLE stock (ticker TEXT, price REAL)")
    db.execute("INSERT INTO stock VALUES ('NEC', 12.5), ('ORCL', 35.0), ('BEAS', 57.25)")

    quotes = QueryPageServlet(
        name="quote",
        path="/quote",
        queries=[
            ("SELECT ticker, price FROM stock WHERE ticker = ?",
             [QueryBinding("get", "t")])
        ],
        key_spec=KeySpec.make(get_keys=["t"]),
        title="Quote",
    )

    # Origin site + CachePortal; then a 4-level hierarchy in front of it.
    origin = build_site(Configuration.WEB_CACHE, [quotes], database=db, num_servers=2)
    portal = CachePortal(origin)
    hierarchy = standard_hierarchy(capacity_per_level=64)
    site = HierarchicalSite(origin, hierarchy)
    for level, cache in enumerate(hierarchy.caches):
        portal.pipeline.register_cache(f"level{level}", cache)

    url = "/quote?t=NEC"
    _response, source = site.fetch_with_source(url)
    print(f"request 1: served from {source}")
    _response, source = site.fetch_with_source(url)
    print(f"request 2: served from {source} (closest level to the user)")

    key = hierarchy.caches[0].keys()[0]
    print("page copies at:", ", ".join(hierarchy.contains(key)))

    # The quote changes; one cycle ejects the page from all four levels.
    db.execute("UPDATE stock SET price = 13.75 WHERE ticker = 'NEC'")
    report = portal.run_invalidation_cycle()
    print(
        f"update    : {report.pages_removed} copies removed across "
        f"{len(hierarchy.levels)} cache levels"
    )
    print("page copies at:", hierarchy.contains(key) or "(none)")

    response, source = site.fetch_with_source(url)
    print(f"request 3: served from {source}, fresh price shown:", "13.75" in response.body)

    print("hierarchy stats:", hierarchy.stats.hits_by_level,
          f"origin fetches={hierarchy.stats.origin_fetches}")


if __name__ == "__main__":
    main()
