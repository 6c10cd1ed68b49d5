"""Soak: the QI/URL map's memory follows the live pages, not history.

One page is cached, invalidated and re-cached round after round through a
portal.  Every round leaves exactly one live row, so after a warm-up the
map may hold no more row objects than it did at the end of warm-up.
"""

import gc

from repro.core import CachePortal
from repro.core.qiurl import QIURLEntry
from repro.web import Configuration, build_site

from helpers import car_servlets, make_car_db

#: A price no other test caches, so only this test's rows match.
URL = "/catalog?max_price=30017"
WARM_UP = 20
ROUNDS = 200


def retained_rows():
    """QI/URL row objects for the soaked page still alive."""
    gc.collect()
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, QIURLEntry) and obj.url_key.endswith("max_price=30017")
    )


def fill_and_eject(site, portal, round_no):
    site.get(URL)
    site.database.execute(f"INSERT INTO car VALUES ('Kia', 'R{round_no}', 12000)")
    report = portal.run_invalidation_cycle()
    assert report.urls_ejected == 1


def test_rows_stay_bounded_by_live_pages():
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=make_car_db(), num_servers=2
    )
    portal = CachePortal(site)
    for round_no in range(WARM_UP):
        fill_and_eject(site, portal, round_no)
    after_warm_up = retained_rows()
    for round_no in range(WARM_UP, ROUNDS):
        fill_and_eject(site, portal, round_no)
    site.get(URL)
    portal.run_invalidation_cycle()
    assert len(portal.qiurl_map) == 1  # one live row
    # Per-round growth bound after warm-up: zero (one row of slack for
    # the page re-cached just above).
    assert retained_rows() <= max(after_warm_up, 1) + 1
