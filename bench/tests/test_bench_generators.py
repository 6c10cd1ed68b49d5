"""Inputs are a function of (workload, scale, seed, seconds) and nothing else."""

import random

from bench.workloads import (
    BURST,
    DEFAULT_SECONDS,
    SMOKE,
    WORKLOADS,
    by_last_use,
    hot_item_ids,
    make_inputs,
    make_updates,
    page_urls,
    slicing,
    windows,
    zipf_draws,
)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in WORKLOADS:
        first = make_inputs(workload, SMOKE, 11, 2.0)
        again = make_inputs(workload, SMOKE, 11, 2.0)
        other = make_inputs(workload, SMOKE, 12, 2.0)
        assert first.sha256 == again.sha256
        assert (first.warm, first.paced, first.rings) == (
            again.warm,
            again.paced,
            again.rings,
        )
        assert first.storm_updates == again.storm_updates
        assert first.sha256 != other.sha256


def test_population_is_shuffled_by_seed_and_complete():
    urls = page_urls(SMOKE, 3)
    assert len(urls) == len(set(urls)) == SMOKE.pages
    other = page_urls(SMOKE, 4)
    assert urls != other and sorted(urls) == sorted(other)
    # the class of page at each rank is the same for every seed
    assert [url.split("?")[0] for url in urls] == [url.split("?")[0] for url in other]
    assert {url.split("?")[0] for url in urls[:60]} == {"/item", "/cat", "/top"}


def test_zipf_prefers_low_ranks():
    urls = [f"/p{rank}" for rank in range(200)]
    draws = zipf_draws(random.Random(1), urls, 1.1, 20_000)
    assert draws.count("/p0") > draws.count("/p1") > draws.count("/p20") > 0


def test_zipf_counts_are_within_one_of_expected_for_every_seed():
    urls = [f"/p{rank}" for rank in range(50)]
    total = sum((rank + 1) ** -0.8 for rank in range(50))
    for seed in (1, 2):
        draws = zipf_draws(random.Random(seed), urls, 0.8, 5_000)
        for rank in (0, 7, 49):
            expected = 5_000 * (rank + 1) ** -0.8 / total
            assert abs(draws.count(urls[rank]) - expected) <= 1.0 + 1e-9
    assert draws != zipf_draws(random.Random(1), urls, 0.8, 5_000)


def test_by_last_use_reproduces_lru_order():
    draws = ["a", "b", "a", "c", "b", "d"]
    assert by_last_use(draws) == ["a", "c", "b", "d"]


def test_update_mix_touches_hot_items_and_unread_table():
    urls = page_urls(SMOKE, 5)
    hot = hot_item_ids(urls, SMOKE.hot_items)
    assert len(hot) == SMOKE.hot_items
    updates = make_updates(random.Random(5), SMOKE, hot, 400, 1_000)
    price = [params for sql, params in updates if "SET price" in sql]
    assert price and all(item in hot for _price, item in price)
    kinds = [sql.split()[0] + " " + sql.split()[2 if "INTO" in sql else 1]
             for sql, _params in updates]
    assert kinds[:5] == ["UPDATE item", "INSERT review", "UPDATE item",
                         "UPDATE item", "INSERT audit_log"]
    assert sum("SET price" in sql for sql, _params in updates) == 160
    assert sum("audit_log" in sql for sql, _params in updates) == 80
    inserted = [params[0] for sql, params in updates if sql.startswith("INSERT")]
    assert len(inserted) == len(set(inserted))


def test_storm_size_scales_with_seconds_in_whole_bursts():
    _paced, _sat, full = windows(DEFAULT_SECONDS)
    _paced, _sat, half = windows(DEFAULT_SECONDS / 2)
    assert full == 300 and half == 150
    assert windows(0.01)[2] == BURST


def test_short_windows_still_hold_ten_slices():
    assert slicing(8.0) == (0.25, 4)
    slice_s, skip = slicing(0.2)
    assert abs(slice_s - 0.02) < 1e-12 and skip == 2
