"""Ablation G: scalability in the request rate (Table 1's ``num_req``).

The paper evaluated at a single operating point (30 req/s).  This sweep
varies the arrival rate and shows where each caching configuration's
knee sits: Conf III (web cache) pushes the saturation point furthest
because 70 % of requests never enter the site at all, while Conf II's
hits still consume app-server workers and shared network.
"""

import dataclasses

import pytest

from repro.sim.configs import (
    DataCacheMode,
    simulate_config2,
    simulate_config3,
)
from repro.sim.workload import UPDATES_5

from conftest import emit


RATES = [15.0, 30.0, 45.0, 60.0]


def sweep(bench_model):
    rows = []
    for rate in RATES:
        model = dataclasses.replace(bench_model, requests_per_second=rate)
        conf2 = simulate_config2(UPDATES_5, model, DataCacheMode.NEGLIGIBLE)
        conf3 = simulate_config3(UPDATES_5, model)
        rows.append((rate, conf2, conf3))
    return rows


@pytest.fixture(scope="module")
def sweep_rows(bench_model):
    return sweep(bench_model)


def test_request_rate_sweep(benchmark, bench_model, sweep_rows):
    model = dataclasses.replace(bench_model, requests_per_second=60.0)
    benchmark.pedantic(
        lambda: simulate_config3(UPDATES_5, model), rounds=1, iterations=1
    )
    points = [
        {
            "arm": arm,
            "offered_rps": rate,
            "exp_resp_ms": stats.exp_resp_ms,
            "p50_ms": stats.p50_ms,
            "p95_ms": stats.p95_ms,
            "p99_ms": stats.p99_ms,
            "p999_ms": stats.p999_ms,
            "hit_ratio": round(stats.hit_ratio, 4),
            "completed": stats.completed,
        }
        for rate, conf2, conf3 in sweep_rows
        for arm, stats in (("config2-sim", conf2), ("config3-sim", conf3))
    ]
    emit(
        "Ablation G — expected response vs request rate (<5,5,5,5> updates/s)",
        (
            f"{rate:5.0f} req/s: Conf II={conf2.exp_resp_ms:8.0f}ms "
            f"(p95 {conf2.p95_ms:8.0f})  Conf III={conf3.exp_resp_ms:8.0f}ms "
            f"(p95 {conf3.p95_ms:8.0f})"
            for rate, conf2, conf3 in sweep_rows
        ),
        data={"points": points},
    )


def test_response_grows_with_rate(sweep_rows):
    conf3_values = [conf3.exp_resp_ms for _r, _c2, conf3 in sweep_rows]
    assert conf3_values == sorted(conf3_values)
    conf2_values = [conf2.exp_resp_ms for _r, conf2, _c3 in sweep_rows]
    assert conf2_values == sorted(conf2_values)


def test_conf3_wins_at_every_rate(sweep_rows):
    for _rate, conf2, conf3 in sweep_rows:
        assert conf3.exp_resp_ms < conf2.exp_resp_ms


def test_conf3_saturates_later(sweep_rows):
    """Doubling the rate from 30 to 60 hurts Conf II more than Conf III."""
    by_rate = {rate: (conf2, conf3) for rate, conf2, conf3 in sweep_rows}
    conf2_growth = by_rate[60.0][0].exp_resp_ms / by_rate[30.0][0].exp_resp_ms
    conf3_growth = by_rate[60.0][1].exp_resp_ms / by_rate[30.0][1].exp_resp_ms
    assert conf3_growth < conf2_growth


def test_percentiles_available(sweep_rows):
    _rate, conf2, conf3 = sweep_rows[0]
    assert conf2.p95_ms >= conf2.p50_ms
    assert conf3.p95_ms >= conf3.p50_ms
