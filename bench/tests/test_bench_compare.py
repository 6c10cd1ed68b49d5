"""compare.py: ok / worse / unresolved, in each metric's own direction."""

from bench import compare


def _entry(median, better="higher", bound=0.1, spread=0.01, absolute=False):
    return {"median": median, "better": better, "bound": bound,
            "spread_iqr": spread, "absolute": absolute}


def test_direction_and_bound():
    assert compare.verdict(_entry(100.0), _entry(95.0))[1] == "ok"
    assert compare.verdict(_entry(100.0), _entry(85.0))[1] == "worse"
    assert compare.verdict(_entry(100.0), _entry(150.0))[1] == "ok"
    lower = dict(better="lower")
    assert compare.verdict(_entry(10.0, **lower), _entry(11.5, **lower))[1] == "worse"
    assert compare.verdict(_entry(10.0, **lower), _entry(5.0, **lower))[1] == "ok"
    worsening, _word = compare.verdict(_entry(10.0, **lower), _entry(12.0, **lower))
    assert abs(worsening - 0.2) < 1e-9


def test_spread_wider_than_bound_is_unresolved_either_side():
    assert compare.verdict(_entry(100.0, spread=0.2), _entry(50.0))[1] == "unresolved"
    assert compare.verdict(_entry(100.0), _entry(99.0, spread=0.2))[1] == "unresolved"


def test_no_spread_or_a_zero_baseline_is_unresolved_not_ok():
    once = _entry(100.0)
    del once["spread_iqr"]  # a --repeat 1 file
    assert compare.verdict(once, _entry(50.0))[1] == "unresolved"
    assert compare.verdict(_entry(100.0), once)[1] == "unresolved"
    assert compare.verdict(_entry(0.0), _entry(5.0))[1] == "unresolved"


def test_absolute_bounds_need_no_nonzero_median():
    ratio = dict(better="lower", bound=0.02, absolute=True, spread=0.0)
    assert compare.verdict(_entry(0.0, **ratio), _entry(0.01, **ratio)) == (0.01, "ok")
    assert compare.verdict(_entry(0.0, **ratio), _entry(0.05, **ratio))[1] == "worse"
    assert compare.verdict(_entry(0.05, **ratio), _entry(0.0, **ratio))[1] == "ok"
    stale = dict(better="lower", bound=0.0, absolute=True, spread=0.0)
    assert compare.verdict(_entry(0.0, **stale), _entry(0.0, **stale))[1] == "ok"
    assert compare.verdict(_entry(0.0, **stale), _entry(1.0, **stale))[1] == "worse"
    within = dict(better="higher", bound=0.03, absolute=True)
    assert compare.verdict(_entry(0.99, **within), _entry(0.97, **within))[1] == "ok"
    assert compare.verdict(_entry(0.99, **within), _entry(0.95, **within))[1] == "worse"


def test_missing_workload_or_metric_is_worse_and_exit_is_nonzero(tmp_path, capsys):
    import json

    a = {"workloads": {"w": {"end_to_end": {"m": _entry(1.0), "n": _entry(1.0)}},
                       "gone": {"end_to_end": {}}}}
    b = {"workloads": {"w": {"end_to_end": {"m": _entry(1.0)}}}}
    rows = compare.compare(a, b)
    assert [row[-1] for row in rows] == [
        "ok", "worse (metric missing)", "worse (workload missing)"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(a))
    second.write_text(json.dumps(b))
    assert compare.main([str(first), str(second)]) == 1
    assert compare.main([str(first), str(first)]) == 0
    assert "verdict" in capsys.readouterr().out
