"""Benchmark fixtures: shared simulation model and result printing.

Every ``bench_*.py`` reports through :func:`emit`, so all benchmarks
support machine-readable output uniformly::

    pytest benchmarks/bench_table3.py --json results.json

collects each emitted block (title, human lines, optional structured
``data`` payload) and writes one JSON document at session end.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from repro.sim.configs import ConfigurationModel


#: One shared model: full 120 s runs, matching EXPERIMENTS.md numbers.
#: Override with REPRO_BENCH_DURATION for quick passes.
BENCH_DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "120"))

#: Result blocks collected this session, in emission order.
_RESULTS: list = []
_JSON_PATH: dict = {"path": None}


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="write all emitted benchmark results to PATH as one JSON document",
    )


def pytest_configure(config):
    _JSON_PATH["path"] = config.getoption("--json")
    _RESULTS.clear()


def pytest_sessionfinish(session, exitstatus):
    path = _JSON_PATH["path"]
    if not path:
        return
    payload = {
        "bench_duration": BENCH_DURATION,
        "exit_status": int(exitstatus),
        "results": list(_RESULTS),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


@pytest.fixture(scope="session")
def bench_model() -> ConfigurationModel:
    return ConfigurationModel(
        duration=BENCH_DURATION, warmup=min(10.0, BENCH_DURATION / 10)
    )


def emit(title: str, lines, data=None) -> None:
    """Print a result block that survives pytest's capture (via stderr)
    and record it for ``--json``.  ``data`` carries the machine-readable
    numbers behind the human-formatted ``lines``."""
    lines = list(lines)
    _RESULTS.append({"title": title, "lines": lines, "data": data})
    out = ["", f"=== {title} ==="]
    out += lines
    print("\n".join(out), file=sys.stderr)
