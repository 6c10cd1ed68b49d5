#!/usr/bin/env python3
"""Compare two suite files written by ``bench/run.py --repeat N --out``.

    python3 bench/compare.py A.json B.json

For every (workload, end-to-end metric) it prints A's median, B's median,
the change in the metric's *worse* direction, the metric's bound, and a
verdict.  Change, bound and spread are in the metric's own unit where the
bound is absolute (``abs``: the ratios, ``stale_pages``) and shares of A's
median elsewhere (``rel``):

* ``ok``         — B is not worse than A by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — the files cannot tell a change from noise: the
  run-to-run spread (quartile distance) recorded in either file exceeds
  the bound, or a file holds no spread (``--repeat 1``), or A's median is
  0 and the bound a share of it; record longer or repeat more.

Exit status is non-zero when any pair is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence, Tuple


def verdict(before: Dict[str, object], after: Dict[str, object]) -> Tuple[float, str]:
    """(worsening in the bound's own terms, verdict) for one metric."""
    bound = float(before["bound"])
    a, b = float(before["median"]), float(after["median"])
    if not before["absolute"] and a == 0:
        return 0.0, "unresolved"
    change = (b - a) if before["absolute"] else (b - a) / abs(a)
    worsening = -change if before["better"] == "higher" else change
    spreads = [before.get("spread_iqr"), after.get("spread_iqr")]
    if None in spreads or max(map(float, spreads)) > bound:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "ok"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Tuple[str, ...]]:
    rows = []
    for workload, before in a["workloads"].items():
        after = b["workloads"].get(workload)
        if after is None:
            rows.append((workload, "*", "", "", "", "", "worse (workload missing)"))
            continue
        for metric, entry in before["end_to_end"].items():
            other = after["end_to_end"].get(metric)
            if other is None:
                rows.append((workload, metric, "", "", "", "", "worse (metric missing)"))
                continue
            worsening, word = verdict(entry, other)
            rows.append(
                (
                    workload,
                    metric,
                    f"{entry['median']:.4f}",
                    f"{other['median']:.4f}",
                    f"{worsening:+.4f}",
                    f"{entry['bound']:g} {'abs' if entry['absolute'] else 'rel'}",
                    word,
                )
            )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as first, open(argv[1], encoding="utf-8") as second:
        rows = compare(json.load(first), json.load(second))
    header = ("workload", "metric", "A", "B", "worse by", "bound", "verdict")
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1].startswith("worse") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
