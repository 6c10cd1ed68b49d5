"""Run with ``python -m pytest bench/tests -q`` from the repo root (tier-1
collects only ``tests/``).  Puts the checkout root and ``src`` on the path
the way ``bench/run.py`` does."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
