"""The repo's one benchmark: request -> bytes and commit -> eject, with a
per-layer ledger.  See bench/README.md; the entry point is bench/run.py."""
