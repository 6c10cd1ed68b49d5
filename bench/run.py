#!/usr/bin/env python3
"""The benchmark's one command.

One pass over one workload, as the driver calls it::

    python3 bench/run.py --workload read_hot --seed 7 --seconds 20 --trace 0

prints every metric by name and unit, then a ``detail`` JSON line, then —
as the last line of standard output — the result object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (with
``--trace 0`` the end-to-end metrics BENCHMARK.json lists, with
``--trace 1`` the per-layer metrics).  The exit code is non-zero when any
check failed.

Without ``--workload`` it runs the suite: every workload, one subprocess
per pass, ``--repeat N`` untraced passes and one traced pass each::

    python3 bench/run.py --seed 7 --repeat 5 --out A.json
    python3 bench/run.py --smoke          # <= 15 s, all checks + control arms

``bench/compare.py A.json B.json`` compares two suite files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = 0.7
DEFAULT_SEED = 7
#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3


def _bootstrap() -> None:
    """Run as a script, ``sys.path[0]`` is ``bench/`` — whose ``site.py``
    and ``trace.py`` would shadow the standard library's.  Put the
    checkout root (for ``bench.*``) and ``src`` (for ``repro``) there
    instead, and pin the hash seed so set orders repeat."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one pass over this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--control", help="a control arm that must fail its check")
    parser.add_argument("--smoke", action="store_true", help="small site, short windows")
    parser.add_argument("--repeat", type=int, default=1, help="suite: untraced passes")
    parser.add_argument("--out", help="suite: write the results JSON here")
    parser.add_argument("--print-spec", action="store_true", help="print BENCHMARK.json")
    return parser


# -- one pass ---------------------------------------------------------------


def run_pass(args: argparse.Namespace) -> int:
    from bench import session
    from bench.metrics import END_TO_END
    from bench.workloads import BY_NAME, DEFAULT_SECONDS, FULL, SMOKE

    if args.workload not in BY_NAME:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}")
    if args.control is not None and args.control not in session.CONTROLS:
        raise SystemExit(f"unknown control {args.control!r}; one of {session.CONTROLS}")
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    # setup_s is an end-to-end metric: only the untraced pass needs a median
    setups = 1 if args.trace or args.smoke else SETUPS
    record = session.run(
        session.Config(
            workload=BY_NAME[args.workload],
            scale=SMOKE if args.smoke else FULL,
            seed=args.seed,
            seconds=seconds,
            trace=bool(args.trace),
            setups=setups,
            control=args.control,
        )
    )
    detail = record.pop("detail")
    nproc = os.cpu_count() or 1
    if detail["loadavg_1m"][0] > nproc:
        print(
            f"warning: 1-min load average was {detail['loadavg_1m'][0]:.2f} > "
            f"nproc={nproc} when the pass began; timings are suspect",
            file=sys.stderr,
        )
    print(f"# {args.workload} seed={args.seed} seconds={seconds} trace={args.trace}")
    print(f"inputs_sha256 {detail['inputs_sha256']}")
    if args.trace:
        for name, entry in record["metrics"].items():
            print(f"{name:<48} {entry['value']:>16.6f} {entry['unit']}")
    else:
        for metric in END_TO_END:
            value = detail["end_to_end"][metric.name]
            print(f"{metric.name:<48} {value:>16.6f} {metric.unit}")
        for name, value in detail["raw"].items():
            print(f"wall_clock.{name:<37} {value:>16.6f}")
    for name, value in detail["samples"].items():
        print(f"samples.{name:<40} {value:>16d} count")
    for name, passed in detail["checks"].items():
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(record))
    return 0 if record["correct"] else 1


# -- the suite --------------------------------------------------------------


def _child(arguments: Sequence[str]) -> Dict[str, object]:
    """One pass in its own process; returns its result + detail + exit code."""
    command = [sys.executable, str(Path(__file__).resolve()), *arguments]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        timeout=900,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(command)} printed no result (exit {done.returncode})")
    record = json.loads(lines[-1])
    record["detail"] = json.loads(lines[-2])["detail"]
    record["exit"] = done.returncode
    return record


def _summary(values: List[float], absolute: bool) -> Dict[str, object]:
    """Median, quartiles and the run-to-run spread in the bound's own
    terms: quartile distance, as a share of the median unless the bound is
    absolute.  One value, or a zero median to divide by, gives no spread —
    which ``compare.py`` reads as unresolved."""
    median = statistics.median(values)
    summary: Dict[str, object] = {"median": median, "values": values}
    if len(values) >= 2 and (absolute or median):
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        scale = 1.0 if absolute else abs(median)
        summary.update(
            q1=q1,
            q3=q3,
            spread_iqr=(q3 - q1) / scale,
            spread_range=(max(values) - min(values)) / scale,
        )
    return summary


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def run_suite(args: argparse.Namespace) -> int:
    from bench.metrics import END_TO_END
    from bench.workloads import DEFAULT_SECONDS, WORKLOADS

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    base = ["--seed", str(args.seed), "--seconds", str(seconds)]
    if args.smoke:
        base.append("--smoke")
    failures: List[str] = []
    results: Dict[str, object] = {}
    for workload in WORKLOADS:
        arguments = ["--workload", workload.name, *base]
        untraced = [_child([*arguments, "--trace", "0"]) for _ in range(args.repeat)]
        traced = _child([*arguments, "--trace", "1"])
        for record in (*untraced, traced):
            for name, passed in record["detail"]["checks"].items():
                if not passed:
                    failures.append(f"{workload.name}: check failed: {name}")
        if len({record["detail"]["inputs_sha256"] for record in (*untraced, traced)}) != 1:
            failures.append(f"{workload.name}: inputs_sha256 differs between passes")
        results[workload.name] = {
            "inputs_sha256": traced["detail"]["inputs_sha256"],
            "windows": traced["detail"]["windows"],
            "rates": traced["detail"]["rates"],
            "end_to_end": {
                metric.name: {
                    "unit": metric.unit,
                    "better": metric.better,
                    "bound": metric.bound,
                    "absolute": metric.absolute,
                    **_summary(
                        [record["detail"]["end_to_end"][metric.name] for record in untraced],
                        metric.absolute,
                    ),
                }
                for metric in END_TO_END
            },
            # the timings before the speed index was applied, for the record
            "wall_clock": {
                name: statistics.median(record["detail"]["raw"][name] for record in untraced)
                for name in untraced[0]["detail"]["raw"]
            },
            "per_layer": {
                name: entry["value"] for name, entry in traced["metrics"].items()
            },
            "checks": traced["detail"]["checks"],
            "samples": untraced[0]["detail"]["samples"],
            "loadavg_1m": [record["detail"]["loadavg_1m"] for record in (*untraced, traced)],
        }
        print(f"== {workload.name}  inputs_sha256 {traced['detail']['inputs_sha256']}")
        for metric in END_TO_END:
            entry = results[workload.name]["end_to_end"][metric.name]
            spread = entry.get("spread_iqr")
            noted = "" if spread is None else f"  spread {spread:.3f}"
            print(f"  {metric.name:<46} {entry['median']:>16.6f} {metric.unit}{noted}")
        for name, entry in traced["metrics"].items():
            print(f"  {name:<46} {entry['value']:>16.6f} {entry['unit']}")

    if args.smoke:
        failures += _control_arms(base, results)
    document = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "PYTHONHASHSEED": "0",
            "seed": args.seed,
            "seconds": seconds,
            "repeat": args.repeat,
            "scale": "smoke" if args.smoke else "full",
            "commit": _commit(),
        },
        "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"FAIL {failure}")
    print("suite: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


def _control_arms(base: Sequence[str], results: Dict[str, object]) -> List[str]:
    """Each check's control arm must trip it, or the check proves nothing."""
    failures = []
    blind = _child(
        ["--workload", "mixed_update", *base, "--trace", "1", "--control", "no-invalidation"]
    )
    stale = blind["metrics"]["stale_pages"]["value"]
    print(f"control no-invalidation: stale_pages {stale:.0f}, exit {blind['exit']}")
    if not (stale > 0 and blind["exit"] != 0):
        failures.append("control no-invalidation did not report stale pages and fail")
    planted = _child(
        ["--workload", "update_storm", *base, "--trace", "1", "--control", "planted-eject"]
    )
    clean = results["update_storm"]["end_to_end"]["over_eject_ratio"]["median"]
    over = planted["metrics"]["over_eject_ratio"]["value"]
    print(f"control planted-eject: over_eject_ratio {clean:.4f} -> {over:.4f}")
    if not over > clean:
        failures.append("control planted-eject did not raise over_eject_ratio")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.print_spec:
        from bench.metrics import spec

        print(json.dumps(spec(), indent=2))
        return 0
    if args.workload:
        return run_pass(args)
    return run_suite(args)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
