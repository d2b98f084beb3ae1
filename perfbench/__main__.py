"""Command line: ``python -m perfbench {run,trace,compare}``.

run      every workload untraced, each in a fresh process; prints each
         end-to-end metric with its unit and the failed share
trace    every workload traced; prints the per-layer metrics of the layers
         it runs, the attribution and where the Chrome traces went
compare  PARENT_DIR CHANGE_DIR: alternating runs per side and a verdict per
         metric and workload (see perfbench/compare.py)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import compare
from .common import OUT, ROOT, catalog


def _suite(args: argparse.Namespace, trace: bool) -> int:
    spec = catalog()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bad = 0
    for name in names:
        res, notes = compare.run_once(ROOT, name, args.seed, seconds, trace=trace)
        fail_frac = res["failed"] / res["attempted"]
        bad += not res["correct"]
        print(f"== {name}  attempted={res['attempted']}  fail_frac={fail_frac:.4g}")
        for key, m in res["metrics"].items():
            if trace and m["value"] == 0.0:
                continue  # a layer this workload does not run
            print(f"   {key:32s} {m['value']:14.6g} {m['unit']}")
        print(f"   {notes}")
        if trace:
            for path in sorted(OUT.glob(f"{name}-seed{args.seed}.trace*.json")):
                print(f"   trace: {path.relative_to(ROOT)}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "trace"):
        p = sub.add_parser(cmd)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--workload", action="append", help="repeatable; default: all")
    cmp = sub.add_parser("compare")
    cmp.add_argument("parent", type=Path)
    cmp.add_argument("change", type=Path)
    cmp.add_argument("--runs", type=int, default=10, help="runs per side and workload")
    cmp.add_argument("--seconds", type=float, default=None)
    cmp.add_argument("--workload", action="append", help="repeatable; default: all")
    cmp.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.compare(
            args.parent.resolve(), args.change.resolve(), runs=args.runs,
            seconds=args.seconds, workloads=args.workload, first_seed=args.first_seed,
        )
    return _suite(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
