"""Compare two checkouts on the benchmark: alternating runs, a verdict per metric.

    python -m perfbench compare PARENT_DIR CHANGE_DIR [--runs 10]

Each directory is a checkout with its own ``BENCHMARK.json``.  For every
workload, run ``i`` of each side uses seed ``first_seed + i``, and the side
that runs first alternates between pairs.  Each metric and workload gets
one verdict, with the bounds from the parent's ``BENCHMARK.json``:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in its favour, by more than the
  parent's interquartile range;
* ``unresolved``: the parent's own spread (IQR over median) is wider than
  the bound, unless every change run reads better than every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``no-worse``: otherwise.

A change whose runs fail more operations than the parent's is reported as
``regressed`` on the ``failed`` row whatever its speed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from pathlib import Path

from .common import OUT, quartiles

WIN_SHARE = 0.9


def run_once(
    root: Path, workload: str, seed: int, seconds: float, trace: bool = False
) -> tuple[dict, str]:
    """One benchmark run in ``root``: its parsed result line and its notes."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} failed:\n{proc.stderr[-3000:]}")
    notes = [line for line in proc.stderr.splitlines() if line.startswith("[perfbench]")]
    return json.loads(proc.stdout.strip().splitlines()[-1]), "\n".join(notes)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[float, str]:
    """``(win share, verdict)`` for paired runs of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    p1, pmed, p3 = quartiles(parent)
    gain = sign * (statistics.median(change) - pmed)
    if wins >= WIN_SHARE and gain > p3 - p1:
        return wins, "improved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) / abs(pmed) > bound and not all_better:
        return wins, "unresolved"
    if -gain / abs(pmed) > bound:
        return wins, "regressed"
    return wins, "no-worse"


def compare(
    parent: Path,
    change: Path,
    *,
    runs: int,
    seconds: float | None,
    workloads: list[str] | None,
    first_seed: int,
) -> int:
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = seconds if seconds is not None else spec["run_seconds"]
    names = workloads or [w["name"] for w in spec["workloads"]]
    results: dict[str, dict[str, list[dict]]] = {}
    for name in names:
        sides: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(runs):
            order = [("parent", parent), ("change", change)]
            for side, root in order if i % 2 == 0 else order[::-1]:
                sides[side].append(run_once(root, name, first_seed + i, seconds)[0])
                print(f"[compare] {name} run {i + 1}/{runs} {side} done", flush=True)
        results[name] = sides
    OUT.mkdir(parents=True, exist_ok=True)
    raw = OUT / f"compare-{int(time.time())}.json"
    raw.write_text(json.dumps({"parent": str(parent), "change": str(change), "results": results}))

    header = (f"{'workload':13s} {'metric':9s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'wins':>5s}  verdict")
    print(header)
    worst = 0
    for name, sides in results.items():
        for metric in spec["end_to_end"]:
            key = metric["name"]
            pv = [r["metrics"][key]["value"] for r in sides["parent"]]
            cv = [r["metrics"][key]["value"] for r in sides["change"]]
            wins, v = verdict(pv, cv, metric["better"], metric["bound"])
            worst = max(worst, v == "regressed")
            print(f"{name:13s} {key:9s} {_q(pv):>30s} {_q(cv):>30s} {wins:5.2f}  {v}")
        pf = sum(r["failed"] for r in sides["parent"])
        cf = sum(r["failed"] for r in sides["change"])
        v = "regressed" if cf > pf else "no-worse"
        worst = max(worst, v == "regressed")
        print(f"{name:13s} {'failed':9s} {pf:>30d} {cf:>30d} {'':5s}  {v}")
    print(f"[compare] raw results: {raw}")
    return 1 if worst else 0


def _q(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q1:.4g}/{q2:.4g}/{q3:.4g}"
