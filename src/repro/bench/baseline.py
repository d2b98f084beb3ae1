"""Persistent perf baselines: capture / compare with per-metric tolerances.

The paper's claims are numeric (Gflop/s bands, conflict degrees, occupancy,
tail fractions), and the repo's model regenerates them deterministically —
which makes them regression-testable.  This module snapshots a *suite* of
those numbers into a versioned ``BENCH_<tag>.json`` file and later compares
a fresh run (or another file) against it, failing loudly when any metric
moves beyond a configurable tolerance **in its bad direction**:

* ``gflops``, occupancy, pipeline utilisation, roofline %%-of-ceiling … are
  *higher-better*: a drop is a regression, a rise is an improvement;
* ``time_ms``, bank-conflict degree, wave count, tail loss, GEMM-tail
  fractions, overhead … are *lower-better*: a rise regresses.

Suites
------
``smoke``
    Five pinned (device, kernel, ofm) points spanning base/ruse/c64 and both
    GPUs, profiled with :func:`repro.obs.kernelprof.profile_conv` — the full
    hardware-counter set per point.  Small enough for CI; this is what the
    committed ``BENCH_seed.json`` pins.
``fig8`` / ``fig9``
    Modeled Gflop/s of every (panel, shape) point on the Figure 8 (RTX 3060
    Ti) / Figure 9 (RTX 4090) x-axes, base and ``*`` series.
``table2``
    The Table 2 speedup-band endpoints (min/max over each panel's shapes)
    against the best cuDNN candidate.
``full``
    Union of all of the above.

Every suite is modeled, so a recompute gives the same numbers on any
machine.  Measured wall-clock lives in ``python -m perfbench compare``,
which runs the parent and the candidate in interleaved pairs.

CLI::

    python -m repro.bench.baseline capture --suite smoke --tag seed
    python -m repro.bench.baseline compare --against BENCH_seed.json
    python -m repro.bench.baseline compare --against BENCH_a.json \\
        --candidate BENCH_b.json --tolerance 0.05
    python -m repro.bench.baseline list-suites

``compare`` exits non-zero iff a regression (or a metric missing from the
candidate) is found, printing a per-metric delta table either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "metric_direction",
    "write_baseline",
    "load_baseline",
    "compare_metrics",
    "suite_metrics",
    "SUITES",
    "SMOKE_POINTS",
    "main",
]

SCHEMA_VERSION = 1

#: Suffix rules deciding a metric's bad direction.  Checked in order; the
#: first list that matches wins, unknown metrics default to higher-better
#: (the common case for throughput-style numbers).
_LOWER_BETTER_SUFFIXES = (
    "time_ms",
    "us_per_call",
    "overhead",
    "ratio",
    "degree",
    "tail_loss",
    "waves",
    "phases",
    "exposed",
    "bytes",
    "gemm_tail.column_fraction",
    "gemm_tail.time_fraction",
)
_HIGHER_BETTER_SUFFIXES = (
    "gflops",
    "occupancy.fraction",
    "active_warps",
    "utilisation",
    "pct_of_ceiling",
    "tail_efficiency",
    "speedup_min",
    "speedup_max",
    "speedup",
    "bit_identical",
)


def metric_direction(name: str) -> str:
    """``"lower"`` or ``"higher"`` — the direction in which ``name`` is good."""
    for suffix in _LOWER_BETTER_SUFFIXES:
        if name.endswith(suffix):
            return "lower"
    for suffix in _HIGHER_BETTER_SUFFIXES:
        if name.endswith(suffix):
            return "higher"
    return "higher"


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------


def write_baseline(
    path: str | Path, metrics: dict[str, float], *, tag: str, suite: str
) -> Path:
    """Write ``metrics`` as a versioned baseline file and return its path."""
    path = Path(path)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "suite": suite,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "metrics": {k: float(v) for k, v in sorted(metrics.items())},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: str | Path) -> dict[str, object]:
    """Load and validate one ``BENCH_*.json`` document."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(doc.get("metrics"), dict) or not doc["metrics"]:
        raise ValueError(f"{path}: no metrics recorded")
    return doc


# --------------------------------------------------------------------------
# Compare
# --------------------------------------------------------------------------


def compare_metrics(
    baseline: dict[str, float],
    candidate: dict[str, float],
    *,
    tolerance: float = 0.02,
) -> tuple[list[list[str]], int]:
    """Per-metric delta table plus the number of regressions.

    A baseline metric missing from the candidate counts as a regression
    (the suite shrank silently); metrics only in the candidate are reported
    as ``new`` and never fail the comparison.
    """
    from .harness import fmt_delta

    rows: list[list[str]] = []
    regressions = 0
    for name in sorted(baseline):
        base = baseline[name]
        direction = metric_direction(name)
        if name not in candidate:
            regressions += 1
            rows.append([name, f"{base:.6g}", "-", "-", direction, "MISSING"])
            continue
        cand = candidate[name]
        if base != 0:
            delta = (cand - base) / abs(base)
            delta_txt = fmt_delta(delta)
            bad = delta < -tolerance if direction == "higher" else delta > tolerance
        else:
            delta = cand - base
            delta_txt = fmt_delta(delta, relative=False)
            bad = abs(delta) > tolerance
        if bad:
            regressions += 1
            status = "REGRESSED"
        elif (delta > 0) == (direction == "higher") and delta != 0:
            status = "improved"
        else:
            status = "ok"
        rows.append([name, f"{base:.6g}", f"{cand:.6g}", delta_txt, direction, status])
    for name in sorted(set(candidate) - set(baseline)):
        rows.append([name, "-", f"{candidate[name]:.6g}", "-", metric_direction(name), "new"])
    return rows, regressions


# --------------------------------------------------------------------------
# Suites
# --------------------------------------------------------------------------

#: The pinned smoke points: (device key, alpha, r, variant, (N, OH, OW, OC)).
#: One per kernel family the paper evaluates, both GPUs covered, all shapes
#: taken from the Figure 8/9 x-axes.
SMOKE_POINTS: tuple[tuple[str, int, int, str, tuple[int, int, int, int]], ...] = (
    ("RTX3060Ti", 8, 3, "base", (64, 128, 128, 64)),
    ("RTX3060Ti", 8, 5, "ruse", (32, 66, 66, 128)),
    ("RTX3060Ti", 16, 9, "c64", (32, 96, 96, 64)),
    ("RTX4090", 8, 3, "base", (128, 96, 96, 64)),
    ("RTX4090", 16, 7, "base", (64, 120, 120, 64)),
)


def _smoke_metrics() -> dict[str, float]:
    from ..gpusim.device import DEVICES
    from ..nhwc.tensor import ConvShape
    from ..obs.kernelprof import profile_conv

    out: dict[str, float] = {}
    for dev_key, alpha, r, variant, (n, oh, ow, oc) in SMOKE_POINTS:
        shape = ConvShape.from_ofm(n, oh, ow, oc, r=r)
        profile = profile_conv(shape, DEVICES[dev_key], alpha=alpha, variant=variant)
        prefix = f"smoke/{dev_key}/g{alpha}r{r}_{variant}/{n}x{oh}x{ow}x{oc}"
        out.update(profile.metrics(prefix))
    return out


def _figure_metrics(fig: str) -> dict[str, float]:
    from .harness import fmt_ofm
    from .report import FIGURES, figure_series

    out: dict[str, float] = {}
    for name in FIGURES[fig].panels:
        shapes, series = figure_series(fig, name)
        for shape, base, star in zip(shapes, series[name], series[f"{name}*"]):
            out[f"{fig}/{name}/{fmt_ofm(shape)}/gflops"] = base
            out[f"{fig}/{name}/{fmt_ofm(shape)}/star.gflops"] = star
    return out


def _table2_metrics() -> dict[str, float]:
    from .report import table2_speedups

    out: dict[str, float] = {}
    for (name, device), (fastest, _) in table2_speedups().items():
        out[f"table2/{name}/{device}/speedup_min"] = min(fastest)
        out[f"table2/{name}/{device}/speedup_max"] = max(fastest)
    return out


def _full_metrics() -> dict[str, float]:
    out = _smoke_metrics()
    out.update(_figure_metrics("fig8"))
    out.update(_figure_metrics("fig9"))
    out.update(_table2_metrics())
    return out


SUITES = {
    "smoke": _smoke_metrics,
    "fig8": lambda: _figure_metrics("fig8"),
    "fig9": lambda: _figure_metrics("fig9"),
    "table2": _table2_metrics,
    "full": _full_metrics,
}


def suite_metrics(suite: str) -> dict[str, float]:
    """Recompute the metric set of one named suite."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    return SUITES[suite]()


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.baseline",
        description="Capture / compare persistent perf baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capture", help="snapshot a suite into BENCH_<tag>.json")
    cap.add_argument("--suite", default="smoke", choices=sorted(SUITES))
    cap.add_argument("--tag", default="local", help="baseline tag (file name part)")
    cap.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file (default: ./BENCH_<tag>.json)",
    )

    cmp_ = sub.add_parser("compare", help="compare current numbers against a baseline")
    cmp_.add_argument("--against", required=True, metavar="PATH", help="baseline file")
    cmp_.add_argument(
        "--candidate",
        default=None,
        metavar="PATH",
        help="compare this BENCH file instead of recomputing the suite",
    )
    cmp_.add_argument(
        "--suite",
        default=None,
        choices=sorted(SUITES),
        help="override the suite recorded in the baseline file",
    )
    cmp_.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="allowed relative move in the bad direction (default 0.02 = 2%%)",
    )

    sub.add_parser("list-suites", help="list the capturable suites")

    args = parser.parse_args(argv)

    if args.command == "list-suites":
        for name in sorted(SUITES):
            print(name)
        return 0

    if args.command == "capture":
        metrics = suite_metrics(args.suite)
        out = args.out or f"BENCH_{args.tag}.json"
        path = write_baseline(out, metrics, tag=args.tag, suite=args.suite)
        print(f"[baseline] captured {len(metrics)} metrics ({args.suite}) -> {path}")
        return 0

    # compare
    try:
        base_doc = load_baseline(args.against)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load baseline: {exc}", file=sys.stderr)
        return 2
    if args.candidate:
        try:
            cand_doc = load_baseline(args.candidate)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load candidate: {exc}", file=sys.stderr)
            return 2
        cand_metrics = cand_doc["metrics"]
        cand_label = str(args.candidate)
    else:
        suite = args.suite or str(base_doc.get("suite", "smoke"))
        try:
            cand_metrics = suite_metrics(suite)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cand_label = f"recomputed suite {suite!r}"

    from .harness import banner, table

    rows, regressions = compare_metrics(
        base_doc["metrics"], cand_metrics, tolerance=args.tolerance
    )
    print(
        banner(
            f"Baseline compare — {args.against} (tag {base_doc.get('tag')!r}) "
            f"vs {cand_label}",
            f"tolerance ±{args.tolerance:.1%} in each metric's bad direction",
        )
    )
    print(table(["metric", "baseline", "candidate", "delta", "good dir", "status"], rows))
    flagged = [r for r in rows if r[-1] in ("REGRESSED", "MISSING")]
    if regressions:
        print(f"\n[baseline] FAIL: {regressions} metric(s) regressed or missing:")
        for r in flagged:
            print(f"  - {r[0]} ({r[-1]}, baseline {r[1]}, candidate {r[2]})")
        return 1
    print(f"\n[baseline] OK: {len(rows)} metric(s) within ±{args.tolerance:.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
