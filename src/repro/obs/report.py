"""``python -m repro.obs.report <trace.json>`` — profile a recorded trace.

Reads a Chrome-trace JSON produced by :mod:`repro.obs.chrometrace` (or any
tool emitting the Trace Event format) and prints

* a per-span-name profile table — calls, cumulative time, self time,
  self % — with the hierarchy rebuilt purely from ``ts``/``dur``
  containment per thread, exactly as Perfetto nests its slices;
* the top counters recorded in the trace's ``"C"`` events.

.. code-block:: bash

    PYTHONPATH=src python -m repro.obs.report trace.json
    PYTHONPATH=src python -m repro.obs.report trace.json --top 20 --sort cum
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

__all__ = [
    "load_events",
    "profile_events",
    "counter_rows",
    "render_report",
    "main",
]


def load_events(path: str) -> list[dict[str, Any]]:
    """Read a Chrome trace file; accepts both the object and array formats."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        events = doc.get("traceEvents", [])
    elif isinstance(doc, list):
        events = doc
    else:
        raise ValueError(f"{path}: not a Chrome trace (got {type(doc).__name__})")
    return [e for e in events if isinstance(e, dict)]


def profile_events(events: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-name profile from complete ("X") events.

    The span tree is rebuilt per ``(pid, tid)`` from interval containment:
    an event is a child of the nearest enclosing earlier event.  Self time
    is duration minus direct children; cumulative time skips spans nested
    under a same-named ancestor so recursion doesn't double count.
    """
    tracks: dict[tuple[Any, Any], list[dict[str, Any]]] = {}
    for e in events:
        if e.get("ph") == "X":
            tracks.setdefault((e.get("pid"), e.get("tid")), []).append(e)

    out: dict[str, dict[str, float]] = {}
    for track in tracks.values():
        track.sort(key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))))
        # stack entries: [name, end_ts, child_dur_accum, active-name-set]
        stack: list[list[Any]] = []
        for e in track:
            name = str(e.get("name", "?"))
            ts = float(e.get("ts", 0.0))
            dur = float(e.get("dur", 0.0))
            while stack and ts >= stack[-1][1] - 1e-9:
                _finish(out, stack.pop())
            if stack:
                stack[-1][2] += dur
            active = stack[-1][3] if stack else frozenset()
            stack.append([name, ts + dur, 0.0, active | {name}, dur, name in active])
        while stack:
            _finish(out, stack.pop())
    return out


def _finish(out: dict[str, dict[str, float]], entry: list[Any]) -> None:
    name, _, child_dur, _, dur, recursive = entry
    row = out.setdefault(name, {"count": 0.0, "total_us": 0.0, "self_us": 0.0})
    row["count"] += 1
    row["self_us"] += max(0.0, dur - child_dur)
    if not recursive:
        row["total_us"] += dur


def counter_rows(events: list[dict[str, Any]], top: int = 10) -> list[tuple[str, str, float]]:
    """Final value of every counter series: ``(metric, series, value)``.

    "C" events may repeat over time; the latest ``ts`` per series wins.
    """
    latest: dict[tuple[str, str], tuple[float, float]] = {}
    for e in events:
        if e.get("ph") != "C":
            continue
        name = str(e.get("name", "?"))
        ts = float(e.get("ts", 0.0))
        for series, value in (e.get("args") or {}).items():
            if not isinstance(value, (int, float)):
                continue
            key = (name, str(series))
            if key not in latest or ts >= latest[key][0]:
                latest[key] = (ts, float(value))
    rows = [(name, series, value) for (name, series), (_, value) in latest.items()]
    rows.sort(key=lambda r: -r[2])
    return rows[:top]


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.3f} s"
    if us >= 1e3:
        return f"{us / 1e3:.3f} ms"
    return f"{us:.1f} us"


def render_report(
    events: list[dict[str, Any]], *, top: int = 10, sort: str = "self"
) -> str:
    """The full report text: profile table + top counters."""
    from ..bench.harness import banner, table

    profile = profile_events(events)
    key = "self_us" if sort == "self" else "total_us"
    total_self = sum(r["self_us"] for r in profile.values()) or 1.0
    rows = [
        [
            name,
            f"{int(row['count'])}",
            _fmt_us(row["total_us"]),
            _fmt_us(row["self_us"]),
            f"{row['self_us'] / total_self:6.1%}",
        ]
        for name, row in sorted(profile.items(), key=lambda kv: -kv[1][key])
    ]
    chunks = [banner("Trace profile (per span name)")]
    chunks.append(table(["span", "calls", "cumulative", "self", "self %"], rows))
    counters = counter_rows(events, top=top)
    chunks.append("")
    if counters:
        chunks.append(banner(f"Top {len(counters)} counters"))
        chunks.append(
            table(
                ["metric", "labels", "value"],
                [[n, s or "-", f"{v:,.0f}"] for n, s, v in counters],
            )
        )
    else:
        chunks.append(banner("Counters"))
        chunks.append(
            "(no counter events in this trace — spans were recorded but the "
            "metrics registry was empty at export time; run with repro.obs "
            "enabled around the instrumented code, or profile with "
            "`python -m repro.obs.kernelprof --trace-json` to get kprof.* "
            "counter tracks)"
        )
    return "\n".join(chunks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Profile a Chrome-trace JSON produced by repro.obs.",
    )
    parser.add_argument("trace", help="path to a Chrome-trace JSON file")
    parser.add_argument("--top", type=int, default=10, help="counters to show")
    parser.add_argument(
        "--sort", choices=("self", "cum"), default="self", help="profile sort key"
    )
    args = parser.parse_args(argv)
    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_report(events, top=args.top, sort=args.sort))
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
