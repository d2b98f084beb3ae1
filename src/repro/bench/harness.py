"""Shared benchmark output helpers.

Each ``benchmarks/bench_*.py`` regenerates one paper artifact; these helpers
keep their output uniform: a title block naming the artifact, aligned
columns, an ASCII sparkline for "figure" series, and a paper-vs-measured
footer so EXPERIMENTS.md rows can be pasted from bench output.

:func:`measure_ns` is the wallclock primitive of the kernel profiler's
measured column (``python -m repro.obs.kernelprof --measure``):
``time.perf_counter_ns`` (monotonic, ns resolution — never ``time.time``,
which steps under NTP), warmup reps excluded, and both min and median
reported.  Median is robust to one noisy rep on a shared runner; min is
the contention-free floor.  Wall-clock comparisons between two versions of
the code belong to ``python -m perfbench compare``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "Timing",
    "measure_ns",
    "banner",
    "table",
    "series_line",
    "fmt_ofm",
    "speedup_band",
    "fmt_delta",
]


@dataclass(frozen=True)
class Timing:
    """Wallclock samples of one benchmarked callable, in ns."""

    samples_ns: tuple[int, ...]

    @property
    def min_ns(self) -> float:
        return float(min(self.samples_ns))

    @property
    def median_ns(self) -> float:
        return float(statistics.median(self.samples_ns))

    @property
    def mean_ns(self) -> float:
        return float(statistics.fmean(self.samples_ns))

    @property
    def min_ms(self) -> float:
        return self.min_ns / 1e6

    @property
    def median_ms(self) -> float:
        return self.median_ns / 1e6


def measure_ns(fn: Callable[[], object], *, reps: int = 5, warmup: int = 1) -> Timing:
    """Time ``fn`` with ``perf_counter_ns``: ``warmup`` untimed, ``reps`` timed."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return Timing(samples_ns=tuple(samples))

_BLOCKS = "▁▂▃▄▅▆▇█"


def banner(artifact: str, detail: str = "") -> str:
    """Title block naming the paper artifact being regenerated."""
    line = "=" * 78
    out = [line, f"  {artifact}", ]
    if detail:
        out.append(f"  {detail}")
    out.append(line)
    return "\n".join(out)


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table.

    Tolerates ``rows`` being empty (header + separator only), a one-shot
    iterable (materialised once, so the width pass doesn't consume it), and
    ragged rows (short rows pad, long rows would previously be truncated by
    the ``zip(headers, *rows)`` width computation).
    """
    headers = [str(h) for h in headers]
    norm_rows = [[str(v) for v in row] for row in rows]
    ncols = max([len(headers)] + [len(r) for r in norm_rows])
    widths = [0] * ncols
    for vals in [headers] + norm_rows:
        for i, v in enumerate(vals):
            widths[i] = max(widths[i], len(v))
    def fmt_row(vals):
        padded = list(vals) + [""] * (ncols - len(vals))
        return "  ".join(v.rjust(w) for v, w in zip(padded, widths))
    sep = "  ".join("-" * w for w in widths)
    lines = [fmt_row(headers), sep]
    lines.extend(fmt_row(r) for r in norm_rows)
    return "\n".join(lines)


def series_line(label: str, values: Sequence[float], width: int = 14) -> str:
    """One figure series as label + sparkline + min/max annotations."""
    vals = list(values)
    if not vals:
        return f"{label:<{width}} (empty)"
    lo, hi = min(vals), max(vals)
    if hi == lo:
        bars = _BLOCKS[3] * len(vals)
    else:
        bars = "".join(_BLOCKS[int((v - lo) / (hi - lo) * (len(_BLOCKS) - 1))] for v in vals)
    return f"{label:<{width}} {bars}  [{lo:,.0f} .. {hi:,.0f}]"


def fmt_ofm(shape) -> str:
    """``N x OH x OW x OC`` like the paper's x-axis labels."""
    return f"{shape.batch}x{shape.oh}x{shape.ow}x{shape.oc}"


def speedup_band(ratios: Sequence[float]) -> str:
    """``min-max x`` formatting used throughout Table 2."""
    return f"{min(ratios):.3f}-{max(ratios):.3f}x"


def fmt_delta(delta: float, relative: bool = True) -> str:
    """Signed delta for baseline-compare tables: ``+1.23%`` or ``+0.5``."""
    return f"{delta:+.2%}" if relative else f"{delta:+.6g}"
