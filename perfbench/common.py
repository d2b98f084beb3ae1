"""Shared plumbing: the metric catalog, statistics, set-up timing and the result line.

The metric names and units live in ``BENCHMARK.json`` at the repository
root; every run checks that it emits exactly that set before it prints its
result, so the catalog and the code cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Untimed warm-up before the measured phase: caches fill, BLAS threads
#: spin up and the allocator settles before the first timed sample.
WARMUP_S = 3.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

T = TypeVar("T")


def catalog() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit for an untraced (end-to-end) or traced (per-layer) run."""
    return {m["name"]: m["unit"] for m in catalog()["per_layer" if trace else "end_to_end"]}


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals) if vals else 0.0


def row_key(row: np.ndarray) -> bytes:
    """Identity of one request row, used to match batched rows to requests."""
    return hashlib.sha1(np.ascontiguousarray(row, dtype=np.float32).tobytes()).digest()


def timed_setups(
    setup: Callable[[], T], teardown: Callable[[T], None], reps: int, offset_s: float = 0.0
) -> tuple[float, T]:
    """Run ``setup`` ``reps`` times; return the median time and the last state.

    Earlier states are torn down before the next set-up starts.  ``offset_s``
    is added to every sample: the interpreter's import time for the
    in-process workloads, so ``setup_s`` runs from process start.
    """
    samples: list[float] = []
    states: list[T] = []
    for _ in range(reps):
        if states:
            teardown(states.pop())
        t0 = time.perf_counter()
        states.append(setup())
        samples.append(time.perf_counter() - t0 + offset_s)
    return statistics.median(samples), states[0]


def closed_loop(step: Callable[[], object], seconds: float, min_calls: int = 1) -> None:
    """Call ``step`` back to back for ``seconds``, and at least ``min_calls`` times."""
    end = time.perf_counter() + seconds
    n = 0
    while n < min_calls or time.perf_counter() < end:
        step()
        n += 1


def overhead_frac(untraced: float, traced: float, better: str) -> float:
    """How much worse the traced headline reads than the untraced one."""
    if better == "higher":
        return 1.0 - traced / untraced
    return traced / untraced - 1.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identical: same shape, dtype and bytes (``-0.0 != 0.0``, NaN == NaN)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@dataclass
class Context:
    """One run's settings, as parsed from the command line."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Test scale: small shapes, short warm-up, two set-ups.
    quick: bool = False
    #: Interpreter import time, added to in-process set-up samples.
    import_s: float = 0.0

    @property
    def warmup_s(self) -> float:
        return 0.3 if self.quick else WARMUP_S

    @property
    def setup_reps(self) -> int:
        return 2 if self.quick else SETUP_REPS

    @property
    def trace_path(self) -> Path:
        return OUT / f"{self.workload}-seed{self.seed}.trace.json"


@dataclass
class Outcome:
    """What one workload run reports: metric values plus the check counts."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Diagnostics printed to stderr (sample counts, generator health, ...).
    notes: dict[str, object] = field(default_factory=dict)


def result_line(outcome: Outcome, trace: bool) -> str:
    """The final stdout line: exactly the catalog's metrics, with units.

    Per-layer metrics of a layer the workload does not run are reported as
    0; end-to-end metrics must all be measured.
    """
    units = metric_units(trace)
    values = dict(outcome.metrics)
    if trace:
        values = {name: values.get(name, 0.0) for name in units} | values
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    if outcome.attempted < 1:
        raise RuntimeError("a run must attempt at least one operation")
    for name, value in values.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
        }
    )
