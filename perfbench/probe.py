"""Per-layer attribution, measured from outside the program.

A :class:`Probe` times calls into each layer's public functions by
replacing them, on the instances a workload builds, with timing wrappers:

* ``dlframe`` — every leaf layer's ``forward`` (conv, BatchNorm, LeakyReLU,
  MaxPool, the Linear/pool/flatten head) and the residual ``add``;
* ``serve`` — ``RegisteredModel.infer_rows`` on entry and exit, and, in a
  server process, ``Scheduler.submit``.  Rows inside a batch are matched
  back to their requests by a digest of the row's bytes;
* ``runtime`` — ``convolve`` as the conv layer calls it (wall time), the
  signature, tuning-table and executable lookups it makes first, and the
  stage self-times of the program's existing ``repro.obs`` spans, drained
  from the tracer while the workload runs.  No span is added to the program.

Tracing is switched on and off between units of work so a traced run also
measures the untraced headline; a unit counts towards the layer numbers
only if tracing was on for the whole of it.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro import obs, runtime
from repro.dlframe import layers as dl_layers
from repro.dlframe.layers import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    GlobalAvgPool2D,
    LeakyReLU,
    Linear,
    MaxPool2D,
    Module,
)
from repro.dlframe.models import resnet as dl_resnet
from repro.runtime import engine as rt_engine
from repro.runtime import tuningcache as rt_tuning
from repro.runtime.signature import ConvSignature
from repro.serve.registry import padded_rows

from .common import mean, percentile, row_key
from .spans import Recorder

#: Parts a compiled convolution's wall time splits into.  ``dispatch`` is
#: the lookups before the ``conv2d`` span opens plus the self time of the
#: ``conv2d`` and Winograd ``segment`` spans: the segment loop, counters and
#: the output write-back.
RUNTIME_PARTS = (
    "gather",
    "transform_input",
    "accumulate",
    "transform_output",
    "gemm_tail",
    "filter",
    "dispatch",
)
#: Parts a model forward splits into.
DLFRAME_PARTS = (
    "conv_winograd",
    "conv_gemm",
    "batchnorm",
    "leakyrelu",
    "maxpool",
    "residual_add",
    "head",
)

_STAGE_SPANS = {
    "gather": "gather",
    "transform.input": "transform_input",
    "accumulate": "accumulate",
    "transform.output": "transform_output",
    "transform.filter": "filter",
}
_LAYER_PARTS: dict[type, str] = {
    BatchNorm2D: "batchnorm",
    LeakyReLU: "leakyrelu",
    MaxPool2D: "maxpool",
    Linear: "head",
    GlobalAvgPool2D: "head",
    Flatten: "head",
}


def iter_modules(module: Module) -> Iterator[Module]:
    """Depth-first walk over a dlframe module tree."""
    yield module
    for value in vars(module).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, Module):
                yield from iter_modules(item)


def layer_part(module: Module) -> str | None:
    """The ``dlframe`` part a leaf layer's time belongs to (None: not a leaf)."""
    if isinstance(module, Conv2D):
        return "conv_winograd" if module.effective_engine == "winograd" else "conv_gemm"
    return _LAYER_PARTS.get(type(module))


def conv_flops_per_image(entry: Any) -> int:
    """Direct-convolution flops of one image through every conv of a served model."""
    total = 0
    convs = [m for m in iter_modules(entry.model) if isinstance(m, Conv2D)]

    def counting(conv: Conv2D) -> Callable:
        fn = conv.forward

        def forward(x: Any) -> Any:
            nonlocal total
            y = fn(x)
            _, oh, ow, oc = y.data.shape
            total += 2 * oh * ow * oc * conv.kernel * conv.kernel * conv.ic
            return y

        return forward

    for conv in convs:
        conv.forward = counting(conv)  # type: ignore[method-assign]
    try:
        h, w, c = entry.input_shapes[0]
        entry.infer_rows(np.zeros((1, h, w, c), dtype=np.float32))
    finally:
        for conv in convs:
            del conv.forward
    return total


@dataclass(eq=False)
class Unit:
    """Parts (seconds) and span of one traced unit of work."""

    parts: dict[str, float]
    start: float = 0.0
    end: float = 0.0
    traced: bool = False


@dataclass(eq=False)
class Visit:
    """One request row's pass through the serving layers (perf_counter s)."""

    submit: float = 0.0  # handed to the scheduler
    entry: float = 0.0  # its batch entered ``infer_rows``
    exit: float = 0.0  # ... and left it
    layers: float = 0.0  # time of that forward inside measured model layers
    done: float = 0.0  # the caller had the result
    traced: bool = False  # the forward ran with tracing on throughout

    @property
    def parts_ms(self) -> float:
        """Queue wait + time in model layers + respond."""
        return ((self.entry - self.submit) + self.layers + (self.done - self.exit)) * 1e3


class Probe:
    """Timing wrappers plus the aggregates they feed."""

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder
        self.on = False
        self._toggles: list[float] = []
        self._states: list[bool] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        self._waiting: dict[bytes, deque[Visit]] = {}
        self._batches = 0
        self._cache0: Any = None
        # runtime: stage self-times from repro.obs spans, convolve wall time
        self.stage_s = dict.fromkeys(RUNTIME_PARTS, 0.0)
        self.cols = 0
        self.tail_cols = 0
        self.convolve_s = 0.0
        # dlframe: per traced unit (a model forward or a conv pass)
        self.layer_s = dict.fromkeys(DLFRAME_PARTS, 0.0)
        self.units = 0
        self.unit_s = 0.0
        # serve: visits recorded by the submit wrapper (server process)
        self.visits: list[Visit] = []

    # -- tracing switch -----------------------------------------------------

    def trace(self, on: bool) -> None:
        """Switch tracing (these wrappers and ``repro.obs``) on or off.

        Takes no lock, so a signal handler may call it.
        """
        if on and self._cache0 is None:
            self._cache0 = runtime.cache_stats()
        self._toggles.append(time.perf_counter())
        self._states.append(on)
        self.on = on
        if on:
            obs.enable()
        else:
            obs.disable()

    def state(self, t0: float, t1: float) -> bool | None:
        """Whether tracing was on (True) or off (False) throughout ``[t0, t1]``.

        ``None`` when it was switched inside the interval.
        """
        i = bisect.bisect_right(self._toggles, t0)
        if i < len(self._toggles) and self._toggles[i] <= t1:
            return None
        return i > 0 and self._states[i - 1]

    # -- installing wrappers ------------------------------------------------

    def _set(self, obj: Any, name: str, value: Any) -> None:
        had = name in vars(obj)
        old = vars(obj).get(name)
        setattr(obj, name, value)
        self._undo.append(lambda: setattr(obj, name, old) if had else delattr(obj, name))

    def close(self) -> None:
        """Remove every wrapper and leave ``repro.obs`` off."""
        while self._undo:
            self._undo.pop()()
        if self.on:
            self.trace(False)

    def attach_runtime(self) -> None:
        """Time the dispatch ``convolve`` does before the ``conv2d`` span opens.

        Signature resolution, the tuning-table lookup and the executable
        cache lookup count as ``runtime.dispatch``.
        """
        resolve = self._timed(ConvSignature.for_operands, "dispatch")
        self._set(ConvSignature, "for_operands", classmethod(lambda cls, *a, **kw: resolve(*a, **kw)))
        self._set(rt_engine, "get_executable", self._timed(rt_engine.get_executable, "dispatch"))
        self._set(rt_tuning, "lookup", self._timed(rt_tuning.lookup, "dispatch"))

    def attach_model(self, entry: Any) -> None:
        """Wrap a registered model's layers, its ``infer_rows`` and the runtime."""
        for module in iter_modules(entry.model):
            part = layer_part(module)
            if part is not None:
                self._set(module, "forward", self._timed(module.forward, part))
        self._set(entry, "infer_rows", self._timed_forward(entry.infer_rows))
        self._set(dl_layers, "runtime_convolve", self._timed(dl_layers.runtime_convolve, "convolve"))
        self._set(dl_resnet, "add", self._timed(dl_resnet.add, "residual_add"))
        self.attach_runtime()

    def attach_scheduler(self, scheduler: Any) -> None:
        """Wrap ``Scheduler.submit`` so server-side visits are recorded."""
        submit = scheduler.submit

        async def timed_submit(model: str, x: Any, **kw: Any) -> Any:
            visit = Visit(submit=time.perf_counter())
            key = row_key(np.asarray(x, dtype=np.float32))
            self.expect(key, visit)
            try:
                return await submit(model, x, **kw)
            finally:
                visit.done = time.perf_counter()
                self.release(key, visit)
                if visit.traced:
                    self.visits.append(visit)

        self._set(scheduler, "submit", timed_submit)

    def _timed(self, fn: Callable, part: str) -> Callable:
        """Add ``fn``'s wall time to ``part`` of the enclosing traced unit."""
        name = {"convolve": "runtime.convolve", "dispatch": None}.get(part, f"dlframe.{part}")

        def timed(*args: Any, **kw: Any) -> Any:
            acc = getattr(self._local, "acc", None)
            if acc is None:
                return fn(*args, **kw)
            recorder = self.recorder if name else None
            idx = recorder.begin(name) if recorder is not None else None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                acc[part] += time.perf_counter() - t0
                if recorder is not None:
                    recorder.end(idx)

        return timed

    @contextmanager
    def unit(self, name: str, rid: object = None) -> Iterator[Unit | None]:
        """One unit of work (a model forward, a conv pass), timed from outside.

        Wrapped calls made inside it on this thread add to its parts.  It
        yields ``None`` while tracing is off, and counts towards the totals
        only if tracing stayed on for the whole of it.
        """
        if not self.on:
            yield None
            return
        unit = Unit(dict.fromkeys((*DLFRAME_PARTS, "convolve", "dispatch"), 0.0))
        self._local.acc = unit.parts
        recorder = self.recorder
        idx = recorder.begin(name, rid=rid) if recorder is not None else None
        unit.start = time.perf_counter()
        try:
            yield unit
        finally:
            unit.end = time.perf_counter()
            self._local.acc = None
            if recorder is not None:
                recorder.end(idx)
            unit.traced = self.state(unit.start, unit.end) is True
            if unit.traced:
                with self._lock:
                    self.units += 1
                    self.unit_s += unit.end - unit.start
                    self.convolve_s += unit.parts["convolve"]
                    self.stage_s["dispatch"] += unit.parts["dispatch"]
                    for p in DLFRAME_PARTS:
                        self.layer_s[p] += unit.parts[p]

    def _timed_forward(self, infer_rows: Callable) -> Callable:
        def timed(rows: np.ndarray, **kw: Any) -> np.ndarray:
            visits = self._claim(rows)
            self._batches += 1
            with self.unit("serve.forward", rid=f"b{self._batches}") as unit:
                out = infer_rows(rows, **kw)
            if unit is not None:
                layers = sum(unit.parts[p] for p in DLFRAME_PARTS)
                for visit in visits:
                    if visit is not None:
                        visit.entry, visit.exit = unit.start, unit.end
                        visit.layers, visit.traced = layers, unit.traced
            return out

        return timed

    # -- matching rows to requests ------------------------------------------

    def expect(self, key: bytes, visit: Visit) -> None:
        """Announce a request whose row will appear in some batch."""
        with self._lock:
            self._waiting.setdefault(key, deque()).append(visit)

    def release(self, key: bytes, visit: Visit) -> None:
        """Forget a request that never reached a batch (failed early)."""
        with self._lock:
            queue = self._waiting.get(key)
            if queue is not None and visit in queue:
                queue.remove(visit)
                if not queue:
                    del self._waiting[key]

    def _claim(self, rows: np.ndarray) -> list[Visit | None]:
        keys = [row_key(r) for r in rows]
        out: list[Visit | None] = []
        with self._lock:
            for key in keys:
                queue = self._waiting.get(key)
                out.append(queue.popleft() if queue else None)
                if queue is not None and not queue:
                    del self._waiting[key]
        return out

    # -- runtime stages from repro.obs spans --------------------------------

    def absorb_obs(self) -> None:
        """Fold finished ``repro.obs`` root spans into the stage totals.

        Finished roots are taken from the front of the tracer's root list
        and removed so a long run holds few spans.  Only whole prefixes are
        taken and removed: the serving thread may append new roots to the
        end of the list meanwhile, which the slice deletion never touches.
        """
        roots = obs.get_tracer().roots
        n = 0
        for rec in list(roots):
            if not rec.end_s:
                break
            n += 1
        done = roots[:n]
        del roots[:n]
        for root in done:
            if self.state(root.start_s, root.end_s):
                self._add_tree(root)

    def _add_tree(self, root: Any) -> None:
        stack = [root]
        while stack:
            rec = stack.pop()
            stack.extend(rec.children)
            if rec.name == "conv2d":
                self.stage_s["dispatch"] += rec.self_s
                self.cols += int(rec.attrs.get("ow", 0))
            elif rec.name == "segment" and rec.attrs.get("kind") == "gemm":
                self.stage_s["gemm_tail"] += rec.duration_s
                self.tail_cols += int(rec.attrs.get("width", 0))
            elif rec.name == "segment":
                self.stage_s["dispatch"] += rec.self_s
            elif rec.name in _STAGE_SPANS:
                self.stage_s[_STAGE_SPANS[rec.name]] += rec.self_s

    # -- metrics ------------------------------------------------------------

    def runtime_metrics(self, units: int, convolve_s: float) -> dict[str, float]:
        """``runtime.*``: stage ms per unit (pass or forward) and the ratios.

        ``convolve_s`` is the wall time of the traced ``convolve`` calls,
        timed from outside; the stages must add up to it.
        """
        out = {f"runtime.{p}_ms": self.stage_s[p] * 1e3 / units for p in RUNTIME_PARTS}
        out["runtime.unattributed_frac"] = 1.0 - sum(self.stage_s.values()) / convolve_s
        stats, base = runtime.cache_stats(), self._cache0 or runtime.cache_stats()
        hits, misses = stats.hits - base.hits, stats.misses - base.misses
        out["runtime.exec_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        registry = obs.get_registry()
        f_hits = _counter(registry, "runtime.filter_cache.hits")
        f_misses = _counter(registry, "runtime.filter_cache.misses")
        total = f_hits + f_misses
        out["runtime.filter_cache.hit_rate"] = f_hits / total if total else 0.0
        out["runtime.gemm_tail.col_frac"] = self.tail_cols / self.cols if self.cols else 0.0
        return out

    def dlframe_metrics(self) -> dict[str, float]:
        """``dlframe.*``: layer ms per traced forward and the glue share."""
        n = self.units
        out = {f"dlframe.{p}_ms": self.layer_s[p] * 1e3 / n for p in DLFRAME_PARTS}
        out["dlframe.unattributed_frac"] = 1.0 - sum(self.layer_s.values()) / self.unit_s
        return out

    def model_metrics(self) -> dict[str, float]:
        """``runtime.*`` and ``dlframe.*`` per traced forward."""
        return self.runtime_metrics(self.units, self.convolve_s) | self.dlframe_metrics()

    def serve_metrics(self, visits: list[Visit]) -> dict[str, float]:
        """``serve.*`` times over traced request visits and forwards."""
        queue = [(v.entry - v.submit) * 1e3 for v in visits]
        return {
            "serve.queue_wait_p50_ms": percentile(queue, 50),
            "serve.queue_wait_p99_ms": percentile(queue, 99),
            "serve.execute_ms": self.unit_s * 1e3 / self.units,
            "serve.respond_ms": mean((v.done - v.exit) * 1e3 for v in visits),
        }


def batching_metrics(before: Any, after: Any) -> dict[str, float]:
    """``serve.*`` batching counts between two ``SchedulerStats`` snapshots.

    Exact counts the scheduler keeps whether or not tracing is on: rows per
    dispatched batch, the share of executed rows that are ``MIN_EXECUTE_ROWS``
    padding, and the share of flushes the queue-delay trigger fired.
    """
    sizes = {k: n - before.batch_sizes.get(k, 0) for k, n in after.batch_sizes.items()}
    triggers = {k: n - before.batch_triggers.get(k, 0) for k, n in after.batch_triggers.items()}
    batches = sum(sizes.values())
    rows = sum(k * n for k, n in sizes.items())
    executed = sum(padded_rows(k) * n for k, n in sizes.items())
    return {
        "serve.batch_rows_mean": rows / batches,
        "serve.pad_frac": 1.0 - rows / executed,
        "serve.flush_delay_frac": triggers.get("delay", 0) / sum(triggers.values()),
    }


def _counter(registry: Any, name: str) -> float:
    metric = registry.get(name)
    return float(metric.total()) if metric is not None else 0.0
