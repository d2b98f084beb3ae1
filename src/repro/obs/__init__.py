"""repro.obs — pipeline-wide telemetry: spans, counters, Chrome-trace export.

The observability layer the paper's measurements imply: nestable wall-clock
spans over the conv -> segment -> transform hierarchy, a process-wide
registry of the quantities the paper plots (flops, gathered bytes, tiles,
segments, GEMM-tail columns, SMEM transaction phases, occupancy, modeled
nanoseconds), and exporters to Chrome-trace JSON (``chrome://tracing`` /
Perfetto) plus text summaries.

``span(name, **attrs)`` is the one span call and :func:`enable` the one
switch.  Under an active W3C trace context (:mod:`repro.obs.telemetry`,
set per request by the serving layer) the same span also carries trace
ids, so one request can be followed from the HTTP front through batching
into the per-stage spans, all in one store and one Chrome trace.

Everything is **off by default** and near-free while disabled: call sites
pay one module-global check, ``span()`` returns a shared no-op context
manager, and the metric helpers return immediately.

Sixty-second tour::

    from repro import obs

    obs.enable()
    y = conv2d_im2col_winograd(x, w)          # hot paths self-instrument
    print(obs.get_tracer().summary())         # indented span tree
    print(obs.metrics_json())                 # counters/gauges/histograms
    obs.write_chrome_trace("trace.json")      # open in Perfetto
    obs.disable()

or, scoped (resets the tracer + registry, restores the flag)::

    with obs.capture() as tracer:
        y = conv2d_im2col_winograd(x, w)
    print(tracer.summary())

The CLI ``python -m repro.obs.report trace.json`` prints a self/cumulative
profile table and the top counters of any recorded trace;
``python -m repro.obs.kernelprof`` assembles an Nsight-style per-launch
hardware-counter report (occupancy limiter, SMEM bank-conflict degree per
transform stage, waves/tail, §5.6 roofline placement, GEMM-tail fraction)
for any planned convolution, and ``python -m repro.obs.rooflineview`` draws
the device rooflines.  Both live behind a lazy attribute (``obs.profile_conv``
/ ``obs.roofline_point``) because they sit *above* the gpusim stack, which
itself imports this package.
"""

from . import telemetry
from .chrometrace import chrome_trace, write_chrome_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedHistogram,
    counter_add,
    gauge_set,
    get_registry,
    metrics_json,
    observe,
    observe_windowed,
)
from .promexport import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .promexport import render_prometheus
from .summary import aggregate, format_duration, render_tree
from .tracer import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    capture,
    disable,
    enable,
    enabled,
    get_tracer,
    reset,
    span,
)

__all__ = [
    # tracer
    "Tracer",
    "SpanRecord",
    "span",
    "enable",
    "disable",
    "enabled",
    "capture",
    "get_tracer",
    "reset",
    "NULL_SPAN",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedHistogram",
    "get_registry",
    "counter_add",
    "gauge_set",
    "observe",
    "observe_windowed",
    "metrics_json",
    # request-scoped telemetry + exposition
    "telemetry",
    "render_prometheus",
    "PROMETHEUS_CONTENT_TYPE",
    # exporters
    "chrome_trace",
    "write_chrome_trace",
    "render_tree",
    "aggregate",
    "format_duration",
    # profiler (lazy: kernelprof/rooflineview import gpusim, which imports us)
    "profile_conv",
    "roofline_point",
]

_LAZY = {
    "profile_conv": ("repro.obs.kernelprof", "profile_conv"),
    "roofline_point": ("repro.obs.rooflineview", "roofline_point"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module, attr = _LAZY[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
