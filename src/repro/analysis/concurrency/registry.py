"""The guarded-by registry: which lock protects which shared attribute.

This is the concurrency sanitizer's single source of truth, the host-side
analogue of the rule registry in :mod:`repro.analysis.rules`.  Each
:class:`GuardSpec` declares one class's discipline: *these attributes are
only touched under this lock*.  The lock-discipline pass then proves every
``self.<attr>`` access in the class (and its subclasses) sits inside a
``with self.<lock>:`` block, and the dynamic witness checks the same
contract against real thread interleavings.

Why a central registry instead of decorating the production classes with
``@guarded_by`` directly: :mod:`repro.analysis` imports :mod:`repro.obs`
for its findings counters, so obs (and the runtime/serve modules that
import obs) decorating themselves from the analysis package would be an
import cycle.  New code outside that cycle is welcome to use the
:func:`guarded_by` decorator — the AST scanner picks it up and merges it
with the seeds below; for the existing stack the registry *is* the
annotation layer.

Deliberately unguarded state (reviewed, not forgotten):

* ``Scheduler._batcher``/``_wake``/``_inflight``/``_running`` — event-loop
  confined; only ``stop``/``submit`` touch them from the loop thread.
* ``RegisteredModel.model`` and the warmup-written fields — published once
  by ``register``; ``infer_rows`` reads them lock-free by design (the
  model is frozen in eval mode).
* ``Tracer.origin_s`` — a scalar written under the lock, read by exporters
  that already snapshot the forest.
* ``SLOTracker`` — has no lock of its own; every touch runs under
  ``Scheduler._stats_lock`` (which is why ``_slo`` appears in the
  Scheduler spec rather than in a spec of its own).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = ["GuardSpec", "GUARDS", "guarded_by", "specs_for_model"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class GuardSpec:
    """One class's lock discipline: ``lock`` guards ``attrs``.

    ``assume_held`` names helper methods whose docstring contract is
    "caller holds the lock" — the pass analyzes their bodies with the lock
    already in the held-set instead of flagging them.
    """

    module: str
    cls: str
    lock: str
    attrs: tuple[str, ...]
    assume_held: tuple[str, ...] = ()
    note: str = ""

    @property
    def lock_node(self) -> str:
        return f"{self.module}.{self.cls}.{self.lock}"


def guarded_by(
    lock: str, *attrs: str, assume_held: tuple[str, ...] = ()
) -> Callable[[_T], _T]:
    """Class decorator declaring ``lock`` guards ``attrs``.

    A no-op at runtime; the AST scanner reads the decoration and merges it
    into the guard registry, so classes outside the obs import cycle can
    carry their discipline inline.
    """

    def deco(cls: _T) -> _T:
        return cls

    return deco


#: The seeded lock inventory: every threading.Lock/RLock in the runtime,
#: serve and obs packages, with the attributes its class guards with it.
GUARDS: tuple[GuardSpec, ...] = (
    # -- repro.runtime -------------------------------------------------------
    GuardSpec(
        "repro.runtime.cache",
        "ExecutableCache",
        "_lock",
        ("_entries", "_hits", "_misses", "_evictions", "_capacity"),
        assume_held=("_evict_over_capacity",),
        note="bounded LRU of compiled executables; resize races inserts",
    ),
    GuardSpec(
        "repro.runtime.engine",
        "ExecutionConfig",
        "_pool_lock",
        ("_pool",),
        note="lazy pool build vs idempotent shutdown; join happens outside",
    ),
    GuardSpec(
        "repro.runtime.executable",
        "ConvExecutable",
        "_flock",
        ("_filters",),
        note="filter-transform LRU; lookups compare on a snapshot outside the lock",
    ),
    # -- repro.serve ---------------------------------------------------------
    GuardSpec(
        "repro.serve.registry",
        "ModelRegistry",
        "_lock",
        ("_models",),
        note="RLock: register may re-enter via warmup paths",
    ),
    GuardSpec(
        "repro.serve.registry",
        "RegisteredModel",
        "_lock",
        ("weight_version",),
        note="weight reloads vs describe(); model itself is frozen/eval",
    ),
    GuardSpec(
        "repro.serve.scheduler",
        "Scheduler",
        "_stats_lock",
        ("_stats", "_slo"),
        note="loop-side bookkeeping vs status probes from other threads",
    ),
    # -- repro.obs -----------------------------------------------------------
    GuardSpec(
        "repro.obs.tracer",
        "Tracer",
        "_lock",
        ("roots", "_stacks", "_traces"),
        assume_held=("_enforce_root_limit", "_index"),
        note="span forest + per-trace ring; worker threads record concurrently",
    ),
    GuardSpec(
        "repro.obs.metrics",
        "Counter",
        "_lock",
        ("_values",),
        note="read-modify-write increments from pool workers",
    ),
    GuardSpec(
        "repro.obs.metrics",
        "Gauge",
        "_lock",
        ("_values",),
        note="last-write-wins sets from pool workers",
    ),
    GuardSpec(
        "repro.obs.metrics",
        "Histogram",
        "_lock",
        ("_values",),
        note="streaming summaries; WindowedHistogram shares this lock",
    ),
    GuardSpec(
        "repro.obs.metrics",
        "WindowedHistogram",
        "_lock",
        ("_buckets", "_window"),
        note="bucket counts + slice ring under the inherited Histogram lock",
    ),
    GuardSpec(
        "repro.obs.metrics",
        "MetricsRegistry",
        "_lock",
        ("_metrics",),
        note="get-or-create instrument table",
    ),
    GuardSpec(
        "repro.obs.perfledger",
        "PerfLedger",
        "_lock",
        ("_entries", "_samples"),
        note="LRU entries + raw-sample ring, recorded from worker threads",
    ),
)


def specs_for_model() -> tuple[GuardSpec, ...]:
    """The seeded specs (alias used by the passes; tests override it)."""
    return GUARDS
