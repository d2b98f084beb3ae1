"""Persisted per-signature tuning decisions: the measured twin of the planner.

:mod:`repro.runtime.autotune` *measures* candidate execution strategies for
a :class:`~repro.runtime.signature.ConvSignature` and keeps only winners
that are bit-identical to the default path.  This module is where those
winners live: a machine-keyed, schema-checked ``TUNE_<host>.json`` mirroring
``CALIB_<host>.json`` (:mod:`repro.gpusim.calibrate`) semantics exactly —
**explicit activation only**.  A tuning file sitting in the working
directory changes nothing; :func:`activate` is the single switch, so the
committed modeled suites (Figure 8/9, Table 2) and any un-opted-in process
stay byte-for-byte machine-independent.

Entries are keyed by signature label *plus batch bucket* (next power of
two): the executable cache is deliberately batch-agnostic (the same
compiled plan serves every ``N``), but the *fastest dispatch* is not —
pooled chunking that wins at batch 8 can lose at batch 1 — so tuning
decisions carry the bucket the measurement was taken at.

Runtime guard (never-worse-than-default enforcement)
----------------------------------------------------
Every tuned dispatch reports its measured wallclock back via
:func:`record_runtime`.  If a tuned entry runs slower than its recorded
default time by more than :data:`GUARD_FACTOR` for :data:`GUARD_STRIKES`
consecutive calls, the entry is disabled for the rest of the activation
(``tune.regressions`` counter) and :func:`lookup` stops returning it — the
dispatch falls back to the default plan.  Tuning can therefore only ever
change *when* the same bits are computed, and a win that does not reproduce
on live traffic self-reverts instead of taxing it.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..obs import counter_add
from .signature import ConvSignature

__all__ = [
    "SCHEMA_VERSION",
    "GUARD_FACTOR",
    "GUARD_STRIKES",
    "TuningCacheError",
    "TunedChoice",
    "TunedEntry",
    "TuningTable",
    "TunedLookup",
    "batch_bucket",
    "entry_key",
    "tuning_path",
    "activate",
    "deactivate",
    "activated",
    "active_table",
    "generation",
    "lookup",
    "install",
    "record_runtime",
    "guard_stats",
]

#: Version 2: the default ``block_ic`` became ``None`` (full depth), so the
#: ``bit_identical``/``is_default`` verdicts of version-1 files, measured
#: against the old 64-channel default, no longer hold.
SCHEMA_VERSION = 2

#: A tuned dispatch may run up to this factor over its recorded default
#: time (scaled to the live batch) before a call counts as a strike.  Wide
#: on purpose: single-call wallclock on a shared host is noisy, and the
#: guard exists to catch wins that *stopped reproducing*, not jitter.
GUARD_FACTOR = 2.0

#: Consecutive strikes before an entry is disabled for this activation.
GUARD_STRIKES = 3


class TuningCacheError(ValueError):
    """A tuning file that cannot be trusted: bad JSON, schema, host or shape."""


def batch_bucket(batch: int) -> int:
    """Next power of two >= ``batch`` — the granularity tuning is keyed at."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    bucket = 1
    while bucket < batch:
        bucket *= 2
    return bucket


def entry_key(sig: ConvSignature, bucket: int) -> str:
    """Table key of one (signature, batch bucket) tuning decision."""
    return f"{sig.label}.p{sig.ph}x{sig.pw}.{sig.dtype}@b{bucket}"


@dataclass(frozen=True)
class TunedChoice:
    """The winning execution strategy of one search.

    ``alpha``/``variant`` name the Gamma kernel (usually the signature's
    own — a kernel override must survive the double bit-identity check);
    ``block_ic`` is the channel blocking (``None`` = the full-depth
    default); ``dispatch`` names one of the autotuner's dispatch modes
    (see :data:`repro.runtime.autotune.DISPATCH_MODES`).
    """

    alpha: int
    variant: str
    block_ic: int | None
    dispatch: str

    def to_json(self) -> dict[str, Any]:
        return {
            "alpha": self.alpha,
            "variant": self.variant,
            "block_ic": self.block_ic,
            "dispatch": self.dispatch,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "TunedChoice":
        try:
            block = doc["block_ic"]
            return cls(
                alpha=int(doc["alpha"]),
                variant=str(doc["variant"]),
                block_ic=None if block is None else int(block),
                dispatch=str(doc["dispatch"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningCacheError(f"malformed tuned choice: {doc!r}") from exc


@dataclass(frozen=True)
class TunedEntry:
    """One persisted tuning decision plus the evidence it rests on."""

    signature: ConvSignature
    batch_bucket: int
    choice: TunedChoice
    #: Min-of-reps wallclock of the default dispatch at ``batch_bucket``.
    default_ns: float
    #: Min-of-reps wallclock of ``choice`` on the same operands.
    tuned_ns: float
    #: Always True for a persisted winner — candidates that fail the
    #: bit-identity assertion never become entries.  Kept explicit so the
    #: file is auditable and the loader can refuse a hand-edited lie.
    bit_identical: bool
    trials: int
    pruned: int

    @property
    def key(self) -> str:
        return entry_key(self.signature, self.batch_bucket)

    @property
    def speedup(self) -> float:
        return self.default_ns / self.tuned_ns if self.tuned_ns > 0 else 1.0

    @property
    def is_default(self) -> bool:
        """Whether the search concluded the default dispatch is fastest."""
        from ..core.fused import DEFAULT_BLOCK_IC

        sig = self.signature
        return (
            (self.choice.alpha, self.choice.variant) == (sig.alpha, sig.variant)
            and self.choice.block_ic == DEFAULT_BLOCK_IC
            and self.choice.dispatch == "serial"
        )

    def to_json(self) -> dict[str, Any]:
        sig = self.signature
        return {
            "signature": {
                "ih": sig.ih, "iw": sig.iw, "ic": sig.ic, "oc": sig.oc,
                "fh": sig.fh, "fw": sig.fw, "ph": sig.ph, "pw": sig.pw,
                "alpha": sig.alpha, "variant": sig.variant, "dtype": sig.dtype,
            },
            "batch_bucket": self.batch_bucket,
            "choice": self.choice.to_json(),
            "default_ns": float(self.default_ns),
            "tuned_ns": float(self.tuned_ns),
            "bit_identical": bool(self.bit_identical),
            "trials": self.trials,
            "pruned": self.pruned,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "TunedEntry":
        try:
            sig_doc = dict(doc["signature"])
            sig = ConvSignature.resolve(
                ih=int(sig_doc["ih"]), iw=int(sig_doc["iw"]),
                ic=int(sig_doc["ic"]), oc=int(sig_doc["oc"]),
                fh=int(sig_doc["fh"]), fw=int(sig_doc["fw"]),
                ph=int(sig_doc["ph"]), pw=int(sig_doc["pw"]),
                alpha=int(sig_doc["alpha"]), variant=str(sig_doc["variant"]),
                dtype=str(sig_doc["dtype"]),
            )
            entry = cls(
                signature=sig,
                batch_bucket=int(doc["batch_bucket"]),
                choice=TunedChoice.from_json(dict(doc["choice"])),
                default_ns=float(doc["default_ns"]),
                tuned_ns=float(doc["tuned_ns"]),
                bit_identical=bool(doc["bit_identical"]),
                trials=int(doc["trials"]),
                pruned=int(doc["pruned"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TuningCacheError):
                raise
            raise TuningCacheError(f"malformed tuned entry: {exc}") from exc
        if entry.batch_bucket < 1 or batch_bucket(entry.batch_bucket) != entry.batch_bucket:
            raise TuningCacheError(
                f"batch_bucket {entry.batch_bucket} is not a power of two"
            )
        if not entry.bit_identical:
            raise TuningCacheError(
                f"entry {entry.key} records bit_identical=false — a candidate "
                "that failed bit-identity can never be a persisted winner"
            )
        return entry


@dataclass
class TuningTable:
    """Every tuning decision of one machine, keyed by (signature, bucket)."""

    host: str
    entries: dict[str, TunedEntry] = field(default_factory=dict)
    created: str = ""
    #: Digest of the calibration model whose predictions pruned the search
    #: (informational: re-tuning after re-calibration is advisable, not
    #: forced).
    calibration_digest: str = ""

    def add(self, entry: TunedEntry) -> None:
        self.entries[entry.key] = entry

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "host": self.host,
            "created": self.created,
            "calibration_digest": self.calibration_digest,
            "entries": {k: self.entries[k].to_json() for k in sorted(self.entries)},
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "TuningTable":
        if not isinstance(doc, dict):
            raise TuningCacheError(f"tuning document must be an object, got {type(doc).__name__}")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise TuningCacheError(
                f"schema_version {version!r} != supported {SCHEMA_VERSION}"
            )
        raw = doc.get("entries")
        if not isinstance(raw, dict):
            raise TuningCacheError("tuning file has no entries object")
        table = cls(
            host=str(doc.get("host", "unknown")),
            created=str(doc.get("created", "")),
            calibration_digest=str(doc.get("calibration_digest", "")),
        )
        for key, entry_doc in raw.items():
            if not isinstance(entry_doc, dict):
                raise TuningCacheError(f"entry {key!r} is not an object")
            entry = TunedEntry.from_json(entry_doc)
            if entry.key != key:
                raise TuningCacheError(
                    f"entry key {key!r} does not match its signature ({entry.key!r})"
                )
            table.entries[key] = entry
        return table

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TuningTable":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise TuningCacheError(f"{path}: not valid JSON: {exc}") from exc
        try:
            return cls.from_json(doc)
        except TuningCacheError as exc:
            raise TuningCacheError(f"{path}: {exc}") from exc

    @classmethod
    def fresh(cls) -> "TuningTable":
        """An empty table keyed to this machine (warmup tuning starts here)."""
        return cls(
            host=_host_key(),
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            calibration_digest=_calibration_digest(),
        )


def _host_key() -> str:
    from ..gpusim import calibrate  # lazy: keep gpusim below runtime at import

    return calibrate.host_key()


def _calibration_digest() -> str:
    from ..gpusim import calibrate

    return calibrate.resolve_model().digest


def tuning_path(directory: str | Path = ".") -> Path:
    """``TUNE_<host>.json`` under ``directory`` for this machine."""
    return Path(directory) / f"TUNE_{_host_key()}.json"


# --------------------------------------------------------------------------
# Activation (explicit — a TUNE file on disk changes nothing by itself)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TunedLookup:
    """One successful :func:`lookup`: the entry plus its guard key."""

    key: str
    entry: TunedEntry
    generation: int


class _GuardState:
    """Per-entry never-worse enforcement state (guarded by ActiveTuning)."""

    __slots__ = ("strikes", "disabled")

    def __init__(self) -> None:
        self.strikes = 0
        self.disabled = False


class ActiveTuning:
    """Process-wide activation slot for one :class:`TuningTable`.

    Holds the active table, the activation generation (consumers that cache
    tuned decisions key on it, exactly like the calibration generation) and
    the per-entry guard state.  All three are swapped together under one
    lock so a lookup can never pair an old table with new guard state.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._table: TuningTable | None = None
        self._generation = 0
        self._guards: dict[str, _GuardState] = {}

    def activate(self, table: TuningTable) -> None:
        with self._lock:
            self._table = table
            self._generation += 1
            self._guards = {}

    def deactivate(self) -> None:
        with self._lock:
            self._table = None
            self._generation += 1
            self._guards = {}

    def table(self) -> TuningTable | None:
        with self._lock:
            return self._table

    def generation(self) -> int:
        with self._lock:
            return self._generation

    def lookup(self, sig: ConvSignature, batch: int) -> TunedLookup | None:
        with self._lock:
            table = self._table
            if table is None:
                # Inactive: the common case — stay silent (no counters, no
                # key formatting) so an un-opted-in process is observably
                # untouched by tuning and pays one lock hop per convolve.
                return None
            key = entry_key(sig, batch_bucket(batch))
            entry = table.entries.get(key)
            guard = self._guards.get(key)
            gen = self._generation
        if entry is None or (guard is not None and guard.disabled):
            counter_add("tune.cache.misses")
            return None
        counter_add("tune.cache.hits")
        return TunedLookup(key=key, entry=entry, generation=gen)

    def install(self, entry: TunedEntry) -> None:
        with self._lock:
            if self._table is None:
                raise TuningCacheError("no tuning table is active; activate one first")
            self._table.add(entry)

    def record_runtime(self, key: str, batch: int, measured_ns: float) -> None:
        tripped = False
        with self._lock:
            table = self._table
            if table is None:
                return
            entry = table.entries.get(key)
            if entry is None:
                return
            guard = self._guards.get(key)
            if guard is None:
                guard = self._guards[key] = _GuardState()
            if guard.disabled:
                return
            # The recorded default time was measured at the bucket; scale it
            # linearly to the live batch before judging the tuned call.
            expected = entry.default_ns * max(1.0, batch / entry.batch_bucket)
            if measured_ns > expected * GUARD_FACTOR:
                guard.strikes += 1
                if guard.strikes >= GUARD_STRIKES:
                    guard.disabled = True
                    tripped = True
            else:
                guard.strikes = 0
        if tripped:
            counter_add("tune.regressions", key=key)

    def guard_stats(self) -> dict[str, dict[str, int | bool]]:
        with self._lock:
            return {
                key: {"strikes": g.strikes, "disabled": g.disabled}
                for key, g in self._guards.items()
            }


_ACTIVE = ActiveTuning()


def activate(
    source: TuningTable | str | Path | None = None, *, force: bool = False
) -> TuningTable:
    """Make a tuning table the process-wide active one.

    ``source`` may be a table, a path, or ``None`` (load ``TUNE_<host>.json``
    from the working directory).  A file tuned on a *different* machine is
    refused unless ``force=True`` — its measured wins are that machine's,
    not this one's.  Returns the activated table.
    """
    if source is None:
        source = tuning_path()
    table = source if isinstance(source, TuningTable) else TuningTable.load(source)
    if not force and table.host != _host_key():
        raise TuningCacheError(
            f"tuning table was measured on host {table.host!r}, this is "
            f"{_host_key()!r}; pass force=True to activate anyway"
        )
    _ACTIVE.activate(table)
    return table


def deactivate() -> None:
    """Drop the active tuning table (back to default dispatch everywhere)."""
    _ACTIVE.deactivate()


@contextlib.contextmanager
def activated(
    source: TuningTable | str | Path | None = None, *, force: bool = False
) -> Iterator[TuningTable]:
    """Scope an activation (tests, bench suites); restores the prior table."""
    prev = _ACTIVE.table()
    table = activate(source, force=force)
    try:
        yield table
    finally:
        if prev is None:
            deactivate()
        else:
            _ACTIVE.activate(prev)


def active_table() -> TuningTable | None:
    """The explicitly activated table, or ``None``."""
    return _ACTIVE.table()


def generation() -> int:
    """Activation epoch — changes whenever the active table does."""
    return _ACTIVE.generation()


def lookup(sig: ConvSignature, batch: int) -> TunedLookup | None:
    """The active tuned decision for ``(sig, batch)``, or ``None``.

    ``None`` when no table is active, the table has no entry for the batch
    bucket, or the entry's runtime guard disabled it.  Counts
    ``tune.cache.hits`` / ``tune.cache.misses`` only while a table is
    active.
    """
    return _ACTIVE.lookup(sig, batch)


def install(entry: TunedEntry) -> None:
    """Add ``entry`` to the *active* table (serve warmup tuning)."""
    _ACTIVE.install(entry)


def record_runtime(key: str, batch: int, measured_ns: float) -> None:
    """Feed one tuned dispatch's measured wallclock to the runtime guard."""
    _ACTIVE.record_runtime(key, batch, measured_ns)


def guard_stats() -> dict[str, dict[str, int | bool]]:
    """Per-entry guard state snapshot (CLI ``show`` and tests)."""
    return _ACTIVE.guard_stats()
