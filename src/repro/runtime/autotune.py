"""Measured per-signature autotuner: search the execution space, keep winners.

The paper's Table 2 reports *the fastest variant per shape* — an offline
search result.  :mod:`repro.gpusim.autotune` reproduces that search on the
performance model (the cuDNN *heuristic* mode); this module is the *find*
mode: for one :class:`~repro.runtime.signature.ConvSignature` (plus batch
bucket) it enumerates every admissible execution strategy, prunes to the
top-K by the machine-calibrated ``predicted_ns`` prior
(:mod:`repro.gpusim.calibrate`), then **measures** the survivors with
``perf_counter_ns`` min-of-reps on real tensors and keeps the fastest.

Candidate space (α × variant × dispatch mode):

* every registered ``Gamma_alpha^{variant}`` whose filter width matches;
* dispatch mode ∈ :data:`DISPATCH_MODES`: serial, pooled over
  (segment, batch-chunk) tasks, or small-workspace chunking.

Channel blocking stays at ``DEFAULT_BLOCK_IC`` (full depth): any smaller
``block_ic`` changes the accumulation order, so it could never pass the
bit-identity rule below, and every ``block_ic >= IC`` is the default path.
``TunedChoice.block_ic`` keeps recording it for the file format.

Eligibility is **bit-identity**: a candidate must reproduce the default
path's output exactly (``np.array_equal``) before its time counts — a
kernel override must do so on *two* independent operand draws, since a
different Winograd scheme agreeing on one random tensor could be
coincidence, while dispatch/chunking changes are arithmetic-neutral by
construction.  The default dispatch is always
measured alongside the survivors and wins ties *and near-ties*
(:data:`WIN_MARGIN` hysteresis — noise must not displace the safe steady
state), so a persisted
:class:`~repro.runtime.tuningcache.TunedEntry` is never worse than default
*on the tuning operands* — and the tuning cache's runtime guard enforces
that the win keeps reproducing on live traffic.

CLI::

    python -m repro.runtime.autotune tune [--shape NxHxWxC ...] [--out DIR]
    python -m repro.runtime.autotune show [PATH]
    python -m repro.runtime.autotune activate [PATH] [--force]
    python -m repro.runtime.autotune explain --shape NxHxWxC [--oc OC]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..core.fused import DEFAULT_BLOCK_IC
from ..core.kernels import registered_kernels
from ..obs import counter_add
from ..obs.perfledger import record_execution
from . import tuningcache
from .cache import get_executable
from .engine import ExecutionConfig
from .signature import ConvSignature
from .tuningcache import TunedChoice, TunedEntry, TunedLookup, TuningTable, batch_bucket

__all__ = [
    "DISPATCH_MODES",
    "admissible_dispatch_modes",
    "TUNE_REPS",
    "DEFAULT_TOP_K",
    "TUNE_SEED",
    "Candidate",
    "TrialRow",
    "dispatch_config",
    "enumerate_candidates",
    "default_candidate",
    "tune_signature",
    "explain_signature",
    "tune_signatures",
    "execute_tuned",
    "main",
]

#: Timed repetitions per surviving candidate (interleaved rounds, min kept —
#: the repo-wide convention for latency floors under scheduler noise).
TUNE_REPS = 3

#: Survivors measured per signature after the calibrated-prior prune
#: (the default dispatch is always kept on top of these).
DEFAULT_TOP_K = 8

#: Deterministic operand seed — tuning must be reproducible run to run.
TUNE_SEED = 20260808

#: Hysteresis of the winner selection: a candidate displaces the default
#: only by beating it by this relative margin.  A near-tie is
#: indistinguishable from scheduler noise at tuning reps, and persisting a
#: noise-win invites the runtime guard to revert it later — the default is
#: the safer steady state, so it wins everything inside the margin.
WIN_MARGIN = 0.03

#: Workspace bound of the ``chunk4m`` dispatch mode: small enough that the
#: transform-domain workspace of mid-size shapes stays cache-resident.
CHUNK_WORKSPACE_BYTES = 4 * 1024 * 1024

#: Dispatch modes the tuner may choose between.  All are arithmetic-neutral
#: (chunk boundaries and pooled task order never change the accumulation,
#: see :mod:`repro.runtime.executable`), so they are the always-eligible
#: axis of the search.
DISPATCH_MODES: tuple[str, ...] = ("serial", "pool2", "pool4", "chunk4m")

_DISPATCH_CONFIGS: dict[str, ExecutionConfig] = {
    "serial": ExecutionConfig(threads=0),
    "pool2": ExecutionConfig(threads=2),
    "pool4": ExecutionConfig(threads=4),
    "chunk4m": ExecutionConfig(threads=0, workspace_bytes=CHUNK_WORKSPACE_BYTES),
}


def admissible_dispatch_modes() -> tuple[str, ...]:
    """:data:`DISPATCH_MODES` filtered to what this host can parallelise.

    A pooled dispatch running more threads than the machine has cores
    cannot win by parallelism — only by scheduling luck — and luck-wins
    are exactly what the :data:`WIN_MARGIN` hysteresis and the runtime
    guard exist to keep out of the table.  Filtering them from the search
    keeps tuning honest on small hosts while leaving the pool modes in
    play wherever they can genuinely pay.
    """
    cores = os.cpu_count() or 1
    return tuple(
        mode
        for mode in DISPATCH_MODES
        if _DISPATCH_CONFIGS[mode].threads <= max(1, cores)
    )


def dispatch_config(mode: str) -> ExecutionConfig:
    """The shared :class:`ExecutionConfig` realising one dispatch mode."""
    try:
        return _DISPATCH_CONFIGS[mode]
    except KeyError:
        raise ValueError(
            f"unknown dispatch mode {mode!r}; known: {', '.join(DISPATCH_MODES)}"
        ) from None


@dataclass(frozen=True)
class Candidate:
    """One point of the search space."""

    alpha: int
    variant: str
    block_ic: int | None
    dispatch: str

    @property
    def label(self) -> str:
        block = "full" if self.block_ic is None else str(self.block_ic)
        return f"a{self.alpha}.{self.variant}/b{block}/{self.dispatch}"


@dataclass
class TrialRow:
    """One candidate's fate through prune → bit check → measurement."""

    candidate: Candidate
    predicted_ns: float
    pruned: bool = False
    #: None = never executed (pruned); False = failed bit-identity.
    eligible: bool | None = None
    measured_ns: float | None = None
    winner: bool = False


def default_candidate(sig: ConvSignature) -> Candidate:
    """The strategy :func:`repro.runtime.convolve` uses untuned."""
    return Candidate(sig.alpha, sig.variant, DEFAULT_BLOCK_IC, "serial")


def _kernel_choices(sig: ConvSignature) -> list[tuple[int, str]]:
    """Admissible ``(alpha, variant)`` pairs, the signature's own first."""
    pairs: list[tuple[int, str]] = [(sig.alpha, sig.variant)]
    for kernel in registered_kernels():
        pair = (kernel.alpha, kernel.variant)
        if kernel.r != sig.fw or pair in pairs:
            continue
        try:
            _resolve_exec_sig(sig, kernel.alpha, kernel.variant)
        except ValueError:
            continue  # e.g. alpha=16 under float16
        pairs.append(pair)
    return pairs


def _resolve_exec_sig(sig: ConvSignature, alpha: int, variant: str) -> ConvSignature:
    if (alpha, variant) == (sig.alpha, sig.variant):
        return sig
    return ConvSignature.resolve(
        ih=sig.ih, iw=sig.iw, ic=sig.ic, oc=sig.oc, fh=sig.fh, fw=sig.fw,
        ph=sig.ph, pw=sig.pw, alpha=alpha, variant=variant, dtype=sig.dtype,
    )


def enumerate_candidates(sig: ConvSignature) -> list[Candidate]:
    """The full candidate space for ``sig``, default candidate first."""
    out: list[Candidate] = [default_candidate(sig)]
    for alpha, variant in _kernel_choices(sig):
        for mode in admissible_dispatch_modes():
            cand = Candidate(alpha, variant, DEFAULT_BLOCK_IC, mode)
            if cand != out[0]:
                out.append(cand)
    return out


def _kernel_priors(sig: ConvSignature, bucket: int) -> dict[tuple[int, str], float]:
    """Calibrated ``predicted_ns`` per admissible kernel at ``bucket`` rows.

    The prior is a *kernel-level* quantity — the cost model features count
    transform/contract/tail flop and traffic from the plan, which
    ``block_ic`` and the dispatch mode do not change — so every candidate
    sharing a kernel shares its prior.
    """
    from ..core.planner import plan_convolution  # lazy: core below runtime
    from ..gpusim import calibrate  # lazy: keep gpusim below runtime at import

    model = calibrate.resolve_model()
    shape = _conv_shape(sig)
    priors: dict[tuple[int, str], float] = {}
    for alpha, variant in _kernel_choices(sig):
        try:
            plan = plan_convolution(shape, alpha=alpha, variant=variant)
            priors[(alpha, variant)] = model.predict_ns(
                calibrate.conv_features(plan, bucket)
            )
        except ValueError:
            continue
    return priors


def _conv_shape(sig: ConvSignature) -> Any:
    from ..nhwc.tensor import ConvShape

    return ConvShape(
        batch=1, ih=sig.ih, iw=sig.iw, ic=sig.ic, oc=sig.oc,
        fh=sig.fh, fw=sig.fw, ph=sig.ph, pw=sig.pw, stride=1,
    )


def _search(
    sig: ConvSignature,
    batch: int,
    *,
    reps: int,
    top_k: int,
    seed: int,
) -> tuple[TunedEntry, list[TrialRow]]:
    """Prune → bit-check → measure; returns the entry plus the full audit."""
    bucket = batch_bucket(batch)
    rng = np.random.default_rng(seed)
    dt = np.dtype(sig.dtype)
    x = rng.standard_normal((bucket, sig.ih, sig.iw, sig.ic)).astype(dt)
    w = rng.standard_normal((sig.oc, sig.fh, sig.fw, sig.ic)).astype(dt)
    # Second independent draw: kernel overrides must reproduce the default
    # bits on both before they are believed (see module docstring).
    x2 = rng.standard_normal((bucket, sig.ih, sig.iw, sig.ic)).astype(dt)

    default = default_candidate(sig)
    priors = _kernel_priors(sig, bucket)
    rows = [
        TrialRow(candidate=c, predicted_ns=priors.get((c.alpha, c.variant), 0.0))
        for c in enumerate_candidates(sig)
    ]

    # Prune to top-K by the calibrated prior.  The prior prices *kernels*
    # (transform/contract/tail flop and traffic); the signature's own
    # kernel's candidates differ only in block/dispatch axes the model
    # cannot rank, so those keep their enumeration order (default first —
    # it always survives) and the prior selects among kernel overrides for
    # the remaining slots.
    top_k = max(1, top_k)
    own_kernel = [
        r for r in rows
        if (r.candidate.alpha, r.candidate.variant) == (sig.alpha, sig.variant)
    ]
    overrides = sorted(
        (r for r in rows if r not in own_kernel), key=lambda r: r.predicted_ns
    )
    keep = own_kernel[:top_k]
    keep += overrides[: max(0, top_k - len(keep))]
    kept_ids = {id(r) for r in keep}
    for row in rows:
        row.pruned = id(row) not in kept_ids
    pruned = sum(1 for r in rows if r.pruned)
    if pruned:
        counter_add("tune.pruned", pruned)

    def runner(c: Candidate) -> Callable[[np.ndarray], np.ndarray]:
        exe = get_executable(_resolve_exec_sig(sig, c.alpha, c.variant))
        cfg = dispatch_config(c.dispatch)
        block = c.block_ic
        return lambda arr: exe(arr, w, config=cfg, block_ic=block)

    run_default = runner(default)
    y_ref = run_default(x)
    y_ref2: np.ndarray | None = None

    survivors: list[tuple[TrialRow, Callable[[np.ndarray], np.ndarray]]] = []
    for row in rows:
        if row.pruned:
            continue
        c = row.candidate
        if c == default:
            row.eligible = True
            survivors.append((row, run_default))
            continue
        fn = runner(c)
        ok = bool(np.array_equal(y_ref, fn(x)))
        if ok and (c.alpha, c.variant) != (sig.alpha, sig.variant):
            if y_ref2 is None:
                y_ref2 = run_default(x2)
            ok = bool(np.array_equal(y_ref2, fn(x2)))
        row.eligible = ok
        if ok:
            survivors.append((row, fn))
        else:
            counter_add("tune.ineligible")

    # Interleaved min-of-reps: round-robin over the survivors so slow drift
    # (thermal, noisy neighbours) hits every candidate alike instead of
    # biasing whichever happened to run last.
    best: dict[int, float] = {id(row): float("inf") for row, _ in survivors}
    for _ in range(max(1, reps)):
        for row, fn in survivors:
            t0 = time.perf_counter_ns()
            fn(x)
            best[id(row)] = min(best[id(row)], float(time.perf_counter_ns() - t0))
    for row, _ in survivors:
        row.measured_ns = best[id(row)]
    counter_add("tune.trials", float(len(survivors)))

    # Fastest wins — but only past the hysteresis margin; the default wins
    # everything inside it, so tuned <= default always holds and near-tie
    # noise never displaces the safe steady state.
    default_row = next(row for row, _ in survivors if row.candidate == default)
    win_row = min(
        (row for row, _ in survivors),
        key=lambda r: (r.measured_ns, 0 if r.candidate == default else 1),
    )
    assert win_row.measured_ns is not None and default_row.measured_ns is not None
    if (
        win_row.candidate != default
        and win_row.measured_ns >= default_row.measured_ns * (1.0 - WIN_MARGIN)
    ):
        win_row = default_row
    win_row.winner = True
    winner = win_row.candidate
    counter_add(f"tune.wins.{_win_axis(sig, winner)}")

    entry = TunedEntry(
        signature=sig,
        batch_bucket=bucket,
        choice=TunedChoice(
            alpha=winner.alpha,
            variant=winner.variant,
            block_ic=winner.block_ic,
            dispatch=winner.dispatch,
        ),
        default_ns=float(default_row.measured_ns or 0.0),
        tuned_ns=float(win_row.measured_ns or 0.0),
        bit_identical=True,
        trials=len(survivors),
        pruned=pruned,
    )
    record_execution(
        signature=sig.label,
        variant=winner.variant,
        rows=bucket,
        path="tuned",
        predicted_ns=priors.get((winner.alpha, winner.variant), 0.0),
        measured_ns=entry.tuned_ns,
    )
    return entry, rows


def _win_axis(sig: ConvSignature, winner: Candidate) -> str:
    """Which search axis the win came from (for ``tune.wins.*`` counters)."""
    if (winner.alpha, winner.variant) != (sig.alpha, sig.variant):
        return "kernel"
    if winner.block_ic != DEFAULT_BLOCK_IC:
        return "block_ic"
    if winner.dispatch != "serial":
        return "dispatch"
    return "default"


def tune_signature(
    sig: ConvSignature,
    batch: int = 1,
    *,
    reps: int = TUNE_REPS,
    top_k: int = DEFAULT_TOP_K,
    seed: int = TUNE_SEED,
) -> TunedEntry:
    """Search one signature at one batch bucket; returns the winning entry."""
    entry, _ = _search(sig, batch, reps=reps, top_k=top_k, seed=seed)
    return entry


def explain_signature(
    sig: ConvSignature,
    batch: int = 1,
    *,
    reps: int = TUNE_REPS,
    top_k: int = DEFAULT_TOP_K,
    seed: int = TUNE_SEED,
) -> tuple[TunedEntry, list[TrialRow]]:
    """Like :func:`tune_signature` but keeps the per-candidate audit trail."""
    return _search(sig, batch, reps=reps, top_k=top_k, seed=seed)


def tune_signatures(
    pairs: Iterable[tuple[ConvSignature, int]],
    *,
    reps: int = TUNE_REPS,
    top_k: int = DEFAULT_TOP_K,
    seed: int = TUNE_SEED,
) -> TuningTable:
    """Tune every ``(signature, batch)`` pair into a fresh machine table."""
    table = TuningTable.fresh()
    for i, (sig, batch) in enumerate(pairs):
        table.add(tune_signature(sig, batch, reps=reps, top_k=top_k, seed=seed + i))
    return table


# --------------------------------------------------------------------------
# Tuned execution (the convolve fast path)
# --------------------------------------------------------------------------


def execute_tuned(
    tuned: TunedLookup,
    x: np.ndarray,
    w: np.ndarray,
    *,
    version: object = None,
    bundle: Any = None,
    config: ExecutionConfig | None = None,
    block_ic: int | None = DEFAULT_BLOCK_IC,
) -> np.ndarray:
    """Run one convolution under an active tuned decision.

    Overrides apply only where the caller kept the default: an explicit
    ``config`` or non-default ``block_ic`` wins over the tuned choice, and a
    kernel override is skipped when the caller supplied a pre-resolved
    filter ``bundle`` (its transforms belong to the signature's own
    schemes).  The call is timed and fed to the tuning cache's runtime
    guard, which disables the entry (``tune.regressions``) if the measured
    win stops reproducing.
    """
    entry = tuned.entry
    sig = entry.signature
    choice = entry.choice
    exec_sig = sig
    if bundle is None and (choice.alpha, choice.variant) != (sig.alpha, sig.variant):
        exec_sig = _resolve_exec_sig(sig, choice.alpha, choice.variant)
    effective_block = choice.block_ic if block_ic == DEFAULT_BLOCK_IC else block_ic
    effective_config = dispatch_config(choice.dispatch) if config is None else config
    exe = get_executable(exec_sig)
    t0 = time.perf_counter_ns()
    y = exe(
        x, w, version=version, bundle=bundle,
        config=effective_config, block_ic=effective_block,
    )
    tuningcache.record_runtime(
        tuned.key, int(x.shape[0]), float(time.perf_counter_ns() - t0)
    )
    counter_add("tune.dispatch.applied")
    return y


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def _default_shapes() -> list[tuple[int, int, int, int]]:
    """The Fig 8 ``Gamma_8(6,3)`` CI subset — the tune-smoke shape set."""
    from ..bench.baseline import WALLCLOCK_SMOKE_INDICES, wallclock_shapes

    shapes = wallclock_shapes()
    return [shapes[i] for i in WALLCLOCK_SMOKE_INDICES]


def _parse_shape(text: str) -> tuple[int, int, int, int]:
    dims = [int(p) for p in re.split(r"[x,×]", text.strip()) if p]
    if len(dims) != 4:
        raise ValueError(f"shape {text!r} must be NxHxWxC")
    return dims[0], dims[1], dims[2], dims[3]


def _sig_for(
    shape: tuple[int, int, int, int],
    *,
    oc: int | None,
    alpha: int | None,
    variant: str,
) -> tuple[ConvSignature, int]:
    n, h, w_, c = shape
    sig = ConvSignature.resolve(
        ih=h, iw=w_, ic=c, oc=oc or c, fh=3, fw=3, alpha=alpha, variant=variant
    )
    return sig, n


def _entry_summary(entry: TunedEntry) -> str:
    choice = entry.choice
    return (
        f"{entry.key}: {Candidate(choice.alpha, choice.variant, choice.block_ic, choice.dispatch).label} "
        f"({entry.default_ns / 1e6:.3f} -> {entry.tuned_ns / 1e6:.3f} ms, "
        f"x{entry.speedup:.2f}, {entry.trials} measured, {entry.pruned} pruned)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.autotune",
        description="Measure-and-persist per-signature execution tuning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune_p = sub.add_parser("tune", help="search shapes and write TUNE_<host>.json")
    tune_p.add_argument(
        "--shape", action="append", default=None, metavar="NxHxWxC",
        help="input shape (repeatable; default: the Fig 8 tune-smoke subset)",
    )
    tune_p.add_argument("--oc", type=int, default=None, help="output channels (= C)")
    tune_p.add_argument("--alpha", type=int, default=None)
    tune_p.add_argument("--variant", default="base")
    tune_p.add_argument("--reps", type=int, default=TUNE_REPS)
    tune_p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    tune_p.add_argument(
        "--out", default=".", metavar="DIR", help="directory for TUNE_<host>.json"
    )
    tune_p.add_argument("--no-save", action="store_true", help="tune without persisting")
    tune_p.add_argument("--json", action="store_true", help="emit the table as JSON")

    show = sub.add_parser("show", help="print a tuning file")
    show.add_argument("path", nargs="?", default=None, help="default: ./TUNE_<host>.json")

    act = sub.add_parser(
        "activate",
        help="validate a tuning file exactly as activation would (host, schema)",
    )
    act.add_argument("path", nargs="?", default=None, help="default: ./TUNE_<host>.json")
    act.add_argument(
        "--force", action="store_true", help="accept a table tuned on another host"
    )

    exp = sub.add_parser("explain", help="audit one shape's search end to end")
    exp.add_argument("--shape", required=True, metavar="NxHxWxC")
    exp.add_argument("--oc", type=int, default=None)
    exp.add_argument("--alpha", type=int, default=None)
    exp.add_argument("--variant", default="base")
    exp.add_argument("--reps", type=int, default=TUNE_REPS)
    exp.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)

    args = parser.parse_args(argv)

    if args.command == "tune":
        try:
            shapes = (
                [_parse_shape(s) for s in args.shape]
                if args.shape
                else _default_shapes()
            )
            pairs = [
                _sig_for(s, oc=args.oc, alpha=args.alpha, variant=args.variant)
                for s in shapes
            ]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        table = tune_signatures(pairs, reps=args.reps, top_k=args.top_k)
        if args.json:
            print(json.dumps(table.to_json(), indent=2, sort_keys=True))
        else:
            for key in sorted(table.entries):
                print(f"[autotune] {_entry_summary(table.entries[key])}")
        if not args.no_save:
            path = table.save(tuningcache.tuning_path(args.out))
            print(f"[autotune] wrote {path}", file=sys.stderr)
        return 0

    if args.command in ("show", "activate"):
        path = args.path if args.path else tuningcache.tuning_path()
        try:
            if args.command == "activate":
                table = tuningcache.activate(path, force=args.force)
                tuningcache.deactivate()  # per-process state; this is a dry run
            else:
                table = TuningTable.load(path)
        except (OSError, tuningcache.TuningCacheError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.command == "activate":
            print(
                f"[autotune] {path}: OK — {len(table.entries)} entr"
                f"{'y' if len(table.entries) == 1 else 'ies'} for host {table.host}"
            )
        else:
            print(json.dumps(table.to_json(), indent=2, sort_keys=True))
        return 0

    # explain
    try:
        sig, batch = _sig_for(
            _parse_shape(args.shape), oc=args.oc, alpha=args.alpha, variant=args.variant
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entry, rows = explain_signature(sig, batch, reps=args.reps, top_k=args.top_k)
    from ..bench.harness import table as fmt_table

    body = []
    for row in rows:
        if row.pruned:
            status = "pruned"
        elif row.eligible is False:
            status = "INELIGIBLE (bits differ)"
        elif row.winner:
            status = "WINNER"
        else:
            status = "measured"
        body.append(
            [
                row.candidate.label,
                f"{row.predicted_ns / 1e6:.3f}",
                "-" if row.measured_ns is None else f"{row.measured_ns / 1e6:.3f}",
                status,
            ]
        )
    print(fmt_table(["candidate", "prior ms", "measured ms", "status"], body))
    print(f"[autotune] {_entry_summary(entry)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
