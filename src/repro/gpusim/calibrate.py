"""Machine calibration of the performance model: fit predicted ns to wallclock.

:mod:`repro.gpusim.calibration` holds the *architectural* constants of the
analytic model — issue efficiencies set once against the paper's absolute
Gflop/s levels, shared across every experiment.  Those model the paper's
GPUs.  This module models *the machine the repo actually runs on*: the
NumPy/BLAS substrate executing :func:`repro.runtime.convolve`.

The approach is the csl-experiments GEMM quick-reference's (SNIPPETS.md
Snippet 1): a small linear cost model over *counted* quantities with
empirically fitted constants.  Where the snippet uses three terms
(H2D words, FMACs, D2H words), a fused Im2col-Winograd call decomposes into
the paper's §4.1/§5.5 quantities, all countable from the
:class:`~repro.core.planner.ConvPlan` alone:

* ``transform_flop`` — input (``D^T d``) + output (``A^T m``) transform
  arithmetic across the Winograd segments (§4.1 stages 2 and 4);
* ``contract_flop`` — the transform-domain elementwise-multiply
  contraction ``2·OH·T·OC·α·FH·IC`` (§4.1 stage 3, the Winograd-reduced
  multiplication count);
* ``tail_flop`` — the §5.5 boundary-GEMM arithmetic for ``OW % n != 0``;
* ``mem_bytes`` — gathered region + transform workspace + output traffic;
* ``launch`` — segment count (per-dispatch overhead);
* ``call`` — constant per-call overhead (planning-free, but Python-level).

``measured_ns ≈ Σ c_i · feature_i`` is fitted by non-negative least squares
over wallclock measurements of the compiled runtime, and the coefficients
are persisted in a machine-keyed ``CALIB_<host>.json``.  An *activated*
calibration is consulted by :func:`repro.gpusim.perfmodel.estimate_conv`
(falling back to the analytic device model otherwise) and powers the
runtime timing ledger's predictions (:mod:`repro.obs.perfledger`), the
serve scheduler's predicted batch cost, and — optionally — the ranking of
:func:`repro.gpusim.autotune.autotune_conv` (``use_calibration=True``).
Activation is **explicit** (:func:`activate`): merely fitting or having a
``CALIB_<host>.json`` on disk never changes the modeled suites,
so the committed Figure 8/9/Table 2 baselines stay machine-independent.

Naming note: the near-twin :mod:`repro.gpusim.calibration` (trailing
``-ion``) is a different layer — the hand-set architectural issue
efficiencies of the *paper's* GPUs, set once and never machine-fitted.
This module fits *this machine*; that module models *their hardware*.

CLI::

    python -m repro.gpusim.calibrate fit [--reps 3] [--out DIR] [--no-save]
    python -m repro.gpusim.calibrate show [PATH]
    python -m repro.gpusim.calibrate predict --shape 1x64x64x32 [--oc 64]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from ..core.planner import ConvPlan, plan_convolution
from ..nhwc.tensor import ConvShape

__all__ = [
    "FEATURES",
    "DEFAULT_COEFFS",
    "CALIB_SMOKE_SHAPES",
    "SCHEMA_VERSION",
    "CalibSample",
    "CalibrationModel",
    "conv_features",
    "features_for",
    "default_model",
    "host_key",
    "calibration_path",
    "activate",
    "deactivate",
    "activated",
    "active_model",
    "resolve_model",
    "generation",
    "measure_suite",
    "fit",
    "prediction_error_pct",
    "main",
]

SCHEMA_VERSION = 1

_ITEM = 4  # FP32 bytes

#: Fit terms, in matrix-column order.  Flop/byte terms scale with the batch;
#: ``launch``/``call`` are per-dispatch constants — which makes every
#: feature vector affine in the batch size (the property the runtime's
#: per-row prediction cache relies on).
FEATURES: tuple[str, ...] = (
    "transform_flop",
    "contract_flop",
    "tail_flop",
    "mem_bytes",
    "launch",
    "call",
)

#: Hand-set fallback coefficients (ns per unit), playing the role
#: :mod:`repro.gpusim.calibration`'s constants play for the device model:
#: plausible single-socket NumPy/BLAS rates set once, by eye — transforms
#: run as tensordot/einsum streams (~2 Gflop/s), the contraction hits BLAS
#: (~20 Gflop/s), traffic lands near memcpy bandwidth, and each segment
#: dispatch pays Python-level overhead.  A fitted ``CALIB_<host>.json``
#: exists to beat these; the ``calib-smoke`` gate asserts that it does.
DEFAULT_COEFFS: dict[str, float] = {
    "transform_flop": 0.50,
    "contract_flop": 0.05,
    "tail_flop": 0.08,
    "mem_bytes": 0.15,
    "launch": 30_000.0,
    "call": 50_000.0,
}

#: The calib-smoke measurement suite: ``(batch, ih, iw, ic, oc, alpha)``.
#: 3x3 same-padding problems spanning channel depth, spatial size, batch
#: and both practical alphas; several widths leave an ``OW % n`` remainder
#: so the tail term is actually exercised (§5.5), and the whole suite stays
#: CI-sized (every shape < ~150 ms on a laptop core).
CALIB_SMOKE_SHAPES: tuple[tuple[int, int, int, int, int, int], ...] = (
    (1, 32, 32, 32, 32, 8),
    (2, 32, 32, 16, 32, 8),
    (1, 48, 48, 32, 48, 8),
    (1, 64, 64, 32, 32, 8),
    (1, 64, 64, 64, 64, 8),
    (4, 48, 48, 32, 32, 8),
    (1, 64, 64, 32, 32, 4),
    (1, 96, 96, 32, 64, 4),
)


# --------------------------------------------------------------------------
# Features
# --------------------------------------------------------------------------


def conv_features(plan: ConvPlan, batch: int) -> dict[str, float]:
    """Fit-term values for one planned convolution at ``batch`` rows.

    Counted from the §5.5 segment decomposition exactly as the runtime
    executes it (the gathered-region / V-workspace geometry of
    :class:`~repro.runtime.executable.ConvExecutable`), so the prediction
    and the execution can never drift structurally apart.  A runtime GEMM
    plan is one GEMM segment over every column, priced by the tail terms.
    """
    if not plan.segments:
        raise ValueError(f"cannot featurise a plan without segments: {plan.reason}")
    shape = plan.shape
    oh, fh, fw, ic, oc = shape.oh, shape.fh, shape.fw, shape.ic, shape.oc
    transform = contract = tail = mem = 0.0
    for seg in plan.segments:
        if seg.is_gemm:
            tail += 2.0 * oc * oh * seg.width * fh * fw * ic
            mem += _ITEM * oh * seg.width * (fh * fw * ic + oc)
            continue
        spec = seg.kernel.spec  # type: ignore[union-attr]
        n, alpha = spec.n, spec.alpha
        tiles = seg.width // n
        rows = oh + fh - 1
        ncols = (tiles - 1) * n + alpha
        # D^T d over every input row once (the runtime's fused gather), then
        # A^T m back to n output columns per tile.
        transform += 2.0 * alpha * alpha * rows * tiles * ic
        transform += 2.0 * n * alpha * oh * tiles * oc
        contract += 2.0 * oh * tiles * oc * alpha * fh * ic
        mem += _ITEM * (
            rows * ncols * ic
            + alpha * fh * oh * tiles * (ic + oc)
            + 2 * alpha * oh * tiles * oc
            + oh * seg.width * oc
        )
    b = float(batch)
    return {
        "transform_flop": transform * b,
        "contract_flop": contract * b,
        "tail_flop": tail * b,
        "mem_bytes": mem * b,
        "launch": float(len(plan.segments)),
        "call": 1.0,
    }


def features_for(
    shape: ConvShape, *, alpha: int | None = None, variant: str | None = None
) -> dict[str, float]:
    """Plan ``shape`` and return its fit terms (batch taken from the shape)."""
    unit = ConvShape(
        batch=1, ih=shape.ih, iw=shape.iw, ic=shape.ic, oc=shape.oc,
        fh=shape.fh, fw=shape.fw, ph=shape.ph, pw=shape.pw, stride=shape.stride,
    )
    plan = plan_convolution(unit, alpha=alpha, variant=variant)
    return conv_features(plan, shape.batch)


# --------------------------------------------------------------------------
# Model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibSample:
    """One wallclock measurement: fit terms plus the median measured ns."""

    label: str
    features: dict[str, float]
    measured_ns: float


@dataclass(frozen=True)
class CalibrationModel:
    """Per-machine linear cost model ``ns = Σ coeff_i · feature_i``."""

    host: str
    coeffs: dict[str, float]
    fitted: bool = False
    created: str = ""
    stats: dict[str, Any] = field(default_factory=dict)

    def predict_ns(self, features: dict[str, float]) -> float:
        """Predicted wallclock ns for one feature vector."""
        return sum(self.coeffs.get(k, 0.0) * v for k, v in features.items())

    @property
    def digest(self) -> str:
        """Content digest of the model's predictions: host + coefficients.

        Two models with the same digest price every candidate identically,
        so consumers that cache rankings (the gpusim autotuner's ``_CACHE``)
        key on this rather than on the host name — loading a *different*
        calibration file for the same host must invalidate, and it does
        because the coefficients differ.
        """
        body = json.dumps(
            {"host": self.host, "coeffs": {k: float(self.coeffs.get(k, 0.0)) for k in sorted(self.coeffs)}},
            sort_keys=True,
        )
        return hashlib.sha1(body.encode()).hexdigest()[:16]

    def predict_conv_ns(
        self,
        shape: ConvShape,
        *,
        plan: ConvPlan | None = None,
        alpha: int | None = None,
        variant: str | None = None,
    ) -> float:
        """Predicted wallclock ns for one convolution call."""
        if plan is not None:
            return self.predict_ns(conv_features(plan, shape.batch))
        return self.predict_ns(features_for(shape, alpha=alpha, variant=variant))

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "host": self.host,
            "fitted": self.fitted,
            "created": self.created,
            "coeffs": {k: float(self.coeffs.get(k, 0.0)) for k in FEATURES},
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, doc: Any) -> "CalibrationModel":
        """Parse a calibration document; any malformed field is a ``ValueError``.

        Coefficient names must be :data:`FEATURES` names and values finite
        and non-negative (what :func:`fit`'s NNLS produces): an unknown name
        would silently price every conv at 0 ns, a NaN poisons every
        prediction.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"calibration document must be an object, got {type(doc).__name__}"
            )
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema_version {version!r} != supported {SCHEMA_VERSION}")
        coeffs = doc.get("coeffs")
        if not isinstance(coeffs, dict) or not coeffs:
            raise ValueError("calibration file has no coefficients")
        unknown = sorted(set(coeffs) - set(FEATURES))
        if unknown:
            raise ValueError(f"unknown coefficients {unknown}; known: {list(FEATURES)}")
        for name, value in coeffs.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"coefficient {name!r} must be a finite number >= 0, got {value!r}"
                )
        stats = doc.get("stats", {})
        if not isinstance(stats, dict):
            raise ValueError(f"stats must be an object, got {type(stats).__name__}")
        return cls(
            host=str(doc.get("host", "unknown")),
            coeffs={k: float(v) for k, v in coeffs.items()},
            fitted=bool(doc.get("fitted", True)),
            created=str(doc.get("created", "")),
            stats=dict(stats),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationModel":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        model = cls.from_json(doc)
        return model


def default_model() -> CalibrationModel:
    """The hand-set fallback model (the analogue of ``calibration.py``)."""
    return CalibrationModel(host="default", coeffs=dict(DEFAULT_COEFFS), fitted=False)


def host_key() -> str:
    """This machine's calibration key, sanitised for file names."""
    node = platform.node() or "unknown"
    return re.sub(r"[^A-Za-z0-9._-]", "_", node) or "unknown"


def calibration_path(directory: str | Path = ".") -> Path:
    """``CALIB_<host>.json`` under ``directory`` for this machine."""
    return Path(directory) / f"CALIB_{host_key()}.json"


# --------------------------------------------------------------------------
# Activation (explicit — never changes modeled suites by mere presence)
# --------------------------------------------------------------------------

_ACTIVE: CalibrationModel | None = None
#: Bumped on every (de)activation; cached per-row predictions (the runtime
#: executable's, the registry's) key on it to notice model swaps.
_GENERATION = 0


def activate(source: CalibrationModel | str | Path | None = None) -> CalibrationModel:
    """Make a calibration the process-wide active model.

    ``source`` may be a model, a path, or ``None`` (load
    ``CALIB_<host>.json`` from the working directory).  From then on
    :func:`repro.gpusim.perfmodel.estimate_conv` predicts machine
    wallclock instead of modeled-GPU time, until :func:`deactivate`.
    """
    global _ACTIVE, _GENERATION
    if source is None:
        source = calibration_path()
    model = (
        source
        if isinstance(source, CalibrationModel)
        else CalibrationModel.load(source)
    )
    _ACTIVE = model
    _GENERATION += 1
    return model


def deactivate() -> None:
    """Drop the active calibration (back to the analytic device model)."""
    global _ACTIVE, _GENERATION
    _ACTIVE = None
    _GENERATION += 1


@contextlib.contextmanager
def activated(source: CalibrationModel | str | Path | None = None) -> Iterator[CalibrationModel]:
    """Scope an activation (tests, bench suites); restores the prior model."""
    prev = _ACTIVE
    model = activate(source)
    try:
        yield model
    finally:
        if prev is None:
            deactivate()
        else:
            activate(prev)


def active_model() -> CalibrationModel | None:
    """The explicitly activated calibration, or ``None``."""
    return _ACTIVE


def resolve_model() -> CalibrationModel:
    """Active calibration if any, else the hand-set default coefficients."""
    return _ACTIVE if _ACTIVE is not None else default_model()


def generation() -> int:
    """Activation epoch — changes whenever the active model does."""
    return _GENERATION


# --------------------------------------------------------------------------
# Measurement + fit
# --------------------------------------------------------------------------


def measure_suite(
    shapes: Sequence[tuple[int, int, int, int, int, int]] = CALIB_SMOKE_SHAPES,
    *,
    reps: int = 3,
    warmup: int = 1,
    seed: int = 20260808,
) -> list[CalibSample]:
    """Wallclock the compiled runtime over ``shapes``; one sample per shape.

    Warm-cache medians (executable + filter transforms resolved before the
    timed reps): the steady state the ledger and the serve scheduler both
    predict for.
    """
    from .. import runtime  # lazy: runtime is above gpusim in the import DAG
    from ..bench.harness import measure_ns

    rng = np.random.default_rng(seed)
    samples: list[CalibSample] = []
    for batch, ih, iw, ic, oc, alpha in shapes:
        x = rng.standard_normal((batch, ih, iw, ic)).astype(np.float32)
        w = rng.standard_normal((oc, 3, 3, ic)).astype(np.float32)
        timing = measure_ns(
            lambda x=x, w=w, alpha=alpha: runtime.convolve(x, w, alpha=alpha),
            reps=reps,
            warmup=warmup,
        )
        unit = ConvShape(
            batch=1, ih=ih, iw=iw, ic=ic, oc=oc, fh=3, fw=3, ph=1, pw=1, stride=1
        )
        plan = plan_convolution(unit, alpha=alpha)
        samples.append(
            CalibSample(
                label=f"{batch}x{ih}x{iw}x{ic}-{oc}a{alpha}",
                features=conv_features(plan, batch),
                measured_ns=timing.median_ns,
            )
        )
    return samples


def fit(samples: Sequence[CalibSample], *, host: str | None = None) -> CalibrationModel:
    """Non-negative least-squares fit of the coefficients over ``samples``.

    The solve minimises *relative* error — each row is divided by its
    measured ns, so ``min Σ ((pred - measured) / measured)²`` — because the
    gated metric is percent error and an absolute-ns objective would let
    the largest shape dominate the fit.  Columns are then scaled to unit
    max for conditioning (the terms span ~9 orders of magnitude); negative
    rates are physically meaningless, so the solve is NNLS (scipy) with a
    clamped-lstsq fallback.
    """
    if len(samples) < 2:
        raise ValueError(f"need at least 2 samples to fit, got {len(samples)}")
    a = np.asarray([[s.features.get(k, 0.0) for k in FEATURES] for s in samples])
    y = np.asarray([s.measured_ns for s in samples], dtype=float)
    weights = 1.0 / np.maximum(y, 1.0)
    aw = a * weights[:, None]
    yw = y * weights  # all ones, but kept explicit for the zero-guard above
    scale = np.maximum(aw.max(axis=0), 1e-12)
    try:
        from scipy.optimize import nnls

        scaled, _ = nnls(aw / scale, yw)
    except ImportError:  # pragma: no cover - scipy is a declared dependency
        scaled, *_ = np.linalg.lstsq(aw / scale, yw, rcond=None)
        scaled = np.maximum(scaled, 0.0)
    coeffs = {k: float(c / s) for k, c, s in zip(FEATURES, scaled, scale)}
    model = CalibrationModel(
        host=host if host is not None else host_key(),
        coeffs=coeffs,
        fitted=True,
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    errors = [prediction_error_pct(model, s) for s in samples]
    base = default_model()
    base_errors = [prediction_error_pct(base, s) for s in samples]
    model.stats.update(
        {
            "samples": len(samples),
            "labels": [s.label for s in samples],
            "mean_abs_error_pct": float(np.mean(errors)),
            "max_abs_error_pct": float(np.max(errors)),
            "uncalibrated_mean_abs_error_pct": float(np.mean(base_errors)),
            "uncalibrated_max_abs_error_pct": float(np.max(base_errors)),
        }
    )
    return model


def prediction_error_pct(model: CalibrationModel, sample: CalibSample) -> float:
    """Absolute prediction error of ``model`` on ``sample``, in percent."""
    if sample.measured_ns <= 0:
        return 0.0
    return abs(model.predict_ns(sample.features) - sample.measured_ns) / sample.measured_ns * 100.0


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def _fit_table(model: CalibrationModel, samples: Sequence[CalibSample]) -> str:
    from ..bench.harness import table

    base = default_model()
    rows = []
    for s in samples:
        rows.append(
            [
                s.label,
                f"{s.measured_ns / 1e6:.3f}",
                f"{model.predict_ns(s.features) / 1e6:.3f}",
                f"{prediction_error_pct(model, s):.1f}%",
                f"{base.predict_ns(s.features) / 1e6:.3f}",
                f"{prediction_error_pct(base, s):.1f}%",
            ]
        )
    return table(
        ["shape", "measured ms", "fitted ms", "err", "hand-set ms", "err"], rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gpusim.calibrate",
        description="Fit / inspect the per-machine wallclock cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="measure the suite and fit CALIB_<host>.json")
    fit_p.add_argument("--reps", type=int, default=3, help="timed reps per shape")
    fit_p.add_argument(
        "--out", default=".", metavar="DIR", help="directory for CALIB_<host>.json"
    )
    fit_p.add_argument("--no-save", action="store_true", help="fit without persisting")
    fit_p.add_argument("--json", action="store_true", help="emit the model as JSON")

    show = sub.add_parser("show", help="print a calibration file")
    show.add_argument(
        "path", nargs="?", default=None, help="default: ./CALIB_<host>.json"
    )

    pred = sub.add_parser("predict", help="predict one conv's wallclock")
    pred.add_argument("--shape", required=True, metavar="NxHxWxC", help="input shape")
    pred.add_argument("--oc", type=int, default=None, help="output channels (= C)")
    pred.add_argument("--alpha", type=int, default=None)
    pred.add_argument("--variant", default=None)
    pred.add_argument(
        "--calib", default=None, metavar="PATH",
        help="calibration file (default: CALIB_<host>.json if present, else hand-set)",
    )

    args = parser.parse_args(argv)

    if args.command == "fit":
        samples = measure_suite(reps=args.reps)
        model = fit(samples)
        if args.json:
            print(json.dumps(model.to_json(), indent=2, sort_keys=True))
        else:
            print(_fit_table(model, samples))
            print(
                f"[calibrate] host {model.host}: mean abs error "
                f"{model.stats['mean_abs_error_pct']:.1f}% "
                f"(hand-set {model.stats['uncalibrated_mean_abs_error_pct']:.1f}%)"
            )
        if not args.no_save:
            path = model.save(calibration_path(args.out))
            print(f"[calibrate] wrote {path}", file=sys.stderr)
        return 0

    if args.command == "show":
        path = Path(args.path) if args.path else calibration_path()
        try:
            model = CalibrationModel.load(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(model.to_json(), indent=2, sort_keys=True))
        return 0

    # predict
    try:
        dims = [int(p) for p in re.split(r"[x,×]", args.shape.strip()) if p]
        if len(dims) != 4:
            raise ValueError(f"shape {args.shape!r} must be NxHxWxC")
        n, h, w_, c = dims
        shape = ConvShape(
            batch=n, ih=h, iw=w_, ic=c, oc=args.oc or c,
            fh=3, fw=3, ph=1, pw=1, stride=1,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.calib:
        try:
            model = CalibrationModel.load(args.calib)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        default_path = calibration_path()
        model = (
            CalibrationModel.load(default_path)
            if default_path.exists()
            else default_model()
        )
    ns = model.predict_conv_ns(shape, alpha=args.alpha, variant=args.variant)
    source = "fitted" if model.fitted else "hand-set defaults"
    print(
        f"[calibrate] {args.shape} -> oc={shape.oc}: predicted "
        f"{ns / 1e6:.3f} ms/call ({ns / 1e6 / shape.batch:.3f} ms/row, "
        f"{source}, host {model.host})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
