"""Declarative SLOs: good/bad-event ratios and multi-window burn rates.

An SLO here is the serving promise the ROADMAP's "millions of users" north
star implies, stated as a target over a window: *"at least
``1 - error_rate_target`` of requests complete successfully within
``latency_target_ms``, measured over ``window_s`` seconds"*.  Each request
becomes one **good** event (completed, on time) or one **bad** event
(errored, rejected, expired, or slower than the latency target).

Burn-rate math (the SRE-workbook multi-window form)
---------------------------------------------------
The *error budget* is the allowed bad fraction, ``error_rate_target``.
The **burn rate** of a window is::

    burn = (bad / (good + bad)) / error_rate_target

so ``burn == 1`` spends the budget exactly at the sustainable rate,
``burn == 10`` exhausts a whole window's budget in a tenth of the window.
One window cannot distinguish "brief blip" from "sustained incident", so
two are evaluated:

* a **fast** window (``fast_window_s``) that reacts within seconds, and
* the full **slow** window (``window_s``) that confirms the burn is real.

The tracker reports *fast burn* — the condition ``/healthz`` degrades to
503 on — only when the fast window burns at ``fast_burn_threshold``×
budget **and** the slow window confirms at ``slow_burn_threshold``× : the
fast window gives the reaction time, the slow window the evidence, and
requiring both is what keeps one slow request from flapping the health
check.  Recovery is symmetric: once errors stop, the fast window drains
first and the condition clears.

The scheduler's flush loop evaluates the tracker and mirrors the result as
``serve.slo.*`` gauges; ``python -m repro.obs.slo`` evaluates a recorded
latency sample offline (a JSON array, or ``--demo``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["SLOConfig", "SLOStatus", "SLOTracker", "evaluate_sample", "main"]


@dataclass(frozen=True)
class SLOConfig:
    """One serving objective: latency target, error budget, windows."""

    #: A request slower than this is a bad event even if it succeeded
    #: (the pXX latency promise; which quantile it pins is decided by the
    #: budget below: budget 0.01 makes this a p99 target).
    latency_target_ms: float = 250.0
    #: Allowed bad-event fraction (the error budget).  0.01 = 99% SLO.
    error_rate_target: float = 0.01
    #: Slow (confirming) window.
    window_s: float = 300.0
    #: Fast (reacting) window.
    window_slices: int = 10
    fast_window_s: float = 30.0
    #: Burn multiples that constitute a fast burn (see module docstring).
    fast_burn_threshold: float = 10.0
    slow_burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_target_ms <= 0:
            raise ValueError(f"latency_target_ms must be > 0, got {self.latency_target_ms}")
        if not 0.0 < self.error_rate_target < 1.0:
            raise ValueError(
                f"error_rate_target must be in (0, 1), got {self.error_rate_target}"
            )
        if self.fast_window_s <= 0 or self.window_s < self.fast_window_s:
            raise ValueError(
                f"need 0 < fast_window_s <= window_s, got "
                f"{self.fast_window_s} / {self.window_s}"
            )
        if self.window_slices < 1:
            raise ValueError(f"window_slices must be >= 1, got {self.window_slices}")

    @property
    def objective(self) -> float:
        """The availability objective, e.g. 0.99 for a 1% budget."""
        return 1.0 - self.error_rate_target


@dataclass
class SLOStatus:
    """One evaluation of the tracker: ratios, burn rates, the verdict."""

    good: int = 0
    bad: int = 0
    fast_good: int = 0
    fast_bad: int = 0
    error_rate: float = 0.0
    fast_error_rate: float = 0.0
    burn_rate_slow: float = 0.0
    burn_rate_fast: float = 0.0
    fast_burn: bool = False
    budget_remaining: float = 1.0

    @property
    def total(self) -> int:
        return self.good + self.bad

    def as_dict(self) -> dict[str, Any]:
        return {
            "good": self.good,
            "bad": self.bad,
            "error_rate": self.error_rate,
            "fast_error_rate": self.fast_error_rate,
            "burn_rate_slow": self.burn_rate_slow,
            "burn_rate_fast": self.burn_rate_fast,
            "fast_burn": self.fast_burn,
            "budget_remaining": self.budget_remaining,
        }


class _EventWindow:
    """Good/bad counts over a sliding window, as rotating sub-slices."""

    def __init__(self, window_s: float, slices: int, clock: Callable[[], float]) -> None:
        self.window_s = window_s
        self.slice_s = window_s / slices
        self._clock = clock
        self._ring: list[list[float]] = []  # [start_s, good, bad]

    def record(self, good: bool, now: float | None = None) -> None:
        now = self._clock() if now is None else now
        self._trim(now)
        if not self._ring or now - self._ring[-1][0] >= self.slice_s:
            self._ring.append([now, 0, 0])
        self._ring[-1][1 if good else 2] += 1

    def counts(self, now: float | None = None) -> tuple[int, int]:
        now = self._clock() if now is None else now
        self._trim(now)
        good = int(sum(s[1] for s in self._ring))
        bad = int(sum(s[2] for s in self._ring))
        return good, bad

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        while self._ring and self._ring[0][0] + self.slice_s <= horizon:
            self._ring.pop(0)


class SLOTracker:
    """Feed request outcomes in, read burn rates out.  Not thread-safe by
    itself — the scheduler serialises ``record`` under its stats lock."""

    def __init__(
        self, config: SLOConfig, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.config = config
        self._clock = clock
        self._slow = _EventWindow(config.window_s, config.window_slices, clock)
        self._fast = _EventWindow(
            config.fast_window_s,
            max(1, config.window_slices // 2),
            clock,
        )

    def record(self, latency_ms: float, *, error: bool = False) -> bool:
        """Record one request outcome; returns whether it was good."""
        good = (not error) and latency_ms <= self.config.latency_target_ms
        now = self._clock()
        self._slow.record(good, now)
        self._fast.record(good, now)
        return good

    def evaluate(self) -> SLOStatus:
        now = self._clock()
        good, bad = self._slow.counts(now)
        fgood, fbad = self._fast.counts(now)
        cfg = self.config
        err = bad / (good + bad) if good + bad else 0.0
        ferr = fbad / (fgood + fbad) if fgood + fbad else 0.0
        burn_slow = err / cfg.error_rate_target
        burn_fast = ferr / cfg.error_rate_target
        return SLOStatus(
            good=good,
            bad=bad,
            fast_good=fgood,
            fast_bad=fbad,
            error_rate=err,
            fast_error_rate=ferr,
            burn_rate_slow=burn_slow,
            burn_rate_fast=burn_fast,
            fast_burn=(
                burn_fast >= cfg.fast_burn_threshold
                and burn_slow >= cfg.slow_burn_threshold
            ),
            budget_remaining=max(0.0, 1.0 - burn_slow),
        )

    def gauges(self) -> dict[str, float]:
        """The ``serve.slo.*`` gauge values of one evaluation."""
        st = self.evaluate()
        return {
            "serve.slo.good": float(st.good),
            "serve.slo.bad": float(st.bad),
            "serve.slo.error_rate": st.error_rate,
            "serve.slo.burn_rate_fast": st.burn_rate_fast,
            "serve.slo.burn_rate_slow": st.burn_rate_slow,
            "serve.slo.fast_burn": float(st.fast_burn),
            "serve.slo.budget_remaining": st.budget_remaining,
        }


# --------------------------------------------------------------------------
# Offline evaluation + CLI
# --------------------------------------------------------------------------


def evaluate_sample(
    latencies_ms: Sequence[float],
    config: SLOConfig,
    *,
    errors: int = 0,
) -> SLOStatus:
    """Evaluate a recorded latency sample (plus ``errors`` failed requests)
    against ``config`` as if the whole sample fell inside the slow window."""
    good = sum(1 for v in latencies_ms if v <= config.latency_target_ms)
    bad = len(latencies_ms) - good + errors
    total = good + bad
    err = bad / total if total else 0.0
    burn = err / config.error_rate_target
    return SLOStatus(
        good=good,
        bad=bad,
        fast_good=good,
        fast_bad=bad,
        error_rate=err,
        fast_error_rate=err,
        burn_rate_slow=burn,
        burn_rate_fast=burn,
        fast_burn=burn >= config.fast_burn_threshold,
        budget_remaining=max(0.0, 1.0 - burn),
    )


def _load_latencies(path: str) -> tuple[list[float], int]:
    """Latencies (+ error count) from a JSON file.

    Accepts a bare array of milliseconds, or an object with
    ``latencies_ms`` / ``errors`` keys.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        return [float(v) for v in doc], 0
    if isinstance(doc, dict) and "latencies_ms" in doc:
        errs = doc.get("errors", 0)
        nerr = sum(errs.values()) if isinstance(errs, dict) else int(errs)
        return [float(v) for v in doc["latencies_ms"]], nerr
    raise SystemExit(
        f'{path}: expected a JSON array of latencies or an object with "latencies_ms"'
    )


def _report(status: SLOStatus, config: SLOConfig) -> str:
    verdict = (
        "FAST BURN — page"
        if status.fast_burn
        else ("burning" if status.burn_rate_slow > 1.0 else "within budget")
    )
    return "\n".join(
        [
            f"[slo] objective: {config.objective * 100:g}% of requests "
            f"<= {config.latency_target_ms:g} ms over {config.window_s:g}s",
            f"  events: {status.good} good / {status.bad} bad "
            f"({status.error_rate * 100:.3f}% bad, budget "
            f"{config.error_rate_target * 100:g}%)",
            f"  burn rate: slow {status.burn_rate_slow:.2f}x  "
            f"fast {status.burn_rate_fast:.2f}x  "
            f"(thresholds {config.slow_burn_threshold:g}/"
            f"{config.fast_burn_threshold:g})",
            f"  budget remaining (window): {status.budget_remaining * 100:.1f}%",
            f"  verdict: {verdict}",
        ]
    )


def _demo(config: SLOConfig) -> int:
    """Synthetic incident: healthy traffic, an error burst, recovery."""
    t = [0.0]
    tracker = SLOTracker(config, clock=lambda: t[0])
    print(f"[slo demo] fast window {config.fast_window_s:g}s, "
          f"slow window {config.window_s:g}s, budget "
          f"{config.error_rate_target * 100:g}%")
    phases = [
        ("healthy", 200, 0.0),
        ("incident", 100, 0.5),
        ("recovered", 200, 0.0),
    ]
    for name, n, error_rate in phases:
        for i in range(n):
            t[0] += config.fast_window_s / 50.0
            err = (i % max(1, int(1 / error_rate)) == 0) if error_rate else False
            tracker.record(config.latency_target_ms * 0.5, error=err)
        st = tracker.evaluate()
        print(
            f"  after {name:>10}: burn fast={st.burn_rate_fast:6.2f}x "
            f"slow={st.burn_rate_slow:6.2f}x  fast_burn={st.fast_burn}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.slo",
        description="Evaluate a latency sample against an SLO (burn-rate report).",
    )
    parser.add_argument("latencies", nargs="?", default=None,
                        help="JSON file: array of ms, or an object with latencies_ms")
    parser.add_argument("--target-ms", type=float, default=250.0,
                        help="latency target in ms (default 250)")
    parser.add_argument("--error-budget", type=float, default=0.01,
                        help="allowed bad fraction (default 0.01 = 99%% SLO)")
    parser.add_argument("--window-s", type=float, default=300.0,
                        help="slow window seconds (default 300)")
    parser.add_argument("--fast-window-s", type=float, default=30.0,
                        help="fast window seconds (default 30)")
    parser.add_argument("--fast-burn", type=float, default=10.0,
                        help="fast-burn threshold in budget multiples (default 10)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--demo", action="store_true",
                        help="run a synthetic incident through the tracker")
    args = parser.parse_args(argv)
    config = SLOConfig(
        latency_target_ms=args.target_ms,
        error_rate_target=args.error_budget,
        window_s=args.window_s,
        fast_window_s=args.fast_window_s,
        fast_burn_threshold=args.fast_burn,
    )
    if args.demo:
        return _demo(config)
    if args.latencies is None:
        parser.error("a latencies file is required unless --demo is given")
    latencies, errors = _load_latencies(args.latencies)
    status = evaluate_sample(latencies, config, errors=errors)
    if args.json:
        print(json.dumps({"config": {
            "latency_target_ms": config.latency_target_ms,
            "error_rate_target": config.error_rate_target,
            "window_s": config.window_s,
        }, **status.as_dict()}, indent=2))
    else:
        print(_report(status, config))
    return 1 if status.fast_burn else 0


if __name__ == "__main__":
    sys.exit(main())
