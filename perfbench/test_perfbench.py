"""Tests of the benchmark itself, at test scale.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import common, compare, workloads  # noqa: E402

CATALOG = common.catalog()
WORKLOADS = [w["name"] for w in CATALOG["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Traced ratios that are shares of a whole; the trace overhead may go negative.
SHARE = re.compile(r".*(_frac|hit_rate)$")


def digest(arrays: list[np.ndarray]) -> str:
    """Content digest of generated inputs: shape, dtype and bytes."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.shape}{arr.dtype}".encode() + arr.tobytes())
    return h.hexdigest()


def run_workload(name: str, trace: bool, cwd: Path = ROOT, seconds: float = 2.0) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [*CATALOG["command"], "--workload", name, "--seed", "0", "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if cwd == ROOT:
        cmd.append("--quick")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_catalog_is_well_formed() -> None:
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(CATALOG["run_seconds"], int) and 1 <= CATALOG["run_seconds"] <= 60
    assert 1 <= len(CATALOG["paths"]) <= 16
    for path in CATALOG["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and (ROOT / path).is_dir()
    assert len(CATALOG["command"]) <= 32 and all(len(a) <= 200 for a in CATALOG["command"])
    assert 2 <= len(CATALOG["workloads"]) <= 8
    for w in CATALOG["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert sorted(WORKLOADS) == sorted(workloads.MODULES)
    assert 1 <= len(CATALOG["end_to_end"]) <= 16 and 1 <= len(CATALOG["per_layer"]) <= 128
    for m in CATALOG["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in CATALOG["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in (*CATALOG["workloads"], *CATALOG["end_to_end"], *CATALOG["per_layer"])]
    assert len(names) == len(set(names))
    for m in (*CATALOG["end_to_end"], *CATALOG["per_layer"]):
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CATALOG["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_run_emits_every_metric_with_its_unit(name: str, trace: bool) -> None:
    proc = run_workload(name, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = common.metric_units(trace)
    assert set(result["metrics"]) == set(units)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key] and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, key
        elif SHARE.fullmatch(key) and key != "obs.trace_overhead_frac":
            assert 0.0 <= metric["value"] <= 1.0, (key, metric["value"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_the_same_inputs(name: str) -> None:
    module = workloads.load(name)
    first = digest(module.inputs(3, quick=False))
    assert digest(module.inputs(3, quick=False)) == first
    assert digest(module.inputs(4, quick=False)) != first


def test_one_ulp_flip_is_counted(monkeypatch: pytest.MonkeyPatch) -> None:
    from perfbench.workloads import conv_kernels

    convolve = conv_kernels.convolve

    def flipped(x: np.ndarray, w: np.ndarray, **kw: object) -> np.ndarray:
        y = convolve(x, w, **kw)
        if w.shape[1] == 3:  # the two Γ8(6,3) shapes: one element, one ulp
            y.flat[0] = np.nextafter(y.flat[0], np.float32(np.inf))
        return y

    monkeypatch.setattr(conv_kernels, "convolve", flipped)
    ctx = common.Context(workload="conv-kernels", seed=0, seconds=0.2, trace=False, quick=True)
    outcome = conv_kernels.run(ctx)
    assert outcome.failed == 2 * outcome.attempted // len(conv_kernels.SHAPES) > 0
    assert json.loads(common.result_line(outcome, trace=False))["correct"] is False


def test_bit_identity_distinguishes_signed_zero() -> None:
    a = np.zeros(4, dtype=np.float32)
    assert common.same_bits(a, a.copy())
    assert not common.same_bits(a, -a)
    assert not common.same_bits(a, a.astype(np.float64))


def test_verdict_rule() -> None:
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
    faster = [p * 1.2 for p in parent]
    assert compare.verdict(parent, faster, "higher", 0.1) == (1.0, "improved")
    assert compare.verdict(parent, parent[::-1], "higher", 0.1)[1] == "no-worse"
    assert compare.verdict(parent, [p * 0.8 for p in parent], "higher", 0.1)[1] == "regressed"
    assert compare.verdict(parent, [p * 0.8 for p in parent], "lower", 0.1)[1] == "improved"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, [n * 0.95 for n in noisy], "higher", 0.1)[1] == "unresolved"


def test_fails_without_the_program(tmp_path: Path) -> None:
    """Given only BENCHMARK.json and the benchmark's files, a run must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CATALOG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_workload(WORKLOADS[0], trace=False, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
