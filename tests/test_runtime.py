"""Tests for the compiled-plan runtime (:mod:`repro.runtime`).

The contract under test is the one the runtime ships on: **bit-identical**
outputs to the legacy interpreted path (``conv2d_im2col_winograd`` with
``legacy=True``) — so the default path's bits never changed across the
runtime switch — cuDNN-style plan-cache behaviour (hit on repeat, miss on
new signature, bounded eviction), a filter-transform cache that matches
weights bit for bit and so notices in-place weight mutation, and
arithmetic-neutral workspace chunking (it changes scheduling, never bits).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs, runtime
from repro.analysis.engine import analyze_plan
from repro.baselines.gemm import conv2d_gemm
from repro.core import rowblocks
from repro.core.boundary import Segment
from repro.core.fused import conv2d_im2col_winograd, winograd_segment
from repro.core.kernels import get_kernel
from repro.core.transforms import winograd_matrices
from repro.nhwc.tensor import im2col_nhwc
from repro.runtime import cache_stats, clear_cache, configure, executable
from repro.runtime.cache import DEFAULT_CAPACITY, global_cache
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.runtime.executable import FILTER_CACHE_SLOTS
from repro.runtime.signature import ConvSignature


@pytest.fixture(autouse=True)
def _fresh_runtime():
    """Each test sees an empty plan cache and the default workspace budget."""
    clear_cache()
    configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    global_cache().resize(DEFAULT_CAPACITY)
    yield
    clear_cache()
    configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    global_cache().resize(DEFAULT_CAPACITY)


def legacy_exact(x: np.ndarray, w: np.ndarray, **kw) -> np.ndarray:
    """The legacy interpreted path, the runtime's bit-exact oracle."""
    return conv2d_im2col_winograd(x, w, legacy=True, **kw)


class TestBitIdenticalEquivalence:
    """Runtime output == legacy output, to the bit, across the plan space."""

    # (N, IH, IW, IC, OC) exercising ragged boundaries (Winograd tiles +
    # GEMM tail), exact tiling (no tail), and a GEMM-only plan (OW < n).
    SHAPES = [
        (2, 9, 23, 3, 5),  # ragged: tail columns after the tiled span
        (1, 8, 18, 4, 4),  # exact tiling for n=6 (OW = 18)
        (2, 5, 4, 3, 2),  # GEMM-only: OW below every tile width
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "alpha,variant", [(4, "base"), (4, "ruse"), (8, "base"), (16, "base")]
    )
    def test_variants_and_alphas(self, rng, shape, alpha, variant):
        n, ih, iw, ic, oc = shape
        x = rng.standard_normal((n, ih, iw, ic)).astype(np.float32)
        w = rng.standard_normal((oc, 3, 3, ic)).astype(np.float32)
        want = legacy_exact(x, w, alpha=alpha, variant=variant)
        got = runtime.convolve(x, w, alpha=alpha, variant=variant)
        np.testing.assert_array_equal(got, want)

    def test_c64_variant(self, rng):
        x = rng.standard_normal((1, 7, 30, 64)).astype(np.float32)
        w = rng.standard_normal((64, 3, 3, 64)).astype(np.float32)
        want = legacy_exact(x, w, alpha=16, variant="c64")
        got = runtime.convolve(x, w, alpha=16, variant="c64")
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16])
    def test_dtypes(self, rng, dtype):
        x = rng.standard_normal((2, 6, 20, 5)).astype(dtype)
        w = rng.standard_normal((4, 3, 3, 5)).astype(dtype)
        want = legacy_exact(x, w, alpha=8, dtype=dtype)
        got = runtime.convolve(x, w, alpha=8, dtype=dtype)
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want)

    def test_rect_filter_and_zero_padding(self, rng):
        x = rng.standard_normal((2, 7, 19, 3)).astype(np.float32)
        w = rng.standard_normal((5, 2, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            runtime.convolve(x, w, alpha=8), legacy_exact(x, w, alpha=8)
        )
        np.testing.assert_array_equal(
            runtime.convolve(x, w, ph=0, pw=0, alpha=8),
            legacy_exact(x, w, ph=0, pw=0, alpha=8),
        )

    def test_default_path_routes_through_runtime(self, rng):
        """``conv2d_im2col_winograd`` without ``legacy=True`` hits the cache."""
        x = rng.standard_normal((1, 6, 17, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        before = cache_stats().misses
        got = conv2d_im2col_winograd(x, w)
        assert cache_stats().misses == before + 1
        np.testing.assert_array_equal(got, legacy_exact(x, w))

    #: The four Figure 8 Γ8(6,3) geometries of the paper's 3x3 panel at
    #: batch 1 (IC = OC up to 512, maps up to 64x64), past the small draws
    #: of the property tests.
    FIG8_G8 = [
        (1, 8, 8, 512, 512), (1, 16, 16, 256, 256), (1, 32, 32, 128, 128), (1, 64, 64, 64, 64),
    ]

    @pytest.mark.parametrize(
        "shape", [(1, 6, 19, 96, 5), *FIG8_G8], ids=lambda s: "x".join(map(str, s))
    )
    def test_deep_channels_match_legacy(self, rng, shape):
        """Deep channels: the runtime default and the legacy default agree
        bit for bit on both entry points."""
        n, ih, iw, ic, oc = shape
        x = rng.standard_normal((n, ih, iw, ic)).astype(np.float32)
        w = rng.standard_normal((oc, 3, 3, ic)).astype(np.float32)
        want = conv2d_im2col_winograd(x, w, alpha=8, legacy=True)
        np.testing.assert_array_equal(conv2d_im2col_winograd(x, w, alpha=8), want)
        np.testing.assert_array_equal(runtime.convolve(x, w, alpha=8), want)

    def test_validation_errors_match_legacy(self, rng):
        x = rng.standard_normal((1, 6, 17, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 5)).astype(np.float32)
        with pytest.raises(ValueError, match="channel"):
            runtime.convolve(x, w)
        with pytest.raises(ValueError, match="4D"):
            runtime.convolve(x[0], w)


class TestPlanCache:
    def test_hit_on_repeat(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        runtime.convolve(x, w)
        runtime.convolve(x, w)
        s = cache_stats()
        assert (s.misses, s.hits, s.size) == (1, 1, 1)
        assert s.hit_rate == pytest.approx(0.5)

    def test_miss_on_new_signature(self, rng):
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        for iw in (12, 13, 14):
            x = rng.standard_normal((1, 5, iw, 3)).astype(np.float32)
            runtime.convolve(x, w)
        s = cache_stats()
        assert (s.misses, s.hits) == (3, 0)

    def test_bounded_eviction(self, rng):
        global_cache().resize(2)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        for iw in (12, 13, 14):
            x = rng.standard_normal((1, 5, iw, 3)).astype(np.float32)
            runtime.convolve(x, w)
        s = cache_stats()
        assert s.evictions >= 1
        assert len(global_cache()) <= 2
        # The evicted signature recompiles (a fresh miss), correctly.
        x = rng.standard_normal((1, 5, 12, 3)).astype(np.float32)
        np.testing.assert_array_equal(runtime.convolve(x, w), legacy_exact(x, w))

    def test_cache_hits_observable_via_obs(self, rng):
        obs.disable()
        obs.reset()
        obs.get_registry().reset()
        try:
            obs.enable()
            x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
            w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
            runtime.convolve(x, w)
            runtime.convolve(x, w)
            reg = obs.get_registry()
            assert reg.counter("runtime.cache.misses").total() == 1
            assert reg.counter("runtime.cache.hits").total() == 1
        finally:
            obs.disable()
            obs.reset()
            obs.get_registry().reset()


class TestFilterCache:
    def _exe(self, x, w):
        sig = ConvSignature.for_operands(x, w)
        return runtime.get_executable(sig)

    def test_repeat_weights_reuse_transforms(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        exe = self._exe(x, w)
        exe(x, w)
        exe(x, w)
        assert exe.cached_filter_versions == 1

    def test_inplace_mutation_is_a_miss(self, rng):
        """The exact compare notices optimizers mutating ``w.data`` in place."""
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        exe = self._exe(x, w)
        exe(x, w)
        w *= 0.5  # in place: same array object, new contents
        got = exe(x, w)
        assert exe.cached_filter_versions == 2
        np.testing.assert_array_equal(got, legacy_exact(x, w))

    def test_version_token_skips_hashing(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        exe = self._exe(x, w)
        y1 = exe(x, w, version=7)
        y2 = exe(x, w, version=7)
        assert exe.cached_filter_versions == 1
        np.testing.assert_array_equal(y1, y2)

    def test_filter_cache_is_bounded(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        exe = self._exe(x, np.zeros((2, 3, 3, 3), np.float32))
        for step in range(FILTER_CACHE_SLOTS + 2):
            w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
            exe(x, w, version=step)
        assert exe.cached_filter_versions <= FILTER_CACHE_SLOTS

    def test_one_ulp_flip_anywhere_is_a_miss(self, rng):
        """Lookups compare every bit, not just the sampled elements."""
        x = rng.standard_normal((1, 5, 13, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3, 3, 8)).astype(np.float32)
        exe = self._exe(x, w)
        bundle = exe.filter_bundle(w)
        for i in range(w.size):  # 576 elements, well past the sample
            flipped = w.copy()
            flipped.view(np.uint32).reshape(-1)[i] ^= 1
            assert exe.filter_bundle(flipped) is not bundle

    def test_signed_zero_is_a_miss(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        w[1, 2, 0, 1] = 0.0
        exe = self._exe(x, w)
        bundle = exe.filter_bundle(w)
        negative = w.copy()
        negative[1, 2, 0, 1] = -0.0
        assert np.array_equal(negative, w)  # equal as floats ...
        assert exe.filter_bundle(negative) is not bundle  # ... not as bits

    def test_nan_payloads_are_compared_as_bits(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        w.view(np.uint32)[0, 0, 0, 0] = 0x7FC00001
        exe = self._exe(x, w)
        bundle = exe.filter_bundle(w)
        assert exe.filter_bundle(w.copy()) is bundle  # NaN != NaN, bits equal
        other = w.copy()
        other.view(np.uint32)[0, 0, 0, 0] = 0x7FC00002
        assert exe.filter_bundle(other) is not bundle

    def test_equal_copy_at_another_address_is_a_hit(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        exe = self._exe(x, w)
        bundle = exe.filter_bundle(w)
        assert exe.filter_bundle(w.copy()) is bundle
        # A non-contiguous view of equal contents matches as well.
        transposed = np.ascontiguousarray(w.transpose(3, 1, 2, 0)).transpose(3, 1, 2, 0)
        assert exe.filter_bundle(transposed) is bundle
        assert exe.cached_filter_versions == 1

    def test_inplace_optimizer_update_misses_once(self, rng):
        x = rng.standard_normal((2, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        grad = rng.standard_normal(w.shape).astype(np.float32)
        exe = self._exe(x, w)
        with obs.capture():
            exe(x, w)
            w -= 0.01 * grad  # an SGD step: same array object, new contents
            got = exe(x, w)
            exe(x, w)
            reg = obs.get_registry()
            assert reg.counter("runtime.filter_cache.misses").total() == 2
            assert reg.counter("runtime.filter_cache.hits").total() == 1
        np.testing.assert_array_equal(got, legacy_exact(x, w))

    def test_cached_source_is_a_private_copy(self, rng):
        """Mutating the caller's array cannot rewrite a slot's reference bits."""
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        exe = self._exe(x, w)
        old = exe.filter_bundle(w)
        w *= 0.5
        assert exe.filter_bundle(w) is not old

    def test_caller_held_bundle_counts_a_hit(self, rng):
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        exe = self._exe(x, w)
        with obs.capture():
            bundle = exe.build_bundle(w)
            y = exe(x, w, bundle=bundle)
            exe(x, w, bundle=bundle)
            reg = obs.get_registry()
            assert reg.counter("runtime.filter_cache.misses").total() == 1
            assert reg.counter("runtime.filter_cache.hits").total() == 2
        assert exe.cached_filter_versions == 0  # the caller holds it
        np.testing.assert_array_equal(y, legacy_exact(x, w))

    def test_concurrent_lookups_return_their_own_weights(self, rng):
        """Threads sharing one executable never get another weight's bundle.

        More workers than cores and a short switch interval interleave the
        lock-free compares with inserts and evictions from other threads.
        """
        import sys
        import threading

        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        weights = [rng.standard_normal((2, 3, 3, 3)).astype(np.float32) for _ in range(6)]
        exe = self._exe(x, weights[0])
        errors: list[str] = []

        def worker(k: int) -> None:
            for i in range(60):
                w = weights[(i + k) % len(weights)]
                got = exe.filter_bundle(w).gemm_operand
                if not np.array_equal(got, w.transpose(1, 2, 3, 0).reshape(-1, 2)):
                    errors.append(f"worker {k} step {i}")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert exe.cached_filter_versions <= FILTER_CACHE_SLOTS


class TestDispatchNeutrality:
    """Workspace chunking never changes the bits."""

    def test_batch_chunking_bit_identical(self, rng):
        x = rng.standard_normal((5, 6, 20, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        want = runtime.convolve(x, w)
        np.testing.assert_array_equal(runtime.convolve(x, w, workspace_bytes=1 << 14), want)

    def test_counters_invariant_under_chunking_and_match_legacy(self, rng):
        """gather.* / winograd.* totals describe the *logical* work, so they
        must not drift with workspace chunking — and must equal what the
        legacy interpreted path reports for the same convolution."""
        x = rng.standard_normal((6, 6, 20, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        names = ["gather.calls", "gather.bytes", "winograd.segments", "winograd.tiles"]

        def totals(fn):
            with obs.capture(fresh=True):
                fn()
                reg = obs.get_registry()
                return {n: reg.counter(n).total() for n in names}

        legacy = totals(lambda: conv2d_im2col_winograd(x, w, legacy=True))
        one_chunk = totals(lambda: runtime.convolve(x, w))
        many_chunks = totals(lambda: runtime.convolve(x, w, workspace_bytes=1 << 12))
        assert one_chunk == legacy
        assert many_chunks == legacy


class TestWorkspaceBudgetValidation:
    """A chunk budget is an integer >= 1 wherever it is set."""

    @pytest.mark.parametrize("bad", [0, -5, True, False, 2.0, "64"])
    def test_every_setter_rejects_a_non_positive_or_non_integer_budget(self, rng, bad):
        x = rng.standard_normal((2, 6, 20, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        exe = runtime.get_executable(ConvSignature.for_operands(x, w))
        for set_budget in (
            lambda: configure(workspace_bytes=bad),
            lambda: runtime.convolve(x, w, workspace_bytes=bad),
            lambda: exe(x, w, workspace_bytes=bad),
        ):
            with pytest.raises(ValueError, match="workspace_bytes"):
                set_budget()
        with runtime.force_legacy(), pytest.raises(ValueError, match="workspace_bytes"):
            runtime.convolve(x, w, workspace_bytes=bad)
        assert executable._workspace_bytes == DEFAULT_WORKSPACE_BYTES
        want = legacy_exact(x, w)
        np.testing.assert_array_equal(runtime.convolve(x, w, workspace_bytes=np.int64(1)), want)


class TestStaticAnalysisOfCachedPlans:
    def test_cached_plans_pass_strict_analysis(self, rng):
        """Every plan the runtime compiles is clean under ``--strict``."""
        w64 = rng.standard_normal((64, 3, 3, 64)).astype(np.float32)
        cases = [
            (rng.standard_normal((1, 5, 23, 3)).astype(np.float32),
             rng.standard_normal((4, 3, 3, 3)).astype(np.float32), {}),
            (rng.standard_normal((1, 4, 16, 64)).astype(np.float32), w64,
             {"alpha": 8}),
            (rng.standard_normal((1, 4, 30, 64)).astype(np.float32), w64,
             {"alpha": 16, "variant": "c64"}),
        ]
        for x, w, kw in cases:
            runtime.convolve(x, w, **kw)
        exes = global_cache().executables()
        assert len(exes) == len(cases)
        for exe in exes:
            report = analyze_plan(exe.plan)
            assert report.errors == [], f"{exe.plan.reason}: {report.errors}"
            assert report.warnings == [], f"{exe.plan.reason}: {report.warnings}"


class TestGemmTailOperand:
    """The tail's im2col rows go straight into the row-blocked operand."""

    @staticmethod
    def _old_formula(x, w, start, width):
        # The columns' rows of the full im2col matrix, contracted in row blocks.
        n, ih, iw, ic = x.shape
        cols = im2col_nhwc(x, 3, 3, 1, 1).reshape(n, ih, iw, -1)[:, :, start : start + width]
        a = rowblocks.fold_filters(w)
        return rowblocks.matmul(cols.reshape(n * ih * width, -1), a, ih * width)

    def test_interior_segment_matches_im2col_rows(self, rng):
        x = rng.standard_normal((2, 4, 20, 3)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        got = rowblocks.conv_matmul(x, rowblocks.fold_filters(w), 3, 3, 1, 1, col0=10, width=4)
        want = self._old_formula(x, w, 10, 4).reshape(got.shape)
        np.testing.assert_array_equal(got, want)

    def test_edge_segment_matches_im2col_rows(self, rng):
        x = rng.standard_normal((2, 4, 20, 3)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        for start in (0, 17):
            got = rowblocks.conv_matmul(
                x, rowblocks.fold_filters(w), 3, 3, 1, 1, col0=start, width=3
            )
            want = self._old_formula(x, w, start, 3).reshape(got.shape)
            np.testing.assert_array_equal(got, want)


class TestGemmAlgorithm:
    """``algorithm="gemm"``: the engine rule's pick, compiled like any signature."""

    CASES = [(3, 5, 23, 3, 4, 3), (2, 7, 7, 8, 8, 1), (5, 2, 2, 64, 64, 3), (1, 9, 11, 5, 6, 5)]

    @pytest.mark.parametrize("n,ih,iw,ic,oc,k", CASES)
    def test_bit_identical_to_conv2d_gemm_compiled_and_legacy(self, rng, n, ih, iw, ic, oc, k):
        x = rng.standard_normal((n, ih, iw, ic)).astype(np.float32)
        w = rng.standard_normal((oc, k, k, ic)).astype(np.float32)
        want = conv2d_gemm(x, w, ph=k // 2, pw=k // 2)
        np.testing.assert_array_equal(runtime.convolve(x, w, algorithm="gemm"), want)
        with obs.capture():
            with runtime.force_legacy():
                got = runtime.convolve(x, w, algorithm="gemm")
            assert obs.get_registry().counter("runtime.degraded.calls").total() == 1
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            runtime.convolve(x, w, algorithm="gemm", workspace_bytes=1), want
        )

    def test_plan_is_one_gemm_segment_over_every_column(self, rng):
        x = rng.standard_normal((1, 6, 13, 4)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 4)).astype(np.float32)
        runtime.convolve(x, w, algorithm="gemm")
        runtime.convolve(x, w)
        exes = {exe.sig.algorithm: exe for exe in global_cache().executables()}
        assert set(exes) == {"gemm", "winograd"}  # distinct signatures
        gemm = exes["gemm"]
        assert gemm.sig.label == "6x13x4-4.f3x3.gemm"
        assert [(s.is_gemm, s.start, s.width) for s in gemm.plan.segments] == [(True, 0, 13)]
        report = analyze_plan(gemm.plan)
        assert report.errors == [] and report.warnings == []
        bundle = gemm.build_bundle(w)
        assert not bundle.u and bundle.gemm_operand.shape == (36, 4)

    def test_unknown_algorithm_rejected(self, rng):
        x = rng.standard_normal((1, 6, 6, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        with pytest.raises(ValueError, match="algorithm"):
            runtime.convolve(x, w, algorithm="fft")


class TestSegmentValidation:
    def test_mats_dtype_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 7, 18, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        seg = Segment(kernel=get_kernel(8, 3), start=0, width=18)
        mats = winograd_matrices(6, 3, dtype="float64")
        with pytest.raises(ValueError, match="mats dtype"):
            winograd_segment(x, w, seg, ph=1, pw=1, oh=7, mats=mats)
        # The matching dtype (or none at all) is accepted.
        a = winograd_segment(x, w, seg, ph=1, pw=1, oh=7, mats=mats.as_dtype(x.dtype))
        b = winograd_segment(x, w, seg, ph=1, pw=1, oh=7)
        np.testing.assert_array_equal(a, b)


class TestCacheResizeRace:
    """ExecutableCache.get() racing resize(): bounded, counted, exception-free."""

    def test_threaded_get_resize_stress(self, rng):
        import threading as _threading

        from repro.runtime.cache import ExecutableCache

        sigs = [
            ConvSignature.for_operands(
                np.zeros((1, 6, 10 + 2 * i, c), np.float32),
                np.zeros((2, 3, 3, c), np.float32),
            )
            for i in range(6)
            for c in (2, 3)
        ]
        cache = ExecutableCache(capacity=8)
        gets_per_worker = 120
        workers = 4
        errors: list[BaseException] = []
        start = _threading.Barrier(workers + 1)

        def worker(seed: int) -> None:
            local = np.random.default_rng(seed)
            start.wait()
            try:
                for _ in range(gets_per_worker):
                    sig = sigs[int(local.integers(len(sigs)))]
                    exe = cache.get(sig)
                    assert exe.sig == sig
            except BaseException as exc:  # noqa: B902 - collected for the assert
                errors.append(exc)

        def resizer() -> None:
            local = np.random.default_rng(999)
            start.wait()
            for _ in range(200):
                cache.resize(int(local.integers(1, 9)))

        threads = [_threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        threads.append(_threading.Thread(target=resizer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        stats = cache.stats()
        assert stats.size <= stats.capacity
        assert stats.hits + stats.misses == workers * gets_per_worker
        # Racing duplicate compiles replace in place (a counted miss with no
        # size growth), so equality need not hold — only the bound does.
        assert stats.size <= stats.misses - stats.evictions

    def test_resize_shrink_evicts_lru(self, rng):
        for i in range(4):
            x = rng.standard_normal((1, 6, 12 + 2 * i, 3)).astype(np.float32)
            w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
            runtime.convolve(x, w)
        assert runtime.cache_stats().size == 4
        global_cache().resize(2)
        stats = runtime.cache_stats()
        assert stats.size == 2
        assert stats.evictions >= 2
        with pytest.raises(ValueError):
            global_cache().resize(0)
