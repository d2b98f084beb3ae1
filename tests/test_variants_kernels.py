"""Tests for variant descriptors and the kernel registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import (
    KernelId,
    default_alpha_for_width,
    get_kernel,
    kernels_for_width,
    registered_kernels,
    supported_filter_widths,
)
from repro.core.variants import (
    MAX_SMEM_PER_BLOCK,
    arithmetic_intensity,
    input_items_per_tile,
    ruse_profitable,
    variant_spec,
)


class TestVariantSpec:
    def test_paper_block_sizes(self):
        """§5.1: BN x BM is 64x64 (a=4), 64x32 (a=8), 32x32 (a=16); BK=8."""
        assert (variant_spec(4, 3, 2).bn, variant_spec(4, 3, 2).bm) == (64, 64)
        assert (variant_spec(8, 6, 3).bn, variant_spec(8, 6, 3).bm) == (64, 32)
        assert (variant_spec(16, 8, 9).bn, variant_spec(16, 8, 9).bm) == (32, 32)
        for spec in (variant_spec(4, 3, 2), variant_spec(8, 6, 3), variant_spec(16, 8, 9)):
            assert spec.bk == 8

    def test_smem_budget(self):
        """4*alpha*(BN+BM)*BK bytes, doubled for the a in {4,8} double buffer,
        always within the 49152-byte limit."""
        s4 = variant_spec(4, 3, 2)
        assert s4.smem_bytes == 2 * 4 * 4 * (64 + 64) * 8
        s8 = variant_spec(8, 6, 3)
        assert s8.smem_bytes == 2 * 4 * 8 * (64 + 32) * 8 == MAX_SMEM_PER_BLOCK
        s16 = variant_spec(16, 8, 9)
        assert s16.smem_bytes == 4 * 16 * (32 + 32) * 8
        assert not s16.double_buffered and s8.double_buffered

    def test_c64_only_alpha16(self):
        spec = variant_spec(16, 8, 9, "c64")
        assert spec.bn == 64
        assert spec.smem_bytes == 4 * 16 * (64 + 32) * 8 == MAX_SMEM_PER_BLOCK
        with pytest.raises(ValueError, match="c64"):
            variant_spec(8, 6, 3, "c64")

    def test_ruse_halves_threads_doubles_registers(self):
        base = variant_spec(8, 4, 5)
        ruse = variant_spec(8, 4, 5, "ruse")
        assert ruse.threads == base.threads // 2
        assert ruse.regs_per_thread == 2 * base.regs_per_thread
        assert ruse.outer_product == (8, 16, 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="alpha"):
            variant_spec(6, 4, 3)
        with pytest.raises(ValueError, match="!= alpha"):
            variant_spec(8, 5, 3)
        with pytest.raises(ValueError, match="variant"):
            variant_spec(8, 6, 3, "turbo")
        with pytest.raises(ValueError, match="n must be >= 2"):
            variant_spec(8, 1, 8)


class TestIntensity:
    def test_paper_values_for_16_8_9(self):
        """§5.6: Gamma_16^c64(8,9) = 15.06 op/B, +47.1% over base 10.24,
        +23.5% over ruse 12.19."""
        base = arithmetic_intensity(16, 8, 9, "base")
        ruse = arithmetic_intensity(16, 8, 9, "ruse")
        c64 = arithmetic_intensity(16, 8, 9, "c64")
        assert base == pytest.approx(10.24, abs=0.01)
        assert ruse == pytest.approx(12.19, abs=0.01)
        assert c64 == pytest.approx(15.06, abs=0.01)
        assert c64 / base == pytest.approx(1.471, abs=0.005)
        assert c64 / ruse == pytest.approx(1.235, abs=0.005)

    @given(r=st.integers(2, 9))
    def test_c64_always_highest(self, r):
        if 17 - r < 2:
            return
        n = 17 - r
        assert (
            arithmetic_intensity(16, n, r, "c64")
            > arithmetic_intensity(16, n, r, "ruse")
            > arithmetic_intensity(16, n, r, "base")
        )

    def test_ruse_load_cost(self):
        """§5.4: average tile-load cost drops from alpha to alpha-(r-1)/2."""
        assert input_items_per_tile(8, 5, "base") == 8
        assert input_items_per_tile(8, 5, "ruse") == 8 - 2.0

    def test_ruse_threshold(self):
        """§5.4: profitable iff (r-1)/alpha >= 0.4375 — exactly the paper's
        list: Gamma_8 r in {5,6,7}, Gamma_16 r in {8,9} (and 10+)."""
        assert not ruse_profitable(8, 4)
        assert ruse_profitable(8, 5)
        assert ruse_profitable(8, 6)
        assert ruse_profitable(8, 7)
        assert not ruse_profitable(16, 7)
        assert ruse_profitable(16, 8)
        assert ruse_profitable(16, 9)


class TestRegistry:
    def test_shipped_widths_2_to_9(self):
        assert supported_filter_widths() == list(range(2, 10))

    def test_extended_to_15(self):
        assert supported_filter_widths(include_extended=True) == list(range(2, 16))

    def test_paper_benchmark_kernels_exist(self):
        for alpha, r in [(8, 2), (8, 3), (8, 4), (8, 5), (8, 6), (8, 7), (16, 7), (16, 8), (16, 9)]:
            k = get_kernel(alpha, r)
            assert k.n == alpha - r + 1

    def test_paper_ruse_variants_exist(self):
        """§5.4 names Gamma_8^ruse(4,5),(3,6),(2,7) and Gamma_16^ruse(9,8),(8,9)."""
        for alpha, r in [(8, 5), (8, 6), (8, 7), (16, 8), (16, 9)]:
            assert get_kernel(alpha, r, "ruse").variant == "ruse"

    def test_unprofitable_ruse_absent(self):
        with pytest.raises(ValueError):
            get_kernel(8, 3, "ruse")

    def test_c64_for_every_gamma16(self):
        for r in range(2, 10):
            assert get_kernel(16, r, "c64").spec.bn == 64

    def test_kernels_for_width_sorted_by_coverage(self):
        ks = kernels_for_width(3)
        covs = [k.spec.coverage for k in ks]
        assert covs == sorted(covs, reverse=True)

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            kernels_for_width(16, include_extended=True)
        with pytest.raises(ValueError):
            kernels_for_width(1)

    def test_default_alpha(self):
        assert default_alpha_for_width(3) == 8
        assert default_alpha_for_width(6) == 8
        assert default_alpha_for_width(7) == 16
        assert default_alpha_for_width(8) == 16
        assert default_alpha_for_width(9) == 16
        with pytest.raises(ValueError):
            default_alpha_for_width(16)

    def test_kernel_names(self):
        assert KernelId(8, 6, 3).name == "Gamma_8(6,3)"
        assert KernelId(16, 8, 9, "c64").name == "Gamma^c64_16(8,9)"

    def test_no_duplicate_ids(self):
        ks = registered_kernels(include_extended=True)
        assert len(ks) == len(set(ks))

    @pytest.mark.parametrize("include_extended", [False, True])
    def test_returned_list_is_a_copy(self, include_extended):
        ks = registered_kernels(include_extended)
        want = list(ks)
        ks.reverse()
        ks.append(KernelId(4, 3, 2))
        assert registered_kernels(include_extended) == want
        ks.clear()
        assert registered_kernels(include_extended) == want
        assert get_kernel(4, 2) == KernelId(4, 3, 2)

    @pytest.mark.parametrize(
        "alpha,r,variant,message",
        [
            (4, 5, "base", "Gamma_4^base with r=5 is not registered"),
            (8, 3, "c64", "Gamma_8^c64 with r=3 is not registered"),
        ],
    )
    def test_unregistered_lookup_message(self, alpha, r, variant, message):
        with pytest.raises(ValueError) as err:
            get_kernel(alpha, r, variant)
        assert str(err.value) == message

    def test_kernels_for_width_order_pinned(self):
        c16 = ["Gamma_16({n},{r})", "Gamma^c64_16({n},{r})"]
        want = {
            2: c16 + ["Gamma_8(7,2)", "Gamma^ruse_4(3,2)", "Gamma_4(3,2)"],
            3: c16 + ["Gamma_8(6,3)", "Gamma^ruse_4(2,3)", "Gamma_4(2,3)"],
            4: c16 + ["Gamma_8(5,4)"],
            **{r: c16 + [f"Gamma_8({9 - r},{r})", f"Gamma^ruse_8({9 - r},{r})"] for r in (5, 6, 7)},
            **{r: c16 + ["Gamma^ruse_16({n},{r})"] for r in range(8, 16)},
        }
        for r, names in want.items():
            names = [name.format(n=17 - r, r=r) for name in names]
            assert [k.name for k in kernels_for_width(r, include_extended=True)] == names
            if r <= 9:
                assert [k.name for k in kernels_for_width(r)] == names
