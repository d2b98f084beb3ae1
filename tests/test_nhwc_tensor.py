"""Tests for repro.nhwc.tensor: ConvShape, padding, im2col/col2im."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nhwc.tensor import (
    ConvShape,
    col2im_nhwc,
    conv_output_size,
    im2col_nhwc,
    im2col_nhwc_into,
    im2col_slab_shape,
    pad_nhwc,
)


class TestConvShape:
    def test_output_size(self):
        s = ConvShape(batch=2, ih=32, iw=32, ic=16, oc=32, fh=3, fw=3, ph=1, pw=1)
        assert (s.oh, s.ow) == (32, 32)

    def test_flops_formula(self):
        s = ConvShape(batch=2, ih=8, iw=8, ic=4, oc=8, fh=3, fw=3, ph=1, pw=1)
        assert s.flops == 2 * 2 * 8 * 8 * 8 * 3 * 3 * 4

    def test_from_ofm_inverts_output_formula(self):
        """Experiment shapes are given as N x OH x OW x OC with r x r filters
        and floor(r/2) padding; from_ofm must invert exactly."""
        for r in range(2, 10):
            s = ConvShape.from_ofm(32, 64, 66, 128, r=r)
            assert (s.oh, s.ow) == (64, 66), r
            assert s.ic == s.oc == 128
            assert (s.ph, s.pw) == (r // 2, r // 2)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            ConvShape(batch=0, ih=8, iw=8, ic=4, oc=8, fh=3, fw=3)
        with pytest.raises(ValueError):
            ConvShape(batch=1, ih=8, iw=8, ic=4, oc=8, fh=3, fw=3, ph=-1)
        with pytest.raises(ValueError):
            ConvShape(batch=1, ih=2, iw=2, ic=4, oc=8, fh=5, fw=5)  # empty output

    def test_shape_properties(self):
        s = ConvShape(batch=2, ih=8, iw=9, ic=4, oc=8, fh=3, fw=3, ph=1, pw=1)
        assert s.input_shape == (2, 8, 9, 4)
        assert s.filter_shape == (8, 3, 3, 4)
        assert s.output_shape == (2, 8, 9, 8)

    @given(
        ih=st.integers(8, 40),
        f=st.integers(1, 7),
        p=st.integers(0, 3),
        stride=st.integers(1, 3),
    )
    def test_output_size_consistent_with_range(self, ih, f, p, stride):
        out = conv_output_size(ih, f, p, stride)
        if out >= 1:
            # last window must fit inside the padded input
            assert (out - 1) * stride + f <= ih + 2 * p


class TestPad:
    def test_zero_pad_is_identity_object(self, rng):
        x = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        assert pad_nhwc(x, 0, 0) is x

    def test_pad_values(self, rng):
        x = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        p = pad_nhwc(x, 1, 2)
        assert p.shape == (1, 4, 6, 3)
        assert np.all(p[:, 0] == 0) and np.all(p[:, -1] == 0)
        assert np.all(p[:, :, :2] == 0) and np.all(p[:, :, -2:] == 0)
        np.testing.assert_array_equal(p[:, 1:3, 2:4, :], x)

    def test_non4d_rejected(self):
        with pytest.raises(ValueError, match="NHWC"):
            pad_nhwc(np.zeros((2, 2)), 1, 1)


class TestIm2col:
    def test_shape(self, rng):
        x = rng.standard_normal((2, 5, 6, 3)).astype(np.float32)
        cols = im2col_nhwc(x, 3, 3, 1, 1)
        assert cols.shape == (2 * 5 * 6, 3 * 3 * 3)

    def test_values_against_manual_window(self, rng):
        x = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        cols = im2col_nhwc(x, 2, 2, 0, 0)
        # output (3x3); window at (1,2) is row 1*3+2
        got = cols[1 * 3 + 2].reshape(2, 2, 2)
        np.testing.assert_array_equal(got, x[0, 1:3, 2:4, :])

    def test_stride2(self, rng):
        x = rng.standard_normal((1, 6, 6, 1)).astype(np.float32)
        cols = im2col_nhwc(x, 2, 2, 0, 0, stride=2)
        assert cols.shape == (9, 4)
        np.testing.assert_array_equal(cols[4].reshape(2, 2), x[0, 2:4, 2:4, 0])

    def test_gemm_equals_direct(self, rng):
        """im2col respects the (fh, fw, ic) column order the GEMM assumes."""
        from repro.baselines.direct import conv2d_direct

        x = rng.standard_normal((2, 7, 8, 3)).astype(np.float32)
        w = rng.standard_normal((4, 3, 2, 3)).astype(np.float32)
        cols = im2col_nhwc(x, 3, 2, 1, 0)
        y = (cols @ w.transpose(1, 2, 3, 0).reshape(-1, 4)).reshape(2, 7, 7, 4)
        np.testing.assert_allclose(y, conv2d_direct(x, w, ph=1, pw=0), rtol=1e-5, atol=1e-5)


def _im2col_6d(x, fh, fw, ph, pw, stride):
    """The former formula: one 6-D window view of the padded input, copied."""
    n, ih, iw, ic = x.shape
    oh = conv_output_size(ih, fh, ph, stride)
    ow = conv_output_size(iw, fw, pw, stride)
    xp = pad_nhwc(x, ph, pw)
    sn, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, oh, ow, fh, fw, ic),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return windows.reshape(n * oh * ow, fh * fw * ic).copy()


class TestIm2colRowWindows:
    """The row-window copies build the former matrix bit for bit."""

    @pytest.mark.parametrize("ic", [1, 3, 64])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_6d_formula(self, rng, stride, ic):
        for ph, pw in ((0, 0), (1, 1), (2, 2), (0, 2), (2, 1)):
            for fw in range(1, 10):
                fh = (fw % 3) + 1
                x = rng.standard_normal((2, 7, 11, ic)).astype(np.float32)
                oh = conv_output_size(7, fh, ph, stride)
                if oh < 1 or conv_output_size(11, fw, pw, stride) < 1:
                    continue
                want = _im2col_6d(x, fh, fw, ph, pw, stride)
                got = im2col_nhwc(x, fh, fw, ph, pw, stride)
                np.testing.assert_array_equal(
                    got.view(np.uint32), want.view(np.uint32), err_msg=f"{fh}x{fw} p{ph},{pw}"
                )

    def test_non_contiguous_input_view(self, rng):
        base = rng.standard_normal((3, 9, 14, 10)).astype(np.float32)
        x = base[::2, 1:8, 2:13, 1:8]  # every axis strided or cut
        assert not x.flags.c_contiguous
        for stride in (1, 2):
            np.testing.assert_array_equal(
                im2col_nhwc(x, 3, 5, 1, 2, stride), _im2col_6d(x, 3, 5, 1, 2, stride)
            )

    def test_writes_into_a_strided_view_with_column_offset(self, rng):
        """``im2col_nhwc_into`` fills a column slice in place, pads zeroed."""
        x = rng.standard_normal((2, 6, 9, 4)).astype(np.float32)
        full = _im2col_6d(x, 3, 3, 1, 1, 1).reshape(2, 6, 9, 3, 12)
        out = np.full((2, 6, 5, 3, 12), np.nan, dtype=np.float32)
        im2col_nhwc_into(out, x, 3, 3, 1, 1, 1, col0=4)
        np.testing.assert_array_equal(out, full[:, :, 4:9])


class TestBorderedIm2col:
    """The bordered-slab build equals the padded 6-D oracle bit for bit."""

    @given(
        fh=st.integers(1, 7),
        fw=st.integers(1, 7),
        pads=st.tuples(st.floats(0, 0.999), st.floats(0, 0.999)),
        stride=st.integers(1, 3),
        ih=st.integers(1, 12),
        iw=st.integers(1, 14),
        ic=st.integers(1, 5),
        n=st.integers(1, 7),
        k=st.integers(1, 4),
        cols=st.tuples(st.floats(0, 0.999), st.floats(0, 1)),
        tail=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_padded_oracle(self, fh, fw, pads, stride, ih, iw, ic, n, k, cols, tail):
        """Every filter size 1..7 with pads 0..F-1 and strides 1..3, on a
        column range (a narrow tail when ``tail``), written through the
        ``(full, k)`` and ``rest`` lead views of a row-blocked operand as
        :func:`~repro.core.rowblocks.conv_operand` does.  ``out`` and the
        shared slab start as NaN, so every element must be written."""
        ph, pw = int(pads[0] * fh), int(pads[1] * fw)
        oh = conv_output_size(ih, fh, ph, stride)
        ow = conv_output_size(iw, fw, pw, stride)
        assume(oh >= 1 and ow >= 1)
        if tail:
            width = 1 + int(cols[1] * min(ow - 1, 2))
            col0 = ow - width
        else:
            col0 = int(cols[0] * ow)
            width = max(1, int(cols[1] * (ow - col0)))
        rng = np.random.default_rng(fh * 7 + fw * 13 + ih * 17 + iw)
        x = rng.standard_normal((n, ih, iw, ic)).astype(np.float32)
        want = _im2col_6d(x, fh, fw, ph, pw, stride).reshape(n, oh, ow, fh, fw * ic)
        want = want[:, :, col0 : col0 + width]

        got = np.full((n, oh, width, fh, fw * ic), np.nan, dtype=np.float32)
        im2col_nhwc_into(got, x, fh, fw, ph, pw, stride, col0)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

        # Blocked lead views: k images per block, a pad row after each block.
        r, depth = oh * width, fh * fw * ic
        full, rest = divmod(n, k)
        buf = np.full((full + (rest > 0), k * r + 1, depth), np.nan, dtype=np.float32)
        images = buf[:, : k * r].reshape(buf.shape[0], k, oh, width, fh, fw * ic)
        shape = im2col_slab_shape(x.shape, fh, fw, ph, pw, stride, col0, width)
        slab = None if shape is None else np.full(shape, np.nan, dtype=np.float32)
        if full:
            xs = x[: full * k].reshape(full, k, ih, iw, ic)
            im2col_nhwc_into(images[:full], xs, fh, fw, ph, pw, stride, col0, slab)
        if rest:
            im2col_nhwc_into(images[full, :rest], x[full * k :], fh, fw, ph, pw, stride, col0, slab)
        blocked = images.reshape(-1, *images.shape[2:])[:n]
        np.testing.assert_array_equal(blocked.view(np.uint32), want.view(np.uint32))
        assert np.isnan(buf[:, k * r :]).all()  # pad rows are the caller's

    def test_reads_x_directly_without_padding(self, rng):
        """A segment that reads no padding needs no slab."""
        x = rng.standard_normal((2, 6, 9, 4)).astype(np.float32)
        assert im2col_slab_shape(x.shape, 3, 3, 0, 0) is None
        assert im2col_slab_shape(x.shape, 3, 3, 0, 1, col0=1, width=5) is None
        assert im2col_slab_shape(x.shape, 3, 3, 0, 1, col0=0, width=5) == (2, 6, 7, 4)
        assert im2col_slab_shape(x.shape, 3, 3, 1, 0) == (2, 8, 9, 4)


class TestCol2im:
    @given(
        ih=st.integers(4, 9),
        iw=st.integers(4, 9),
        fh=st.integers(1, 3),
        fw=st.integers(1, 3),
        ph=st.integers(0, 1),
        pw=st.integers(0, 1),
        stride=st.integers(1, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjoint_property(self, ih, iw, fh, fw, ph, pw, stride):
        """col2im is the exact adjoint of im2col: <im2col(x), c> == <x, col2im(c)>."""
        if (ih + 2 * ph - fh) < 0 or (iw + 2 * pw - fw) < 0:
            return
        rng = np.random.default_rng(ih * 1000 + iw * 100 + fh * 10 + fw)
        x = rng.standard_normal((1, ih, iw, 2))
        cols = im2col_nhwc(x, fh, fw, ph, pw, stride)
        c = rng.standard_normal(cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im_nhwc(c, x.shape, fh, fw, ph, pw, stride)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_roundtrip_counts_overlaps(self, rng):
        """col2im(im2col(ones)) equals the per-pixel window-coverage count."""
        x = np.ones((1, 4, 4, 1))
        cols = im2col_nhwc(x, 3, 3, 1, 1)
        back = col2im_nhwc(cols, x.shape, 3, 3, 1, 1)
        # interior pixel covered by 9 windows, corner by 4
        assert back[0, 1, 1, 0] == 9
        assert back[0, 0, 0, 0] == 4
