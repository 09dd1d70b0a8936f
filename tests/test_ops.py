"""Tests for the dense-tensor ops: forward semantics against brute-force
oracles and analytic gradients against central finite differences."""

import tracemalloc

import numpy as np
import pytest

from saan import layers, ops
from saan.errors import ShapeError
from saan.gradcheck import grad_check

from oracles import (
    conv_block_bytes,
    dyadic,
    naive_attention_weight,
    naive_box_sum,
    naive_gathered_box_sum,
    naive_conv2d,
    naive_conv2d_backward,
    naive_conv2d_transpose,
    naive_conv2d_transpose_backward,
    naive_maxpool2,
    naive_maxpool2_backward,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _spy_blocks(monkeypatch):
    """Record the patch matrix shape of every block a conv runs."""
    shapes = []
    real = ops._patch_blocks

    def spy(*args, **kwargs):
        for block in real(*args, **kwargs):
            shapes.append(block[4].shape)
            yield block

    monkeypatch.setattr(ops, "_patch_blocks", spy)
    return shapes


def _spy_patch_bounds(monkeypatch, slack=False):
    """Assert that every patch view an op takes lies inside its buffer:
    as_strided checks no bounds, and a read past the end lands in cropped
    columns, where no output shows it. With slack=True each view must
    also end before the k-1 zeros of slack that end a conv slab."""
    real = ops._patches

    def spy(buf, k, *args, **kwargs):
        view = real(buf, k, *args, **kwargs)
        lo, base = view.__array_interface__["data"][0], buf.__array_interface__["data"][0]
        hi = lo + sum((d - 1) * s for d, s in zip(view.shape, view.strides)) + view.itemsize
        end = base + buf.nbytes
        if slack:
            end -= (k - 1) * buf.itemsize
        assert base <= lo and hi <= end
        return view

    monkeypatch.setattr(ops, "_patches", spy)


def _pool_of_padded(x):
    """The oracle pool of x zero-padded to even size: on a relu output
    (>= 0), a trailing odd row or column pooled alone."""
    h, w = x.shape[2:]
    return naive_maxpool2(np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2))))[0]


class TestConv2d:
    def test_ones_kernel_padding(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        b = np.zeros(1)
        y = ops.conv2d(x, w, b)
        assert y[0, 0, 1, 1] == 9.0
        for hy, hx in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y[0, 0, hy, hx] == 4.0

    def test_identity_kernel(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 4, 5))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = ops.conv2d(x, w, np.zeros(3))
        np.testing.assert_array_equal(y, x)

    def test_matches_naive_oracle(self, rng):
        for _ in range(5):
            x = dyadic(rng, (2, 2, 6, 5))
            w = dyadic(rng, (3, 2, 3, 3))
            b = dyadic(rng, 3)
            np.testing.assert_array_equal(ops.conv2d(x, w, b), naive_conv2d(x, w, b))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_backward_matches_naive_oracle(self, rng, k, cin):
        x = dyadic(rng, (2, cin, 5, 7))
        w = dyadic(rng, (2, cin, k, k))
        gy = dyadic(rng, (2, 2, 5, 7))
        gx, gw, gb = ops.conv2d_backward(gy, x, w)
        ref = naive_conv2d_backward(gy, x, w)
        for got, want in zip((gx, gw, gb), ref):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        skipped = ops.conv2d_backward(gy, x, w, input_grad=False)
        assert skipped[0] is None
        assert skipped[1].tobytes() == gw.tobytes()
        assert skipped[2].tobytes() == gb.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("pairs, blocks", [(1, 14), (3, 6), (7, 2), (14, 1)])
    def test_blocked_matches_naive_oracle(self, rng, monkeypatch, k, pairs, blocks):
        # a budget of `pairs` pairs of patch rows, each as wide as the
        # padded odd width: two-row bands of one image's 13 rows, six-row
        # bands with a one-row last band, one image per block, or the whole
        # batch at once (k == 1 never blocks; k == 3 copies row taps only)
        x = dyadic(rng, (2, 3, 13, 5))
        w = dyadic(rng, (2, 3, k, k))
        b = dyadic(rng, 2)
        row_bytes = conv_block_bytes(3, 2, k, 5 + k - 1, x.itemsize)
        monkeypatch.setattr(ops, "_PATCH_BYTES", 2 * pairs * row_bytes)
        assert len(list(ops._row_blocks(2, 13, row_bytes))) == blocks
        np.testing.assert_array_equal(ops.conv2d(x, w, b), naive_conv2d(x, w, b))

    def test_blocks_hold_even_rows(self, monkeypatch):
        # a budget of 0 or 5 rows gives bands of 2 and 4; only an
        # odd-height image's last band is odd, and images that fit are whole
        monkeypatch.setattr(ops, "_PATCH_BYTES", 0)
        assert list(ops._row_blocks(1, 5, 1)) == [(0, 1, 0, 2), (0, 1, 2, 4), (0, 1, 4, 5)]
        monkeypatch.setattr(ops, "_PATCH_BYTES", 5)
        assert list(ops._row_blocks(2, 7, 1)) == [(0, 1, 0, 4), (0, 1, 4, 7),
                                                  (1, 2, 0, 4), (1, 2, 4, 7)]
        assert list(ops._row_blocks(3, 2, 1)) == [(0, 2, 0, 2), (2, 3, 0, 2)]

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_fused_relu_matches_unfused(self, rng, monkeypatch, k):
        # a one-pair budget: the epilogue of every two-row band applies the
        # relu (k == 1 applies it once to the whole output)
        x = dyadic(rng, (2, 3, 7, 5))
        w = dyadic(rng, (2, 3, k, k))
        b = dyadic(rng, 2)
        row_bytes = conv_block_bytes(3, 2, k, 5 + k - 1, x.itemsize)
        monkeypatch.setattr(ops, "_PATCH_BYTES", 2 * row_bytes)
        assert len(list(ops._row_blocks(2, 7, row_bytes))) == 8
        fused = ops.conv2d(x, w, b, relu=True)
        np.testing.assert_array_equal(fused, np.maximum(ops.conv2d(x, w, b), 0))
        np.testing.assert_array_equal(fused, np.maximum(naive_conv2d(x, w, b), 0))

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("hw", [(8, 6), (7, 5), (13, 1), (1, 4)])
    @pytest.mark.parametrize("rows", [1, 3, 6, 100])
    def test_fused_pool_matches_pool_of_padded_relu(self, rng, monkeypatch, k, hw, rows):
        # each block pools its row pairs, then column pairs, before the bias
        # and relu; a trailing odd row or column pools alone, which is the
        # zero padding of a relu output. Budgets of 1, 3 and 6 rows give
        # two-, two- and six-row bands; 100 gives whole images.
        x = dyadic(rng, (2, 3) + hw)
        w = dyadic(rng, (4, 3, k, k))
        b = dyadic(rng, 4)
        row_bytes = conv_block_bytes(3, 4, k, hw[1] + k - 1, x.itemsize)
        monkeypatch.setattr(ops, "_PATCH_BYTES", rows * row_bytes)
        want = _pool_of_padded(np.maximum(naive_conv2d(x, w, b), 0))
        got = ops.conv2d(x, w, b, relu=True, pool=True)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("pairs, blocks", [(1, 14), (3, 6), (7, 2), (14, 1)])
    def test_blocked_backward_matches_naive_oracle(self, rng, monkeypatch, k, pairs, blocks):
        # the weight gradient's patch rows are the exact width; each block
        # of x's patch matrix adds its share of gw
        x = dyadic(rng, (2, 3, 13, 5))
        w = dyadic(rng, (2, 3, k, k))
        gy = dyadic(rng, (2, 2, 13, 5))
        row_bytes = 3 * k * k * 5 * x.itemsize
        monkeypatch.setattr(ops, "_PATCH_BYTES", 2 * pairs * row_bytes)
        assert len(list(ops._row_blocks(2, 13, row_bytes))) == blocks
        for got, want in zip(ops.conv2d_backward(gy, x, w), naive_conv2d_backward(gy, x, w)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_row_taps_match_naive_oracle(self, rng, monkeypatch, k):
        # cin = k: each block copies the k row taps of each channel, and
        # the column taps are GEMM outputs summed shifted by dx. Budgets
        # of 2 and 6 rows give bands of the 13-row images, the last one
        # row; 13 and 26 rows give one image per block and the whole
        # batch, where the GEMM outputs shifted past a row's end run over
        # the seam between two images in cropped columns only, and the
        # shifts stop at the block's end
        x = dyadic(rng, (2, k, 13, 5))
        w = dyadic(rng, (k, k, k, k))
        b = dyadic(rng, k)
        gy = dyadic(rng, (2, k, 13, 5))
        want = naive_conv2d(x, w, b)
        pooled = _pool_of_padded(np.maximum(want, 0))
        grads = naive_conv2d_backward(gy, x, w)
        row_bytes = conv_block_bytes(k, k, k, 5 + k - 1, x.itemsize)
        for rows, blocks in [(2, 14), (6, 6), (13, 2), (26, 1)]:
            monkeypatch.setattr(ops, "_PATCH_BYTES", rows * row_bytes)
            shapes = _spy_blocks(monkeypatch)
            _spy_patch_bounds(monkeypatch)
            np.testing.assert_array_equal(ops.conv2d(x, w, b), want)
            assert len(shapes) == blocks and {s[0] for s in shapes} == {k * k}
            np.testing.assert_array_equal(ops.conv2d(x, w, b, relu=True, pool=True), pooled)
            # one output channel: a [k, C*k] GEMM, shifted and summed
            np.testing.assert_array_equal(ops.conv2d(x, w[:1], b[:1]), want[:, :1])
            # the input gradient is the same layout's conv of gy's k channels
            for got, ref in zip(ops.conv2d_backward(gy, x, w), grads):
                np.testing.assert_array_equal(got, ref)
            monkeypatch.undo()

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("hw", [(7, 5), (1, 3)])
    def test_row_taps_read_no_slack(self, rng, monkeypatch, k, hw):
        # cin = cout = k: the forward and the input gradient copy row taps
        # over the padded width, and the weight gradient full patch rows
        # over the exact width, so no view of a slab reaches the k-1 zeros
        # of slack after its last padded row, in two-row bands or in one
        # block of the whole batch
        x = dyadic(rng, (2, k) + hw)
        w = dyadic(rng, (k, k, k, k))
        b = dyadic(rng, k)
        gy = dyadic(rng, (2, k) + hw)
        want = naive_conv2d(x, w, b)
        grads = naive_conv2d_backward(gy, x, w)
        for budget in (0, ops._PATCH_BYTES):
            monkeypatch.setattr(ops, "_PATCH_BYTES", budget)
            _spy_patch_bounds(monkeypatch, slack=True)
            np.testing.assert_array_equal(ops.conv2d(x, w, b), want)
            for got, ref in zip(ops.conv2d_backward(gy, x, w), grads):
                np.testing.assert_array_equal(got, ref)
            monkeypatch.undo()

    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    @pytest.mark.parametrize("cin", [1, 9])
    @pytest.mark.parametrize("hw", [(7, 5), (2, 6), (1, 3)])
    def test_slabs_match_naive_oracle(self, rng, monkeypatch, k, cin, hw):
        # each block pads only the rows it reads: x's own rows at a band
        # seam, zeros at an image's edge. A budget of 0 gives two-row
        # bands (a first band, and a 7-row image's one-row last band) and
        # the default whole images, three to a block. H 2 and 1 are
        # shorter than p = (k-1)/2 for k >= 7 and 5, so every row a slab
        # reads past them is padding. cin = 1 copies full patch rows,
        # cin = 9 >= k the row taps; the backward pads x for the weight
        # gradient and gy for the input gradient
        x = dyadic(rng, (3, cin) + hw)
        w = dyadic(rng, (2, cin, k, k))
        b = dyadic(rng, 2)
        gy = dyadic(rng, (3, 2) + hw)
        want = naive_conv2d(x, w, b)
        pooled = _pool_of_padded(np.maximum(want, 0))
        grads = naive_conv2d_backward(gy, x, w)
        for budget, blocks in [(0, 3 * ((hw[0] + 1) // 2)), (ops._PATCH_BYTES, 1)]:
            monkeypatch.setattr(ops, "_PATCH_BYTES", budget)
            shapes = _spy_blocks(monkeypatch)
            _spy_patch_bounds(monkeypatch)
            np.testing.assert_array_equal(ops.conv2d(x, w, b), want)
            assert len(shapes) == blocks
            np.testing.assert_array_equal(ops.conv2d(x, w, b, relu=True, pool=True), pooled)
            for got, ref in zip(ops.conv2d_backward(gy, x, w), grads):
                np.testing.assert_array_equal(got, ref)
            monkeypatch.undo()

    @pytest.mark.parametrize("cin, k", [(1, 3), (1, 9), (4, 5)])
    def test_few_channels_keep_full_patch_rows(self, rng, cin, k):
        # cin < k (the one-channel image convs): a block is the full
        # [cin*k*k] patch matrix over the padded width, so on float data
        # the conv is one GEMM of the flattened kernel, bit for bit
        h, wd, p = 12, 40, (k - 1) // 2
        x = rng.standard_normal((1, cin, h, wd)).astype(np.float32)
        w = rng.standard_normal((6, cin, k, k)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        wp = wd + k - 1
        flat = np.pad(np.pad(x[0], ((0, 0), (p, p), (p, p))).reshape(cin, -1),
                      ((0, 0), (0, k - 1)))
        patches = np.stack([flat[c, dy * wp + dx : dy * wp + dx + h * wp]
                            for c in range(cin) for dy in range(k) for dx in range(k)])
        want = (w.reshape(6, -1) @ patches).reshape(6, h, wp)[:, :, :wd] + b[:, None, None]
        assert ops.conv2d(x, w, b)[0].tobytes() == want.tobytes()

    def test_one_conv_allocates_its_output_and_blocks(self, rng):
        # mfe.branch1.conv1 at 384x512 (16 -> 20 channels, k 7, over
        # 192x256): the row-tap copy and its [7 * 20] GEMM result share
        # _PATCH_BYTES, and a block pads only the 6 + 6 rows it reads, so
        # the output, the budget and one such slab bound the conv
        x = rng.standard_normal((1, 16, 192, 256)).astype(np.float32)
        w = rng.standard_normal((20, 16, 7, 7)).astype(np.float32)
        b = np.zeros(20, dtype=np.float32)
        _, _, r0, r1 = next(ops._row_blocks(1, 192, conv_block_bytes(16, 20, 7, 262, 4)))
        assert r1 - r0 == 6
        slab = 16 * ((r1 - r0 + 6) * 262 + 6) * 4
        output = 20 * 192 * 256 * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ops.conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= output + ops._PATCH_BYTES + slab

    def test_backward_pads_neither_x_nor_gy_whole(self, rng):
        # lsa.conv1 at 384x512 (8 -> 8 channels, k 3): the weight
        # gradient's blocks pad bands of x, the input gradient's bands of
        # gy, and the first frees its blocks before the second starts, so
        # gx, the budget and one 20-row band's slab of gy bound the call,
        # 6 MiB under one padded copy of x or gy
        x = rng.standard_normal((1, 8, 384, 512)).astype(np.float32)
        w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        gy = rng.standard_normal((1, 8, 384, 512)).astype(np.float32)
        _, _, r0, r1 = next(ops._row_blocks(1, 384, conv_block_bytes(8, 8, 3, 514, 4)))
        assert r1 - r0 == 20
        slab = 8 * ((r1 - r0 + 2) * 514 + 2) * 4
        gx = 8 * 384 * 512 * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ops.conv2d_backward(gy, x, w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= gx + ops._PATCH_BYTES + slab

    def test_one_output_sum_ignores_the_block_split(self, rng, monkeypatch):
        # float values, where a GEMM's rounding may depend on the split: a
        # one-output conv sums its channels in a fixed order, so two-row
        # bands and the whole batch at once give the same bits, and so do
        # the 1x1 head's sums over any split of its columns
        x = rng.standard_normal((2, 16, 12, 40)).astype(np.float32)
        w = rng.standard_normal((1, 16, 3, 3)).astype(np.float32)
        b = rng.standard_normal(1).astype(np.float32)
        whole = ops.conv2d(x, w, b)
        monkeypatch.setattr(ops, "_PATCH_BYTES", 1)
        assert ops.conv2d(x, w, b).tobytes() == whole.tobytes()
        cols, w1 = x.transpose(1, 0, 2, 3).reshape(16, -1), w[0, :, 1, 1]
        split = np.concatenate([ops._head(cols[:, i : i + 7], w1)
                                for i in range(0, cols.shape[1], 7)])
        assert split.tobytes() == ops._head(cols, w1).tobytes()

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("rows, blocks", [(7, 2), (4, 4), (2, 8)])
    def test_blocked_input_gradient_matches_naive_oracle(self, rng, monkeypatch, k, rows, blocks):
        # gx is the forward conv of gy, whose patch rows span the padded
        # width of gy's cout channels: one, two and several blocks per
        # image, each band reading gy rows across its seams
        x = dyadic(rng, (2, 3, 7, 5))
        w = dyadic(rng, (2, 3, k, k))
        gy = dyadic(rng, (2, 2, 7, 5))
        row_bytes = conv_block_bytes(2, 3, k, 5 + k - 1, gy.itemsize)
        monkeypatch.setattr(ops, "_PATCH_BYTES", rows * row_bytes)
        assert len(list(ops._row_blocks(2, 7, row_bytes))) == blocks
        for got, want in zip(ops.conv2d_backward(gy, x, w), naive_conv2d_backward(gy, x, w)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 3])
    def test_backward_never_calls_the_public_conv(self, rng, monkeypatch, k):
        # a wrapper installed on ops.conv2d (a tracer, say) must not see
        # the input gradient's conv, which goes through the private _conv2d
        def refuse(*args, **kwargs):
            raise AssertionError("conv2d_backward called ops.conv2d")

        x = dyadic(rng, (2, 3, 5, 7))
        w = dyadic(rng, (2, 3, k, k))
        gy = dyadic(rng, (2, 2, 5, 7))
        monkeypatch.setattr(ops, "conv2d", refuse)
        for got, want in zip(ops.conv2d_backward(gy, x, w), naive_conv2d_backward(gy, x, w)):
            np.testing.assert_array_equal(got, want)

    def test_pointwise_reads_a_channel_major_view(self, rng):
        # conv2d returns [N,C,H,W] views of [C,N,H,W] buffers, which a 1x1
        # conv multiplies as they lie
        x = ops.conv2d(dyadic(rng, (2, 3, 5, 7)), dyadic(rng, (4, 3, 3, 3)), dyadic(rng, 4))
        assert not x.flags.c_contiguous
        w = dyadic(rng, (2, 4, 1, 1))
        b = dyadic(rng, 2)
        np.testing.assert_array_equal(ops.conv2d(x, w, b), naive_conv2d(x, w, b))
        gy = dyadic(rng, (2, 2, 5, 7))
        for got, want in zip(ops.conv2d_backward(gy, x, w), naive_conv2d_backward(gy, x, w)):
            np.testing.assert_array_equal(got, want)

    def test_preserves_spatial_dims(self, rng):
        for k in (1, 3, 5, 7, 9):
            x = rng.uniform(-1, 1, (1, 2, 8, 11))
            w = rng.uniform(-1, 1, (4, 2, k, k))
            y = ops.conv2d(x, w, np.zeros(4))
            assert y.shape == (1, 4, 8, 11)

    def test_channel_mismatch_raises(self, rng):
        x = rng.uniform(-1, 1, (1, 2, 4, 4))
        w = rng.uniform(-1, 1, (3, 5, 3, 3))
        with pytest.raises(ShapeError, match="channel"):
            ops.conv2d(x, w, np.zeros(3))

    def test_even_kernel_raises(self, rng):
        x = rng.uniform(-1, 1, (1, 2, 4, 4))
        w = rng.uniform(-1, 1, (3, 2, 4, 4))
        with pytest.raises(ShapeError, match="odd"):
            ops.conv2d(x, w, np.zeros(3))

    def test_gradients(self, rng):
        x = rng.uniform(-1, 1, (1, 2, 5, 5))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        r = rng.uniform(-1, 1, (1, 3, 5, 5))

        def f(x_, w_, b_):
            y = ops.conv2d(x_, w_, b_)
            gx, gw, gb = ops.conv2d_backward(r, x_, w_)
            return float((y * r).sum()), [gx, gw, gb]

        assert grad_check(f, [x, w, b], h=1e-3) < 1e-4


class TestConv2dTranspose:
    def test_ones_tap_counts(self):
        x = np.ones((1, 1, 2, 2))
        w = np.ones((1, 1, 4, 4))
        y = ops.conv2d_transpose(x, w, np.zeros(1))
        expected = naive_conv2d_transpose(x, w, np.zeros(1))
        np.testing.assert_array_equal(y, expected)
        # tap-count structure: outer product of [1,2,2,1] with itself
        taps = np.outer([1, 2, 2, 1], [1, 2, 2, 1]).astype(float)
        np.testing.assert_array_equal(expected[0, 0], taps)

    def test_zero_input_broadcasts_bias(self, rng):
        x = np.zeros((2, 3, 4, 4))
        w = rng.uniform(-1, 1, (3, 2, 4, 4))
        b = np.array([1.5, -0.5])
        y = ops.conv2d_transpose(x, w, b)
        assert y.shape == (2, 2, 8, 8)
        np.testing.assert_array_equal(y[:, 0], np.full((2, 8, 8), 1.5))
        np.testing.assert_array_equal(y[:, 1], np.full((2, 8, 8), -0.5))

    def test_matches_naive_oracle(self, rng):
        for _ in range(5):
            x = dyadic(rng, (2, 3, 3, 4))
            w = dyadic(rng, (3, 2, 4, 4))
            b = dyadic(rng, 2)
            np.testing.assert_array_equal(
                ops.conv2d_transpose(x, w, b), naive_conv2d_transpose(x, w, b)
            )

    @pytest.mark.parametrize("pairs, blocks", [(1, 10), (2, 6), (5, 2), (10, 1)])
    def test_blocked_matches_naive_oracle(self, rng, monkeypatch, pairs, blocks):
        # the sub-pixel conv's patch rows: Cin = 3 >= k = 3, so each block
        # copies the 3 row taps per channel over the padded width and sums
        # the column taps of a [3 * 4 * Cout] GEMM result; each block
        # writes its rows of all four output phases, with and without the
        # fused relu, and with the fused 1x1 head
        x = dyadic(rng, (2, 3, 9, 3))
        w = dyadic(rng, (3, 2, 4, 4))
        b = dyadic(rng, 2)
        w1, b1 = dyadic(rng, (1, 2, 1, 1)), dyadic(rng, 1)
        row_bytes = conv_block_bytes(3, 4 * 2, 3, 3 + 2, x.itemsize)
        monkeypatch.setattr(ops, "_PATCH_BYTES", 2 * pairs * row_bytes)
        assert len(list(ops._row_blocks(2, 9, row_bytes))) == blocks
        want = naive_conv2d_transpose(x, w, b)
        relu_want = np.maximum(want, 0)
        np.testing.assert_array_equal(ops.conv2d_transpose(x, w, b), want)
        np.testing.assert_array_equal(ops.conv2d_transpose(x, w, b, relu=True), relu_want)
        headed = ops.conv2d_transpose(x, w, b, relu=True, head=(w1, b1))
        np.testing.assert_array_equal(headed, naive_conv2d(relu_want, w1, b1))

    @pytest.mark.parametrize("hw", [(7, 5), (1, 3)])
    def test_slabs_match_naive_oracle(self, rng, monkeypatch, hw):
        # the sub-pixel 3x3 conv pads only each block's rows, as conv2d
        # does: two-row bands with a one-row last band and a one-row
        # image, then the default's whole batch in one block, with the
        # fused 1x1 head
        x = dyadic(rng, (2, 3) + hw)
        w = dyadic(rng, (3, 2, 4, 4))
        b = dyadic(rng, 2)
        w1, b1 = dyadic(rng, (1, 2, 1, 1)), dyadic(rng, 1)
        want = naive_conv2d(np.maximum(naive_conv2d_transpose(x, w, b), 0), w1, b1)
        for budget, blocks in [(0, 2 * ((hw[0] + 1) // 2)), (ops._PATCH_BYTES, 1)]:
            monkeypatch.setattr(ops, "_PATCH_BYTES", budget)
            shapes = _spy_blocks(monkeypatch)
            _spy_patch_bounds(monkeypatch)
            np.testing.assert_array_equal(ops.conv2d_transpose(x, w, b, relu=True, head=(w1, b1)), want)
            assert len(shapes) == blocks
            monkeypatch.undo()

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_matches_naive_oracle(self, rng, input_grad):
        x = dyadic(rng, (2, 3, 3, 5))
        w = dyadic(rng, (3, 2, 4, 4))
        gy = dyadic(rng, (2, 2, 6, 10))
        gx, gw, gb = ops.conv2d_transpose_backward(gy, x, w, input_grad=input_grad)
        want_gx, want_gw, want_gb = naive_conv2d_transpose_backward(gy, x, w)
        if input_grad:
            assert gx.shape == want_gx.shape
            np.testing.assert_array_equal(gx, want_gx)
        else:
            assert gx is None
        for got, want in ((gw, want_gw), (gb, want_gb)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_doubles_spatial_dims(self, rng):
        x = rng.uniform(-1, 1, (1, 2, 5, 7))
        w = rng.uniform(-1, 1, (2, 3, 4, 4))
        assert ops.conv2d_transpose(x, w, np.zeros(3)).shape == (1, 3, 10, 14)

    def test_gradients(self, rng):
        x = rng.uniform(-1, 1, (1, 2, 3, 3))
        w = rng.uniform(-1, 1, (2, 2, 4, 4))
        b = rng.uniform(-1, 1, 2)
        r = rng.uniform(-1, 1, (1, 2, 6, 6))

        def f(x_, w_, b_):
            y = ops.conv2d_transpose(x_, w_, b_)
            gx, gw, gb = ops.conv2d_transpose_backward(r, x_, w_)
            return float((y * r).sum()), [gx, gw, gb]

        assert grad_check(f, [x, w, b], h=1e-3) < 1e-4


class TestMaxPool2:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y = ops.maxpool2(x)
        assert y[0, 0, 0, 0] == 4.0
        gx = ops.maxpool2_backward(np.ones_like(y), x, y)
        np.testing.assert_array_equal(gx.ravel(), [0.0, 0.0, 0.0, 1.0])

    def test_constant_tie_break(self):
        x = np.full((1, 1, 4, 4), 2.5)
        y = ops.maxpool2(x)
        np.testing.assert_array_equal(y, np.full((1, 1, 2, 2), 2.5))
        gy = np.ones((1, 1, 2, 2))
        gx = ops.maxpool2_backward(gy, x, y)
        # gradient lands on window position (0,0) only
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 0::2, 0::2] = 1.0
        np.testing.assert_array_equal(gx, expected)

    def test_matches_naive_oracle(self, rng):
        for _ in range(5):
            x = dyadic(rng, (2, 3, 6, 4))
            y = ops.maxpool2(x)
            np.testing.assert_array_equal(y, naive_maxpool2(x)[0])
            gy = dyadic(rng, y.shape)
            np.testing.assert_array_equal(ops.maxpool2_backward(gy, x, y),
                                          naive_maxpool2_backward(gy, x))

    @staticmethod
    def _pooled(x, fused):
        """maxpool2's pooled map, or the pool that conv2d fuses into its
        epilogue, run behind a one-channel identity conv per channel."""
        if not fused:
            return ops.maxpool2(x)
        one = np.ones((1, 1, 1, 1))
        return np.concatenate([ops.conv2d(x[:, c : c + 1], one, np.zeros(1), pool=True)
                               for c in range(x.shape[1])], axis=1)

    def test_ties_forward_backward_and_fused(self, rng):
        # three values over four positions: most windows hold a tie, and
        # the backward finds the first position holding the max again
        for shape in [(2, 3, 6, 8), (2, 3, 7, 5)]:
            x = dyadic(rng, shape, denom=1, lo=0, hi=2)
            y = ops.maxpool2(x)
            np.testing.assert_array_equal(y, _pool_of_padded(x))
            gy = dyadic(rng, y.shape)
            np.testing.assert_array_equal(ops.maxpool2_backward(gy, x, y),
                                          naive_maxpool2_backward(gy, x))
            assert self._pooled(x, fused=True).tobytes() == y.tobytes()

    @pytest.mark.parametrize("fused", [False, True])
    def test_nan_propagates(self, rng, fused):
        x = dyadic(rng, (1, 2, 4, 4))
        x[0, 1, 3, 2] = np.nan
        y = self._pooled(x, fused)
        assert np.isnan(y[0, 1, 1, 1])
        y[0, 1, 1, 1] = 0.0
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("pos", range(4))
    def test_nan_in_each_window_position(self, rng, fused, pos):
        # the row max and the column max each see the NaN whichever
        # operand holds it; no position holds a NaN max, so the backward
        # gives that window's gradient to its last position, and every
        # other window's as the oracle does
        x = dyadic(rng, (1, 1, 4, 4), lo=0)
        x[0, 0, 2 + pos // 2, 2 + pos % 2] = np.nan
        y = self._pooled(x, fused)
        assert np.isnan(y[0, 0, 1, 1])
        assert np.isfinite(np.delete(y.ravel(), 3)).all()
        if not fused:
            gy = dyadic(rng, y.shape)
            want = naive_maxpool2_backward(gy, x)
            want[0, 0, 2:, 2:] = [[0.0, 0.0], [0.0, gy[0, 0, 1, 1]]]
            np.testing.assert_array_equal(ops.maxpool2_backward(gy, x, y), want)

    @pytest.mark.parametrize("shape", [(2, 3, 6, 8), (2, 3, 7, 5), (2, 3, 7, 8), (1, 2, 6, 5),
                                       (1, 1, 1, 3)])
    def test_backward_matches_naive_oracle(self, rng, shape):
        # a relu output (>= 0) of three values, so most windows tie; a
        # trailing odd row or column pools alone, and the oracle pools
        # its zero padding
        x = dyadic(rng, shape, denom=1, lo=0, hi=2)
        y = ops.maxpool2(x)
        gy = dyadic(rng, y.shape)
        gx = ops.maxpool2_backward(gy, x, y)
        assert gx.shape == x.shape
        np.testing.assert_array_equal(gx, naive_maxpool2_backward(gy, x))

    def test_odd_dims_pool_alone(self, rng):
        # a trailing odd row or column pools alone: on a relu output, the
        # pool of its zero padding
        for h, w in [(7, 6), (6, 7), (7, 7), (1, 1)]:
            x = dyadic(rng, (2, 3, h, w), lo=0)
            y = ops.maxpool2(x)
            assert y.shape == (2, 3, (h + 1) // 2, (w + 1) // 2)
            np.testing.assert_array_equal(y, _pool_of_padded(x))

    def test_engine_pools_only_after_a_relu_conv(self, rng):
        # pooling a trailing odd row alone equals zero padding only on a
        # relu output
        relu_conv, linear_conv = ("conv0", "conv", 1, 1, "relu"), ("conv0", "conv", 1, 1, "linear")
        p = {"p.conv0.weight": np.ones((1, 1, 1, 1)), "p.conv0.bias": np.zeros(1)}
        x = dyadic(rng, (1, 1, 5, 5))
        for spec in ([("pool0", "pool")], [linear_conv, ("pool0", "pool")],
                     [relu_conv, ("pool0", "pool"), ("pool1", "pool")]):
            for keep in (True, False):
                with pytest.raises(ValueError, match="must follow a relu conv"):
                    layers.seq_forward(x, p, "p", spec, keep_caches=keep)

    def test_engine_backward_matches_naive_chain(self, rng):
        # conv -> relu -> pool on odd maps, walked back through the engine
        spec = [("conv0", "conv", 3, 2, "relu"), ("pool0", "pool")]
        p = {"p.conv0.weight": dyadic(rng, (2, 2, 3, 3)), "p.conv0.bias": dyadic(rng, 2)}
        x = dyadic(rng, (2, 2, 7, 5))
        y, caches = layers.seq_forward(x, p, "p", spec)
        a = np.maximum(naive_conv2d(x, p["p.conv0.weight"], p["p.conv0.bias"]), 0)
        np.testing.assert_array_equal(y, _pool_of_padded(a))
        gy = dyadic(rng, y.shape)
        gx, grads = layers.seq_backward(gy, caches, p)
        ga = naive_maxpool2_backward(gy, a) * (a > 0)
        want = naive_conv2d_backward(ga, x, p["p.conv0.weight"])
        for got, ref in zip((gx, grads["p.conv0.weight"], grads["p.conv0.bias"]), want):
            np.testing.assert_array_equal(got, ref)

    def test_gradients(self, rng):
        # distinct values so each window's max is FD-stable
        x = rng.permutation(np.arange(64, dtype=np.float64) / 7.0).reshape(1, 1, 8, 8)
        r = rng.uniform(-1, 1, (1, 1, 4, 4))

        def f(x_):
            y = ops.maxpool2(x_)
            return float((y * r).sum()), [ops.maxpool2_backward(r, x_, y)]

        assert grad_check(f, [x], h=1e-3) < 1e-4


class TestFullyConnected:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = ops.fully_connected(x, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y, x)

    def test_affine_example(self):
        y = ops.fully_connected(np.array([[1.0, 2.0]]), np.eye(2), np.array([10.0, 10.0]))
        np.testing.assert_array_equal(y, np.array([[11.0, 12.0]]))

    def test_inner_dim_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            ops.fully_connected(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (4, 5)), np.zeros(5))

    def test_gradients(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        w = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, 5)
        r = rng.uniform(-1, 1, (3, 5))

        def f(x_, w_, b_):
            y = ops.fully_connected(x_, w_, b_)
            gx, gw, gb = ops.fully_connected_backward(r, x_, w_)
            return float((y * r).sum()), [gx, gw, gb]

        assert grad_check(f, [x, w, b], h=1e-3) < 1e-4


class TestActivations:
    def test_relu_values(self):
        # the relu is the weighted ops' epilogue: an identity map shows it
        x = np.array([[-1.0, 0.0, 2.0]])
        y = ops.fully_connected(x, np.eye(3), np.zeros(3), relu=True)
        np.testing.assert_array_equal(y, [[0.0, 0.0, 2.0]])

    def test_relu_positive_identity(self, rng):
        x = rng.uniform(0.1, 1, (3, 4))
        np.testing.assert_array_equal(ops.fully_connected(x, np.eye(4), np.zeros(4), relu=True), x)

    def test_relu_gradients_away_from_zero(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        x[np.abs(x) < 0.01] = 0.5
        r = rng.uniform(-1, 1, (4, 4))

        def f(x_):
            return float((np.maximum(x_, 0) * r).sum()), [ops.relu_backward(r, x_)]

        assert grad_check(f, [x], h=1e-3) < 1e-4

    def test_sigmoid_zero(self):
        assert ops.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_symmetry(self, rng):
        x = rng.uniform(-5, 5, 32)
        np.testing.assert_allclose(ops.sigmoid(x), 1.0 - ops.sigmoid(-x), atol=1e-12)

    def test_sigmoid_extremes_stay_finite(self):
        y = ops.sigmoid(np.array([-1e4, -50.0, 50.0, 1e4]))
        assert np.all(np.isfinite(y))
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_sigmoid_gradients(self, rng):
        x = rng.uniform(-2, 2, (3, 5))
        r = rng.uniform(-1, 1, (3, 5))

        def f(x_):
            y = ops.sigmoid(x_)
            return float((y * r).sum()), [ops.sigmoid_backward(r, y)]

        assert grad_check(f, [x], h=1e-3) < 1e-4


class TestSoftmax:
    def test_uniform(self):
        y = ops.softmax(np.zeros((1, 3)))
        np.testing.assert_allclose(y, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.uniform(-3, 3, (4, 5))
        np.testing.assert_allclose(ops.softmax(x + 7.5), ops.softmax(x), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        # gaps stay under ~37 nats so no entry rounds to exactly 0 or 1
        x = rng.uniform(-15, 15, (8, 3))
        y = ops.softmax(x)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(8), atol=1e-6)
        assert np.all(y > 0) and np.all(y < 1)

    def test_gradients(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        r = rng.uniform(-1, 1, (3, 4))

        def f(x_):
            y = ops.softmax(x_)
            return float((y * r).sum()), [ops.softmax_backward(r, y)]

        assert grad_check(f, [x], h=1e-3) < 1e-4


class TestConcatChannels:
    def test_feature_depths_concat(self, rng):
        xs = [rng.uniform(-1, 1, (2, c, 3, 3)) for c in (24, 16, 8)]
        y = ops.concat_channels(xs)
        assert y.shape == (2, 48, 3, 3)

    def test_single_input_identity(self, rng):
        x = rng.uniform(-1, 1, (1, 4, 2, 2))
        np.testing.assert_array_equal(ops.concat_channels([x]), x)

    def test_split_round_trip(self, rng):
        xs = [rng.uniform(-1, 1, (2, c, 4, 5)) for c in (3, 1, 6)]
        parts = ops.split_channels(ops.concat_channels(xs), [3, 1, 6])
        assert len(parts) == 3
        for a, b in zip(parts, xs):
            np.testing.assert_array_equal(a, b)

    def test_spatial_mismatch_raises(self, rng):
        xs = [rng.uniform(-1, 1, (1, 2, 4, 4)), rng.uniform(-1, 1, (1, 2, 4, 5))]
        with pytest.raises(ShapeError, match="spatial"):
            ops.concat_channels(xs)

    def test_gradients(self, rng):
        xs = [rng.uniform(-1, 1, (1, c, 3, 3)) for c in (2, 3)]
        r = rng.uniform(-1, 1, (1, 5, 3, 3))

        def f(a, b):
            y = ops.concat_channels([a, b])
            ga, gb = ops.split_channels(r, [2, 3])
            return float((y * r).sum()), [ga, gb]

        assert grad_check(f, xs, h=1e-3) < 1e-4


class TestScaleBroadcastMul:
    def test_identity(self, rng):
        f = rng.uniform(-1, 1, (2, 3, 4, 4))
        g = np.ones(2)
        l = np.ones((2, 1, 4, 4))
        np.testing.assert_array_equal(ops.scale_broadcast_mul(f, g, l), f)

    def test_direct_product(self):
        f = np.full((1, 1, 1, 1), 2.0)
        g = np.array([0.5])
        l = np.full((1, 1, 1, 1), 0.25)
        assert ops.scale_broadcast_mul(f, g, l)[0, 0, 0, 0] == 0.25

    def test_matches_brute_force(self, rng):
        f = rng.uniform(-1, 1, (2, 3, 4, 5))
        g = rng.uniform(0, 1, 2)
        l = rng.uniform(0, 1, (2, 1, 4, 5))
        np.testing.assert_array_equal(
            ops.scale_broadcast_mul(f, g, l), naive_attention_weight(f, g, l)
        )

    def test_spatial_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            ops.scale_broadcast_mul(
                rng.uniform(-1, 1, (1, 2, 4, 4)), np.ones(1), np.ones((1, 1, 3, 4))
            )

    def test_gradients_all_operands(self, rng):
        f = rng.uniform(-1, 1, (2, 3, 3, 3))
        g = rng.uniform(0.2, 1, 2)
        l = rng.uniform(0.2, 1, (2, 1, 3, 3))
        r = rng.uniform(-1, 1, (2, 3, 3, 3))

        def fn(f_, g_, l_):
            y = ops.scale_broadcast_mul(f_, g_, l_)
            gf, gg, gl = ops.scale_broadcast_mul_backward(r, f_, g_, l_)
            return float((y * r).sum()), [gf, gg, gl]

        assert grad_check(fn, [f, g, l], h=1e-3) < 1e-4


class TestBoxSum:
    def test_single_dot_full_radius(self):
        m = np.zeros((8, 8))
        m[4, 4] = 1.0
        out = ops.box_sum(m, 8)
        np.testing.assert_array_equal(out, np.ones((8, 8)))

    def test_uniform_interior(self):
        v = 0.25
        m = np.full((12, 12), v)
        out = ops.box_sum(m, 3)
        assert out[6, 6] == v * 36  # (2r)^2 window

    def test_radius_zero_is_empty_window(self):
        m = np.ones((4, 4))
        np.testing.assert_array_equal(ops.box_sum(m, 0), np.zeros((4, 4)))

    def test_matches_naive_bit_for_bit(self, rng):
        for _ in range(5):
            m = dyadic(rng, (16, 16), denom=256, lo=0, hi=255)
            np.testing.assert_array_equal(ops.box_sum(m, 4), naive_box_sum(m, 4))

    def test_matches_naive_32x32(self, rng):
        m = dyadic(rng, (32, 32), denom=256, lo=0, hi=255)
        for r in (1, 5, 16, 32):
            np.testing.assert_array_equal(ops.box_sum(m, r), naive_box_sum(m, r))

    @pytest.mark.parametrize("radius", [0, 1, 32, 10**9])
    @pytest.mark.parametrize("shape", [(48, 64), (7, 3), (1, 1)])
    def test_bytes_equal_to_gathered_oracle(self, rng, shape, radius):
        # any radius past the map's sides clips to them; the -0.0 keeps the
        # sign of each integral's zeros in the comparison
        m = rng.standard_normal(shape)
        m[0, 0] = -0.0
        assert ops.box_sum(m, radius).tobytes() == naive_gathered_box_sum(m, radius).tobytes()

    def test_memory_is_under_three_maps(self, rng):
        # the integral frame (radius 32 on each side) and the output; four
        # gathered [H, W] corners would take five maps
        m = rng.uniform(0, 0.01, (384, 512))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ops.box_sum(m, 32)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * m.nbytes


class TestDeterminism:
    def test_ops_are_deterministic(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 8, 8))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        b = rng.uniform(-1, 1, 4)
        y1 = ops.conv2d(x, w, b)
        y2 = ops.conv2d(x.copy(), w.copy(), b.copy())
        np.testing.assert_array_equal(y1, y2)
        p1 = ops.maxpool2(x)
        p2 = ops.maxpool2(x)
        np.testing.assert_array_equal(p1, p2)
