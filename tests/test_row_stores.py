"""Whole-row stores through an index array (``row_writer``) against
written-out references.

Each kernel that stores rows through ``row_writer`` is compared, byte for
byte, with a loop that writes one row at a time by plain indexing, on rows
holding -0.0 and a NaN with a payload, in float32 and float64, with one
channel among the widths, and on inputs that store a few rows per offset
and many.
"""

import numpy as np
import pytest

from slidessl.sparseconv import (
    global_average_pool,
    submconv_forward,
    submconv_input_grad,
    view_pairs,
    view_segments,
)
from slidessl.sparsemap import merge_rows, merge_views, row_writer

DTYPES = [np.float32, np.float64]
PAYLOAD_BITS = {np.float32: (np.uint32, 0x7FC0_1234),
                np.float64: (np.uint64, 0x7FF8_0000_0000_1234)}


def payload_nan(dtype):
    uint, bits = PAYLOAD_BITS[dtype]
    return np.array([bits], dtype=uint).view(dtype)[0]


def special_rows(rng, n, width, dtype):
    """Random rows, every fifth one -0.0, one entry a NaN with a payload."""
    x = (rng.normal(size=(n, width)) * 10.0).astype(dtype)
    x[::5] = -0.0
    x[min(3, n - 1), 0] = payload_nan(dtype)
    return x


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def views_layout(rng, sizes, extent=9):
    """Maps of the given sizes laid out as rows, their pairs and segments."""
    sites = [rng.choice(extent * extent, size=n, replace=False) for n in sizes]
    sites = np.concatenate([np.stack([s // extent, s % extent], axis=1)
                            for s in sites])
    view = np.repeat(np.arange(len(sizes)), sizes)
    return view_pairs(view, sites, 3), view_segments(sizes)


# ---------------------------------------------------------------------------
# row_writer

class TestRowWriter:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("n_rows", [2, 17])
    def test_equals_plain_store(self, dtype, width, n_rows):
        rng = np.random.default_rng(width)
        dest = rng.normal(size=(40, width)).astype(dtype)
        want = dest.copy()
        rows = rng.choice(40, size=n_rows, replace=False)
        src = special_rows(rng, n_rows, width, dtype)
        for r, row in zip(rows.tolist(), src):
            want[r] = row
        row_writer(dest)(rows, src)
        assert same_bytes(dest, want)
        assert np.signbit(dest[rows[::5]]).all()      # the -0.0 rows

    def test_c_contiguous_rows_are_stored_as_items(self):
        dest = np.zeros((4, 3))
        assert row_writer(dest) != dest.__setitem__
        strided = dest[:, :2]
        assert row_writer(strided) == strided.__setitem__

    def test_other_dtype_is_cast_as_the_plain_store_casts(self):
        rng = np.random.default_rng(1)
        dest = np.zeros((10, 4), np.float32)
        want = dest.copy()
        rows = np.array([7, 2, 5])
        src = rng.normal(size=(3, 4)) * 1e-3          # float64
        want[rows] = src
        row_writer(dest)(rows, src)
        assert same_bytes(dest, want)

    def test_strided_operands_take_the_plain_store(self):
        rng = np.random.default_rng(2)
        wide = rng.normal(size=(12, 6))
        dest = wide[:, 1:4]                            # not C-contiguous
        want = wide.copy()
        src = np.asfortranarray(rng.normal(size=(2, 3)))
        want[[9, 4], 1:4] = src
        row_writer(dest)(np.array([9, 4]), src)
        assert same_bytes(wide, want)                  # written in place
        contiguous = np.zeros((5, 3))
        row_writer(contiguous)(np.array([0, 3]), src)
        assert same_bytes(contiguous[[0, 3]], np.ascontiguousarray(src))

    def test_zero_width_rows(self):
        dest = np.zeros((4, 0), np.float32)
        row_writer(dest)(np.array([1, 2]), np.zeros((2, 0), np.float32))
        assert dest.shape == (4, 0)


# ---------------------------------------------------------------------------
# The kernels that store through it

def conv_reference(x, w, pairs):
    """Every offset's product of its source rows, each row added to its
    output row in offset order and written back alone."""
    k = w.shape[0]
    out = np.zeros((len(x), w.shape[3]), w.dtype)
    for o in range(len(pairs)):
        pr = pairs[o]
        if len(pr):
            for t, row in zip(pr[:, 1].tolist(), x[pr[:, 0]] @ w[o // k, o % k]):
                out[t] = row + out[t]
    return out


def input_grad_reference(g, w, pairs):
    k = w.shape[0]
    dx = np.zeros((len(g), w.shape[2]), g.dtype)
    for o in range(len(pairs)):
        pr = pairs[o]
        if len(pr):
            for s, row in zip(pr[:, 0].tolist(), g[pr[:, 1]] @ w[o // k, o % k].T):
                dx[s] = row + dx[s]
    return dx


def pool_reference(x, segs):
    """Each segment's rows added one after another to 0.0, as numpy's sum
    starts, then divided by their count."""
    out = []
    for s, e in segs:
        acc = np.zeros(x.shape[1], x.dtype)
        for r in range(s, e):
            acc = acc + x[r]
        out.append(acc / x.dtype.type(e - s))
    return np.stack(out)


# a few rows per offset in the first three layouts, dozens in the last
KERNEL_SIZES = [[9, 1, 14, 6, 20, 11], [25, 25], [3, 2, 1], [60] * 8]


class TestKernelStores:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("c_in,c_out", [(3, 4), (1, 1), (4, 1), (16, 16)])
    @pytest.mark.parametrize("sizes", KERNEL_SIZES)
    def test_conv_forward(self, dtype, c_in, c_out, sizes):
        rng = np.random.default_rng(c_in * 10 + c_out)
        pairs, _ = views_layout(rng, sizes)
        x = special_rows(rng, sum(sizes), c_in, dtype)
        w = rng.normal(size=(3, 3, c_in, c_out)).astype(dtype)
        assert same_bytes(submconv_forward(x, w, pairs),
                          conv_reference(x, w, pairs))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("c_in,c_out", [(3, 4), (1, 1), (1, 4), (16, 16)])
    @pytest.mark.parametrize("sizes", KERNEL_SIZES)
    def test_conv_input_grad(self, dtype, c_in, c_out, sizes):
        rng = np.random.default_rng(c_in * 10 + c_out + 1)
        pairs, _ = views_layout(rng, sizes)
        g = special_rows(rng, sum(sizes), c_out, dtype)
        w = rng.normal(size=(3, 3, c_in, c_out)).astype(dtype)
        assert same_bytes(submconv_input_grad(g, w, pairs),
                          input_grad_reference(g, w, pairs))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("width", [2, 3, 16])
    def test_pool(self, dtype, width):
        rng = np.random.default_rng(width)
        for sizes in ([1, 7, 3, 1, 12, 5, 2], [1, 7, 3, 1, 120, 50, 2, 90]):
            self.check_pool(rng, sizes, width, dtype)

    @staticmethod
    def check_pool(rng, sizes, width, dtype):
        segs = view_segments(sizes)
        x = special_rows(rng, sum(sizes), width, dtype)
        x[8:11] = -0.0                                 # a segment of -0.0 rows
        got = global_average_pool(x, segs)
        assert same_bytes(got, pool_reference(x, segs))
        assert np.isnan(got[:, 0]).sum() == 1

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_pool_fallback_inputs(self, dtype):
        """One channel and rows that are not C-contiguous take ``mean``,
        which sums a column pairwise."""
        rng = np.random.default_rng(9)
        sizes = [1, 30, 4, 17]
        segs = view_segments(sizes)
        wide = special_rows(rng, sum(sizes), 5, dtype)
        for x in (wide[:, :1].copy(), wide[:, 1:4], np.asfortranarray(wide)):
            want = np.stack([x[s:e].mean(axis=0) for s, e in segs])
            assert same_bytes(global_average_pool(x, segs), want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("width", [1, 5])
    @pytest.mark.parametrize("repeats", [1, 40])
    def test_merge_rows(self, dtype, width, repeats):
        rng = np.random.default_rng(width)
        sizes = [1, 3, 1, 4, 2, 1, 5, 1] * repeats
        rows = np.repeat(np.arange(len(sizes)), sizes)
        feats = special_rows(rng, len(rows), width, dtype)
        want = np.zeros((len(sizes), width), dtype)
        for r, f in zip(rows.tolist(), feats):
            want[r] = want[r] + f
        for r, n in enumerate(sizes):
            want[r] = want[r] / dtype(n)
        assert same_bytes(merge_rows(feats, rows, len(sizes)), want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("clean", [4, 300])
    def test_merge_views_keeps_clean_rows_bytes(self, dtype, clean):
        # view 0 collides; view 1 does not and keeps -0.0 and the payload
        rng = np.random.default_rng(4)
        feats = special_rows(rng, 3 + clean, 3, dtype)
        feats[5] = -0.0
        rows = np.concatenate([[0, 0], np.arange(1, clean + 2)])
        view = np.repeat([0, 1], [3, clean])
        got = merge_views(feats, rows, view)
        assert same_bytes(got[2:], feats[3:])
        assert same_bytes(got[:2], merge_rows(feats[:3], rows[:3], 2))
