"""Rulebook construction, sparse conv/BN/residual stack, pooling network."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slidessl.errors import (DegenerateBatch, DimensionMismatch, EmptyBag, NoForwardCache,
                             SpanTooLarge)
from slidessl.numcore import ParamStore, finite_diff_grad, init_params, max_rel_err
from slidessl.selfcheck import dense_conv_at_active
from slidessl.sparseconv import (
    BN_EPS,
    BN_MOMENTUM,
    Adjacency,
    PoolingNetwork,
    PoolingNetworkConfig,
    build_rulebook,
    column_sums,
    global_average_pool,
    global_average_pool_backward,
    kernel_offsets,
    neighbour_table,
    network_shapes,
    sparse_batchnorm_backward,
    sparse_batchnorm_forward,
    submconv_forward,
    submconv_input_grad,
    submconv_weight_grad,
    table_pairs,
    view_pairs,
    view_segments,
)
from slidessl.sparsemap import SparseMap


def make_map(sites, feats=None, dim=3, seed=0):
    sites = np.array(sites, dtype=np.int64)
    if feats is None:
        feats = np.random.default_rng(seed).normal(size=(len(sites), dim))
    return SparseMap(sites, np.asarray(feats, dtype=np.float64))


def map_pairs(m, kernel_size):
    """One map's ``Adjacency``: ``view_pairs`` of a single view."""
    return view_pairs(np.zeros(m.n_sites, np.int64), m.sites, kernel_size)


def random_map(rng, n_sites, dim, extent=8):
    # distinct sites inside an extent x extent window
    cells = rng.choice(extent * extent, size=n_sites, replace=False)
    sites = np.stack([cells // extent, cells % extent], axis=1).astype(np.int64)
    order = np.lexsort([sites[:, 1], sites[:, 0]])
    return SparseMap(sites[order], rng.normal(size=(n_sites, dim)))


def brute_force_pairs(sites, kernel_size):
    """O(n^2) neighbor scan: the oracle the rulebook must reproduce.

    Per offset, an int64 ``(m, 2)`` array of (input, output) pairs with
    output sites ascending: the order that fixes the bits of the weight
    gradient.
    """
    c = kernel_size // 2
    out = {o: [] for o in kernel_offsets(kernel_size)}
    for out_idx, s in enumerate(sites):
        for in_idx, t in enumerate(sites):
            o = (int(t[0] - s[0]), int(t[1] - s[1]))
            if abs(o[0]) <= c and abs(o[1]) <= c:
                out[o].append((in_idx, out_idx))
    return {o: np.array(p, dtype=np.int64).reshape(-1, 2)
            for o, p in out.items()}


class TestRulebook:
    def test_single_site(self):
        rb = build_rulebook(make_map([(0, 0)], dim=2), 3)
        center = kernel_offsets(3).index((0, 0))
        for o, pr in enumerate(rb.pairs):
            if o == center:
                assert pr.tolist() == [[0, 0]]
            else:
                assert len(pr) == 0

    def test_horizontal_pair(self):
        rb = build_rulebook(make_map([(0, 0), (1, 0)], dim=2), 3)
        offs = kernel_offsets(3)
        by_offset = {offs[i]: rb.pairs[i] for i in range(9)}
        assert by_offset[(0, 0)].tolist() == [[0, 0], [1, 1]]
        assert by_offset[(1, 0)].tolist() == [[1, 0]]
        assert by_offset[(-1, 0)].tolist() == [[0, 1]]
        for o in offs:
            if o not in ((0, 0), (1, 0), (-1, 0)):
                assert len(by_offset[o]) == 0

    def test_matches_quadratic_oracle(self):
        # exact arrays, not pair sets: dtype, shape (empty offsets included)
        # and order, on sorted, unsorted, shifted, far-apart and 1-site maps
        rng = np.random.default_rng(4)
        maps = []
        for trial in range(10):
            m = random_map(rng, int(rng.integers(2, 25)), dim=2, extent=6)
            perm = rng.permutation(m.n_sites)
            far = (m.sites + 7) * int(rng.integers(2, 10**6))
            shift = rng.integers(-10**9, 0, size=2)
            maps += [m, SparseMap(m.sites[perm], m.features[perm]),
                     SparseMap(m.sites + shift, m.features),
                     SparseMap(np.concatenate([m.sites, far]),
                               np.concatenate([m.features, m.features])),
                     SparseMap(m.sites[:1] + shift, m.features[:1])]
        for k in (1, 3, 5):
            for idx, m in enumerate(maps):
                rb = build_rulebook(m, k)
                oracle = brute_force_pairs(m.sites, k)
                assert len(rb.pairs) == k * k
                for o, off in enumerate(kernel_offsets(k)):
                    got = rb.pairs[o]
                    assert got.dtype == np.int64, (k, idx, off)
                    assert got.shape == oracle[off].shape, (k, idx, off)
                    assert np.array_equal(got, oracle[off]), (k, idx, off)

    def test_zero_offset_is_identity(self):
        rng = np.random.default_rng(5)
        m = random_map(rng, 15, dim=2)
        rb = build_rulebook(m, 5)
        center = kernel_offsets(5).index((0, 0))
        assert rb.pairs[center].tolist() == [[i, i] for i in range(15)]
        # a hand-built map that repeats a site has no well-defined pairing
        dup = make_map([(0, 0), (0, 0), (0, 1)], dim=2)
        with pytest.raises(ValueError, match="repeats a site"):
            build_rulebook(dup, 3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            build_rulebook(make_map([(0, 0)]), 2)

    def test_unpackable_span_rejected(self):
        # 2**32 rows of 2**31 + 2 padded columns pass the int64 maximum
        with pytest.raises(SpanTooLarge, match=str(2 ** 31 + 2)):
            build_rulebook(make_map([(0, 0), (2 ** 32 - 3, 2 ** 31 - 1)]), 3)


def reference_neighbour_table(sites, kernel_size):
    """``neighbour_table`` as one stable sort of the keys and one
    ``searchsorted`` of every (offset, site) query: the form the search by
    row windows must reproduce."""
    c = kernel_size // 2
    lo_i, lo_j = sites.min(axis=0) - c
    width = sites[:, 1].max() + c - lo_j + 1
    keys = (sites[:, 0] - lo_i) * width + (sites[:, 1] - lo_j)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    steps = np.array([di * width + dj for di, dj in kernel_offsets(kernel_size)],
                     dtype=np.int64)
    queries = keys + steps[:, None]
    pos = np.searchsorted(sorted_keys, queries, side="right") - 1
    return np.where(sorted_keys[pos] == queries, order[pos], -1)


@given(st.sets(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
               min_size=1, max_size=80),
       st.sampled_from([1, 3, 5]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_neighbour_table_equals_sort_and_search(cells, kernel_size, seed):
    sites = np.array(sorted(cells), dtype=np.int64)   # canonical: by i, then j
    shuffled = np.random.default_rng(seed).permutation(len(sites))
    for order in (np.arange(len(sites)), shuffled):
        got = neighbour_table(sites[order], kernel_size)
        assert same_bytes(got, reference_neighbour_table(sites[order], kernel_size))
        repeated = np.concatenate([sites[order], sites[order][-1:]])
        with pytest.raises(ValueError, match="repeats a site"):
            neighbour_table(repeated, kernel_size)


def loop_table_pairs(table):
    """The ``Adjacency`` entries of a neighbour table by a loop over offsets
    and, within one, over output rows; the zero offset contributes none."""
    src, dst, bounds = [], [], [0]
    for o in range(len(table)):
        for t in range(table.shape[1]):
            if o != len(table) // 2 and table[o, t] >= 0:
                src.append(int(table[o, t]))
                dst.append(t)
        bounds.append(len(src))
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), bounds


class TestTablePairs:
    @staticmethod
    def check(table):
        got = table_pairs(table)
        src, dst, bounds = loop_table_pairs(table)
        assert got.src.dtype == got.dst.dtype == np.int64
        assert same_bytes(got.src, src) and same_bytes(got.dst, dst)
        assert got.bounds == bounds
        assert got.n_rows == table.shape[1]

    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    def test_neighbour_tables(self, kernel_size):
        rng = np.random.default_rng(kernel_size)
        for n_sites in (1, 2, 7, 30, 64):
            m = random_map(rng, n_sites, dim=1)
            self.check(neighbour_table(m.sites, kernel_size))

    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    def test_random_tables(self, kernel_size):
        rng = np.random.default_rng(10 + kernel_size)
        for n in (1, 3, 20, 101):
            table = rng.integers(-1, n, size=(kernel_size ** 2, n))
            table[rng.random(table.shape) < 0.5] = -1
            table[0] = rng.integers(0, n, size=n)      # a full offset
            self.check(table)

    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    def test_tables_without_neighbours(self, kernel_size):
        table = np.full((kernel_size ** 2, 6), -1, dtype=np.int64)
        self.check(table)
        table[len(table) // 2] = np.arange(6)          # the identity only
        self.check(table)
        assert table_pairs(table).bounds == [0] * (kernel_size ** 2 + 1)

    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    def test_width_zero_table(self, kernel_size):
        self.check(np.zeros((kernel_size ** 2, 0), dtype=np.int64))


class TestSubmConv:
    def setup_instance(self, seed=0, n=10, c_in=3, c_out=4, k=3):
        rng = np.random.default_rng(seed)
        m = random_map(rng, n, dim=c_in)
        w = rng.normal(size=(k, k, c_in, c_out))
        return m, w, map_pairs(m, k)

    def test_single_site_center_tap(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=3)
        m = make_map([(5, 7)], [f])
        w = rng.normal(size=(3, 3, 3, 4))
        out = submconv_forward(m.features, w, map_pairs(m, 3))
        np.testing.assert_allclose(out[0], f @ w[1, 1], rtol=1e-12)

    def test_identity_kernel(self):
        m = random_map(np.random.default_rng(2), 12, dim=5)
        w = np.zeros((3, 3, 5, 5))
        w[1, 1] = np.eye(5)
        out = submconv_forward(m.features, w, map_pairs(m, 3))
        np.testing.assert_allclose(out, m.features, rtol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            n = int(rng.integers(1, 30))
            m = random_map(rng, n, dim=3, extent=8)
            w = rng.normal(size=(3, 3, 3, 4))
            out = submconv_forward(m.features, w, map_pairs(m, 3))
            ref = dense_conv_at_active(m, w, extent=8)
            np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_dense_oracle_16_window_kernel5(self):
        rng = np.random.default_rng(6)
        m = random_map(rng, 40, dim=2, extent=16)
        w = rng.normal(size=(5, 5, 2, 3))
        out = submconv_forward(m.features, w, map_pairs(m, 5))
        ref = dense_conv_at_active(m, w, extent=16)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_preserves_active_sites(self):
        m, w, pairs = self.setup_instance()
        out = submconv_forward(m.features, w, pairs)
        assert out.shape == (m.n_sites, 4)

    def test_kernel_size_mismatch_is_stale(self):
        m, w, _ = self.setup_instance(k=3)
        with pytest.raises(DimensionMismatch):
            submconv_forward(m.features, w, map_pairs(m, 5))

    def test_channel_mismatch(self):
        m, _, pairs = self.setup_instance()
        with pytest.raises(DimensionMismatch):
            submconv_forward(m.features, np.zeros((3, 3, 7, 4)), pairs)

    def test_backward_zero_grad(self):
        m, w, pairs = self.setup_instance()
        dx, dw = conv_backward(np.zeros((m.n_sites, 4)), m.features,
                               w, pairs)
        assert not dx.any() and not dw.any()

    def test_backward_single_site_closed_form(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=3)
        g = rng.normal(size=4)
        m = make_map([(2, 2)], [f])
        w = rng.normal(size=(3, 3, 3, 4))
        dx, dw = conv_backward(g[None, :], m.features, w, map_pairs(m, 3))
        np.testing.assert_allclose(dw[1, 1], np.outer(f, g), rtol=1e-14)
        np.testing.assert_allclose(dx[0], g @ w[1, 1].T, rtol=1e-14)
        assert not dw[0, 0].any()

    def test_backward_matches_finite_differences(self):
        m, w, pairs = self.setup_instance(seed=10, n=14)
        rng = np.random.default_rng(11)
        r = rng.normal(size=(m.n_sites, 4))

        dx, dw = conv_backward(r, m.features, w, pairs)

        def loss_x(x):
            return float(np.sum(submconv_forward(x, w, pairs) * r))

        def loss_w(ww):
            return float(np.sum(submconv_forward(m.features, ww, pairs) * r))

        assert max_rel_err(dx, finite_diff_grad(loss_x, m.features)) < 1e-6
        assert max_rel_err(dw, finite_diff_grad(loss_w, w)) < 1e-6


def conv_backward(grad_out, x, weights, pairs):
    """(dx, dw) of the convolution from its two backward halves."""
    dw = np.zeros_like(weights)
    submconv_weight_grad(grad_out, x, pairs, dw)
    return submconv_input_grad(grad_out, weights, pairs), dw


def loop_submconv_forward(x, weights, pairs):
    """The per-pair form of the convolution: gather, product, ``+=``
    scatter for every offset, the zero offset included."""
    k = weights.shape[0]
    out = np.zeros((len(x), weights.shape[3]), weights.dtype)
    for o, pr in enumerate(pairs):
        if len(pr):
            out[pr[:, 1]] += x[pr[:, 0]] @ weights[o // k, o % k]
    return out


def loop_submconv_backward(grad_out, x, weights, pairs):
    """The per-pair form of the convolution's backward pass."""
    k = weights.shape[0]
    dx = np.zeros_like(x)
    dw = np.zeros_like(weights)
    for o, pr in enumerate(pairs):
        if len(pr):
            src, dst = pr[:, 0], pr[:, 1]
            dw[o // k, o % k] = x[src].T @ grad_out[dst]
            dx[src] += grad_out[dst] @ weights[o // k, o % k].T
    return dx, dw


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_cases():
    """(x, weights, grad_out, pairs) over random maps, one-site maps,
    maps whose off-centre offsets are all empty, k = 5 and one channel."""
    rng = np.random.default_rng(40)
    cases = []
    for k, n_sites, c_in, c_out, extent in [
            (3, 30, 4, 5, 8), (3, 60, 3, 3, 12), (5, 25, 2, 6, 8),
            (3, 1, 3, 4, 8), (5, 1, 1, 1, 8), (3, 20, 1, 3, 6),
            (3, 12, 4, 1, 5), (1, 9, 3, 2, 8)]:
        maps = [random_map(rng, n_sites, dim=c_in, extent=extent),
                random_map(rng, min(n_sites, 4), dim=c_in, extent=extent)]
        # sites three cells apart: every offset but the centre is empty
        far = SparseMap(np.array([[0, 0], [0, 3], [3, 0]]) * k,
                        rng.normal(size=(3, c_in)))
        for m in maps + [far]:
            cases.append((m.features, rng.normal(size=(k, k, c_in, c_out)),
                          rng.normal(size=(m.n_sites, c_out)),
                          map_pairs(m, k)))
    # many maps laid out as rows, as training and inference run them
    sizes = [7, 1, 12, 5]
    maps = [random_map(rng, n, dim=3, extent=6) for n in sizes]
    cases.append((np.concatenate([m.features for m in maps]),
                  rng.normal(size=(3, 3, 3, 4)),
                  rng.normal(size=(sum(sizes), 4)),
                  view_pairs(np.repeat(np.arange(4), sizes),
                             np.concatenate([m.sites for m in maps]), 3)))
    # three views whose offsets hold 0 pairs or exactly 1: (0, +-1) in the
    # first view, (+-1, +-1) in the third, none elsewhere
    sites = np.array([[0, 0], [0, 1], [5, 5], [0, 0], [1, 1]])
    cases.append((rng.normal(size=(5, 3)), rng.normal(size=(3, 3, 3, 2)),
                  rng.normal(size=(5, 2)),
                  view_pairs(np.array([0, 0, 1, 2, 2]), sites, 3)))
    return cases


class TestKernelBytes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_per_pair_form(self, dtype):
        for x, w, g, pairs in kernel_cases():
            x, w, g = (a.astype(dtype) for a in (x, w, g))
            assert same_bytes(submconv_forward(x, w, pairs),
                              loop_submconv_forward(x, w, pairs))
            for got, want in zip(conv_backward(g, x, w, pairs),
                                 loop_submconv_backward(g, x, w, pairs)):
                assert same_bytes(got, want)

    def test_offsets_of_zero_and_one_pair(self):
        pairs = kernel_cases()[-1][-1]
        assert [len(pr) for pr in pairs] == [1, 0, 0, 1, 5, 1, 0, 0, 1]

    def test_zero_offset_must_pair_every_row(self):
        x, w, g, pairs = kernel_cases()[0]
        assert isinstance(pairs, Adjacency)
        for n_rows in (len(x) - 1, 2 * len(x)):
            broken = replace(pairs, n_rows=n_rows)
            with pytest.raises(DimensionMismatch, match="zero offset"):
                submconv_forward(x, w, broken)
            with pytest.raises(DimensionMismatch, match="zero offset"):
                submconv_weight_grad(g, x, broken, np.zeros_like(w))
            with pytest.raises(DimensionMismatch, match="zero offset"):
                submconv_input_grad(g, w, broken)


def fresh_bn(c):
    """gamma, beta, running mean and running variance of a new batch norm."""
    return [np.ones(c), np.zeros(c), np.zeros(c), np.ones(c)]


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        x = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        out, _ = sparse_batchnorm_forward(x, *fresh_bn(2))
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)

    def test_two_point_normalization(self):
        x = np.array([[-1.0], [1.0]])
        out, _ = sparse_batchnorm_forward(x, *fresh_bn(1))
        expect = 1.0 / np.sqrt(1.0 + BN_EPS)
        np.testing.assert_allclose(out[:, 0], [-expect, expect], rtol=1e-12)

    def test_single_site_train_degenerate(self):
        with pytest.raises(DegenerateBatch):
            sparse_batchnorm_forward(np.ones((1, 3)), *fresh_bn(3))

    def test_eval_single_site_allowed(self):
        # the eval forward reads the running stats: one site is enough
        net, _ = build_network(PoolingNetworkConfig(in_channels=3,
                                                    block_channels=(3,), out_dim=2))
        m = make_map([(0, 0)])
        z, cache = net.forward([m], training=False)
        assert z.shape == (1, 2) and np.isfinite(z).all() and cache is None
        with pytest.raises(DegenerateBatch):
            net.forward([m], training=True)

    def test_running_stats_momentum_update(self):
        assert BN_MOMENTUM == 0.1
        _, _, mean, var = bn = fresh_bn(1)
        x = np.array([[2.0], [4.0]])  # mean 3, biased var 1
        sparse_batchnorm_forward(x, *bn)
        np.testing.assert_allclose(mean, [0.9 * 0.0 + 0.1 * 3.0])
        np.testing.assert_allclose(var, [0.9 * 1.0 + 0.1 * 1.0])

    def test_eval_uses_running_stats_and_keeps_them(self):
        # one channel, 1 x 1 convs of weight 1, gamma 1, beta 0, head 1 and 0:
        # embed_rows is the mean of relu(bn2(relu(bn1(x))) + x)
        cfg = PoolingNetworkConfig(in_channels=1, block_channels=(1,),
                                   kernel_size=1, out_dim=1)
        net, store = build_network(cfg)
        for name in store.params:
            store[name][...] = 1.0 if name.endswith((".w", "gamma")) else 0.0
        net.buffers["net.block0.bn1.run_mean"][:] = 5.0
        net.buffers["net.block0.bn1.run_var"][:] = 4.0
        m = make_map([(0, 0), (0, 1)], [[7.0], [9.0]])
        z = net.embed_rows(m.features, map_pairs(m, 1), [(0, 2)])
        a = np.maximum((m.features - 5.0) / np.sqrt(4.0 + BN_EPS), 0.0)
        want = np.maximum(a / np.sqrt(1.0 + BN_EPS) + m.features, 0.0).mean()
        np.testing.assert_allclose(z, [[want]], rtol=1e-12)
        assert net.buffers["net.block0.bn1.run_mean"][0] == 5.0
        assert net.buffers["net.block0.bn1.run_var"][0] == 4.0

    def test_affine_params_applied(self):
        gamma, beta, _, _ = bn = fresh_bn(1)
        gamma[:] = 2.0
        beta[:] = 0.5
        x = np.array([[-1.0], [1.0]])
        out, _ = sparse_batchnorm_forward(x, *bn)
        expect = 2.0 / np.sqrt(1.0 + BN_EPS)
        np.testing.assert_allclose(out[:, 0], [0.5 - expect, 0.5 + expect],
                                   rtol=1e-12)

    def test_backward_matches_finite_differences_train(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(9, 4))
        gamma = rng.normal(size=4)
        beta = rng.normal(size=4)
        r = rng.normal(size=(9, 4))

        def run(xx, g, b):
            return sparse_batchnorm_forward(xx, g, b, np.zeros(4), np.ones(4))

        out, cache = run(x, gamma, beta)
        dx, dg, db = sparse_batchnorm_backward(r, cache)

        assert max_rel_err(
            dx, finite_diff_grad(
                lambda xx: float(np.sum(run(xx, gamma, beta)[0] * r)), x)) < 1e-5
        assert max_rel_err(
            dg, finite_diff_grad(
                lambda g: float(np.sum(run(x, g, beta)[0] * r)), gamma)) < 1e-5
        assert max_rel_err(
            db, finite_diff_grad(
                lambda b: float(np.sum(run(x, gamma, b)[0] * r)), beta)) < 1e-5

    def test_backward_requires_cache(self):
        with pytest.raises(NoForwardCache):
            sparse_batchnorm_backward(np.zeros((2, 1)), None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,order", [((4510, 16), "C"), ((300, 1), "C"),
                                             ((64, 64), "C"), ((200, 5), "F")])
    def test_bytes_equal_mean_var_formulas(self, dtype, shape, order):
        # a training step's statistics and gradients at its own scale
        rng = np.random.default_rng(14)
        x = np.asarray(rng.normal(3.0, 2.0, size=shape), dtype=dtype, order=order)
        r = rng.normal(size=shape).astype(dtype)
        gamma, beta = (rng.normal(size=shape[1]).astype(dtype) for _ in range(2))
        stats = [np.full(shape[1], 0.5, dtype), np.full(shape[1], 2.0, dtype)]
        want_stats = [a.copy() for a in stats]
        want, want_cache = reference_bn(x, gamma, beta, *want_stats, training=True)
        got, cache = sparse_batchnorm_forward(x, gamma, beta, *stats)
        assert same_bytes(got, want)
        for a, b in zip(stats, want_stats):
            assert same_bytes(a, b)
        _, dgamma, dbeta = sparse_batchnorm_backward(r, cache)
        assert same_bytes(dgamma, (r * want_cache["xhat"]).sum(axis=0))
        assert same_bytes(dbeta, r.sum(axis=0))


@st.composite
def summed_arrays(draw):
    """Finite arrays of 1-64 columns and 1-5,000 rows in every layout numpy
    hands a reduction: C-ordered, row-strided, misaligned (half an item
    off), column-major."""
    n, c = draw(st.integers(1, 5000)), draw(st.integers(1, 64))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = (rng.normal(size=(n, c)) * 10.0 ** draw(st.integers(-30, 30))).astype(dtype)
    x[:, draw(st.integers(0, c - 1))] = draw(st.sampled_from([-0.0, 1e-310, 1.0]))
    layout = draw(st.sampled_from(["C", "rows", "misaligned", "F"]))
    if layout == "rows":
        step = draw(st.integers(2, 3))
        wide = np.zeros((n * step, c), dtype)
        wide[::step] = x
        x = wide[::step]
    elif layout == "misaligned":
        off = x.itemsize // 2
        raw = np.zeros(x.nbytes + off, np.uint8)[off:].view(dtype).reshape(n, c)
        raw[...] = x
        x = raw
        assert not x.flags.aligned
    elif layout == "F":
        x = np.asfortranarray(x)
    return x


@given(summed_arrays())
@settings(max_examples=150, deadline=None)
def test_column_sums_bytes_equal_sum(x):
    assert same_bytes(column_sums(x), x.sum(axis=0))


class TestGlobalAveragePool:
    def test_single_site(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(global_average_pool(x, [(0, 1)]),
                                      [[1.0, 2.0, 3.0]])

    def test_two_sites_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        np.testing.assert_allclose(global_average_pool(x, [(0, 2)]), [[2.0, 4.0]])

    def test_row_order_irrelevant(self):
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(4, 3))
        perm = [2, 0, 3, 1]
        a = global_average_pool(feats, [(0, 4)])
        b = global_average_pool(feats[perm], [(0, 4)])
        np.testing.assert_allclose(a, b, rtol=1e-15)

    def test_segments_pool_separately(self):
        x = np.array([[1.0], [3.0], [10.0], [20.0], [30.0]])
        np.testing.assert_allclose(global_average_pool(x, [(0, 2), (2, 5)]),
                                   [[2.0], [20.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 2, 16, 64])
    def test_equals_per_segment_mean_byte_for_byte(self, width, dtype):
        rng = np.random.default_rng(width)
        sizes = np.concatenate([[1, 1, 1], rng.integers(2, 300, size=40)])
        rng.shuffle(sizes)
        segs = view_segments(sizes)
        scale = 10.0 ** rng.uniform(-4, 4, size=width)
        x = (rng.normal(size=(int(sizes.sum()), width)) * scale).astype(dtype)
        x[rng.random(len(x)) < 0.1] = -0.0       # -0.0 rows among others
        x[:sizes[0]] = -0.0                      # and a segment of them
        want = np.stack([x[s:e].mean(axis=0) for s, e in segs])
        got = global_average_pool(x, segs)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        # a column-major x sums each column pairwise, and so must the pool
        strided = np.asfortranarray(x)
        want = np.stack([strided[s:e].mean(axis=0) for s, e in segs])
        assert global_average_pool(strided, segs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_per_segment_loop(self, dtype):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 50, size=20)
        segs = view_segments(sizes)
        dpooled = rng.normal(size=(len(segs), 7)).astype(dtype)
        want = np.zeros((int(sizes.sum()), 7), dtype=dtype)
        for (s, e), row in zip(segs, dpooled):
            want[s:e] = row / (e - s)
        got = global_average_pool_backward(dpooled, segs)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_network_and_gradcheck_use_the_one_backward(self, monkeypatch):
        from slidessl import gradcheck, sparseconv
        calls = []

        def counted(dpooled, segs):
            calls.append(len(segs))
            return global_average_pool_backward(dpooled, segs)
        monkeypatch.setattr(sparseconv, "global_average_pool_backward", counted)
        monkeypatch.setattr(gradcheck, "global_average_pool_backward", counted)
        net, _ = build_network(PoolingNetworkConfig(in_channels=3,
                                                    block_channels=(4,)))
        maps = [random_map(np.random.default_rng(i), 3 + i, dim=3)
                for i in range(2)]
        z, cache = net.forward(maps, True)
        net.backward(np.ones_like(z), cache)
        assert calls == [2]
        build = {name: b for name, _, b in gradcheck.CHECKS}["global_average_pool"]
        gradcheck._worst_err(*build(np.random.default_rng(0)))
        assert len(calls) == 2


def build_network(config, seed=0, dtype=np.float64):
    store = ParamStore(init_params(network_shapes(config),
                                   np.random.default_rng(seed), dtype))
    return PoolingNetwork(config, store), store


def block_forward(net, block, m):
    """One residual block of the network over a single map's rows."""
    out, _ = net._block_forward(block, m.features,
                                map_pairs(m, net.config.kernel_size))
    return out


def reference_bn(x, gamma, beta, run_mean, run_var, training, eps=1e-5):
    """Batch norm as plain formulas: in training, with the batch statistics,
    which it folds into the running stats given; in eval, with the running
    stats, which it leaves as they are."""
    if training:
        mean, var = x.mean(axis=0), x.var(axis=0)
        run_mean += 0.1 * (mean - run_mean)
        run_var += 0.1 * (var - run_var)
    else:
        mean, var = run_mean, run_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, {"xhat": xhat, "inv_std": inv_std,
                                 "gamma": gamma}


def reference_eval(net, x, pairs, segs):
    """The eval network written out in float64 with batch norm applied,
    not folded: per-pair convolutions, ``reference_bn`` on the running
    stats, explicit ReLU and skip, per-segment mean, head."""
    st = {n: a.astype(np.float64) for n, a in net.store.params.items()}
    buffers = {n: b.astype(np.float64) for n, b in net.buffers.items()}
    x = x.astype(np.float64)
    for b in range(net.config.n_blocks):
        p = f"net.block{b}."
        h = x
        for i in (1, 2):
            bn = f"{p}bn{i}."
            h, _ = reference_bn(loop_submconv_forward(h, st[f"{p}conv{i}.w"], pairs),
                                st[bn + "gamma"], st[bn + "beta"],
                                buffers[bn + "run_mean"], buffers[bn + "run_var"],
                                training=False)
            if i == 1:
                h = np.maximum(h, 0.0)
        skip = x @ st[p + "proj.w"][0, 0] if p + "proj.w" in st else x
        x = np.maximum(h + skip, 0.0)
    pooled = np.stack([x[s:e].mean(axis=0) for s, e in segs])
    return pooled @ st["net.head.w"] + st["net.head.b"]


def reference_folded(net, x, pairs, segs):
    """``embed_rows`` as block formulas in the network's dtype: each batch
    norm folded into its conv as ``W s`` and ``beta - run_mean s``, with
    ``s = gamma / sqrt(run_var + eps)``, then the per-pair convolution, the
    bias, explicit ReLU and skip, pool and head. No in-place update."""
    st, buffers = net.store, net.buffers
    for b in range(net.config.n_blocks):
        p = f"net.block{b}."
        h = x
        for i in (1, 2):
            bn = f"{p}bn{i}."
            s = st[bn + "gamma"] / np.sqrt(buffers[bn + "run_var"] + BN_EPS)
            h = (loop_submconv_forward(h, st[f"{p}conv{i}.w"] * s, pairs)
                 + (st[bn + "beta"] - buffers[bn + "run_mean"] * s))
            if i == 1:
                h = np.maximum(h, 0.0)
        skip = x @ st[p + "proj.w"][0, 0] if p + "proj.w" in st else x
        x = np.maximum(h + skip, 0.0)
    return global_average_pool(x, segs) @ st["net.head.w"] + st["net.head.b"]


def reference_rows(net, x, pairs, segs, grad_z):
    """``forward_rows`` then ``backward`` of ``net`` written out block by
    block with the per-pair convolution, explicit ReLU masks and no
    in-place update. Returns (z, parameter grads, buffers) without
    touching ``net``'s own gradients or buffers."""
    st = net.store
    buffers = {n: b.copy() for n, b in net.buffers.items()}
    grads = {n: np.zeros_like(st[n]) for n in st.params}
    blocks = []
    for b in range(net.config.n_blocks):
        p = f"net.block{b}."

        def bn(v, name):
            return reference_bn(v, st[p + name + ".gamma"], st[p + name + ".beta"],
                                buffers[p + name + ".run_mean"],
                                buffers[p + name + ".run_var"], training=True)

        y1n, bn1 = bn(loop_submconv_forward(x, st[p + "conv1.w"], pairs), "bn1")
        a1 = np.maximum(y1n, 0.0)
        y2n, bn2 = bn(loop_submconv_forward(a1, st[p + "conv2.w"], pairs), "bn2")
        skip = x @ st[p + "proj.w"][0, 0] if p + "proj.w" in st else x
        pre = y2n + skip
        blocks.append((p, x, a1, y1n > 0.0, pre > 0.0, bn1, bn2))
        x = np.maximum(pre, 0.0)
    pooled = global_average_pool(x, segs)
    z = pooled @ st["net.head.w"] + st["net.head.b"]

    grads["net.head.w"] += pooled.T @ grad_z
    grads["net.head.b"] += grad_z.sum(axis=0)
    dpooled = grad_z @ st["net.head.w"].T
    dx = np.zeros_like(x)
    for (s, e), row in zip(segs, dpooled):
        dx[s:e] = row / (e - s)
    for p, xin, a1, mask1, masko, bn1, bn2 in reversed(blocks):
        dpre = dx * masko
        dy2, grads_g2, grads_b2 = sparse_batchnorm_backward(dpre, bn2)
        da1, dw2 = loop_submconv_backward(dy2, a1, st[p + "conv2.w"], pairs)
        dy1, grads_g1, grads_b1 = sparse_batchnorm_backward(da1 * mask1, bn1)
        dx, dw1 = loop_submconv_backward(dy1, xin, st[p + "conv1.w"], pairs)
        for name, g in [("bn2.gamma", grads_g2), ("bn2.beta", grads_b2),
                        ("conv2.w", dw2), ("bn1.gamma", grads_g1),
                        ("bn1.beta", grads_b1), ("conv1.w", dw1)]:
            grads[p + name] += g
        if p + "proj.w" in st:
            wp = st[p + "proj.w"]
            dwp = np.zeros_like(wp)
            dwp[0, 0] = xin.T @ dpre
            grads[p + "proj.w"] += dwp
            dx = dx + dpre @ wp[0, 0].T
        else:
            dx = dx + dpre
    return z, grads, buffers


class TestResidualBlock:
    def test_zero_weights_zero_gamma_is_relu_skip(self):
        cfg = PoolingNetworkConfig(in_channels=4, block_channels=(4,))
        net, store = build_network(cfg)
        for name in store.params:
            if name.endswith("gamma") or name.endswith(".w"):
                store[name][...] = 0.0
        m = random_map(np.random.default_rng(15), 6, dim=4)
        out = block_forward(net, 0, m)
        np.testing.assert_allclose(out, np.maximum(m.features, 0.0),
                                   atol=1e-15)

    def test_single_site_equals_dense_vector_math(self):
        # the eval forward of a one-site map, batch norm on running stats
        cfg = PoolingNetworkConfig(in_channels=3, block_channels=(5,))
        net, store = build_network(cfg, seed=16)
        rng = np.random.default_rng(16)
        for buf in net.buffers.values():
            buf[...] = rng.uniform(0.5, 1.5, buf.shape)
        m = make_map([(4, 4)], seed=17, dim=3)
        z = net.embed_rows(m.features, map_pairs(m, 3), [(0, 1)])

        p = "net.block0."
        x = m.features[0]

        def bn_eval(v, name):
            mean = net.buffers[name + ".run_mean"]
            var = net.buffers[name + ".run_var"]
            xh = (v - mean) / np.sqrt(var + 1e-5)
            return store[name + ".gamma"] * xh + store[name + ".beta"]

        y1 = x @ store[p + "conv1.w"][1, 1]
        a1 = np.maximum(bn_eval(y1, p + "bn1"), 0.0)
        y2 = a1 @ store[p + "conv2.w"][1, 1]
        pre = bn_eval(y2, p + "bn2") + x @ store[p + "proj.w"][0, 0]
        want = np.maximum(pre, 0.0) @ store["net.head.w"] + store["net.head.b"]
        np.testing.assert_allclose(z[0], want, rtol=1e-12, atol=1e-14)

    def test_preserves_sites(self):
        cfg = PoolingNetworkConfig(in_channels=3, block_channels=(4,))
        net, _ = build_network(cfg)
        m = random_map(np.random.default_rng(18), 7, dim=3)
        out = block_forward(net, 0, m)
        assert out.shape == (m.n_sites, 4)


class TestRowsBytes:
    """``forward_rows`` and ``backward`` (training), and ``embed_rows``
    (eval), equal their block formulas byte for byte."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks,k", [((4, 5), 3), ((3, 3), 5), ((1,), 3)])
    def test_equal_block_formulas(self, training, dtype, blocks, k):
        cfg = PoolingNetworkConfig(in_channels=3, block_channels=blocks,
                                   kernel_size=k, out_dim=6)
        net, store = build_network(cfg, seed=41, dtype=dtype)
        rng = np.random.default_rng(42)
        for name in net.buffers:     # running stats away from 0 and 1
            net.buffers[name][...] = rng.uniform(0.5, 1.5, net.buffers[name].shape)
        sizes = [9, 1, 14, 6]
        maps = [random_map(rng, n, dim=3, extent=6) for n in sizes]
        x = np.concatenate([m.features for m in maps]).astype(dtype)
        pairs = view_pairs(np.repeat(np.arange(4), sizes),
                           np.concatenate([m.sites for m in maps]), k)
        segs = view_segments(sizes)
        grad_z = rng.normal(size=(4, 6)).astype(dtype)

        if training:
            want_z, want_grads, want_buffers = reference_rows(
                net, x, pairs, segs, grad_z)
            z, cache = net.forward_rows(x, pairs, segs)
            store.zero_grads()
            assert net.backward(grad_z, cache) is None
            for name in store.params:
                assert same_bytes(store.grads[name], want_grads[name]), name
        else:
            want_z = reference_folded(net, x, pairs, segs)
            want_buffers = {n: b.copy() for n, b in net.buffers.items()}
            z = net.embed_rows(x, pairs, segs)
        assert same_bytes(z, want_z)
        for name, buf in net.buffers.items():
            assert same_bytes(buf, want_buffers[name]), name


class TestSparseViewBytes:
    """Views of five tiles scattered over an 8 x 8 window, as a T = 5 step
    draws them: four offsets hold exactly one pair and four none."""

    def views(self, dtype):
        rng = np.random.default_rng(95)
        maps = [random_map(rng, 5, dim=32, extent=8) for _ in range(6)]
        pairs = view_pairs(np.repeat(np.arange(6), 5),
                           np.concatenate([m.sites for m in maps]), 3)
        x = np.concatenate([m.features for m in maps]).astype(dtype)
        return x, pairs, view_segments([5] * 6), rng

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_weight_grads_equal_per_pair_form(self, dtype):
        x, pairs, segs, rng = self.views(dtype)
        assert [len(pairs[o]) for o in range(9)] == [1, 0, 1, 0, 30, 0, 1, 0, 1]
        cfg = PoolingNetworkConfig(in_channels=32, block_channels=(16, 16),
                                   out_dim=6)
        net, store = build_network(cfg, seed=63, dtype=dtype)
        grad_z = rng.normal(size=(6, 6)).astype(dtype)
        _, want_grads, _ = reference_rows(net, x, pairs, segs, grad_z)
        _, cache = net.forward_rows(x, pairs, segs)
        store.zero_grads()
        net.backward(grad_z, cache)
        for name in store.params:
            assert same_bytes(store.grads[name], want_grads[name]), name
        for b in range(2):
            for conv in ("conv1.w", "conv2.w"):
                dw = store.grads[f"net.block{b}.{conv}"]
                assert not dw[[0, 1, 1, 2], [1, 0, 2, 1]].any()   # no pairs
                assert all(dw[i, j].any() for i in (0, 2) for j in (0, 2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_grad_of_zero_rows_keeps_positive_zero(self, dtype):
        """ReLU outputs hold exact zeros; a one-pair product of a zero with
        a negative gradient is -0.0, which the per-pair form sums to +0.0."""
        x, pairs, _, rng = self.views(dtype)
        x[:, ::2] = 0.0
        g = -np.abs(rng.normal(size=(len(x), 16))).astype(dtype)
        for c_in, c_out in ((32, 16), (1, 1), (1, 16), (32, 1)):
            # C-contiguous rows, as the network passes them
            xc, gc = x[:, :c_in].copy(), g[:, :c_out].copy()
            w = np.ones((3, 3, c_in, c_out), dtype)
            dw = np.zeros_like(w)
            submconv_weight_grad(gc, xc, pairs, dw)
            assert same_bytes(dw, loop_submconv_backward(gc, xc, w, pairs)[1])
            assert not np.signbit(dw[dw == 0]).any()

    def test_weight_grad_casts_wider_rows_into_its_dtype(self):
        """float64 features through a float32 network: each offset's
        product is made in float64 and rounded once into the float32 row."""
        x, pairs, _, rng = self.views(np.float64)
        g = rng.normal(size=(len(x), 16))
        w = np.ones((3, 3, 32, 16), np.float32)
        dw = np.zeros_like(w)
        submconv_weight_grad(g, x, pairs, dw)
        assert same_bytes(dw, loop_submconv_backward(g, x, w, pairs)[1])


class TestFoldedEval:
    """``embed_rows`` folds each eval batch norm into the conv before it, so
    it equals the float64 eval network with batch norm applied
    (``reference_eval``) only up to rounding: within ``FOLD_BOUND[dtype]``
    times ``max|z|``, with running statistics and affine parameters far
    from their initial 0 and 1."""

    FOLD_BOUND = {np.float32: 1e-5, np.float64: 1e-12}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks,k", [((4, 4), 1), ((4, 5), 3), ((3, 3), 5),
                                          ((5,), 5), ((2, 6, 6), 3)])
    def test_equals_eval_forward(self, dtype, blocks, k):
        cfg = PoolingNetworkConfig(in_channels=3, block_channels=blocks,
                                   kernel_size=k, out_dim=6)
        net, store = build_network(cfg, seed=51, dtype=dtype)
        rng = np.random.default_rng(52)
        for name, buf in net.buffers.items():
            if name.endswith("run_var"):
                buf[...] = rng.uniform(0.05, 4.0, buf.shape)
            else:
                buf[...] = rng.normal(scale=2.0, size=buf.shape)
        for name in store.params:
            if ".bn" in name:
                store[name][...] = rng.normal(loc=0.5, size=store[name].shape)
        store.grads["net.head.b"][...] = 7.0     # a gradient left by a step
        sizes = [9, 1, 14, 6, 20]
        maps = [random_map(rng, n, dim=3, extent=6) for n in sizes]
        x = np.concatenate([m.features for m in maps]).astype(dtype)
        pairs = view_pairs(np.repeat(np.arange(len(sizes)), sizes),
                           np.concatenate([m.sites for m in maps]), k)
        segs = view_segments(sizes)
        x_before = x.copy()
        buffer_before = store.buffer.copy()
        buffers_before = {n: b.copy() for n, b in net.buffers.items()}

        want = reference_eval(net, x, pairs, segs)
        got = net.embed_rows(x, pairs, segs)
        assert got.dtype == dtype and got.shape == want.shape
        err = float(np.max(np.abs(got - want)))
        assert err <= self.FOLD_BOUND[dtype] * float(np.max(np.abs(want))), err
        # reads only: parameters, gradients, Adam moments, BN buffers, input
        assert same_bytes(store.buffer, buffer_before)
        for name, buf in net.buffers.items():
            assert same_bytes(buf, buffers_before[name]), name
        assert same_bytes(x, x_before)


class TestPoolingNetwork:
    def small_cfg(self):
        return PoolingNetworkConfig(in_channels=3, block_channels=(4, 5),
                                    kernel_size=3, out_dim=6)

    def test_output_shape(self):
        net, _ = build_network(self.small_cfg())
        maps = [random_map(np.random.default_rng(s), 5, dim=3) for s in range(4)]
        z, _ = net.forward(maps, training=False)
        assert z.shape == (4, 6)

    def test_zero_weight_network_outputs_head_bias(self):
        net, store = build_network(self.small_cfg())
        for name in store.params:
            store[name][...] = 0.0
        store["net.head.b"][...] = np.arange(6.0)
        m = random_map(np.random.default_rng(19), 5, dim=3)
        np.testing.assert_allclose(net.forward([m], False)[0][0], np.arange(6.0),
                                   atol=1e-15)

    def test_translation_invariance_bit_exact(self):
        net, _ = build_network(self.small_cfg(), seed=20)
        m = random_map(np.random.default_rng(21), 9, dim=3)
        a = net.forward([m], False)[0][0]
        b = net.forward([SparseMap(m.sites + [10, 7], m.features)], False)[0][0]
        assert np.array_equal(a, b)

    def test_translation_invariance_train_mode(self):
        net, _ = build_network(self.small_cfg(), seed=20)
        m = random_map(np.random.default_rng(22), 9, dim=3)
        za, _ = net.forward([m], training=True)
        zb, _ = net.forward([SparseMap(m.sites + [3, 11], m.features)],
                            training=True)
        assert np.array_equal(za, zb)

    def test_eval_forward_is_embed_rows(self):
        # forward lays the maps out as rows once; eval mode embeds them
        net, _ = build_network(self.small_cfg(), seed=23)
        rng = np.random.default_rng(32)
        for buf in net.buffers.values():
            buf[...] = rng.uniform(0.5, 1.5, buf.shape)
        sizes = [6, 1, 9]
        maps = [random_map(rng, n, dim=3) for n in sizes]
        z, cache = net.forward(maps, training=False)
        pairs = view_pairs(np.repeat(np.arange(3), sizes),
                           np.concatenate([m.sites for m in maps]), 3)
        x = np.concatenate([m.features for m in maps])
        assert cache is None
        assert same_bytes(z, net.embed_rows(x, pairs, view_segments(sizes)))

    def test_eval_batch_rows_match_single(self):
        net, _ = build_network(self.small_cfg(), seed=23)
        maps = [random_map(np.random.default_rng(s), 6, dim=3)
                for s in (24, 25, 26)]
        z, _ = net.forward(maps, training=False)
        for i, m in enumerate(maps):
            np.testing.assert_allclose(net.forward([m], False)[0][0], z[i],
                                       rtol=1e-12)

    def test_duplicate_maps_get_identical_rows_in_train_mode(self):
        net, _ = build_network(self.small_cfg(), seed=27)
        m = random_map(np.random.default_rng(28), 6, dim=3)
        z, _ = net.forward([m, m], training=True)
        np.testing.assert_allclose(z[0], z[1], rtol=1e-12)

    def test_channel_mismatch(self):
        net, _ = build_network(self.small_cfg())
        m = random_map(np.random.default_rng(29), 5, dim=7)
        with pytest.raises(DimensionMismatch):
            net.forward([m], training=False)

    def test_empty_batch(self):
        net, _ = build_network(self.small_cfg())
        with pytest.raises(EmptyBag):
            net.forward([], training=False)

    def test_backward_requires_cache(self):
        net, _ = build_network(self.small_cfg())
        with pytest.raises(NoForwardCache):
            net.backward(np.zeros((1, 6)), {})

    def test_gradients_match_finite_differences(self):
        cfg = self.small_cfg()
        net, store = build_network(cfg, seed=30)
        rng = np.random.default_rng(31)
        maps = [random_map(rng, n, dim=3) for n in (5, 7)]
        # a small loss scale keeps finite-difference roundoff below the
        # 1e-8 denominator floor for near-zero gradient entries
        r = 0.01 * rng.normal(size=(2, 6))

        z, cache = net.forward(maps, training=True)
        store.zero_grads()
        net.backward(r, cache)
        analytic = {n: store.grads[n].copy() for n in store.params}

        def run_loss():
            zz, _ = net.forward(maps, training=True)
            return float(np.sum(zz * r))

        # every parameter; block 0's reach it through block 1's input grads
        for name in store.params:
            saved = store[name].copy()

            def f_p(p, name=name, saved=saved):
                store[name][...] = p
                val = run_loss()
                store[name][...] = saved
                return val

            num = finite_diff_grad(f_p, saved)
            assert max_rel_err(analytic[name], num) < 1e-4, name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoolingNetworkConfig(in_channels=3, kernel_size=2)
        with pytest.raises(ValueError):
            PoolingNetworkConfig(in_channels=0)
        with pytest.raises(ValueError):
            PoolingNetworkConfig(in_channels=3, block_channels=())
