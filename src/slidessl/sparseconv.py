"""Submanifold sparse convolutional pooling network with exact backprop.

The pooling function maps a sparse lattice of tile features to a fixed-size
vector: a stack of residual blocks (conv-BN-ReLU-conv-BN plus skip, final
ReLU) over active sites only, a global average pool, and a linear head.
``network_shapes`` is its one name -> shape table of parameters.

Convolutions are submanifold: the output active-site set equals the input
active-site set, and only active neighbors contribute. ``neighbour_table``
finds every site's neighbours with one ``searchsorted`` per row shift (the
hashed kernel map of MinkowskiEngine, with a sorted array for the hash
table), and ``table_pairs`` turns the table into an ``Adjacency``, every
offset's (input row, output row) pairs in one array. ``view_pairs`` does
so once per batch for a step's views laid out as rows, for
``PoolingNetwork.forward_rows``; a slide's views for ``embed_rows`` restrict
one table of the slide's sites (``inference._view_batch``).
``build_rulebook`` and ``merge_rulebooks`` give the same pairs map by map.
``submconv_forward``, its backward halves ``submconv_weight_grad`` and
``submconv_input_grad``, and ``global_average_pool`` with its backward are
the only conv and pool implementations: the network, ``gradcheck`` and the
dense convolution oracle of the acceptance suite (A2) all call them. The
conv applies the zero offset as one dense product; ``submconv_forward``
says why its bytes equal those of a per-pair gather and ``+=``.
``PoolingNetwork.backward`` returns nothing: it writes each conv weight
gradient into the store's zeroed gradient row, adds the others, and makes
no gradient for the network's input features, which no caller reads.
Batch norm sums columns with ``column_sums``: ``x.sum(axis=0)``'s bytes
without numpy's inner loop per row, which dominated them on a step's
narrow ``(n, 16)`` rows; one column and column-major input keep ``sum``,
which sums those pairwise. For the same reason the conv, its input
gradient and the pool store rows through an index array as whole items
(``sparsemap.row_writer``). ``PoolingNetwork.embed_rows`` is the eval
forward with each batch norm folded into its conv; ``fold_batchnorm``
makes the fold, once per ``embed_dataset`` call, and it is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateBatch, DimensionMismatch, EmptyBag, NoForwardCache,
                     SpanTooLarge, ValidationError)
from .sparsemap import SparseMap, origin_sites, row_writer


def kernel_offsets(kernel_size: int) -> list[tuple[int, int]]:
    """Row-major offsets of a k x k window centered on zero."""
    c = kernel_size // 2
    return [(di, dj) for di in range(-c, c + 1) for dj in range(-c, c + 1)]


@dataclass
class Rulebook:
    """Per kernel offset, (input site index, output site index) pairs."""

    kernel_size: int
    pairs: list[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Offset o's (input row, output row) pairs, output rows ascending, are
    entries ``bounds[o]:bounds[o + 1]`` of ``src`` and ``dst``; the zero
    offset's range is empty, as the kernels apply it densely to ``n_rows``
    rows. Indexed, it gives offset o's ``(m, 2)`` array as a rulebook does."""

    src: np.ndarray
    dst: np.ndarray
    bounds: list[int]
    n_rows: int

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, o: int) -> np.ndarray:
        o = range(len(self))[o]
        if o == len(self) // 2:
            return np.repeat(np.arange(self.n_rows), 2).reshape(-1, 2)
        lo, hi = self.bounds[o], self.bounds[o + 1]
        return np.stack([self.src[lo:hi], self.dst[lo:hi]], axis=1)


def adjacency(pairs, n_rows: int) -> Adjacency:
    """``pairs`` as an ``Adjacency``: itself, or built from per-offset
    ``(m, 2)`` arrays as ``Rulebook.pairs`` holds them. Raises
    ``DimensionMismatch`` unless the zero offset holds one pair per row."""
    if not isinstance(pairs, Adjacency):
        c = len(pairs) // 2
        src, dst = np.concatenate([np.zeros((0, 2), np.int64), *pairs[:c],
                                   *pairs[c + 1:]]).T.copy()
        sizes = [0 if o == c else len(pr) for o, pr in enumerate(pairs)]
        pairs = Adjacency(src, dst, np.cumsum([0, *sizes]).tolist(), len(pairs[c]))
    if pairs.n_rows != n_rows:
        raise DimensionMismatch(
            f"zero offset holds {pairs.n_rows} pairs for {n_rows} rows; "
            f"it must pair every row with itself")
    return pairs


def neighbour_table(sites: np.ndarray, kernel_size: int) -> np.ndarray:
    """Row of each site's neighbour at each kernel offset, -1 where none.

    Returns a ``(k², n)`` int64 table, offsets row-major over the window.
    Each site is packed into one int64 key ``(i - lo_i) * width + (j - lo_j)``,
    with ``lo`` the sites' minimum minus ``c = k // 2`` and a row ``width``
    padded by ``c`` on both sides, so that a neighbour offset ``(di, dj)``
    is the key step ``di * width + dj`` and never wraps into the next row.
    Ascending keys (canonical rows) skip the stable sort. A site's
    neighbours ``di`` rows away hold keys ``key + di * width - c`` on, 2c + 1
    in a row: one ``searchsorted`` of those ``(k, n)`` starts, then 2c + 1
    equality tests stepping along the sorted keys find them all. Raises
    ``ValueError`` when a site repeats, ``SpanTooLarge`` when the span
    cannot be packed.
    """
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError(f"kernel_size must be odd and positive, got {kernel_size}")
    c = kernel_size // 2
    sites = np.asarray(sites, dtype=np.int64)
    lo_i, lo_j = (int(v) - c for v in sites.min(axis=0))
    hi_i, hi_j = (int(v) + c for v in sites.max(axis=0))
    width = hi_j - lo_j + 1
    if (hi_i - lo_i + 1) * width > np.iinfo(np.int64).max:
        raise SpanTooLarge(f"padded site spans {[hi_i - lo_i + 1, width]}; "
                           f"their product passes int64")
    keys = (sites[:, 0] - lo_i) * width + (sites[:, 1] - lo_j)
    order = None
    if not np.all(keys[1:] > keys[:-1]):       # ascending keys are distinct
        order = np.argsort(keys, kind="stable")
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("sparse map repeats a site; sites must be unique")
    # the int64 maximum, above every key, stops each walk at n: no neighbour
    sorted_keys = np.append(keys if order is None else keys[order],
                            np.iinfo(np.int64).max)
    start = keys + (np.arange(-c, c + 1) * width - c)[:, None]
    pos = np.searchsorted(sorted_keys, start)
    table = np.empty((kernel_size ** 2, len(keys)), dtype=np.int64)
    for dj in range(kernel_size):    # table rows dj, dj + k, ...: column dj - c
        hit = sorted_keys[pos] == start + dj
        table[dj::kernel_size] = np.where(hit, pos, -1)
        pos += hit
    # sorted position -> row; the -1 appended maps "none" to itself
    return table if order is None else np.append(order, -1)[table]


def table_pairs(table: np.ndarray) -> Adjacency:
    """The ``Adjacency`` of a neighbour table whose zero offset row pairs
    each row with itself. One ``flatnonzero`` walks the ``(k², n)`` table
    row-major, so the pairs come out ordered by offset, then output row;
    each flat position divided by n is ``(offset, dst)``, and the table
    entry there is ``src``.
    """
    found = table >= 0
    found[len(table) // 2] = False
    flat = np.flatnonzero(found)
    offset, dst = np.divmod(flat, table.shape[1])
    bounds = np.searchsorted(offset, np.arange(len(table) + 1)).tolist()
    return Adjacency(table.take(flat), dst, bounds, table.shape[1])


def build_rulebook(smap: SparseMap, kernel_size: int = 3) -> Rulebook:
    """Enumerate active-neighbor pairs for every kernel offset.

    Offsets are scanned row-major over the window. ``pairs[o]`` is an
    ``(m, 2)`` int64 array of (input site, output site) with output sites
    ascending, ``(0, 2)`` when no site has a neighbour at offset o; the zero
    offset is the complete identity pairing, which the conv kernels apply
    as a dense product. The pair order fixes the summation order of
    ``submconv_weight_grad``, so it is part of the contract. Raises
    ``ValueError`` for a repeated site. This is ``view_pairs`` of one map,
    so checks of a rulebook audit the adjacency that training and
    ``PoolingNetwork.forward`` build.
    """
    return Rulebook(kernel_size, list(view_pairs(
        np.zeros(smap.n_sites, dtype=np.int64), smap.sites, kernel_size)))


def view_pairs(view: np.ndarray, sites: np.ndarray,
               kernel_size: int) -> Adjacency:
    """Pairs of maps laid out as rows, view after view, from one table.

    ``view`` (non-decreasing, holding 0..V-1) names each row's map. View v's
    i-coordinates are moved to start at ``v * (height + k)``, with height
    the tallest map's span, so no kernel window reaches from one map into
    the next, and one ``neighbour_table`` covers every map. The pairs are
    those ``merge_rulebooks`` makes of the maps' own rulebooks: per offset,
    ordered by output row. Raises ``ValueError`` when a map repeats a site.
    """
    i = origin_sites(view, sites[:, 0])
    i = i + view * (int(i.max()) + 1 + kernel_size)
    return table_pairs(neighbour_table(np.stack([i, sites[:, 1]], axis=1),
                                       kernel_size))


def view_segments(sizes) -> list[tuple[int, int]]:
    """``(start, end)`` rows of maps of the given sizes laid out in order."""
    ends = np.cumsum(sizes).tolist()
    return list(zip([0] + ends[:-1], ends))


def merge_rulebooks(books: list[Rulebook], starts: list[int]) -> list[np.ndarray]:
    """Concatenate per-map pair lists into global-index pair lists."""
    n_off = len(books[0].pairs)
    merged = []
    for o in range(n_off):
        parts = [b.pairs[o] + s for b, s in zip(books, starts) if len(b.pairs[o])]
        merged.append(np.concatenate(parts, axis=0) if parts
                      else np.zeros((0, 2), dtype=np.int64))
    return merged


def submconv_forward(x: np.ndarray, weights: np.ndarray,
                     pairs: Adjacency | list[np.ndarray]) -> np.ndarray:
    """Submanifold convolution of the rows of ``x`` (one per active site).

    out[t] = sum over offsets o of W_o . x[source of t under o], with
    ``pairs`` as ``adjacency`` takes them. The zero offset is one dense
    product ``out += x @ W_c`` at its place in the offset order; the other
    offsets' source rows come from one ``take`` per pass, and each offset
    multiplies its contiguous slice and writes its output rows back once,
    each row as one item (``row_writer``). Each row still adds its terms in
    offset order, from the same operands, so the output and gradient bytes
    equal those of a per-pair gather and ``+=``.
    """
    k = weights.shape[0]
    if (weights.ndim != 4 or weights.shape[2] != x.shape[1]
            or len(pairs) != k * weights.shape[1]):
        raise DimensionMismatch(
            f"weights {weights.shape} do not fit {x.shape[1]} input channels "
            f"and {len(pairs)} kernel offsets")
    adj = adjacency(pairs, len(x))
    out = np.zeros((len(x), weights.shape[3]), weights.dtype)
    put = row_writer(out)
    xs = x.take(adj.src, axis=0)
    for o, (lo, hi) in enumerate(zip(adj.bounds, adj.bounds[1:])):
        w = weights[o // k, o % k]
        if o == len(adj) // 2:
            out += x @ w
        elif lo < hi:
            # within one offset the output rows are distinct
            dst = adj.dst[lo:hi]
            t = xs[lo:hi] @ w
            t += out.take(dst, axis=0)
            put(dst, t)
    return out


def submconv_weight_grad(grad_out: np.ndarray, x: np.ndarray,
                         pairs: Adjacency | list[np.ndarray],
                         dw: np.ndarray) -> None:
    """Write the weight gradient into ``dw``, which must be zero: each
    offset's ``x_src.T @ g_dst`` (the zero offset's dense) by ``np.dot(...,
    out=)``, which takes BLAS where ``@`` loops over a one-pair offset, with
    equal bytes; offsets without pairs stay zero. 1 x 1 channels, where
    ``np.dot`` keeps a -0.0 that ``@`` sums to +0.0, and rows of another
    dtype than ``dw`` go through ``np.matmul``."""
    k = dw.shape[0]
    product = (np.matmul if dw.shape[2:] == (1, 1)
               or np.result_type(x, grad_out) != dw.dtype else np.dot)
    adj = adjacency(pairs, len(x))
    gs, xs = grad_out.take(adj.dst, axis=0), x.take(adj.src, axis=0)
    for o, (lo, hi) in enumerate(zip(adj.bounds, adj.bounds[1:])):
        if o == len(adj) // 2:
            product(x.T, grad_out, out=dw[o // k, o % k])
        elif lo < hi:
            product(xs[lo:hi].T, gs[lo:hi], out=dw[o // k, o % k])


def submconv_input_grad(grad_out: np.ndarray, weights: np.ndarray,
                        pairs: Adjacency | list[np.ndarray]) -> np.ndarray:
    """Gradient w.r.t. the input rows; the zero offset is dense (``dx +=
    g @ W_c.T``) as in the forward, the other offsets' gradient rows one
    ``take`` per pass, stored back as whole rows by ``row_writer``."""
    k = weights.shape[0]
    adj = adjacency(pairs, len(grad_out))
    dx = np.zeros((len(grad_out), weights.shape[2]), grad_out.dtype)
    put = row_writer(dx)
    gs = grad_out.take(adj.dst, axis=0)
    for o, (lo, hi) in enumerate(zip(adj.bounds, adj.bounds[1:])):
        w = weights[o // k, o % k]
        if o == len(adj) // 2:
            dx += grad_out @ w.T
        elif lo < hi:
            src = adj.src[lo:hi]
            t = gs[lo:hi] @ w.T
            t += dx.take(src, axis=0)
            put(src, t)
    return dx


# ---------------------------------------------------------------------------
# Batch normalization over all active sites of the minibatch

def column_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)``'s bytes for finite 2-D ``x``, from one ``einsum``
    loop instead of numpy's inner loop per row (23 against 136 us on 4,510 x
    16 float32). numpy sums one column, or a column-major array, pairwise,
    which einsum does not match, so those go to ``sum``."""
    if x.shape[1] < 2 or x.strides[1] != x.itemsize:
        return x.sum(axis=0)
    return np.einsum("ij->j", x)


#: Running-statistics update rate and variance floor of every batch norm.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def sparse_batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                             running_mean: np.ndarray, running_var: np.ndarray,
                             training: bool) -> tuple[np.ndarray, dict]:
    """Normalize each channel over every active site in the batch.

    Train mode uses biased batch statistics and folds them into the running
    stats in place, at rate ``BN_MOMENTUM``; eval mode normalizes with the
    running stats unchanged. The update keeps a running variance >= 0, and
    ``load_model`` rejects a checkpoint that holds a negative one. Train
    mode's statistics are ``x.mean`` and ``x.var``'s bytes from one
    centring and two ``column_sums``; the centred rows become ``xhat``.
    """
    if training:
        if len(x) < 2:
            raise DegenerateBatch(
                f"batch normalization over {len(x)} active site(s); need >= 2")
        mean = column_sums(x) / len(x)
        xhat = x - mean
        var = column_sums(xhat * xhat) / len(x)  # biased
        running_mean += BN_MOMENTUM * (mean - running_mean)
        running_var += BN_MOMENTUM * (var - running_var)
    else:
        var = running_var
        xhat = x - running_mean
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    out = gamma * xhat
    out += beta
    cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma,
             "training": training}
    return out, cache


def sparse_batchnorm_backward(grad_out: np.ndarray, cache: dict | None
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, gamma, beta."""
    if not cache or "xhat" not in cache:
        raise NoForwardCache("sparse_batchnorm_backward needs the forward cache")
    xhat, inv_std, gamma = cache["xhat"], cache["inv_std"], cache["gamma"]
    dgamma = column_sums(grad_out * xhat)
    dbeta = column_sums(grad_out)
    if cache["training"]:
        n = len(xhat)
        dx = (gamma * inv_std) * (
            grad_out
            - dbeta / n
            - xhat * (dgamma / n))
    else:
        dx = grad_out * (gamma * inv_std)
    return dx, dgamma, dbeta


def global_average_pool(x: np.ndarray, segs: list[tuple[int, int]]
                        ) -> np.ndarray:
    """Mean of the rows of each ``(start, end)`` segment, for segments that
    tile the rows from row 0. Row r of each segment goes to slab r of a
    buffer padded with -0.0, each row as one item (``row_writer``); summing
    the slabs in order adds what ``mean`` adds, in its order, but for one
    column, which ``mean`` sums pairwise. Other rows take ``mean``."""
    if x.shape[1] < 2 or not x.flags.c_contiguous:
        return np.stack([x[s:e].mean(axis=0) for s, e in segs])
    sizes = np.diff(segs)
    seg, row = np.nonzero(np.arange(sizes.max()) < sizes)
    buf = np.full((sizes.max(), len(segs), x.shape[1]), -0.0, dtype=x.dtype)
    row_writer(buf.reshape(-1, x.shape[1]))(row * len(segs) + seg, x)
    return (buf.sum(axis=0) / sizes).astype(x.dtype)   # as mean divides


def global_average_pool_backward(dpooled: np.ndarray,
                                 segs: list[tuple[int, int]]) -> np.ndarray:
    """The pool's gradient, for segments that tile the rows from row 0."""
    sizes = np.diff(segs)
    return np.repeat(dpooled / sizes.astype(dpooled.dtype), sizes[:, 0], 0)


# ---------------------------------------------------------------------------
# Network

@dataclass(frozen=True)
class PoolingNetworkConfig:
    in_channels: int
    block_channels: tuple[int, ...] = (64, 64)
    kernel_size: int = 3
    out_dim: int = 64

    def __post_init__(self):
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValidationError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.in_channels < 1 or self.out_dim < 1:
            raise ValidationError("channel counts must be >= 1")
        if len(self.block_channels) < 1 or min(self.block_channels) < 1:
            raise ValidationError("need at least one block of width >= 1")

    @property
    def n_blocks(self) -> int:
        return len(self.block_channels)


def network_shapes(config: PoolingNetworkConfig) -> dict[str, tuple[int, ...]]:
    """The network's parameters, name -> shape, in layout order: per block
    conv1, bn1, conv2, bn2 and, where the width changes, a 1x1 skip
    projection ``proj.w``; then the head. The convs hold weights only:
    a bias before a batch norm is cancelled by its mean."""
    k = config.kernel_size
    shapes: dict[str, tuple[int, ...]] = {}
    c_prev = config.in_channels
    for b, c in enumerate(config.block_channels):
        p = f"net.block{b}."
        shapes.update({p + "conv1.w": (k, k, c_prev, c),
                       p + "bn1.gamma": (c,), p + "bn1.beta": (c,),
                       p + "conv2.w": (k, k, c, c),
                       p + "bn2.gamma": (c,), p + "bn2.beta": (c,)})
        if c_prev != c:
            shapes[p + "proj.w"] = (1, 1, c_prev, c)
        c_prev = c
    shapes["net.head.w"] = (c_prev, config.out_dim)
    shapes["net.head.b"] = (config.out_dim,)
    return shapes


class PoolingNetwork:
    """Residual conv stack -> global average pool -> linear head.

    Parameters live in the supplied ParamStore, laid out from
    ``network_shapes``; the network draws nothing. Running BN statistics
    live in ``self.buffers`` and ride along in checkpoints.
    """

    def __init__(self, config: PoolingNetworkConfig, store):
        self.config = config
        self.store = store
        self.buffers = {
            name[:-len("gamma")] + stat: fill(shape, store.buffer.dtype)
            for name, shape in network_shapes(config).items()
            if name.endswith(".gamma")
            for stat, fill in (("run_mean", np.zeros), ("run_var", np.ones))}

    def _batchnorm(self, y: np.ndarray, name: str, training: bool):
        return sparse_batchnorm_forward(
            y, self.store[name + ".gamma"], self.store[name + ".beta"],
            self.buffers[name + ".run_mean"], self.buffers[name + ".run_var"],
            training)

    def forward(self, maps: list[SparseMap], training: bool
                ) -> tuple[np.ndarray, dict]:
        """Embed a batch of maps; returns (B, out_dim) and the backward cache.

        Convolutions act per map (adjacency never crosses views); batch
        normalization pools statistics over every active site of the batch.
        """
        if len(maps) == 0:
            raise EmptyBag("empty batch")
        for m in maps:
            if m.feat_dim != self.config.in_channels:
                raise DimensionMismatch(
                    f"map has {m.feat_dim} channels, "
                    f"network expects {self.config.in_channels}")
        sizes = [m.n_sites for m in maps]
        view = np.repeat(np.arange(len(maps)), sizes)
        pairs = view_pairs(view, np.concatenate([m.sites for m in maps]),
                           self.config.kernel_size)
        x = np.concatenate([m.features for m in maps], axis=0)
        return self.forward_rows(x, pairs, view_segments(sizes), training)

    def forward_rows(self, x: np.ndarray, pairs: Adjacency | list[np.ndarray],
                     segs: list[tuple[int, int]], training: bool
                     ) -> tuple[np.ndarray, dict]:
        """``forward`` on a batch laid out as rows: ``x`` holds every map's
        site features, map after map, ``segs`` the maps' ``(start, end)``
        rows and ``pairs`` their adjacency in global rows, as ``view_pairs``
        or ``merge_rulebooks`` give it."""
        pairs = adjacency(pairs, len(x))
        cache: dict = {"segs": segs, "pairs": pairs, "training": training,
                       "blocks": []}
        for b in range(self.config.n_blocks):
            x, bc = self._block_forward(b, x, pairs, training)
            cache["blocks"].append(bc)

        pooled = global_average_pool(x, segs)
        z = pooled @ self.store["net.head.w"] + self.store["net.head.b"]
        cache["pooled"] = pooled
        return z, cache

    def fold_batchnorm(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each eval batch norm folded into the conv before it, in block
        order: per conv the weights ``W s`` and the bias ``beta - run_mean
        s``, with ``s = gamma / sqrt(run_var + BN_EPS)``. It reads the store and buffers as they are now; callers pass it to
        ``embed_rows`` and drop it, so no fold is kept on the model."""
        st, buf = self.store, self.buffers
        fold = []
        for b in range(self.config.n_blocks):
            for i in (1, 2):
                bn = f"net.block{b}.bn{i}."
                s = st[bn + "gamma"] / np.sqrt(buf[bn + "run_var"] + BN_EPS)
                bias = st[bn + "beta"] - buf[bn + "run_mean"] * s
                fold.append((st[f"net.block{b}.conv{i}.w"] * s, bias))
        return tuple(fold)

    def embed_rows(self, x: np.ndarray, pairs: Adjacency | list[np.ndarray],
                   segs: list[tuple[int, int]], fold=None) -> np.ndarray:
        """``forward_rows(training=False)``'s output up to rounding, with no
        cache, through the convs of ``fold``, as ``fold_batchnorm`` gives
        it; without one, the call folds for itself."""
        st, pairs = self.store, adjacency(pairs, len(x))
        convs = iter(self.fold_batchnorm() if fold is None else fold)
        for b in range(self.config.n_blocks):
            p, h = f"net.block{b}.", x
            for i in (1, 2):
                w, bias = next(convs)
                h = submconv_forward(h, w, pairs)
                h += bias
                if i == 1:
                    np.maximum(h, 0.0, out=h)
            h += x @ st[p + "proj.w"][0, 0] if p + "proj.w" in st else x
            x = np.maximum(h, 0.0, out=h)
        return global_average_pool(x, segs) @ st["net.head.w"] + st["net.head.b"]

    def _block_forward(self, b: int, x: np.ndarray, pairs: Adjacency,
                       training: bool) -> tuple[np.ndarray, dict]:
        p = f"net.block{b}."
        st = self.store
        y1 = submconv_forward(x, st[p + "conv1.w"], pairs)
        a1, bn1c = self._batchnorm(y1, p + "bn1", training)
        np.maximum(a1, 0.0, out=a1)
        y2 = submconv_forward(a1, st[p + "conv2.w"], pairs)
        out, bn2c = self._batchnorm(y2, p + "bn2", training)
        if p + "proj.w" in st:
            out += x @ st[p + "proj.w"][0, 0]
        else:
            out += x
        np.maximum(out, 0.0, out=out)
        # backward's ReLU masks are a1 > 0 and out > 0, equal to the tests
        # on the values before ReLU
        return out, {"x": x, "a1": a1, "out": out,
                     "bn1": bn1c, "bn2": bn2c, "p": p}

    def backward(self, grad_z: np.ndarray, cache: dict) -> None:
        """Parameter gradients for output gradient ``grad_z``: conv weight
        gradients are written into ``store.grads``, which must be zero, as
        ``adam_step`` leaves them, the others added. Backprop stops at block
        0's parameter gradients; no input-feature gradient is made."""
        if not cache or "pooled" not in cache:
            raise NoForwardCache("network backward needs the forward cache")
        st = self.store
        grad_z = np.asarray(grad_z)

        st.accumulate("net.head.w", cache["pooled"].T @ grad_z)
        st.accumulate("net.head.b", grad_z.sum(axis=0))

        dx = global_average_pool_backward(grad_z @ st["net.head.w"].T,
                                          cache["segs"]).astype(
            cache["pooled"].dtype, copy=False)
        for b in range(self.config.n_blocks - 1, -1, -1):
            dx = self._block_backward(dx, cache["blocks"][b], cache["pairs"], b > 0)

    def _block_backward(self, dout: np.ndarray, bc: dict, pairs: Adjacency,
                        input_grad: bool) -> np.ndarray | None:
        """The block's parameter gradients; returns its input gradient when
        ``input_grad``, else None."""
        st = self.store
        p = bc["p"]
        dpre = dout * (bc["out"] > 0.0)    # into bn2 and the skip alike
        dy2, dg2, db2 = sparse_batchnorm_backward(dpre, bc["bn2"])
        st.accumulate(p + "bn2.gamma", dg2)
        st.accumulate(p + "bn2.beta", db2)
        submconv_weight_grad(dy2, bc["a1"], pairs, st.grads[p + "conv2.w"])
        dy1n = submconv_input_grad(dy2, st[p + "conv2.w"], pairs)
        dy1n *= bc["a1"] > 0.0
        dy1, dg1, db1 = sparse_batchnorm_backward(dy1n, bc["bn1"])
        st.accumulate(p + "bn1.gamma", dg1)
        st.accumulate(p + "bn1.beta", db1)
        submconv_weight_grad(dy1, bc["x"], pairs, st.grads[p + "conv1.w"])
        proj = p + "proj.w" in st
        if proj:
            st.accumulate(p + "proj.w", (bc["x"].T @ dpre)[None, None])
        if not input_grad:
            return None
        dx = submconv_input_grad(dy1, st[p + "conv1.w"], pairs)
        return dx + (dpre @ st[p + "proj.w"][0, 0].T if proj else dpre)
