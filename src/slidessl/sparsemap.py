"""Sparse lattice maps of tile embeddings and their geometric augmentation.

A slide view is represented as a set of active integer lattice sites, each
carrying one feature vector. Sites are kept in canonical (lexicographically
sorted, duplicate-free) order so that every downstream computation is
independent of the order tiles were supplied in.

A bag of tiles is a ``(coords, features)`` pair of aligned arrays. For a
view, pixel coordinates are floor-divided by the downsample factor, then
optionally scaled / rotated / flipped at the slide level. Site collisions
produced by downsampling or scaling are merged by taking the arithmetic
mean of the colliding feature vectors, and the site set is shifted so its
bounding box touches the origin after every transform.

The sort, merge and shift exist once, for many views laid out as rows
with a view id (``place_tiles``, ``augment_rows``): training builds all
views of a step in one call, and ``build_sparse_map`` and
``augment_sparse_map`` are one-view calls. Every canonical order is one
stable ``argsort`` of one int64 key (``pack_keys``), with sites packed
relative to their view's corner, so the limit (about 5e8 px per side for
32 views) is one slide's extent, not the distance between slides.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBag, SpanTooLarge

#: Lattice downsampling factor applied to pixel coordinates.
DOWNSAMPLE_FACTOR = 224

#: Inclusive range of the per-axis slide-level scale factor.
SCALE_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class SlideAugParams:
    """Slide-level geometric augmentation parameters.

    Applied in the fixed order scale -> rotate -> flip so that a view is
    reproducible from the parameters alone.
    """

    flip_x: bool = False
    flip_y: bool = False
    rot_quarters: int = 0
    scale_x: float = 1.0
    scale_y: float = 1.0

    def __post_init__(self):
        if self.rot_quarters not in (0, 1, 2, 3):
            raise ValueError(f"rot_quarters must be in 0..3, got {self.rot_quarters}")
        lo, hi = SCALE_RANGE
        for name, s in (("scale_x", self.scale_x), ("scale_y", self.scale_y)):
            if not (lo <= s <= hi):
                raise ValueError(f"{name}={s} outside [{lo}, {hi}]")

    @property
    def is_identity(self) -> bool:
        return (not self.flip_x and not self.flip_y and self.rot_quarters == 0
                and self.scale_x == 1.0 and self.scale_y == 1.0)


@dataclass(frozen=True)
class SparseMap:
    """Active lattice sites with one feature vector per site.

    ``sites`` is an ``(n, 2)`` int64 array of (i, j) lattice pairs, unique
    and lexicographically sorted; ``features`` is the aligned ``(n, F)``
    float array. ``build_sparse_map`` and ``augment_sparse_map`` build maps
    of this form; the constructor checks only shapes, and
    ``build_rulebook`` rejects a map with a repeated site. Instances are
    treated as immutable; transforms return new maps.
    """

    sites: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        if self.sites.ndim != 2 or self.sites.shape[1] != 2:
            raise ValueError(f"sites must be (n, 2), got {self.sites.shape}")
        if self.features.ndim != 2 or len(self.sites) != len(self.features):
            raise DimensionMismatch(
                f"{len(self.sites)} sites vs features shaped {self.features.shape}")
        if len(self.sites) == 0:
            raise EmptyBag("sparse map must contain at least one site")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]


def _sort_keys(features: np.ndarray) -> list[np.ndarray]:
    """Bit-pattern views of feature columns, usable as total-order sort keys."""
    bits = np.ascontiguousarray(features).view(
        np.uint32 if features.dtype == np.float32 else np.uint64)
    return [bits[:, k] for k in range(bits.shape[1])]


def pack_keys(keys: np.ndarray) -> np.ndarray:
    """One int64 per row of the integer matrix ``keys``, in the rows'
    lexicographic order (column 0 most significant): each column less its
    minimum is one digit of a mixed-radix number. ``SpanTooLarge`` names
    the spans when their product passes the int64 maximum. The columns are
    copied to rows first: numpy reduces and combines a narrow matrix's
    columns one row at a time, a contiguous row in one loop."""
    digits = np.array(keys.T, dtype=np.int64, order="C")
    lows = digits.min(axis=1)
    spans = [hi - lo + 1 for lo, hi in zip(lows.tolist(), digits.max(axis=1).tolist())]
    if math.prod(spans) > 2 ** 63 - 1:   # the int64 maximum
        raise SpanTooLarge(f"key columns span {spans}; their product passes int64")
    digits -= lows[:, None]
    key = digits[0]
    for row, span in zip(digits[1:], spans[1:]):
        key *= span
        key += row
    return key


def run_starts(key: np.ndarray) -> np.ndarray:
    """True on the first row of each run of equal values of sorted ``key``."""
    return np.append(True, key[1:] != key[:-1])


def origin_sites(view: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """``sites`` (rows of one or two axes) less their view's minimum, so each
    view's bounding box touches the origin; ``view`` is non-decreasing and
    holds 0..V-1."""
    starts = np.flatnonzero(run_starts(view))
    return sites - np.minimum.reduceat(sites, starts, axis=0)[view]


def tile_order(keys: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Canonical row order: the integer columns of ``keys`` (for tiles: view,
    lattice site, pixel x, y), most significant first, then feature bits.

    The columns sort as one ``pack_keys`` key. Tiles give their site less
    the view's minimum (``origin_sites``) and their pixel less the site's
    corner, which keeps the order and lets a batch of 32 views hold slides
    of up to about 5e8 px per side, wherever they lie. Feature bits break
    ties between tiles sharing a pixel, so the merge order does not depend
    on the order tiles arrived in. They are sorted only within runs of equal
    keys, which gives the full-key order without sorting wide features for
    every tile. The sort is stable: a subset given in ascending index order
    sorts to this order restricted to it.
    """
    key = pack_keys(keys)
    order = np.argsort(key, kind="stable")
    tie = ~run_starts(key[order])
    if tie.any():
        run = np.cumsum(~tie)
        pos = np.flatnonzero(tie | np.append(tie[1:], False))
        sub = order[pos]
        order[pos] = sub[np.lexsort(_sort_keys(features[sub]) + [run[pos]])]
    return order


def row_writer(dest: np.ndarray):
    """A function ``put(rows, src)`` that does ``dest[rows] = src`` for 2-D
    ``dest``, ``src`` holding one row per index. Where both are C-contiguous
    with one dtype, each row is viewed as one ``void`` item and copied
    whole: numpy's fancy store otherwise runs its inner loop once per row.
    That pays from one row on, view included (a gather-add-store of 16
    float32 rows: 2.5 against 2.9 us for 1 row, 37 against 60 us for
    1,900). Bytes are copied, not converted, so -0.0 and NaN payloads
    survive; other operands take the plain store. ``dest``'s item view is
    made once, for all its stores."""
    size = dest.shape[1] * dest.itemsize
    if not size or not dest.flags.c_contiguous:
        return dest.__setitem__
    item = np.dtype((np.void, size))
    items = dest.view(item)[:, 0]

    def put(rows: np.ndarray, src: np.ndarray) -> None:
        if src.dtype == dest.dtype and src.flags.c_contiguous:
            items[rows] = src.view(item)[:, 0]
        else:
            dest[rows] = src
    return put


def merge_rows(features: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Mean of the ``features`` rows sent to each output row by ``rows``.

    ``rows`` is non-decreasing and names every output row, so the inputs of
    an output row are one run: the collision merge of every map. Row i's
    bytes are ``(0.0 + f_1 + ... + f_n) / n`` over its n inputs in the
    order given, so a lone -0.0 comes out +0.0. The row starts from its
    first input plus 0.0, which is ``0.0 + f_1``; pass r adds the r-th input
    of the runs still that long, and only rows of two or more inputs are
    divided, as dividing by 1.0 is exact. The work is one add per input
    even when every input lands on one row.
    """
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    merged = features.take(starts, axis=0)
    merged += 0.0
    multi = runs = np.flatnonzero(counts > 1)
    put = row_writer(merged)
    for r in range(1, int(counts.max())):
        runs = runs[counts[runs] > r]
        t = merged.take(runs, axis=0)
        t += features.take(starts[runs] + r, axis=0)
        put(runs, t)
    t = merged.take(multi, axis=0)
    t /= counts[multi].astype(features.dtype)[:, None]
    put(multi, t)
    return merged


def merge_views(features: np.ndarray, rows: np.ndarray,
                view: np.ndarray) -> np.ndarray:
    """``merge_rows`` over rows grouped by view, one map per view.

    ``rows`` and ``view`` are non-decreasing. A view in which no two inputs
    share an output row keeps its rows untouched, as a single map without
    collisions does: the merge would turn -0.0 into 0.0.
    """
    n_rows = int(rows[-1]) + 1
    if n_rows == len(rows):
        return features
    merged = merge_rows(features, rows, n_rows)
    dirty = np.zeros(int(view[-1]) + 1, dtype=bool)
    dirty[view[1:][rows[1:] == rows[:-1]]] = True
    clean = ~dirty[view]
    row_writer(merged)(rows[clean], features[clean])
    return merged


def canonical_rows(view: np.ndarray, sites: np.ndarray, features: np.ndarray,
                   order: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Put rows in ``order`` and merge a view's duplicate sites by feature
    mean; duplicates are runs of one ``pack_keys`` key of view and site.

    ``view`` holds 0..V-1, ``sites`` are ``origin_sites``; ``order`` sorts
    by view, then site, then a tiebreak, and so fixes the merge order.
    Returns the merged rows' ``(view, sites, features)``.
    """
    view, sites = view[order], sites[order]
    first = run_starts(pack_keys(np.column_stack([view, sites])))
    merged = merge_views(features[order], np.cumsum(first) - 1, view)
    return view[first], sites[first], merged


def place_tiles(view: np.ndarray, coords: np.ndarray, features: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tiles of views 0..V-1 on the ``DOWNSAMPLE_FACTOR`` lattice, as rows.

    ``view`` is non-decreasing; ``coords`` are non-negative int64 pixel
    positions. Each view becomes a canonical map, as ``build_sparse_map``
    builds it alone; all views share one sort and one merge.
    """
    sites = origin_sites(view, coords // DOWNSAMPLE_FACTOR)
    order = tile_order(np.column_stack([view, sites, coords % DOWNSAMPLE_FACTOR]),
                       features)
    return canonical_rows(view, sites, features, order)


_QUARTER_COS = np.array([1, 0, -1, 0])
_QUARTER_SIN = np.array([0, 1, 0, -1])


def augment_rows(view: np.ndarray, sites: np.ndarray, features: np.ndarray,
                 aug) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``augment_sparse_map`` of views 0..V-1 at once, view v by value v of
    ``aug``'s five arrays, in ``SlideAugParams`` field order.

    The rows are canonical maps, view after view. Scale, quarter turn and
    flip act per row. A flip reflects about the view's bounding box, which
    the shift to the origin makes a plain negation. A view with identity
    parameters keeps its rows: its sites map to themselves, so the sort,
    merge and shift leave it as it is.
    """
    flip_x, flip_y, r, scale_x, scale_y = (np.asarray(a)[view] for a in aug)
    i = np.floor(sites[:, 0] * scale_x).astype(np.int64)
    j = np.floor(sites[:, 1] * scale_y).astype(np.int64)
    cos, sin = _QUARTER_COS[r], _QUARTER_SIN[r]
    i, j = cos * i - sin * j, sin * i + cos * j
    sites = origin_sites(view, np.stack([np.where(flip_x, -i, i),
                                         np.where(flip_y, -j, j)], axis=1))
    # rows arrive sorted by view, then site: the stable sort keeps sites
    # that collide in that order
    order = np.argsort(pack_keys(np.column_stack([view, sites])), kind="stable")
    return canonical_rows(view, sites, features, order)


def build_sparse_map(tiles: tuple[np.ndarray, np.ndarray]) -> SparseMap:
    """Place tile embeddings on the ``DOWNSAMPLE_FACTOR`` integer lattice.

    ``tiles`` is a ``(coords, features)`` pair: ``(n, 2)`` integer pixel
    positions and the aligned ``(n, F)`` feature matrix. Tiles landing on
    the same lattice site are merged by the element-wise mean of their
    features, and the result is origin-normalized.

    Raises ``EmptyBag`` for no tiles, ``DimensionMismatch`` when the
    features are not one row per tile and ``SpanTooLarge`` for a slide too
    wide for ``tile_order``'s key.
    """
    coords, features = (np.asarray(a) for a in tiles)
    if len(coords) == 0:
        raise EmptyBag("no tiles supplied")
    if features.ndim != 2 or len(features) != len(coords):
        raise DimensionMismatch(
            f"coords {coords.shape} vs features {features.shape}")
    if coords.min() < 0:
        raise ValueError("tile coordinates must be non-negative")

    _, sites, merged = place_tiles(np.zeros(len(coords), dtype=np.int64),
                                   coords.astype(np.int64), features)
    return SparseMap(sites, merged)


def augment_sparse_map(smap: SparseMap, params: SlideAugParams) -> SparseMap:
    """Apply slide-level geometry: scale, rotate, flip, merge, origin-normalize.

    Scaling maps site (i, j) to (floor(i * sx), floor(j * sy)); rotation is by
    ``rot_quarters`` 90-degree turns; flips reflect about the bounding-box
    axes. Features are only ever touched by collision averaging, so identity
    parameters return the input map unchanged.
    """
    if params.is_identity:
        return smap

    _, sites, merged = augment_rows(np.zeros(smap.n_sites, dtype=np.int64),
                                    smap.sites, smap.features,
                                    [[v] for v in astuple(params)])
    return SparseMap(sites, merged)


def draw_slide_aug(rng: np.random.Generator, n: int) -> tuple:
    """Slide-level augmentation parameters of n views: five arrays in
    ``SlideAugParams`` field order, one ``rng`` call each, in that order.
    Flips are Bernoulli(1/2), the quarter-turn count is uniform over {0..3}
    and each axis scale is uniform on ``SCALE_RANGE``."""
    lo, hi = SCALE_RANGE
    return (rng.integers(0, 2, n).astype(bool), rng.integers(0, 2, n).astype(bool),
            rng.integers(0, 4, n), rng.uniform(lo, hi, n), rng.uniform(lo, hi, n))


def sample_slide_aug(rng: np.random.Generator) -> SlideAugParams:
    """One view's ``draw_slide_aug``."""
    return SlideAugParams(*(a[0].item() for a in draw_slide_aug(rng, 1)))
