"""Sparse lattice maps of tile embeddings and their geometric augmentation.

A slide view is represented as a set of active integer lattice sites, each
carrying one feature vector. Sites are kept in canonical (lexicographically
sorted, duplicate-free) order so that every downstream computation is
independent of the order tiles were supplied in.

Transform pipeline for a view: pixel coordinates are floor-divided by the
downsample factor, then optionally scaled / rotated / flipped at the slide
level. Site collisions produced by downsampling or scaling are merged by
taking the arithmetic mean of the colliding feature vectors, and the site
set is shifted so its bounding box touches the origin after every transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyBag

#: Lattice downsampling factor applied to pixel coordinates.
DOWNSAMPLE_FACTOR = 224

#: Inclusive range of the per-axis slide-level scale factor.
SCALE_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class TileRecord:
    """One tile: top-left pixel position plus its embedding vector."""

    x: int
    y: int
    feature: np.ndarray


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


def _site_order(sites: np.ndarray, tiebreak: list[np.ndarray]) -> np.ndarray:
    """Stable order by site, ``tiebreak`` keys (least significant first) next."""
    return np.lexsort(tiebreak + [sites[:, 1], sites[:, 0]])


def tile_order(sites: np.ndarray, coords: np.ndarray,
               features: np.ndarray) -> np.ndarray:
    """Canonical tile order: lattice site, then pixel (x, y), then feature bits.

    Feature bits break ties between tiles sharing a pixel, so the merge
    order does not depend on the order tiles arrived in. The sort is
    stable: a subset given in ascending index order sorts to this order
    restricted to it.
    """
    return _site_order(sites, _sort_keys(features) + [coords[:, 1], coords[:, 0]])


def first_of_site(sites: np.ndarray) -> np.ndarray:
    """True on the first row of each run of equal rows of sorted ``sites``."""
    first = np.empty(len(sites), dtype=bool)
    first[:1] = True
    np.any(sites[1:] != sites[:-1], axis=1, out=first[1:])
    return first


def merge_rows(features: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Mean of the ``features`` rows sent to each output row by ``rows``.

    Each output row starts at zero, adds its inputs in the order given, and
    is divided by their count: the collision merge of every map.
    """
    merged = np.zeros((n_rows, features.shape[1]), dtype=features.dtype)
    np.add.at(merged, rows, features)
    merged /= np.bincount(rows, minlength=n_rows).astype(features.dtype)[:, None]
    return merged


def _canonicalize(sites: np.ndarray, features: np.ndarray,
                  order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put rows in ``order``, merge duplicate sites by feature mean, shift to origin.

    ``order`` (from ``_site_order``) fixes the merge order, so the floats do
    not depend on the order rows arrived in. Without collisions the feature
    rows stay untouched.
    """
    sites = sites[order]
    features = features[order]
    first = first_of_site(sites)
    if first.all():
        merged = features
    else:
        merged = merge_rows(features, np.cumsum(first) - 1, int(first.sum()))
    uniq = sites[first]
    return uniq - uniq.min(axis=0), merged


def build_sparse_map(tiles: Sequence[TileRecord] | tuple[np.ndarray, np.ndarray],
                     downsample: int = DOWNSAMPLE_FACTOR) -> SparseMap:
    """Place tile embeddings on the integer lattice ``(x // d, y // d)``.

    Accepts either a sequence of :class:`TileRecord` or a ``(coords, features)``
    pair where ``coords`` is ``(n, 2)`` integer pixel positions. Tiles landing
    on the same lattice site are merged by the element-wise mean of their
    features, and the result is origin-normalized.

    Raises ``EmptyBag`` for an empty tile list and ``DimensionMismatch`` when
    feature lengths disagree.
    """
    if isinstance(tiles, tuple):
        coords, features = tiles
        coords = np.asarray(coords)
        features = np.asarray(features)
        if len(coords) == 0:
            raise EmptyBag("no tiles supplied")
        if features.ndim != 2 or len(features) != len(coords):
            raise DimensionMismatch(
                f"coords {coords.shape} vs features {features.shape}")
    else:
        if len(tiles) == 0:
            raise EmptyBag("no tiles supplied")
        dim = len(tiles[0].feature)
        for t in tiles:
            if len(t.feature) != dim:
                raise DimensionMismatch(
                    f"tile at ({t.x}, {t.y}) has feature length {len(t.feature)}, "
                    f"expected {dim}")
        coords = np.array([(t.x, t.y) for t in tiles], dtype=np.int64)
        features = np.stack([np.asarray(t.feature) for t in tiles])
    if downsample < 1:
        raise ValueError(f"downsample factor must be >= 1, got {downsample}")
    if coords.min() < 0:
        raise ValueError("tile coordinates must be non-negative")

    coords = coords.astype(np.int64)
    sites = coords // int(downsample)
    sites, merged = _canonicalize(sites, features,
                                  tile_order(sites, coords, features))
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

    i = np.floor(smap.sites[:, 0] * params.scale_x).astype(np.int64)
    j = np.floor(smap.sites[:, 1] * params.scale_y).astype(np.int64)

    r = params.rot_quarters
    if r == 1:
        i, j = -j, i
    elif r == 2:
        i, j = -i, -j
    elif r == 3:
        i, j = j, -i

    if params.flip_x:
        i = i.max() - i
    if params.flip_y:
        j = j.max() - j

    sites = np.stack([i, j], axis=1)
    # Input sites are unique (canonical map), so they are a total tiebreak.
    order = _site_order(sites, [smap.sites[:, 1], smap.sites[:, 0]])
    sites, merged = _canonicalize(sites, smap.features, order)
    return SparseMap(sites, merged)


def sample_slide_aug(rng: np.random.Generator) -> SlideAugParams:
    """Draw slide-level augmentation parameters.

    Flips are Bernoulli(1/2), the quarter-turn count is uniform over {0..3},
    and each axis scale is uniform on ``SCALE_RANGE``. Draw order is fixed
    (flip_x, flip_y, rotation, scale_x, scale_y) for reproducibility.
    """
    lo, hi = SCALE_RANGE
    return SlideAugParams(
        flip_x=bool(rng.integers(0, 2)),
        flip_y=bool(rng.integers(0, 2)),
        rot_quarters=int(rng.integers(0, 4)),
        scale_x=float(rng.uniform(lo, hi)),
        scale_y=float(rng.uniform(lo, hi)),
    )

