"""Slide embedding by view ensembling, plus on-disk embedding matrices.

A trained pooling network maps one sampled view (a handful of tiles) to a
vector. Single views are noisy, so a slide is embedded by averaging the
network output over ``r_views`` independently sampled views and normalizing
the mean to unit length. Views are drawn from augmentation slice 0 only
(the untouched tile embeddings) and no slide-level transform is applied:
test-time geometry should be the recorded geometry.

All views of a slide subsample one tile set. Training's ``draw_views``
draws them, in one call for at most 512 tiles and view by view above.
``embed_slide`` builds them as one batch (``_view_batch``), row for row
what ``build_sparse_map`` per view builds, for one eval-mode
``PoolingNetwork.embed_rows`` pass with batch norm folded into the convs.
Slides are embedded one at a time, in order.

The module also provides the mean-tile baseline and the ``.gse`` file of
embedding matrices (a ``container`` with magic ``GSLE``) with a CSV export.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .bank import EmbeddingBank, list_banks, load_bank
from .container import Reader, string, u32, write_atomic
from .errors import (
    CorruptBank,
    DegenerateEmbedding,
    DimensionMismatch,
    EmptyBag,
    FormatError,
    InsufficientTiles,
    PipelineError,
    ValidationError,
    check_seed,
)
from .sparseconv import neighbour_table, table_pairs, view_segments
from .sparsemap import (DOWNSAMPLE_FACTOR, merge_views, pack_keys, run_starts,
                        tile_order)
from .training import SlideModel, draw_views

EMBED_MAGIC = b"GSLE"
EMBED_VERSION = 1
DEFAULT_R_VIEWS = 50


@dataclass(frozen=True)
class SlideEmbedding:
    """Unit-norm slide vector plus the sampling budget that produced it."""

    slide_id: str
    vector: np.ndarray
    r_views: int
    tiles: int


def _resolve_tiles(model: SlideModel, tiles: int | None, r_views: int) -> int:
    """Tiles per view, by default the count the checkpoint was trained with.
    Fewer than one view or tile is refused before an override warns."""
    if tiles is None:
        if model.train_tiles is None:
            raise InsufficientTiles(
                "no tile count given and the model does not record one")
        tiles = model.train_tiles
    if r_views < 1:
        raise InsufficientTiles(f"need at least 1 view, got {r_views}")
    if tiles < 1:
        raise InsufficientTiles(f"need at least 1 tile per view, got {tiles}")
    if model.train_tiles is not None and tiles != model.train_tiles:
        warnings.warn(
            f"embedding with {tiles} tiles per view, but the checkpoint was "
            f"trained with {model.train_tiles}; expect degraded embeddings",
            stacklevel=3)
    return tiles


def _view_batch(coords: np.ndarray, feats: np.ndarray, idx: np.ndarray,
                kernel_size: int, dtype):
    """Views ``idx`` (R, T) of one tile set as network rows ``(x, pairs, segs)``:
    row for row and pair for pair what ``build_sparse_map`` per view and
    ``PoolingNetwork.forward`` build, with features cast to ``dtype`` and
    the pairs one ``Adjacency`` for every conv pass of the slide. A
    view's tiles, in any order, sort in the order of the whole set
    restricted to them, so the flat slot key ``view * (1 + sites) + 1 +
    site`` never decreases and its runs are the rows. A flat row map of
    those slots, slot 0 of each view -1 for "no neighbour", restricts the
    set's neighbour table to each view in one ``take``."""
    r_views, tiles = idx.shape
    # only drawn tiles are read, cast and sorted: a paper-scale slice is large
    used = np.flatnonzero(np.bincount(idx.ravel(), minlength=len(coords)))
    xy, feats = coords[used].astype(np.int64), feats[used].astype(dtype, copy=False)
    sites = xy // DOWNSAMPLE_FACTOR
    order = tile_order(np.column_stack([sites, xy % DOWNSAMPLE_FACTOR]), feats)
    sites = sites[order]
    first = run_starts(pack_keys(sites))
    site_of = np.cumsum(first) - 1            # distinct-site id per sorted tile
    rank = np.empty(len(coords), dtype=np.int64)
    rank[used[order]] = np.arange(len(used))
    pos = np.sort(rank[idx], axis=1).ravel()  # each view's tiles, sorted
    view = np.repeat(np.arange(r_views), tiles)
    tile_site = site_of.take(pos)
    slots = 1 + int(first.sum())              # per view: "none", then sites
    slot = view * slots + 1 + tile_site
    start = run_starts(slot)
    row_slot, row_site = slot[start], tile_site[start]
    row_map = np.full(r_views * slots, -1, dtype=np.int64)
    row_map[row_slot] = np.arange(len(row_slot))
    x = merge_views(feats.take(order.take(pos), axis=0), np.cumsum(start) - 1,
                    view)
    nbr = neighbour_table(sites[first], kernel_size).take(row_site, axis=1)
    nbr += row_slot - row_site                # flat slot, -1 -> "none"
    sizes = np.bincount(row_slot // slots, minlength=r_views)
    return x, table_pairs(row_map.take(nbr)), view_segments(sizes)


def embed_slide(bank: EmbeddingBank, model: SlideModel, tiles: int | None = None,
                r_views: int = DEFAULT_R_VIEWS,
                rng: np.random.Generator | None = None) -> SlideEmbedding:
    """Ensemble ``r_views`` sampled views into one unit-norm slide vector.

    Each view holds ``tiles`` tiles drawn without replacement from
    augmentation slice 0 by ``draw_views``: in one call for a bank of at
    most 512 tiles, view by view above (timings in its docstring).
    All views run as one batch through ``PoolingNetwork.embed_rows``, eval
    mode with batch norm folded into the convs, and the view outputs are
    averaged then L2-normalized.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tiles = _resolve_tiles(model, tiles, r_views)
    if tiles > bank.n_tiles:
        raise InsufficientTiles(
            f"{bank.slide_id}: {tiles} tiles per view requested, "
            f"bank has {bank.n_tiles}")
    if bank.feat_dim != model.feat_dim:
        raise DimensionMismatch(
            f"{bank.slide_id}: bank features have {bank.feat_dim} dims, "
            f"model expects {model.feat_dim}")

    idx = draw_views(rng, np.full(r_views, bank.n_tiles), tiles)
    x, pairs, segs = _view_batch(bank.coords[0], bank.features[0], idx,
                                 model.net_config.kernel_size,
                                 model.store.buffer.dtype)
    mean = model.net.embed_rows(x, pairs, segs).mean(axis=0)
    if not np.isfinite(mean).all():
        raise DegenerateEmbedding(
            f"{bank.slide_id}: view-averaged vector is not finite")
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise DegenerateEmbedding(
            f"{bank.slide_id}: view-averaged vector is exactly zero")
    vec = (mean / norm).astype(np.float32)
    return SlideEmbedding(bank.slide_id, vec, r_views, tiles)


def average_mil_embed(bank: EmbeddingBank) -> np.ndarray:
    """Mean of the untouched tile embeddings: the no-learning baseline."""
    if bank.n_tiles == 0:
        raise EmptyBag(f"{bank.slide_id}: no tiles to average")
    return bank.features[0].astype(np.float64).mean(axis=0)


def embed_banks(bank_dir, embed, dim: int):
    """Apply ``embed(slide_idx, bank)`` to every bank in a directory, one
    bank at a time on the calling thread, in listing order.

    ``slide_idx`` is the bank's position in the sorted listing and ``embed``
    returns the slide's row. Only slice 0 of each bank is read, so ``embed``
    sees a one-slice bank. Returns ``(ids, matrix, failures)``: float32
    rows in lexicographic order of slide id, ``(0, dim)`` when none
    succeeded, and ``(slide_id, message)`` for each failed bank, among them
    a bank whose slide id an earlier bank names. Only a ``PipelineError``
    or ``OSError`` (a bank that cannot be read or embedded) counts as a
    failed slide; any other exception is a bug and propagates.
    """
    owner: dict[str, str] = {}
    results: list[tuple[str, np.ndarray]] = []
    failures: list[tuple[str, str]] = []
    for slide_idx, path in enumerate(list_banks(bank_dir)):
        try:
            bank = load_bank(path, slices=1)
            if owner.setdefault(bank.slide_id, path.name) != path.name:
                raise CorruptBank(f"{path.name}: slide id {bank.slide_id!r} "
                                  f"is already used by {owner[bank.slide_id]}")
            results.append((bank.slide_id, embed(slide_idx, bank)))
        except (PipelineError, OSError) as exc:
            failures.append((path.stem, str(exc)))

    results.sort(key=lambda r: r[0])
    ids = [sid for sid, _ in results]
    if results:
        matrix = np.stack([row for _, row in results]).astype(np.float32)
    else:
        matrix = np.zeros((0, dim), dtype=np.float32)
    return ids, matrix, failures


def embed_dataset(bank_dir, model: SlideModel, tiles: int | None = None,
                  r_views: int = DEFAULT_R_VIEWS, seed: int = 0,
                  threads: int = 1):
    """Embed every bank in a directory with ``embed_banks``.

    Returns ``(ids, matrix, failures)`` as ``embed_banks`` does. Each
    slide's random stream depends only on the seed and its position in the
    sorted listing, so failures elsewhere never change a slide's embedding.
    ``threads`` is ignored: a slide's many small numpy calls hold the GIL.
    The counts are checked, and a tile count other than the checkpoint's
    warns once, here, before any slide.
    """
    check_seed(seed)
    tiles = _resolve_tiles(model, tiles, r_views)
    model = replace(model, train_tiles=tiles)   # so no slide warns again

    def one(slide_idx, bank):
        rng = np.random.default_rng([seed, 2, slide_idx])
        return embed_slide(bank, model, tiles=tiles, r_views=r_views,
                           rng=rng).vector

    return embed_banks(bank_dir, one, model.net_config.out_dim)


# ---------------------------------------------------------------------------
# Embedding matrix I/O

def save_embeddings(path, ids: list[str], matrix: np.ndarray) -> None:
    """Write an embedding matrix: a container with header fields slide count
    and dim, then per slide its id (string) and dim little-endian f32.
    A repeated id raises ``ValidationError`` before anything is written."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} does not match {len(ids)} ids")
    dup = _repeated_id(ids)
    if dup is not None:
        raise ValidationError(f"slide id {dup!r} is repeated")

    def chunks():
        yield EMBED_MAGIC + u32(EMBED_VERSION, *matrix.shape)
        for sid, row in zip(ids, matrix):
            yield string(sid)
            yield row

    write_atomic(path, chunks())


def load_embeddings(path):
    """Read a GSLE file back into ``(ids, matrix)``. Strict about layout."""
    reader = Reader(path, EMBED_MAGIC, EMBED_VERSION, 2)
    n_slides, dim = reader.fields
    ids, rows = [], [np.zeros((0, dim), dtype=np.float32)]
    for _ in range(n_slides):
        ids.append(reader.string("slide id"))
        rows.append(reader.array("<f4", (1, dim), "slide row"))
    reader.end()
    dup = _repeated_id(ids)
    if dup is not None:
        raise FormatError(f"{reader.name}: slide id {dup!r} is repeated")
    return ids, np.concatenate(rows)


def _repeated_id(ids: list[str]) -> str | None:
    return next((sid for sid, n in Counter(ids).items() if n > 1), None)


def export_embeddings_csv(path, ids: list[str], matrix: np.ndarray) -> None:
    """Write the same matrix as CSV with header id,v0,...  One row per slide."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} does not match {len(ids)} ids")
    dim = matrix.shape[1]
    lines = ["id," + ",".join(f"v{j}" for j in range(dim))]
    for sid, row in zip(ids, matrix):
        lines.append(sid + "," + ",".join(repr(float(v)) for v in row))
    write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])
