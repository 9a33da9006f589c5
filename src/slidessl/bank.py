"""Frozen tile-embedding banks: K augmentation slices of n tiles each.

A bank stores, per augmentation slice k and tile t, the tile's pixel
coordinates and its embedding vector. Slice 0 holds the identity
(non-augmented) tile set and is reserved for inference; slices 1..K-1 feed
training views. Coordinates are stored per slice because each slice
subsamples its own tile set.

On disk a bank is a ".gsb" ``container`` (magic "GSLB", version 1) with
header fields n_augs, n_tiles, feat_dim, then for each slice (outer) and
tile (inner) i32 x, i32 y, feat_dim x f32. A JSON sidecar named
"<slide_id>.json" carries the slide id and generator provenance.

``load_bank`` maps a file read-only (``container.Reader``): the loaded coords
and features are read-only strided views of the page cache, not copies, and
the mapping with its file descriptor lives as long as they do. Every slice
mapped is validated, one slice at a time, so a check never allocates more
than one slice's worth of temporaries. Pretraining maps and validates all
slices; embedding maps and validates slice 0 only (``slices=1``), the one it
draws views from. ``save_bank`` replaces files atomically, so it never
disturbs a loaded bank; truncating a loaded bank's file in place can end the
process with SIGBUS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import Reader, u32, write_atomic
from .errors import CorruptBank, DimensionMismatch, EmptyBag, ValidationError

BANK_MAGIC = b"GSLB"
BANK_VERSION = 1
BANK_SUFFIX = ".gsb"


@dataclass
class EmbeddingBank:
    """In-memory bank: coords (K, n, 2) int32 and features (K, n, F) float32.

    Arrays of those dtypes are kept as given, views and read-only arrays
    included; anything else is converted.
    """

    slide_id: str
    coords: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int32)
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.coords.ndim != 3 or self.coords.shape[2] != 2:
            raise DimensionMismatch(
                f"coords must be (K, n, 2), got {self.coords.shape}")
        if self.features.ndim != 3:
            raise DimensionMismatch(
                f"features must be (K, n, F), got {self.features.shape}")
        if self.coords.shape[:2] != self.features.shape[:2]:
            raise DimensionMismatch(
                f"coords {self.coords.shape} vs features {self.features.shape}")
        if self.n_augs < 1 or self.n_tiles < 1:
            raise EmptyBag(f"bank '{self.slide_id}' has no tiles")
        if self.coords.min() < 0:
            raise CorruptBank(f"bank '{self.slide_id}' has negative coordinates")
        if not all(np.isfinite(f).all() for f in self.features):
            raise CorruptBank(f"bank '{self.slide_id}' has non-finite features")

    @property
    def n_augs(self) -> int:
        return self.coords.shape[0]

    @property
    def n_tiles(self) -> int:
        return self.coords.shape[1]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[2]


def _record_dtype(feat_dim: int) -> np.dtype:
    return np.dtype([("xy", "<i4", (2,)), ("f", "<f4", (feat_dim,))])


def save_bank(bank: EmbeddingBank, path, provenance: dict | None = None):
    """Write the binary bank plus its JSON sidecar (sorted keys, no clocks)."""
    path = Path(path)
    rec = np.zeros((bank.n_augs, bank.n_tiles), dtype=_record_dtype(bank.feat_dim))
    rec["xy"] = bank.coords
    rec["f"] = bank.features
    write_atomic(path, [BANK_MAGIC, u32(BANK_VERSION, bank.n_augs, bank.n_tiles,
                                        bank.feat_dim), rec])
    sidecar = {"slide_id": bank.slide_id, "provenance": provenance or {}}
    text = json.dumps(sidecar, sort_keys=True, indent=1) + "\n"
    write_atomic(path.with_suffix(".json"), [text.encode("utf-8")])


def load_bank(path, slices: int | None = None) -> EmbeddingBank:
    """Map a .gsb file into read-only views of its bytes; the slide id comes
    from the sidecar (a JSON object), else the stem.

    With ``slices=k`` only the header and the first k slices (all, if the
    bank has fewer) are mapped and validated; the header is still checked
    against the size of the whole file."""
    path = Path(path)
    if slices is not None and slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices}")

    def record_bytes(fields, size):
        n_augs, n_tiles, feat_dim = fields
        if n_augs < 1 or n_tiles < 1 or feat_dim < 1:
            raise CorruptBank(f"{path.name}: degenerate header "
                              f"({n_augs} slices, {n_tiles} tiles, {feat_dim} dims)")
        # sized in Python ints first: numpy cannot build a dtype for a huge feat_dim
        per_slice = n_tiles * (8 + 4 * feat_dim)
        if n_augs * per_slice != size:
            raise CorruptBank(f"{path.name}: header ({n_augs} slices, {n_tiles} "
                              f"tiles, {feat_dim} dims) needs {n_augs * per_slice} "
                              f"record bytes, file holds {size}")
        return min(n_augs, slices or n_augs) * per_slice

    reader = Reader(path, BANK_MAGIC, BANK_VERSION, 3, error=CorruptBank,
                    body=record_bytes)
    n_augs, n_tiles, feat_dim = reader.fields
    rec = reader.array(_record_dtype(feat_dim),
                       (min(n_augs, slices or n_augs), n_tiles), "records")

    slide_id = path.stem
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_bytes())
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise CorruptBank(f"{sidecar.name}: invalid sidecar JSON") from exc
        if not isinstance(meta, dict):
            raise CorruptBank(f"{sidecar.name}: sidecar is not a JSON object")
        slide_id = meta.get("slide_id", slide_id)
        if not isinstance(slide_id, str) or not slide_id:
            raise CorruptBank(f"{sidecar.name}: slide_id must be a non-empty "
                              f"string, got {slide_id!r}")

    try:
        return EmbeddingBank(slide_id, rec["xy"], rec["f"])
    except CorruptBank as exc:
        raise CorruptBank(f"{path.name}: {exc}") from None


def list_banks(bank_dir) -> list[Path]:
    """All bank files in a directory, sorted by name for determinism; a path
    that is missing or is not a directory is a ``ValidationError``."""
    if not Path(bank_dir).is_dir():
        raise ValidationError(f"bank directory {bank_dir} is missing or is "
                              f"not a directory")
    return sorted(Path(bank_dir).glob(f"*{BANK_SUFFIX}"))
