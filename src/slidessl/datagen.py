"""Synthetic tile-embedding corpora with tunable class and nuisance structure.

Slides are lattices of tile embeddings built from a small set of prototype
vectors. The class label controls only WHERE each prototype appears (fine
interleaving vs coarse blocks), never how often, so the mean tile embedding
carries no label signal and plain tile averaging is chance-level by
construction. What a spatial pooling network can use is exactly the
arrangement.

Each bank also carries K augmentation slices: slice 0 is the base features
untouched, slice k >= 1 is a fixed mild rotation of feature space plus fresh
noise, standing in for re-encoding tiles under visual augmentation. An
optional per-slide nuisance vector added to every tile models slide-level
shortcut features (scanner, stain) shared by all tiles of one slide.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bank import EmbeddingBank, save_bank
from .container import write_atomic
from .errors import ValidationError, check_positive, check_seed

GRID_STRIDE = 256
# block side of the prototype layout per class: class 0 interleaves
# prototypes tile-by-tile, class 1 segregates them into coarse blocks
CLASS_BLOCK_SIDES = (1, 4, 2, 8)


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic corpus."""

    n_slides: int
    n_classes: int = 2
    n_tiles: int = 256
    n_augs: int = 50
    feat_dim: int = 16
    grid_extent: int = 4096
    n_prototypes: int = 2
    nuisance_strength: float = 0.0
    aug_noise: float = 0.1
    tile_noise: float = 0.3
    aug_strength: float = 0.3
    frequency_shift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_classes <= len(CLASS_BLOCK_SIDES):
            raise ValidationError(f"n_classes must lie in 1..{len(CLASS_BLOCK_SIDES)}"
                                  f" (one prototype layout each), got {self.n_classes}")
        if self.n_slides < 2 * self.n_classes:
            raise ValidationError(
                f"need >= 2 slides per class, got {self.n_slides} for "
                f"{self.n_classes} classes")
        if self.feat_dim < 2:
            raise ValidationError(f"feat_dim must be >= 2, got {self.feat_dim}")
        if self.n_prototypes < 1 or self.n_prototypes > self.feat_dim:
            raise ValidationError(
                f"n_prototypes must be in [1, feat_dim], got {self.n_prototypes}")
        if self.n_augs < 1:
            raise ValidationError(f"n_augs must be >= 1, got {self.n_augs}")
        if self.grid_extent < GRID_STRIDE:
            raise ValidationError(
                f"grid_extent must be >= {GRID_STRIDE}, got {self.grid_extent}")
        if self.n_tiles < 1 or self.n_tiles > self.grid_side ** 2:
            raise ValidationError(
                f"n_tiles must be in [1, {self.grid_side ** 2}] for "
                f"grid_extent {self.grid_extent}, got {self.n_tiles}")
        check_positive(allow_zero=True, nuisance_strength=self.nuisance_strength,
                       aug_noise=self.aug_noise, tile_noise=self.tile_noise,
                       aug_strength=self.aug_strength)
        if not 0.0 <= self.frequency_shift <= 1.0:
            raise ValidationError(
                f"frequency_shift must be in [0, 1], got {self.frequency_shift}")
        check_seed(self.seed)

    @property
    def grid_side(self) -> int:
        return self.grid_extent // GRID_STRIDE


def _prototypes(cfg: GenConfig, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal prototype directions, (P, F)."""
    basis, _ = np.linalg.qr(rng.normal(size=(cfg.feat_dim, cfg.n_prototypes)))
    return basis.T


def _aug_transforms(cfg: GenConfig, rng: np.random.Generator) -> np.ndarray:
    """One mild rotation per augmentation slice k >= 1, (K-1, F, F)."""
    # imported here so that `import slidessl` does not pay for scipy
    from scipy.linalg import expm

    out = np.zeros((cfg.n_augs - 1, cfg.feat_dim, cfg.feat_dim))
    for k in range(cfg.n_augs - 1):
        a = rng.normal(size=(cfg.feat_dim, cfg.feat_dim))
        a = (a - a.T) / 2.0
        a /= max(np.linalg.norm(a, 2), 1e-12)
        out[k] = expm(cfg.aug_strength * a)
    return out


def _prototype_layout(cfg: GenConfig, label: int) -> np.ndarray:
    """Prototype index per grid cell, (side, side). Label picks block size."""
    side = CLASS_BLOCK_SIDES[label]
    a, b = np.meshgrid(np.arange(cfg.grid_side), np.arange(cfg.grid_side),
                       indexing="ij")
    return ((a // side) + (b // side)) % cfg.n_prototypes


def _generate_slide(cfg: GenConfig, slide_idx: int, label: int,
                    prototypes: np.ndarray,
                    transforms: np.ndarray) -> EmbeddingBank:
    rng = np.random.default_rng([cfg.seed, 1, slide_idx])
    side = cfg.grid_side
    cells = np.sort(rng.choice(side * side, size=cfg.n_tiles, replace=False))
    rows, cols = cells // side, cells % side
    coords = np.stack([rows, cols], axis=1).astype(np.int64) * GRID_STRIDE

    proto_idx = _prototype_layout(cfg, label)[rows, cols]
    if cfg.frequency_shift > 0.0 and label > 0:
        # test hook: bias late classes toward prototype 0, breaking the
        # equal-frequency guarantee on purpose
        flip = rng.random(cfg.n_tiles) < cfg.frequency_shift
        proto_idx = np.where(flip, 0, proto_idx)

    base = prototypes[proto_idx] + cfg.tile_noise * rng.normal(
        size=(cfg.n_tiles, cfg.feat_dim))
    if cfg.nuisance_strength > 0.0:
        direction = rng.normal(size=cfg.feat_dim)
        direction /= np.linalg.norm(direction)
        base = base + cfg.nuisance_strength * direction

    slices = np.empty((cfg.n_augs, cfg.n_tiles, cfg.feat_dim))
    slices[0] = base
    for k in range(1, cfg.n_augs):
        noise = cfg.aug_noise * rng.normal(size=(cfg.n_tiles, cfg.feat_dim))
        slices[k] = base @ transforms[k - 1].T + noise

    all_coords = np.repeat(coords[None], cfg.n_augs, axis=0)
    return EmbeddingBank(f"slide_{slide_idx:04d}", all_coords, slices)


def generate_corpus(cfg: GenConfig, out_dir) -> dict:
    """Write one bank per slide plus labels.csv and corpus.json.

    Slide i gets label i mod n_classes (balanced within one) and its own
    random stream derived from (seed, i), so any subset of slides can be
    regenerated independently and reruns are byte-identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_rng = np.random.default_rng([cfg.seed, 0])
    prototypes = _prototypes(cfg, corpus_rng)
    transforms = _aug_transforms(cfg, corpus_rng)

    labels: dict[str, int] = {}
    for i in range(cfg.n_slides):
        label = i % cfg.n_classes
        bank = _generate_slide(cfg, i, label, prototypes, transforms)
        save_bank(bank, out_dir / f"{bank.slide_id}.gsb",
                  provenance={"generator": "slidessl.datagen", "slide_index": i})
        labels[bank.slide_id] = label

    lines = ["slide_id,label"]
    for sid in sorted(labels):
        lines.append(f"{sid},{labels[sid]}")
    config = json.dumps(asdict(cfg), sort_keys=True, indent=1)
    for name, text in (("labels.csv", "\n".join(lines)), ("corpus.json", config)):
        write_atomic(out_dir / name, [(text + "\n").encode("utf-8")])
    return {"n_slides": cfg.n_slides, "out_dir": str(out_dir),
            "labels_csv": str(out_dir / "labels.csv")}


def verify_marginal_equality(bank_dir, label_map: dict[str, str] | None = None) -> float:
    """Largest between-class separation of mean tile features, in standard errors.

    For every class pair this compares the class means of tile embeddings,
    normalized by the pooled standard error of the difference. The sampling
    unit is the per-slide tile mean, not the tile: a slide-level nuisance
    vector correlates all tiles of one slide, and tile-level errors would
    flag that clustering even though it carries no class information. Values
    near 1 are consistent with identical marginals; the corpus construction
    targets < 3. A single-class corpus scores 0 by convention.
    """
    from .bank import list_banks, load_bank
    from .probe import load_labels_csv

    bank_dir = Path(bank_dir)
    if label_map is None:
        label_map = load_labels_csv(bank_dir / "labels.csv")
    means_by_class: dict[str, list[np.ndarray]] = {}
    for path in list_banks(bank_dir):
        bank = load_bank(path, slices=1)
        label = label_map[bank.slide_id]
        means_by_class.setdefault(label, []).append(
            bank.features[0].astype(np.float64).mean(axis=0))
    classes = sorted(means_by_class)
    if len(classes) < 2:
        return 0.0
    stacked = {c: np.stack(means_by_class[c]) for c in classes}
    worst = 0.0
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            xa, xb = stacked[a], stacked[b]
            gap = np.linalg.norm(xa.mean(axis=0) - xb.mean(axis=0))
            se = np.sqrt((xa.var(axis=0) / xa.shape[0]
                          + xb.var(axis=0) / xb.shape[0]).sum())
            worst = max(worst, float(gap / se))
    return worst
