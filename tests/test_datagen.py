"""Synthetic corpus generator: structure, determinism, marginal equality."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slidessl
from slidessl.bank import list_banks, load_bank
from slidessl.datagen import (
    GenConfig,
    _prototype_layout,
    generate_corpus,
    verify_marginal_equality,
)
from slidessl.errors import ValidationError
from slidessl.probe import load_labels_csv

SMALL = dict(n_slides=12, n_classes=2, n_tiles=32, n_augs=4, feat_dim=8,
             grid_extent=2048, seed=3)


def test_import_does_not_load_scipy():
    # only corpus generation needs scipy; every other command skips its import
    src = str(Path(slidessl.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import slidessl; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_corpus_files_exist(tmp_path):
    out = generate_corpus(GenConfig(**SMALL), tmp_path)
    assert out["n_slides"] == 12
    assert len(list_banks(tmp_path)) == 12
    assert (tmp_path / "labels.csv").exists()
    assert (tmp_path / "corpus.json").exists()


def test_banks_are_loadable_and_shaped(tmp_path):
    generate_corpus(GenConfig(**SMALL), tmp_path)
    for path in list_banks(tmp_path):
        bank = load_bank(path)
        assert bank.n_augs == 4
        assert bank.n_tiles == 32
        assert bank.feat_dim == 8


def test_labels_balanced_and_readable(tmp_path):
    generate_corpus(GenConfig(**SMALL), tmp_path)
    labels = load_labels_csv(tmp_path / "labels.csv")
    assert len(labels) == 12
    counts = {c: sum(1 for v in labels.values() if v == c) for c in set(labels.values())}
    assert set(counts.values()) == {6}


def test_labels_balanced_within_one_when_uneven(tmp_path):
    cfg = GenConfig(**{**SMALL, "n_slides": 13})
    generate_corpus(cfg, tmp_path)
    labels = load_labels_csv(tmp_path / "labels.csv")
    counts = [sum(1 for v in labels.values() if v == c) for c in ("0", "1")]
    assert abs(counts[0] - counts[1]) <= 1


def test_corpus_json_records_config(tmp_path):
    cfg = GenConfig(**SMALL)
    generate_corpus(cfg, tmp_path)
    doc = json.loads((tmp_path / "corpus.json").read_text())
    assert doc["n_slides"] == 12 and doc["seed"] == 3
    assert doc["tile_noise"] == cfg.tile_noise


def test_rerun_is_bit_identical(tmp_path):
    cfg = GenConfig(**SMALL)
    generate_corpus(cfg, tmp_path / "a")
    generate_corpus(cfg, tmp_path / "b")
    for pa, pb in zip(sorted((tmp_path / "a").iterdir()),
                      sorted((tmp_path / "b").iterdir())):
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("name", ["labels.csv", "corpus.json"])
def test_failed_side_file_write_leaves_old_file_and_no_temp(tmp_path,
                                                            monkeypatch, name):
    (tmp_path / name).write_bytes(b"old side file\n")
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == name:
            raise OSError("injected replace failure")
        replace(src, dst)
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        generate_corpus(GenConfig(**SMALL), tmp_path)
    assert (tmp_path / name).read_bytes() == b"old side file\n"
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


def test_coordinates_on_stride_grid(tmp_path):
    generate_corpus(GenConfig(**SMALL), tmp_path)
    bank = load_bank(list_banks(tmp_path)[0])
    assert np.all(bank.coords % 256 == 0)
    assert np.all(bank.coords >= 0)
    assert np.all(bank.coords < 2048)
    # all augmentation slices share the tile grid
    assert np.all(bank.coords == bank.coords[0])


def test_tile_sites_are_distinct(tmp_path):
    generate_corpus(GenConfig(**SMALL), tmp_path)
    bank = load_bank(list_banks(tmp_path)[0])
    cells = {tuple(c) for c in bank.coords[0]}
    assert len(cells) == bank.n_tiles


def test_augmented_slices_preserve_scale(tmp_path):
    # slice transforms are rotations: without added noise the tile norms match
    cfg = GenConfig(**{**SMALL, "aug_noise": 0.0})
    generate_corpus(cfg, tmp_path)
    bank = load_bank(list_banks(tmp_path)[0])
    base = np.linalg.norm(bank.features[0], axis=1)
    for k in range(1, bank.n_augs):
        np.testing.assert_allclose(np.linalg.norm(bank.features[k], axis=1),
                                   base, rtol=1e-5)


def test_slices_differ_from_base(tmp_path):
    generate_corpus(GenConfig(**SMALL), tmp_path)
    bank = load_bank(list_banks(tmp_path)[0])
    for k in range(1, bank.n_augs):
        assert not np.allclose(bank.features[k], bank.features[0], atol=1e-3)


def test_nuisance_shifts_whole_slide(tmp_path):
    base_cfg = GenConfig(**SMALL)
    noisy_cfg = GenConfig(**{**SMALL, "nuisance_strength": 5.0})
    generate_corpus(base_cfg, tmp_path / "a")
    generate_corpus(noisy_cfg, tmp_path / "b")
    clean = load_bank(list_banks(tmp_path / "a")[0])
    shifted = load_bank(list_banks(tmp_path / "b")[0])
    delta = shifted.features[0].astype(np.float64) - clean.features[0]
    # every tile of the slide moves by the same vector, of the set norm
    np.testing.assert_allclose(delta, np.broadcast_to(delta[0], delta.shape),
                               atol=1e-5)
    assert np.linalg.norm(delta[0]) == pytest.approx(5.0, rel=1e-5)


def test_prototype_layouts_differ_by_class_not_frequency():
    cfg = GenConfig(**SMALL)
    fine = _prototype_layout(cfg, 0)
    coarse = _prototype_layout(cfg, 1)
    assert fine.shape == coarse.shape == (8, 8)
    assert not np.array_equal(fine, coarse)
    # identical prototype frequencies: the class signal is purely spatial
    assert np.bincount(fine.ravel()).tolist() == np.bincount(coarse.ravel()).tolist()
    # class 0 interleaves (neighbors differ), class 1 forms blocks
    assert np.all(fine[:, 1:] != fine[:, :-1])
    assert (coarse[:, 1:] == coarse[:, :-1]).mean() > 0.7


def test_every_allowed_class_has_its_own_layout():
    cfg = GenConfig(**{**SMALL, "n_slides": 8, "n_classes": 4})
    layouts = {_prototype_layout(cfg, label).tobytes() for label in range(4)}
    assert len(layouts) == 4


def test_marginal_equality_on_clean_corpus(tmp_path):
    cfg = GenConfig(n_slides=100, n_classes=2, n_tiles=64, n_augs=2,
                    feat_dim=16, grid_extent=2048, seed=7)
    generate_corpus(cfg, tmp_path)
    assert verify_marginal_equality(tmp_path) < 3.0


def test_marginal_equality_flags_frequency_shift(tmp_path):
    cfg = GenConfig(n_slides=100, n_classes=2, n_tiles=64, n_augs=2,
                    feat_dim=16, grid_extent=2048, frequency_shift=0.6, seed=7)
    generate_corpus(cfg, tmp_path)
    assert verify_marginal_equality(tmp_path) > 10.0


def test_marginal_equality_single_class(tmp_path):
    cfg = GenConfig(**{**SMALL, "n_classes": 1})
    generate_corpus(cfg, tmp_path)
    assert verify_marginal_equality(tmp_path) == 0.0


def test_marginal_statistic_insensitive_to_nuisance(tmp_path):
    # nuisance directions are drawn per slide, not per class, so they wash out
    cfg = GenConfig(n_slides=100, n_classes=2, n_tiles=64, n_augs=2,
                    feat_dim=16, grid_extent=2048, nuisance_strength=1.0, seed=7)
    generate_corpus(cfg, tmp_path)
    assert verify_marginal_equality(tmp_path) < 3.0


@pytest.mark.parametrize("field,value", [
    ("n_slides", 3),          # fewer than 2 per class
    ("n_classes", 0),
    ("n_classes", 5),         # more classes than prototype layouts
    ("feat_dim", 1),
    ("n_prototypes", 0),
    ("n_prototypes", 99),     # exceeds feat_dim
    ("n_augs", 0),
    ("grid_extent", 100),
    ("n_tiles", 0),
    ("n_tiles", 10_000),      # exceeds grid capacity
    ("nuisance_strength", -1.0),
    ("aug_noise", -0.5),
    ("frequency_shift", 1.5),
    ("frequency_shift", float("nan")),
    # NaN and infinity pass the order tests, so they are refused as such
    *[(name, value) for name in ("nuisance_strength", "aug_noise", "tile_noise",
                                 "aug_strength")
      for value in (float("nan"), float("inf"))],
])
def test_config_validation(field, value):
    with pytest.raises(ValidationError):
        GenConfig(**{**SMALL, field: value})
