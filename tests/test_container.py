"""The shared binary container: pinned bytes of every format, atomic writes."""

import hashlib
import os

import numpy as np
import pytest

from slidessl.bank import EmbeddingBank, load_bank, save_bank
from slidessl.inference import (export_embeddings_csv, load_embeddings,
                                save_embeddings)
from slidessl.numcore import save_checkpoint
from slidessl.probe import ProbeReport, write_report_csv
from slidessl.sparseconv import PoolingNetworkConfig
from slidessl.training import build_model, load_model, save_model

# sha256 of the files written below, recorded before the three formats
# shared one container; a change here changes the bytes on disk
PINNED = {
    "s1.gsb": "7c41426004b79ffc82a5fc296e53f35643dbe5c672d673eef2ededf055de87aa",
    "s1.json": "3d2171ffeb3577831ac3c999643ddc5ab16aea371f6f2436a94b7929548e5f24",
    "m.ckpt": "5cd99afe5b7b82cf6acf5fcc0340b3bf56889df470d51115518705cc0755bf28",
    "e.gse": "046e85b8148bb861439fed0c45d5883c9061e9727a682c5bd3076390c221fe0b",
}


def small_bank():
    rng = np.random.default_rng(0)
    return EmbeddingBank("s1", rng.integers(0, 5000, size=(2, 3, 2)),
                         rng.normal(size=(2, 3, 4)))


def small_model():
    cfg = PoolingNetworkConfig(in_channels=4, block_channels=(6, 6),
                               kernel_size=3, out_dim=6)
    model = build_model(cfg, proj_dim=8, seed=0, train_tiles=5)
    model.store.t = 3
    return model


def small_embeddings():
    return ["a", "slide_b"], np.random.default_rng(1).normal(size=(2, 5)).astype(
        np.float32)


def write_all(d):
    save_bank(small_bank(), d / "s1.gsb", provenance={"generator": "pin"})
    save_model(small_model(), d / "m.ckpt", epoch=2)
    save_embeddings(d / "e.gse", *small_embeddings())


def digests(d):
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
            for name in PINNED}


def test_bytes_match_pinned_digests(tmp_path):
    write_all(tmp_path)
    assert digests(tmp_path) == PINNED


def test_load_then_save_reproduces_bytes(tmp_path):
    src, dst = tmp_path / "src", tmp_path / "dst"
    src.mkdir()
    dst.mkdir()
    write_all(src)
    bank = load_bank(src / "s1.gsb")
    save_bank(bank, dst / "s1.gsb", provenance={"generator": "pin"})
    model, epoch = load_model(src / "m.ckpt")
    save_model(model, dst / "m.ckpt", epoch=epoch)
    save_embeddings(dst / "e.gse", *load_embeddings(src / "e.gse"))
    assert digests(dst) == PINNED


SAVES = {
    "bank": lambda p: save_bank(small_bank(), p),
    "checkpoint": lambda p: save_checkpoint(p, {"w": np.ones(3)}),
    "model": lambda p: save_model(small_model(), p, epoch=1),
    "embeddings": lambda p: save_embeddings(p, *small_embeddings()),
    "embeddings_csv": lambda p: export_embeddings_csv(p, *small_embeddings()),
    "report_csv": lambda p: write_report_csv(
        p, [ProbeReport("t", "all", (0.5, 0.75), (8, 8))]),
}


@pytest.mark.parametrize("fails", ["fsync", "replace"])
@pytest.mark.parametrize("kind", sorted(SAVES))
def test_failed_save_leaves_old_file_and_no_temp(tmp_path, monkeypatch, kind, fails):
    path = tmp_path / "s1.out"
    old = {path: b"old artifact", path.with_suffix(".json"): b"old sidecar"}
    for p, data in old.items():
        p.write_bytes(data)

    def boom(*args):
        raise OSError(f"injected {fails} failure")
    monkeypatch.setattr(os, fails, boom)
    with pytest.raises(OSError, match="injected"):
        SAVES[kind](path)
    monkeypatch.undo()
    for p, data in old.items():
        assert p.read_bytes() == data
    assert sorted(tmp_path.iterdir()) == sorted(old)
