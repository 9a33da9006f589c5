"""Embedding-bank binary format and validation."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from slidessl.bank import EmbeddingBank, list_banks, load_bank, save_bank
from slidessl.errors import CorruptBank, DimensionMismatch, FormatError


def make_bank(slide_id="s1", K=2, n=3, F=4, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 5000, size=(K, n, 2)).astype(np.int32)
    feats = rng.normal(size=(K, n, F)).astype(np.float32)
    return EmbeddingBank(slide_id, coords, feats)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        bank = make_bank()
        path = tmp_path / "s1.gsb"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.slide_id == "s1"
        np.testing.assert_array_equal(loaded.coords, bank.coords)
        np.testing.assert_array_equal(loaded.features, bank.features)

    def test_sidecar_written_and_read(self, tmp_path):
        bank = make_bank(slide_id="slide_042")
        path = tmp_path / "slide_042.gsb"
        save_bank(bank, path, provenance={"generator": "unit-test"})
        meta = json.loads((tmp_path / "slide_042.json").read_text())
        assert meta["slide_id"] == "slide_042"
        assert meta["provenance"]["generator"] == "unit-test"
        assert load_bank(path).slide_id == "slide_042"

    def test_slide_id_falls_back_to_stem(self, tmp_path):
        bank = make_bank(slide_id="whatever")
        path = tmp_path / "renamed.gsb"
        save_bank(bank, path)
        (tmp_path / "renamed.json").unlink()
        assert load_bank(path).slide_id == "renamed"

    def test_save_is_byte_deterministic(self, tmp_path):
        bank = make_bank(seed=3)
        save_bank(bank, tmp_path / "a.gsb")
        save_bank(bank, tmp_path / "b.gsb")
        assert (tmp_path / "a.gsb").read_bytes() == (tmp_path / "b.gsb").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_header_layout(self, tmp_path):
        bank = make_bank(K=2, n=3, F=4)
        path = tmp_path / "s1.gsb"
        save_bank(bank, path)
        blob = path.read_bytes()
        assert blob[:4] == b"GSLB"
        assert struct.unpack("<IIII", blob[4:20]) == (1, 2, 3, 4)
        # 2 slices x 3 tiles x (2 i32 + 4 f32) bytes
        assert len(blob) == 20 + 2 * 3 * (8 + 16)

    def test_record_layout_first_tile(self, tmp_path):
        coords = np.array([[[7, 9]]], dtype=np.int32)
        feats = np.array([[[1.5, -2.0]]], dtype=np.float32)
        path = tmp_path / "one.gsb"
        save_bank(EmbeddingBank("one", coords, feats), path)
        blob = path.read_bytes()
        x, y = struct.unpack("<ii", blob[20:28])
        f = struct.unpack("<2f", blob[28:36])
        assert (x, y) == (7, 9)
        assert f == (1.5, -2.0)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.gsb"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_bank(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "x.gsb"
        p.write_bytes(b"GSLB" + struct.pack("<IIII", 9, 1, 1, 1) + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_bank(p)

    def test_truncated_payload(self, tmp_path):
        bank = make_bank()
        path = tmp_path / "s1.gsb"
        save_bank(bank, path)
        blob = path.read_bytes()
        (tmp_path / "t.gsb").write_bytes(blob[:-7])
        with pytest.raises(CorruptBank):
            load_bank(tmp_path / "t.gsb")

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.gsb"
        p.write_bytes(b"GSLB" + b"\x00" * 8)
        with pytest.raises(CorruptBank):
            load_bank(p)

    def test_trailing_bytes(self, tmp_path):
        bank = make_bank()
        path = tmp_path / "s1.gsb"
        save_bank(bank, path)
        (tmp_path / "t.gsb").write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(CorruptBank):
            load_bank(tmp_path / "t.gsb")

    @pytest.mark.parametrize("feat_dim", [2 ** 29, 2 ** 32 - 1])
    def test_oversized_feat_dim_header(self, tmp_path, feat_dim):
        # too wide for a numpy record dtype: the size check must come first
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<I", feat_dim)
        (tmp_path / "h.gsb").write_bytes(bytes(blob))
        with pytest.raises(CorruptBank, match="record bytes"):
            load_bank(tmp_path / "h.gsb")

    def test_sidecar_not_utf8(self, tmp_path):
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(), path)
        (tmp_path / "s1.json").write_bytes(b'{"slide_id": "\xff"}')
        with pytest.raises(CorruptBank, match="sidecar"):
            load_bank(path)

    def test_non_finite_features_rejected_on_load(self, tmp_path):
        bank = make_bank(K=1, n=1, F=2)
        path = tmp_path / "s1.gsb"
        save_bank(bank, path)
        blob = bytearray(path.read_bytes())
        blob[28:32] = struct.pack("<f", np.nan)
        (tmp_path / "n.gsb").write_bytes(bytes(blob))
        with pytest.raises(CorruptBank, match="finite"):
            load_bank(tmp_path / "n.gsb")

    def test_negative_coords_rejected(self, tmp_path):
        bank = make_bank(K=1, n=1, F=2)
        path = tmp_path / "s1.gsb"
        save_bank(bank, path)
        blob = bytearray(path.read_bytes())
        blob[20:24] = struct.pack("<i", -5)
        (tmp_path / "n.gsb").write_bytes(bytes(blob))
        with pytest.raises(CorruptBank, match="negative"):
            load_bank(tmp_path / "n.gsb")

    @pytest.mark.parametrize("sidecar", ["[]", '{"slide_id": 7}',
                                         '{"slide_id": ""}'])
    def test_sidecar_shape_rejected(self, tmp_path, sidecar):
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(), path)
        (tmp_path / "s1.json").write_text(sidecar)
        with pytest.raises(CorruptBank, match="s1.json"):
            load_bank(path)

    def test_non_finite_feature_in_last_slice_rejected(self, tmp_path):
        K, n, F = 4, 5, 3
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=K, n=n, F=F), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<f", np.nan)   # last feature of the last tile
        (tmp_path / "n.gsb").write_bytes(bytes(blob))
        with pytest.raises(CorruptBank, match="finite"):
            load_bank(tmp_path / "n.gsb")

    def test_negative_coord_in_last_record_rejected(self, tmp_path):
        K, n, F = 4, 5, 3
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=K, n=n, F=F), path)
        blob = bytearray(path.read_bytes())
        y_at = len(blob) - 4 * F - 4
        blob[y_at:y_at + 4] = struct.pack("<i", -1)
        (tmp_path / "n.gsb").write_bytes(bytes(blob))
        with pytest.raises(CorruptBank, match="negative"):
            load_bank(tmp_path / "n.gsb")

    def test_constructor_validation(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingBank("s", np.zeros((2, 3, 3), dtype=np.int32),
                          np.zeros((2, 3, 4), dtype=np.float32))
        with pytest.raises(DimensionMismatch):
            EmbeddingBank("s", np.zeros((2, 3, 2), dtype=np.int32),
                          np.zeros((2, 4, 4), dtype=np.float32))


class TestZeroCopy:
    def test_arrays_are_read_only_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=3, n=4, F=5), path)
        bank = load_bank(path)

        def root(a):
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            return a

        # The xy and f fields interleave without overlapping, so
        # np.shares_memory is False; both views end in the file's bytes.
        assert root(bank.coords) is root(bank.features)
        assert root(bank.coords) == path.read_bytes()
        assert np.may_share_memory(bank.coords, bank.features)
        with pytest.raises(ValueError):
            bank.coords[0, 0, 0] = 1
        with pytest.raises(ValueError):
            bank.features[0, 0, 0] = 1.0

    def test_load_peak_is_file_plus_one_slice(self, tmp_path):
        # The file's bytes are read once and kept; validation may allocate
        # one slice's n x F bool temporary, plus a fixed slack for numpy's
        # reduction buffers and small objects.
        K, n, F = 24, 300, 64
        slack = 64 * 1024
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=K, n=n, F=F), path)
        size = path.stat().st_size
        load_bank(path)   # warm imports and caches outside the traced window
        tracemalloc.start()
        try:
            bank = load_bank(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bank.n_augs == K
        assert peak <= size + n * F + slack, (peak, size)


class TestListBanks:
    def test_sorted_listing(self, tmp_path):
        for name in ("c", "a", "b"):
            save_bank(make_bank(slide_id=name), tmp_path / f"{name}.gsb")
        names = [p.stem for p in list_banks(tmp_path)]
        assert names == ["a", "b", "c"]

    def test_ignores_other_files(self, tmp_path):
        save_bank(make_bank(), tmp_path / "a.gsb")
        (tmp_path / "notes.txt").write_text("hi")
        assert len(list_banks(tmp_path)) == 1
