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


def _root(a):
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a


def _put(at, raw):
    def edit(blob):
        blob[at:at + len(raw)] = raw
    return edit


def _cut(n):
    def edit(blob):
        del blob[-n:]
    return edit


def _damage(tmp_path, edit, K=4, n=5, F=3):
    """Save a bank, apply ``edit(blob)`` to its bytes, return the new path."""
    path = tmp_path / "s1.gsb"
    save_bank(make_bank(K=K, n=n, F=F), path)
    blob = bytearray(path.read_bytes())
    edit(blob)
    (tmp_path / "d.gsb").write_bytes(bytes(blob))
    return tmp_path / "d.gsb"


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

        # The xy and f fields interleave without overlapping, so
        # np.shares_memory is False; both views end in the file's bytes.
        assert _root(bank.coords) is _root(bank.features)
        assert _root(bank.coords) == path.read_bytes()
        assert np.may_share_memory(bank.coords, bank.features)
        with pytest.raises(ValueError):
            bank.coords[0, 0, 0] = 1
        with pytest.raises(ValueError):
            bank.features[0, 0, 0] = 1.0

    def test_load_peak_is_file_plus_one_slice(self, tmp_path):
        # The file is mapped, not copied (test_mapping.py holds the tighter
        # bound); validation may allocate one slice's n x F bool temporary,
        # plus a fixed slack for numpy's reduction buffers and small objects.
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


class TestSlices:
    """``load_bank(path, slices=k)`` reads and validates the first k slices."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_prefix_equals_full_load(self, tmp_path, k):
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=4, n=5, F=3), path)
        full, part = load_bank(path), load_bank(path, slices=k)
        assert part.slide_id == full.slide_id
        assert part.coords.shape == (k, 5, 2) and part.features.shape == (k, 5, 3)
        np.testing.assert_array_equal(part.coords, full.coords[:k])
        np.testing.assert_array_equal(part.features, full.features[:k])

    def test_one_slice_buffer_holds_one_slice(self, tmp_path):
        K, n, F = 6, 5, 3
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=K, n=n, F=F), path)
        bank = load_bank(path, slices=1)
        assert bank.coords.shape == (1, n, 2) and bank.features.shape == (1, n, F)
        assert _root(bank.coords) is _root(bank.features)
        assert _root(bank.coords) == path.read_bytes()[:20 + n * (8 + 4 * F)]
        with pytest.raises(ValueError):
            bank.features[0, 0, 0] = 1.0

    def test_one_slice_peak_is_one_slice(self, tmp_path):
        K, n, F = 24, 300, 64
        slack = 64 * 1024
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=K, n=n, F=F), path)
        load_bank(path, slices=1)
        tracemalloc.start()
        try:
            bank = load_bank(path, slices=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bank.n_augs == 1
        assert peak <= n * (8 + 4 * F) + n * F + slack, peak

    def test_more_slices_than_stored_reads_all(self, tmp_path):
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(K=2), path)
        assert load_bank(path, slices=5).n_augs == 2

    @pytest.mark.parametrize("slices", [0, -1])
    def test_slice_count_must_be_positive(self, tmp_path, slices):
        path = tmp_path / "s1.gsb"
        save_bank(make_bank(), path)
        with pytest.raises(ValueError, match="slices"):
            load_bank(path, slices=slices)

    @pytest.mark.parametrize("edit,error,match", [
        (_cut(7), CorruptBank, "record bytes"),
        (_cut(200), CorruptBank, "record bytes"),        # into slice 1
        (lambda b: b.extend(b"zz"), CorruptBank, "record bytes"),
        (_put(16, struct.pack("<I", 2 ** 29)), CorruptBank, "record bytes"),
        (_put(16, struct.pack("<I", 2 ** 32 - 1)), CorruptBank, "record bytes"),
        (_put(12, struct.pack("<I", 0)), CorruptBank, "degenerate header"),
        (_put(0, b"NOPE"), FormatError, "magic"),
        (_put(4, struct.pack("<I", 9)), FormatError, "version"),
        (_cut(420 - 12), CorruptBank, "header"),         # 12 bytes left
        (_put(28, struct.pack("<f", np.nan)), CorruptBank, "finite"),
        (_put(20, struct.pack("<i", -5)), CorruptBank, "negative"),
        # the last tile of slice 0 (5 tiles of 20 bytes): y, then last feature
        (_put(20 + 80 + 4, struct.pack("<i", -1)), CorruptBank, "negative"),
        (_put(20 + 100 - 4, struct.pack("<f", np.inf)), CorruptBank, "finite"),
    ], ids=["cut_tail", "cut_into_slice_1", "trailing", "feat_dim_2**29",
            "feat_dim_2**32-1", "zero_tiles", "magic", "version", "short_header",
            "nan_feature", "negative_x", "negative_last_y", "inf_last_feature"])
    def test_damage_still_raises(self, tmp_path, edit, error, match):
        path = _damage(tmp_path, edit)
        for slices in (1, None):
            with pytest.raises(error, match=match):
                load_bank(path, slices=slices)

    def test_bad_values_past_the_prefix_are_not_read(self, tmp_path):
        K, n, F = 4, 5, 3

        def edit(blob):
            blob[-4:] = struct.pack("<f", np.nan)         # last slice, last tile
            y_at = 20 + n * (8 + 4 * F) + 4               # slice 1, first tile
            blob[y_at:y_at + 4] = struct.pack("<i", -1)

        path = _damage(tmp_path, edit, K=K, n=n, F=F)
        clean = load_bank(tmp_path / "s1.gsb", slices=1)
        bank = load_bank(path, slices=1)
        np.testing.assert_array_equal(bank.coords, clean.coords)
        np.testing.assert_array_equal(bank.features, clean.features)
        with pytest.raises(CorruptBank):
            load_bank(path)
        with pytest.raises(CorruptBank):
            load_bank(path, slices=2)


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
