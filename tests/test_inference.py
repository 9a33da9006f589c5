"""View-ensembled slide embedding, the mean-tile baseline, and GSLE files."""

import csv
import inspect
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from slidessl.bank import EmbeddingBank, list_banks, load_bank, save_bank
from slidessl.errors import (
    CorruptBank,
    DegenerateEmbedding,
    DimensionMismatch,
    EmptyBag,
    FormatError,
    InsufficientTiles,
    PipelineError,
    ValidationError,
)
from slidessl.inference import (
    _view_batch,
    average_mil_embed,
    embed_banks,
    embed_dataset,
    embed_slide,
    export_embeddings_csv,
    load_embeddings,
    save_embeddings,
)
from slidessl.sparseconv import (PoolingNetworkConfig, build_rulebook, merge_rulebooks,
                                 view_pairs)
from slidessl.sparsemap import build_sparse_map
from slidessl.training import (
    DRAW_ONE_CALL_MAX,
    TrainConfig,
    build_model,
    draw_views,
    pretrain,
)


def make_bank(slide_id="s", n_tiles=24, n_augs=3, feat_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    grid = rng.choice(32 * 32, size=n_tiles, replace=False)
    coords = np.stack([grid // 32, grid % 32], axis=1) * 224
    coords = np.repeat(coords[None], n_augs, axis=0)
    feats = rng.normal(size=(n_augs, n_tiles, feat_dim))
    return EmbeddingBank(slide_id, coords, feats)


def make_model(feat_dim=6, seed=0, dtype=np.float32, train_tiles=5):
    cfg = PoolingNetworkConfig(in_channels=feat_dim, block_channels=(8, 8),
                               out_dim=10)
    return build_model(cfg, proj_dim=12, seed=seed, dtype=dtype,
                       train_tiles=train_tiles)


# ---------------------------------------------------------------------------
# embed_slide

def test_embedding_is_unit_norm():
    emb = embed_slide(make_bank(), make_model(), r_views=8,
                      rng=np.random.default_rng(0))
    assert emb.vector.shape == (10,)
    assert abs(np.linalg.norm(emb.vector) - 1.0) < 1e-6
    assert emb.r_views == 8
    assert emb.tiles == 5


def test_exact_budget_bank_gives_single_view_vector():
    # With exactly `tiles` tiles every draw selects the whole bank, so the
    # ensemble collapses to one view regardless of how many views are drawn.
    bank = make_bank(n_tiles=5)
    model = make_model()
    one = embed_slide(bank, model, tiles=5, r_views=1,
                      rng=np.random.default_rng(0))
    many = embed_slide(bank, model, tiles=5, r_views=9,
                       rng=np.random.default_rng(7))
    np.testing.assert_allclose(many.vector, one.vector, atol=1e-6)

    smap = build_sparse_map((bank.coords[0].astype(np.int64),
                             bank.features[0].astype(np.float32)))
    w1 = model.net.forward([smap], False)[0][0]
    np.testing.assert_allclose(one.vector, w1 / np.linalg.norm(w1), atol=1e-6)


def test_translation_invariance():
    bank = make_bank()
    shifted = EmbeddingBank(bank.slide_id, bank.coords + 2240, bank.features)
    model = make_model()
    a = embed_slide(bank, model, r_views=6, rng=np.random.default_rng(3))
    b = embed_slide(shifted, model, r_views=6, rng=np.random.default_rng(3))
    np.testing.assert_allclose(a.vector, b.vector, atol=1e-9)


def test_more_views_converge():
    bank = make_bank(n_tiles=40, feat_dim=6, seed=2)
    model = make_model()
    big = embed_slide(bank, model, r_views=200, rng=np.random.default_rng(0))
    small = embed_slide(bank, model, r_views=50, rng=np.random.default_rng(1))
    assert float(big.vector @ small.vector) >= 0.99


def test_embed_peak_is_far_below_one_slice(tmp_path):
    # Only the drawn tiles of the mapped slice are gathered and cast; a
    # copy of the whole slice would take 4 n F bytes.
    n, F = 4000, 128
    rng = np.random.default_rng(0)
    grid = rng.choice(200 * 200, size=n, replace=False)
    coords = np.stack([grid // 200, grid % 200], axis=1)[None] * 224
    save_bank(EmbeddingBank("s", coords, rng.normal(size=(1, n, F))),
              tmp_path / "s.gsb")
    bank = load_bank(tmp_path / "s.gsb", slices=1)
    model = build_model(PoolingNetworkConfig(in_channels=F, block_channels=(8,),
                                             out_dim=8), train_tiles=5)
    embed_slide(bank, model, r_views=10)   # warm caches outside the window
    tracemalloc.start()
    try:
        embed_slide(bank, model, r_views=10, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * F, peak   # a quarter of the float32 slice


def test_variance_shrinks_with_more_views():
    bank = make_bank(n_tiles=40, seed=5)
    model = make_model()
    spread = []
    for r in (1, 5, 50):
        vecs = [embed_slide(bank, model, r_views=r,
                            rng=np.random.default_rng(s)).vector
                for s in range(30)]
        spread.append(float(np.stack(vecs).var(axis=0).mean()))
    assert spread[0] > spread[1] > spread[2]


def test_default_tiles_comes_from_checkpoint():
    emb = embed_slide(make_bank(), make_model(train_tiles=7), r_views=2,
                      rng=np.random.default_rng(0))
    assert emb.tiles == 7


def test_tile_override_warns():
    with pytest.warns(UserWarning, match="trained with 5"):
        embed_slide(make_bank(), make_model(train_tiles=5), tiles=7,
                    r_views=2, rng=np.random.default_rng(0))


def test_no_tile_count_anywhere_rejected():
    model = make_model(train_tiles=None)
    with pytest.raises(InsufficientTiles):
        embed_slide(make_bank(), model, rng=np.random.default_rng(0))


def test_oversized_view_rejected():
    with pytest.raises(InsufficientTiles):
        embed_slide(make_bank(n_tiles=4), make_model(), tiles=5, r_views=1,
                    rng=np.random.default_rng(0))


def test_zero_views_rejected():
    with pytest.raises(InsufficientTiles):
        embed_slide(make_bank(), make_model(), r_views=0,
                    rng=np.random.default_rng(0))


def test_feature_width_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        embed_slide(make_bank(feat_dim=4), make_model(feat_dim=6),
                    rng=np.random.default_rng(0))


def test_zero_network_output_is_degenerate():
    model = make_model()
    model.store.params["net.head.w"][...] = 0.0
    model.store.params["net.head.b"][...] = 0.0
    with pytest.raises(DegenerateEmbedding):
        embed_slide(make_bank(), model, r_views=3,
                    rng=np.random.default_rng(0))


def test_non_finite_network_output_is_degenerate():
    model = make_model()
    model.store.params["net.head.w"][0, 0] = np.nan
    with pytest.raises(DegenerateEmbedding, match="not finite"):
        embed_slide(make_bank(), model, r_views=3,
                    rng=np.random.default_rng(0))


def test_embedding_deterministic_given_rng_seed():
    bank, model = make_bank(), make_model()
    a = embed_slide(bank, model, r_views=5, rng=np.random.default_rng(11))
    b = embed_slide(bank, model, r_views=5, rng=np.random.default_rng(11))
    assert np.array_equal(a.vector, b.vector)


def crowded_bank(n_tiles, feat_dim, cells, same_pixel=0, seed=0):
    """Tiles packed into a cells x cells lattice region, so several share a
    site; the last ``same_pixel`` tiles repeat the first ones' positions,
    and every fourth tile has a -0.0 feature."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, cells * 224, size=(1, n_tiles, 2))
    if same_pixel:
        coords[:, -same_pixel:] = coords[:, :same_pixel]
    feats = rng.normal(size=(1, n_tiles, feat_dim))
    feats[0, ::4, 0] = -0.0
    return EmbeddingBank("s", coords, feats)


@pytest.mark.parametrize(
    "n_tiles,cells,same_pixel,tiles,r_views,kernel,feat_dim,blocks,dtype", [
        (40, 3, 0, 12, 20, 3, 6, (8, 8), np.float32),     # many tiles per site
        (30, 4, 10, 9, 15, 3, 6, (8, 8), np.float32),     # equal pixel positions
        (30, 2, 15, 30, 4, 3, 6, (8, 8), np.float64),     # T = bank size
        (25, 5, 5, 7, 1, 3, 8, (8, 8), np.float32),       # one view, no projection
        (35, 4, 5, 10, 12, 1, 6, (8, 8), np.float32),     # k = 1
        (35, 6, 5, 10, 12, 5, 6, (8, 12), np.float64),    # k = 5, two projections
        (60, 20, 0, 5, 30, 3, 8, (8,), np.float32),       # sparse, few collisions
        # 120 tiles on at most 9 sites: a site holds >= 14 of a view's tiles
        (200, 3, 20, 120, 10, 3, 6, (8, 8), np.float64),
        # T = bank size in every view: all 40 tiles on at most 4 sites
        (40, 2, 10, 40, 6, 3, 6, (8, 8), np.float32),
    ])
def test_embedding_equals_per_view_oracle(n_tiles, cells, same_pixel, tiles,
                                          r_views, kernel, feat_dim, blocks,
                                          dtype):
    bank = crowded_bank(n_tiles, feat_dim, cells, same_pixel, seed=n_tiles)
    cfg = PoolingNetworkConfig(in_channels=feat_dim, block_channels=blocks,
                               kernel_size=kernel, out_dim=10)
    model = build_model(cfg, proj_dim=12, seed=1, dtype=dtype,
                        train_tiles=tiles)
    got = embed_slide(bank, model, r_views=r_views,
                      rng=np.random.default_rng(4))

    # the same draws, one map per view, one view_pairs adjacency of their
    # rows that lists the maps' own rulebooks merged, one folded eval forward
    rng = np.random.default_rng(4)
    idx = np.sort(draw_views(rng, [n_tiles] * r_views, tiles), axis=1)
    coords = bank.coords[0].astype(np.int64)
    feats = bank.features[0].astype(dtype)
    maps = [build_sparse_map((coords[i], feats[i])) for i in idx]
    starts = np.cumsum([0] + [m.n_sites for m in maps])[:-1].tolist()
    want_segs = [(s, s + m.n_sites) for s, m in zip(starts, maps)]
    want_x = np.concatenate([m.features for m in maps])
    merged = merge_rulebooks([build_rulebook(m, kernel) for m in maps], starts)
    want_pairs = view_pairs(np.repeat(np.arange(len(maps)), np.diff(want_segs)[:, 0]),
                            np.concatenate([m.sites for m in maps]), kernel)
    assert len(want_pairs) == len(merged)
    for a, b in zip(want_pairs, merged):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    mean = model.net.embed_rows(want_x, want_pairs, want_segs).mean(axis=0)
    want = (mean / np.linalg.norm(mean)).astype(np.float32)
    assert got.vector.tobytes() == want.tobytes()

    # and the batch's rows and pairs are those of the per-view path
    x, pairs, segs = _view_batch(bank.coords[0], bank.features[0], idx, kernel,
                                 dtype)
    assert segs == want_segs
    assert x.tobytes() == want_x.tobytes()
    assert len(pairs) == len(merged)
    for a, b in zip(pairs, merged):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# One batch-norm fold per embed_dataset call

def model_with_statistics(cfg, tiles, seed=1):
    """A model whose running statistics are far from their initial 0 and 1."""
    model = build_model(cfg, proj_dim=12, seed=seed, train_tiles=tiles)
    rng = np.random.default_rng(seed)
    for name, buf in model.net.buffers.items():
        buf[...] = (rng.uniform(0.2, 3.0, buf.shape) if name.endswith("run_var")
                    else rng.normal(size=buf.shape))
    return model


def slides_folding_alone(bank_dir, model, r_views, seed):
    """``embed_dataset``'s ids and rows from one ``embed_slide`` per bank,
    each folding batch norm for itself."""
    rows = {}
    for slide_idx, path in enumerate(list_banks(bank_dir)):
        bank = load_bank(path, slices=1)
        rows[bank.slide_id] = embed_slide(
            bank, model, r_views=r_views,
            rng=np.random.default_rng([seed, 2, slide_idx])).vector
    ids = sorted(rows)
    return ids, np.stack([rows[sid] for sid in ids])


@pytest.mark.parametrize("corpus", ["crowded", "wide"])
def test_dataset_rows_equal_slides_folding_alone(tmp_path, corpus):
    if corpus == "crowded":
        # ~700 rows of 8 and 16 channels per slide: the tiled bias add
        # covers whole groups and a remainder
        for i in range(3):
            b = crowded_bank(300, 16, cells=6, same_pixel=20, seed=i)
            save_bank(EmbeddingBank(f"s{i}", b.coords, b.features),
                      tmp_path / f"s{i}.gsb")
        cfg = PoolingNetworkConfig(in_channels=16, block_channels=(8, 16),
                                   out_dim=10)
        tiles, r_views = 120, 20
    else:
        for i in range(2):
            save_bank(make_bank(f"s{i}", n_augs=1, feat_dim=2048, seed=i),
                      tmp_path / f"s{i}.gsb")
        cfg = PoolingNetworkConfig(in_channels=2048, block_channels=(8, 8),
                                   out_dim=10)
        tiles, r_views = 5, 8
    model = model_with_statistics(cfg, tiles)
    ids, matrix, failures = embed_dataset(tmp_path, model, r_views=r_views,
                                          seed=4)
    assert failures == []
    want_ids, want = slides_folding_alone(tmp_path, model, r_views, seed=4)
    assert ids == want_ids
    assert matrix.tobytes() == want.tobytes()


def test_dataset_fold_does_not_outlive_the_call(tmp_path):
    write_corpus(tmp_path)
    model = model_with_statistics(make_model().net_config, tiles=5)
    attributes = set(vars(model.net))
    first = embed_dataset(tmp_path, model, r_views=4, seed=2)
    model.net.buffers["net.block1.bn2.run_mean"] += 0.5
    second = embed_dataset(tmp_path, model, r_views=4, seed=2)
    assert first[0] == second[0]
    assert not np.array_equal(first[1], second[1])
    want_ids, want = slides_folding_alone(tmp_path, model, 4, seed=2)
    assert second[0] == want_ids
    assert second[1].tobytes() == want.tobytes()
    assert set(vars(model.net)) == attributes


# ---------------------------------------------------------------------------
# draw_views (training's tile draw) as embedding calls it: one size for all
# rows

def assert_uniform_subsets(idx, n, tiles, r_views):
    """Rows are ``tiles`` distinct tiles of ``range(n)``, each tile drawn as
    often as a uniform subset draws it: the inclusion counts' chi-square,
    scaled for draws without replacement, against n - 1 degrees of freedom."""
    assert idx.shape == (r_views, tiles) and idx.dtype == np.int64
    rows = np.sort(idx, axis=1)
    assert rows[:, 0].min() >= 0 and rows[:, -1].max() < n
    assert (np.diff(rows, axis=1) > 0).all()          # no repeats in a row
    p = tiles / n
    counts = np.bincount(idx.ravel(), minlength=n)
    stat = ((counts - r_views * p) ** 2).sum() / (r_views * p * (1 - p))
    stat *= (n - 1) / n
    assert scipy.stats.chi2.sf(stat, n - 1) > 1e-3, stat


@pytest.mark.parametrize("n,tiles", [(48, 5), (48, 16), (600, 5), (600, 64)])
def test_draw_views_are_uniform_subsets(n, tiles):
    idx = draw_views(np.random.default_rng([n, tiles]), [n] * 4000, tiles)
    assert_uniform_subsets(idx, n, tiles, 4000)


@pytest.mark.parametrize("n", [1, 48, 512, 513, 600])
def test_draw_views_of_every_tile_are_permutations(n):
    idx = draw_views(np.random.default_rng(n), [n] * 7, n)
    assert idx.shape == (7, n) and idx.dtype == np.int64
    assert (np.sort(idx, axis=1) == np.arange(n)).all()


def test_draw_rule_switches_after_512_tiles():
    assert DRAW_ONE_CALL_MAX == 512
    for n in (48, 511, 512):       # the T smallest of n uniforms per row
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        idx = draw_views(rng, [n] * 30, 9)
        keys = ref.random((30, n))
        assert (np.sort(idx, axis=1)
                == np.sort(np.argsort(keys, axis=1)[:, :9], axis=1)).all()
        assert rng.random() == ref.random()    # one call, the same stream
    for n in (513, 600, 4000):     # rng.choice view by view, as before
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        idx = draw_views(rng, [n] * 30, 9)
        want = np.stack([ref.choice(n, size=9, replace=False)
                         for _ in range(30)])
        assert idx.tobytes() == want.tobytes() and idx.dtype == want.dtype
        assert rng.random() == ref.random()


def test_zero_tiles_is_a_failed_slide():
    with pytest.raises(PipelineError):
        embed_slide(make_bank(), make_model(train_tiles=None), tiles=0,
                    r_views=3, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# average_mil_embed

def test_average_mil_is_slice_zero_mean():
    bank = make_bank()
    expect = bank.features[0].astype(np.float64).mean(axis=0)
    np.testing.assert_allclose(average_mil_embed(bank), expect, atol=1e-12)


def test_average_mil_ignores_other_slices():
    bank = make_bank()
    tweaked = EmbeddingBank(bank.slide_id, bank.coords,
                            np.concatenate([bank.features[:1],
                                            bank.features[1:] + 100.0]))
    np.testing.assert_allclose(average_mil_embed(bank),
                               average_mil_embed(tweaked), atol=1e-12)


def test_average_mil_tile_order_invariant():
    bank = make_bank()
    perm = np.random.default_rng(0).permutation(bank.n_tiles)
    shuffled = EmbeddingBank(bank.slide_id, bank.coords[:, perm],
                             bank.features[:, perm])
    np.testing.assert_allclose(average_mil_embed(bank),
                               average_mil_embed(shuffled), atol=1e-12)


def test_average_mil_empty_guard():
    class Stub:
        slide_id = "x"
        n_tiles = 0

    with pytest.raises(EmptyBag):
        average_mil_embed(Stub())


# ---------------------------------------------------------------------------
# embed_dataset

def write_corpus(tmp_path, n=3, feat_dim=6):
    for i in range(n):
        # deliberately unsorted creation order
        sid = f"slide_{(7 * i + 2) % n:02d}"
        save_bank(make_bank(sid, seed=i), tmp_path / f"{sid}.gsb")
    return tmp_path


def test_dataset_rows_sorted_by_id(tmp_path):
    write_corpus(tmp_path)
    ids, matrix, failures = embed_dataset(tmp_path, make_model(), r_views=3)
    assert ids == sorted(ids) and len(ids) == 3
    assert matrix.shape == (3, 10)
    assert failures == []
    assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-6)


def test_dataset_tile_override_warns_once_at_the_caller(tmp_path):
    write_corpus(tmp_path)
    model = make_model(train_tiles=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        ids, _, failures = embed_dataset(tmp_path, model, tiles=4, r_views=2)
    assert len(ids) == 3 and failures == []
    assert [(w.category, w.filename, w.lineno) for w in caught] == [
        (UserWarning, __file__, line)]
    assert "trained with 5" in str(caught[0].message)
    assert model.train_tiles == 5


@pytest.mark.parametrize("counts", [{"r_views": 0}, {"r_views": -2}, {"tiles": 0}])
def test_dataset_bad_counts_fail_before_any_slide(tmp_path, counts):
    # the directory does not exist: a check made per slide would fail listing it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientTiles, match="at least 1"):
            embed_dataset(tmp_path / "none", make_model(train_tiles=5), **counts)


def test_dataset_rerun_identical(tmp_path):
    write_corpus(tmp_path)
    model = make_model()
    first = embed_dataset(tmp_path, model, r_views=4, seed=9)
    second = embed_dataset(tmp_path, model, r_views=4, seed=9)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])


def test_dataset_threads_do_not_change_rows(tmp_path):
    write_corpus(tmp_path, n=5)
    model = make_model()
    lone = embed_dataset(tmp_path, model, r_views=4, seed=3, threads=1)
    pooled = embed_dataset(tmp_path, model, r_views=4, seed=3, threads=4)
    assert lone[0] == pooled[0]
    assert np.array_equal(lone[1], pooled[1])


def test_dataset_skips_and_reports_bad_bank(tmp_path):
    write_corpus(tmp_path)
    bad = sorted(tmp_path.glob("*.gsb"))[1]
    bad.write_bytes(b"JUNKJUNKJUNK")
    ids, matrix, failures = embed_dataset(tmp_path, make_model(), r_views=3)
    assert len(ids) == 2 and matrix.shape[0] == 2
    assert len(failures) == 1
    assert failures[0][0] == bad.stem


@pytest.mark.parametrize("threads", [1, 2])
def test_dataset_unreadable_and_truncated_banks_are_failures(tmp_path, threads):
    write_corpus(tmp_path)
    paths = sorted(tmp_path.glob("*.gsb"))
    paths[0].write_bytes(paths[0].read_bytes()[:-7])   # CorruptBank
    paths[1].unlink()
    paths[1].mkdir()                                   # open() -> OSError
    ids, matrix, failures = embed_dataset(tmp_path, make_model(), r_views=3,
                                          threads=threads)
    assert ids == [paths[2].stem] and matrix.shape == (1, 10)
    assert [sid for sid, _ in failures] == [paths[0].stem, paths[1].stem]


@pytest.mark.parametrize("threads", [1, 2])
def test_dataset_program_bug_is_raised_not_reported(tmp_path, threads):
    write_corpus(tmp_path)
    with pytest.raises(TypeError):
        embed_dataset(tmp_path, make_model(), r_views=2.5, threads=threads)


@pytest.mark.parametrize("sidecar", ["[]", '{"slide_id": 7}'])
def test_dataset_bad_sidecar_is_a_failed_slide(tmp_path, sidecar):
    write_corpus(tmp_path)
    model = make_model()
    full_ids, full_matrix, _ = embed_dataset(tmp_path, model, r_views=3)
    bad = sorted(tmp_path.glob("*.gsb"))[1]
    bad.with_suffix(".json").write_text(sidecar)
    ids, matrix, failures = embed_dataset(tmp_path, model, r_views=3)
    assert [sid for sid, _ in failures] == [bad.stem]
    assert failures[0][1].startswith(bad.with_suffix(".json").name)
    assert ids == [sid for sid in full_ids if sid != bad.stem]
    for sid, row in zip(ids, matrix):
        np.testing.assert_array_equal(row, full_matrix[full_ids.index(sid)])


def test_dataset_failure_does_not_shift_other_seeds(tmp_path):
    write_corpus(tmp_path)
    model = make_model()
    full_ids, full_matrix, _ = embed_dataset(tmp_path, model, r_views=3, seed=1)
    bad = sorted(tmp_path.glob("*.gsb"))[0]
    bad_id = bad.stem
    bad.write_bytes(b"nope")
    ids, matrix, failures = embed_dataset(tmp_path, model, r_views=3, seed=1)
    assert failures[0][0] == bad_id
    for sid, row in zip(ids, matrix):
        np.testing.assert_array_equal(row, full_matrix[full_ids.index(sid)])


@pytest.mark.parametrize("threads", [1, 4])
def test_dataset_embeds_on_the_calling_thread_in_listing_order(
        tmp_path, monkeypatch, threads):
    from slidessl import inference
    write_corpus(tmp_path, n=4)
    caller, running = threading.get_ident(), threading.active_count()
    seen = []

    def recorded(bank, model, **kwargs):
        seen.append((bank.slide_id, threading.get_ident(),
                     threading.active_count()))
        return embed_slide(bank, model, **kwargs)
    monkeypatch.setattr(inference, "embed_slide", recorded)
    ids, _, failures = embed_dataset(tmp_path, make_model(), r_views=2,
                                     threads=threads)
    assert failures == [] and len(ids) == 4
    listing = [p.stem for p in list_banks(tmp_path)]
    assert seen == [(sid, caller, running) for sid in listing]


def test_embed_banks_passes_increasing_slide_idx(tmp_path):
    write_corpus(tmp_path, n=4)
    calls = []

    def embed(slide_idx, bank):
        calls.append((slide_idx, bank.slide_id, threading.get_ident(),
                      threading.active_count()))
        return [float(slide_idx)]
    running = threading.active_count()
    ids, matrix, _ = embed_banks(tmp_path, embed, dim=1)
    listing = [p.stem for p in list_banks(tmp_path)]
    assert calls == [(i, sid, threading.get_ident(), running)
                     for i, sid in enumerate(listing)]
    assert matrix.ravel().tolist() == [listing.index(sid) for sid in ids]


def copy_bank(src, dst):
    for suffix in (".gsb", ".json"):
        dst.with_suffix(suffix).write_bytes(src.with_suffix(suffix).read_bytes())


def test_duplicate_slide_id_fails_the_later_bank(tmp_path):
    write_corpus(tmp_path)
    model = make_model()
    clean = embed_dataset(tmp_path, model, r_views=3)
    clean_mil = embed_mil(tmp_path)
    first = sorted(tmp_path.glob("*.gsb"))[0]
    copy_bank(first, tmp_path / "zz_copy")        # lists after every bank
    for before, after in ((clean, embed_dataset(tmp_path, model, r_views=3)),
                          (clean_mil, embed_mil(tmp_path))):
        assert after[0] == before[0]
        assert after[1].tobytes() == before[1].tobytes()
        assert len(after[2]) == 1
        sid, message = after[2][0]
        assert sid == "zz_copy"
        assert message == (f"zz_copy.gsb: slide id {first.stem!r} is already "
                           f"used by {first.name}")


def test_duplicate_slide_id_listed_first_keeps_the_id(tmp_path):
    write_corpus(tmp_path)
    last = sorted(tmp_path.glob("*.gsb"))[-1]
    copy_bank(last, tmp_path / "aa_copy")         # lists before every bank
    ids, matrix, failures = embed_mil(tmp_path)
    assert ids.count(last.stem) == 1 and len(ids) == 3
    assert [sid for sid, _ in failures] == [last.stem]
    assert failures[0][1].startswith(f"{last.name}: ")
    assert "aa_copy.gsb" in failures[0][1]


def embed_mil(bank_dir):
    return embed_banks(bank_dir, lambda _, bank: average_mil_embed(bank), dim=0)


@pytest.mark.parametrize("n_augs", [1, 2, 5])
def test_dataset_rows_equal_full_load_rows(tmp_path, n_augs):
    # embedding reads slice 0 only; its rows are those of the whole banks
    for i in range(4):
        save_bank(make_bank(f"slide_{i}", n_augs=n_augs, seed=i),
                  tmp_path / f"slide_{i}.gsb")
    full = [load_bank(p) for p in list_banks(tmp_path)]
    model = make_model()
    ids, matrix, failures = embed_dataset(tmp_path, model, r_views=4, seed=5)
    expect = np.stack([embed_slide(bank, model, r_views=4,
                                   rng=np.random.default_rng([5, 2, i])).vector
                       for i, bank in enumerate(full)])
    assert failures == [] and ids == [bank.slide_id for bank in full]
    assert matrix.tobytes() == expect.astype(np.float32).tobytes()
    ids, matrix, failures = embed_mil(tmp_path)
    expect = np.stack([average_mil_embed(bank) for bank in full])
    assert failures == [] and ids == [bank.slide_id for bank in full]
    assert matrix.tobytes() == expect.astype(np.float32).tobytes()
    _, seen, _ = embed_banks(tmp_path, lambda _, bank: [bank.n_augs], dim=1)
    assert seen.ravel().tolist() == [1, 1, 1, 1]


def test_nan_in_last_slice_embeds_like_the_clean_bank(tmp_path):
    write_corpus(tmp_path)
    model = make_model()
    clean, clean_mil = embed_dataset(tmp_path, model, r_views=3), embed_mil(tmp_path)
    bad = sorted(tmp_path.glob("*.gsb"))[1]
    blob = bytearray(bad.read_bytes())
    blob[-4:] = struct.pack("<f", np.nan)    # last feature of the last slice
    bad.write_bytes(bytes(blob))
    for before, after in ((clean, embed_dataset(tmp_path, model, r_views=3)),
                          (clean_mil, embed_mil(tmp_path))):
        assert after[0] == before[0] and after[2] == []
        assert after[1].tobytes() == before[1].tobytes()
    with pytest.raises(CorruptBank, match="finite"):
        load_bank(bad)
    with pytest.raises(CorruptBank, match=bad.name):
        pretrain(TrainConfig(tiles=3, batch_size=2, epochs=1), tmp_path,
                 tmp_path / "m.ckpt")


# ---------------------------------------------------------------------------
# GSLE files and CSV export

def test_embeddings_roundtrip(tmp_path):
    ids = ["a", "slide_b", "c" * 40]
    matrix = np.random.default_rng(0).normal(size=(3, 7)).astype(np.float32)
    path = tmp_path / "e.gse"
    save_embeddings(path, ids, matrix)
    got_ids, got = load_embeddings(path)
    assert got_ids == ids
    assert np.array_equal(got, matrix)


def test_embeddings_header_layout(tmp_path):
    path = tmp_path / "e.gse"
    save_embeddings(path, ["ab"], np.zeros((1, 2), dtype=np.float32))
    blob = path.read_bytes()
    assert blob[:4] == b"GSLE"
    assert np.frombuffer(blob[4:16], dtype="<u4").tolist() == [1, 1, 2]
    assert np.frombuffer(blob[16:20], dtype="<u4")[0] == 2
    assert blob[20:22] == b"ab"
    assert len(blob) == 22 + 8


def test_embeddings_file_deterministic(tmp_path):
    matrix = np.random.default_rng(1).normal(size=(4, 5)).astype(np.float32)
    a, b = tmp_path / "a.gse", tmp_path / "b.gse"
    save_embeddings(a, list("wxyz"), matrix)
    save_embeddings(b, list("wxyz"), matrix)
    assert a.read_bytes() == b.read_bytes()


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "e.gse"
    save_embeddings(path, ["a"], np.zeros((1, 2), dtype=np.float32))
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_embeddings_truncated(tmp_path):
    path = tmp_path / "e.gse"
    save_embeddings(path, ["a"], np.zeros((1, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_embeddings_trailing_bytes(tmp_path):
    path = tmp_path / "e.gse"
    save_embeddings(path, ["a"], np.zeros((1, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_embeddings_id_not_utf8(tmp_path):
    path = tmp_path / "e.gse"
    save_embeddings(path, ["ab"], np.zeros((1, 2), dtype=np.float32))
    blob = bytearray(path.read_bytes())
    blob[20:22] = b"\xc3\x28"  # an invalid two-byte sequence
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="UTF-8"):
        load_embeddings(path)


def test_embeddings_repeated_id(tmp_path):
    # written byte by byte: save_embeddings refuses to write such a file
    path = tmp_path / "e.gse"
    blob = b"GSLE" + struct.pack("<3I", 1, 3, 2)
    for sid in ("a", "b", "a"):
        blob += struct.pack("<I", 1) + sid.encode() + bytes(8)
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="e.gse: slide id 'a' is repeated"):
        load_embeddings(path)


def test_save_embeddings_refuses_repeated_id(tmp_path):
    path = tmp_path / "e.gse"
    with pytest.raises(ValidationError, match="slide id 'b' is repeated"):
        save_embeddings(path, ["a", "b", "c", "b"],
                        np.zeros((4, 2), dtype=np.float32))
    assert list(tmp_path.iterdir()) == []


def test_embeddings_id_count_mismatch(tmp_path):
    with pytest.raises(DimensionMismatch):
        save_embeddings(tmp_path / "e.gse", ["a", "b"],
                        np.zeros((1, 2), dtype=np.float32))


def test_csv_export(tmp_path):
    path = tmp_path / "e.csv"
    matrix = np.array([[0.5, -1.25], [2.0, 0.0]], dtype=np.float32)
    export_embeddings_csv(path, ["a", "b"], matrix)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,v0,v1"
    assert lines[1] == "a,0.5,-1.25"
    assert lines[2] == "b,2.0,0.0"


def test_csv_export_quotes_an_id_holding_a_comma(tmp_path):
    path = tmp_path / "e.csv"
    export_embeddings_csv(path, ["a,b"], np.zeros((1, 2)))
    assert path.read_text() == 'id,v0,v1\n"a,b",0.0,0.0\n'


def test_csv_export_rows_parse_back(tmp_path):
    path = tmp_path / "e.csv"
    ids = ["a,b", 'say "hi"', "two\nlines", "carriage\rreturn", "plain"]
    matrix = np.arange(10, dtype=np.float32).reshape(5, 2)
    export_embeddings_csv(path, ids, matrix)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "v0", "v1"]
    assert [len(r) for r in rows] == [3] * 6
    assert [r[0] for r in rows[1:]] == ids
    assert np.array_equal(np.array([r[1:] for r in rows[1:]], float), matrix)
    assert path.read_text(encoding="utf-8").endswith("\nplain,8.0,9.0\n")


def test_csv_export_refuses_repeated_id(tmp_path):
    with pytest.raises(ValidationError, match="slide id 'a' is repeated"):
        export_embeddings_csv(tmp_path / "e.csv", ["a", "b", "a"],
                              np.zeros((3, 2)))
    assert list(tmp_path.iterdir()) == []
