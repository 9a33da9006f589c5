"""Release acceptance suite: criteria A1 through A9, one test per criterion.

Heavy artifacts (200-slide corpora, 200-epoch training runs) live in
session-scoped fixtures shared across the criteria that need them, so the
whole file finishes in a few minutes of CPU. Every seed and threshold is
pinned: a rerun must reproduce the same verdicts.

conftest.py collects one PASS/FAIL line per criterion and prints the
table after the run.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from slidessl.bank import EmbeddingBank, list_banks, load_bank
from slidessl.cli import main as cli_main
from slidessl.datagen import GenConfig, generate_corpus, verify_marginal_equality
from slidessl.gradcheck import run_gradcheck
from slidessl.inference import average_mil_embed, embed_dataset, embed_slide
from slidessl.numcore import AdamConfig
from slidessl.probe import (
    _apply_budget,
    _stratified_split,
    align_labels,
    bootstrap_eval,
    load_labels_csv,
    write_report_csv,
)
from slidessl.sparseconv import PoolingNetworkConfig, build_rulebook, submconv_forward
from slidessl.sparsemap import SlideAugParams, SparseMap, augment_sparse_map
from slidessl.training import TrainConfig, build_model, load_model, nt_xent, pretrain

# --- pinned thresholds -----------------------------------------------------

GRAD_INSTANCES = 20
GRAD_BOUND = 1e-4
GRAD_TIME_LIMIT = 120.0

DENSE_MAPS = 100
DENSE_WINDOW = 16
DENSE_TOL = 1e-6
DENSE_TIME_LIMIT = 30.0

CLOSED_FORM_TOL = 1e-9
TRANSLATION_TOL = 1e-9
NORM_TOL = 1e-6

SSL_AUC_MIN = 0.85
MIL_AUC_MAX = 0.60
MARGINAL_MAX = 3.0
E2E_TIME_LIMIT = 600.0

ABLATION_GAP_MIN = 0.03

# --- pinned experiment configuration ---------------------------------------

SEPARATION_GEN = GenConfig(n_slides=200, n_classes=2, n_tiles=64, n_augs=8,
                           feat_dim=16, grid_extent=2048, n_prototypes=2,
                           nuisance_strength=0.0, aug_noise=0.1,
                           tile_noise=0.3, aug_strength=0.3, seed=11)
# the ablation corpus adds a slide-level nuisance vector and widens the
# orbit of the augmentation transforms so per-view signatures decorrelate
ABLATION_GEN = dataclasses.replace(SEPARATION_GEN, nuisance_strength=0.5,
                                   aug_strength=2.0, seed=13)
NET = PoolingNetworkConfig(in_channels=16, block_channels=(32, 32), out_dim=32)


def train_config(shared_aug=True):
    return TrainConfig(tiles=16, batch_size=16, temperature=0.5, epochs=200,
                       shared_aug=shared_aug, slide_aug=True, seed=0,
                       adam=AdamConfig(lr=1e-3))


def probe_report(ids, matrix, labels_csv, normalization="l2"):
    labels = align_labels(list(ids), load_labels_csv(labels_csv))
    return bootstrap_eval(matrix, labels, budget="all", splits=10, seed=0,
                          normalization=normalization)


# --- shared heavy fixtures --------------------------------------------------

@pytest.fixture(scope="session")
def separation_run(tmp_path_factory):
    """Corpus + 200-epoch training + embeddings + probes, timed end to end."""
    root = tmp_path_factory.mktemp("accept_sep")
    banks_dir = root / "banks"
    t0 = time.perf_counter()
    generate_corpus(SEPARATION_GEN, banks_dir)
    marginal = verify_marginal_equality(banks_dir)

    ckpt = root / "model.ckpt"
    pretrain(train_config(), banks_dir, ckpt, net_config=NET)
    model, _ = load_model(ckpt)

    ids, matrix, failures = embed_dataset(banks_dir, model, r_views=50,
                                          seed=0, threads=4)
    assert not failures
    ssl_report = probe_report(ids, matrix, banks_dir / "labels.csv", "l2")

    banks = [load_bank(p) for p in list_banks(banks_dir)]
    mil_ids = [b.slide_id for b in banks]
    mil_matrix = np.stack([average_mil_embed(b) for b in banks])
    mil_report = probe_report(mil_ids, mil_matrix, banks_dir / "labels.csv",
                              "standard")
    elapsed = time.perf_counter() - t0
    return {"banks_dir": banks_dir, "model": model, "ids": ids,
            "matrix": matrix, "ssl": ssl_report, "mil": mil_report,
            "marginal": marginal, "elapsed": elapsed, "root": root}


@pytest.fixture(scope="session")
def ablation_runs(tmp_path_factory):
    """Same corpus and seeds, trained with and without shared augmentations."""
    root = tmp_path_factory.mktemp("accept_abl")
    banks_dir = root / "banks"
    generate_corpus(ABLATION_GEN, banks_dir)
    aucs = {}
    for shared in (True, False):
        ckpt = root / f"model_{'shared' if shared else 'pertile'}.ckpt"
        pretrain(train_config(shared_aug=shared), banks_dir, ckpt,
                 net_config=NET)
        model, _ = load_model(ckpt)
        ids, matrix, _ = embed_dataset(banks_dir, model, r_views=50,
                                       seed=0, threads=4)
        aucs[shared] = probe_report(ids, matrix,
                                    banks_dir / "labels.csv").mean
    return {"shared": aucs[True], "pertile": aucs[False],
            "sigma": ABLATION_GEN.nuisance_strength}


# --- A1: gradient oracle ----------------------------------------------------

def test_a1_gradient_suite(record_property):
    t0 = time.perf_counter()
    results = run_gradcheck(n_instances=GRAD_INSTANCES, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    record_property("acceptance",
                    f"worst rel err {worst:.2e} over {len(results)} ops x "
                    f"{GRAD_INSTANCES} instances (bound {GRAD_BOUND:.0e}), "
                    f"{elapsed:.1f}s")
    assert set(results) == {"submconv", "batchnorm_train", "batchnorm_eval",
                            "global_average_pool", "projector", "nt_xent",
                            "network_train", "network_eval"}
    for name, err in results.items():
        assert err < GRAD_BOUND, f"{name}: {err:.3e}"
    assert elapsed < GRAD_TIME_LIMIT


# --- A2: dense convolution oracle -------------------------------------------

def dense_conv_at_active(smap, weights, bias, extent):
    """Zero-fill a dense image, convolve with explicit loops, read active sites."""
    k = weights.shape[0]
    c = k // 2
    img = np.zeros((extent, extent, weights.shape[2]))
    for (i, j), f in zip(smap.sites, smap.features):
        img[i, j] = f
    rows = []
    for i, j in smap.sites:
        acc = bias.copy()
        for di in range(-c, c + 1):
            for dj in range(-c, c + 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < extent and 0 <= jj < extent:
                    acc = acc + img[ii, jj] @ weights[di + c, dj + c]
        rows.append(acc)
    return np.stack(rows)


def test_a2_dense_convolution_oracle(record_property):
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(DENSE_MAPS):
        n_sites = int(rng.integers(1, 41))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        kernel = int(rng.choice([3, 5]))
        cells = rng.choice(DENSE_WINDOW * DENSE_WINDOW, size=n_sites,
                           replace=False)
        sites = np.stack([cells // DENSE_WINDOW, cells % DENSE_WINDOW],
                         axis=1).astype(np.int64)
        smap = SparseMap(sites, rng.normal(size=(n_sites, c_in)))
        weights = rng.normal(size=(kernel, kernel, c_in, c_out))
        bias = rng.normal(size=c_out)
        out = submconv_forward(smap.features, weights, bias,
                               build_rulebook(smap, kernel).pairs)
        want = dense_conv_at_active(smap, weights, bias, DENSE_WINDOW)
        worst = max(worst, float(np.abs(out - want).max()))
    elapsed = time.perf_counter() - t0
    record_property("acceptance",
                    f"{DENSE_MAPS} random maps in a {DENSE_WINDOW}x"
                    f"{DENSE_WINDOW} window, worst abs err {worst:.2e} "
                    f"(tol {DENSE_TOL:.0e}), {elapsed:.1f}s")
    assert worst <= DENSE_TOL
    assert elapsed < DENSE_TIME_LIMIT


# --- A3: contrastive loss closed forms --------------------------------------

def test_a3_nt_xent_closed_forms(record_property):
    # one pair: the denominator holds only the positive, loss is exactly 0
    single, _ = nt_xent(np.array([[0.3, -1.2], [0.3, -1.2]]), temperature=0.5)

    # two pairs, all four projections identical: every similarity is 1,
    # so each view reads -log(1/3)
    same = np.ones((4, 3))
    identical, _ = nt_xent(same, temperature=1.0)

    # two aligned pairs, orthogonal across pairs, tau=1:
    # positive logit 1 against denominator e + 2
    ortho = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    crossed, _ = nt_xent(ortho, temperature=1.0)

    err_identical = abs(identical - np.log(3.0))
    err_crossed = abs(crossed - np.log((np.e + 2.0) / np.e))
    record_property("acceptance",
                    f"single-pair loss {single!r}; log 3 err "
                    f"{err_identical:.1e}; log((e+2)/e) err {err_crossed:.1e} "
                    f"(tol {CLOSED_FORM_TOL:.0e})")
    assert single == 0.0
    assert err_identical < CLOSED_FORM_TOL
    assert err_crossed < CLOSED_FORM_TOL


# --- A4: invariance suite ----------------------------------------------------

def _toy_bank(rng, n_tiles=12, feat_dim=6, n_augs=2):
    cells = rng.choice(64, size=n_tiles, replace=False)
    coords = np.stack([cells // 8, cells % 8], axis=1).astype(np.int32) * 256
    coords = np.broadcast_to(coords, (n_augs, n_tiles, 2)).copy()
    feats = rng.normal(size=(n_augs, n_tiles, feat_dim)).astype(np.float32)
    return EmbeddingBank("toy", coords, feats)


def test_a4_invariance_suite(record_property):
    rng = np.random.default_rng(4)
    bank = _toy_bank(rng)
    net = PoolingNetworkConfig(in_channels=6, block_channels=(8, 8), out_dim=8)
    model = build_model(net, seed=3, train_tiles=bank.features.shape[1])

    def embed(b, seed=0):
        return embed_slide(b, model, r_views=5,
                           rng=np.random.default_rng(seed)).vector

    base = embed(bank)

    # tile permutation: same multiset of tiles, bit-identical embedding
    perm = rng.permutation(bank.features.shape[1])
    permuted = EmbeddingBank("toy", bank.coords[:, perm], bank.features[:, perm])
    perm_equal = np.array_equal(embed(permuted), base)

    # global translation by whole tiles: canonical maps coincide
    shifted = EmbeddingBank("toy", bank.coords + 224 * 10, bank.features)
    translation_err = float(np.abs(embed(shifted) - base).max())

    norm_err = abs(float(np.linalg.norm(base)) - 1.0)

    # geometric identities on a raw sparse map
    smap = SparseMap(np.array([[0, 0], [1, 2], [3, 1]]),
                     np.arange(9, dtype=np.float64).reshape(3, 3))

    def same(a, b):
        return np.array_equal(a.sites, b.sites) and \
            np.array_equal(a.features, b.features)

    ident = augment_sparse_map(smap, SlideAugParams())
    quad = smap
    for _ in range(4):
        quad = augment_sparse_map(quad, SlideAugParams(rot_quarters=1))
    double_flip = augment_sparse_map(
        augment_sparse_map(smap, SlideAugParams(flip_x=True, flip_y=True)),
        SlideAugParams(flip_x=True, flip_y=True))

    record_property("acceptance",
                    f"permutation bit-exact {perm_equal}; translation err "
                    f"{translation_err:.1e} (tol {TRANSLATION_TOL:.0e}); "
                    f"norm err {norm_err:.1e} (tol {NORM_TOL:.0e}); "
                    f"identity/rotation/flip identities hold")
    assert perm_equal
    assert translation_err <= TRANSLATION_TOL
    assert norm_err <= NORM_TOL
    assert same(ident, smap)
    assert same(quad, smap)
    assert same(double_flip, smap)


# --- A5: end-to-end separation -----------------------------------------------

def test_a5_end_to_end_separation(separation_run, record_property):
    ssl_auc = separation_run["ssl"].mean
    mil_auc = separation_run["mil"].mean
    marginal = separation_run["marginal"]
    elapsed = separation_run["elapsed"]
    record_property("acceptance",
                    f"ssl probe auc {ssl_auc:.3f} (min {SSL_AUC_MIN}); "
                    f"mean-tile baseline {mil_auc:.3f} (max {MIL_AUC_MAX}); "
                    f"marginal stat {marginal:.2f} (max {MARGINAL_MAX}); "
                    f"{elapsed:.0f}s (limit {E2E_TIME_LIMIT:.0f}s)")
    assert marginal < MARGINAL_MAX
    assert mil_auc <= MIL_AUC_MAX
    assert ssl_auc >= SSL_AUC_MIN
    assert elapsed < E2E_TIME_LIMIT


# --- A6: shared-augmentation ablation ----------------------------------------

def test_a6_shared_augmentation_direction(ablation_runs, record_property):
    shared = ablation_runs["shared"]
    pertile = ablation_runs["pertile"]
    gap = shared - pertile
    record_property("acceptance",
                    f"sigma_slide {ablation_runs['sigma']}: shared "
                    f"{shared:.3f} vs per-tile {pertile:.3f}, gap {gap:+.3f} "
                    f"(min +{ABLATION_GAP_MIN})")
    assert gap >= ABLATION_GAP_MIN


# --- A7: view ensembling ------------------------------------------------------

def test_a7_ensembling_direction(separation_run, record_property):
    banks_dir = separation_run["banks_dir"]
    model = separation_run["model"]
    labels_csv = banks_dir / "labels.csv"

    ids1, m1, _ = embed_dataset(banks_dir, model, r_views=1, seed=0, threads=4)
    auc_1 = probe_report(ids1, m1, labels_csv).mean
    auc_50 = separation_run["ssl"].mean

    variance = {}
    for r in (1, 50):
        stack = np.stack([
            embed_dataset(banks_dir, model, r_views=r, seed=s, threads=4)[1]
            for s in range(5)])
        variance[r] = float(stack.var(axis=0).mean())

    record_property("acceptance",
                    f"probe auc R=50 {auc_50:.4f} >= R=1 {auc_1:.4f}; "
                    f"seed variance {variance[1]:.2e} -> {variance[50]:.2e}")
    assert auc_50 >= auc_1
    assert variance[50] < variance[1]


# --- A8: label-budget harness --------------------------------------------------

def test_a8_budget_harness(separation_run, record_property, tmp_path):
    matrix = separation_run["matrix"]
    labels = align_labels(list(separation_run["ids"]),
                          load_labels_csv(separation_run["banks_dir"] / "labels.csv"))
    budgets = ("all", 0.25, 100, 50)
    reports = [bootstrap_eval(matrix, labels, budget=b, splits=10, seed=0,
                              normalization="l2") for b in budgets]
    out = tmp_path / "report.csv"
    write_report_csv(out, reports)

    lines = out.read_text().splitlines()
    assert lines[0] == "task,budget,split,auc"
    # 10 per-split rows plus mean and std per budget
    assert len(lines) == 1 + len(budgets) * 10 + len(budgets) * 2

    # replay the split streams: every train set stays balanced within one
    worst_skew = 0
    for budget in budgets:
        for split in range(10):
            rng = np.random.default_rng([0, 3, split])
            train_idx, _ = _stratified_split(labels, 0.2, rng)
            kept = _apply_budget(train_idx, labels, budget, rng)
            n0 = int((labels[kept] == labels[0]).sum())
            worst_skew = max(worst_skew, abs(2 * n0 - kept.size))
    record_property("acceptance",
                    f"budgets {budgets} -> {len(lines)} report rows; "
                    f"worst class imbalance {worst_skew} (bound 1)")
    assert worst_skew <= 1


# --- A9: byte-level determinism -------------------------------------------------

def _pipeline(root: Path) -> None:
    banks = root / "banks"
    args = [
        ["gen", "--out", str(banks), "--slides", "8", "--classes", "2",
         "--tiles", "16", "--augs", "3", "--dim", "8", "--extent", "1024",
         "--seed", "5"],
        ["pretrain", "--banks", str(banks), "--checkpoint",
         str(root / "model.ckpt"), "--epochs", "2", "--tiles", "4",
         "--batch", "4", "--seed", "0"],
        ["embed", "--banks", str(banks), "--checkpoint",
         str(root / "model.ckpt"), "--out", str(root / "emb.gse"),
         "--views", "3", "--seed", "0", "--threads", "2"],
        ["probe", "--embeddings", str(root / "emb.gse"), "--labels",
         str(banks / "labels.csv"), "--out", str(root / "report.csv"),
         "--budget", "all", "--splits", "3", "--seed", "0"],
    ]
    for argv in args:
        assert cli_main(argv) == 0, argv[0]


def test_a9_byte_identical_reruns(record_property, tmp_path):
    first, second = tmp_path / "run1", tmp_path / "run2"
    _pipeline(first)
    _pipeline(second)

    compared = []
    for rel in sorted(p.relative_to(first)
                      for p in first.rglob("*") if p.is_file()):
        a = (first / rel).read_bytes()
        b = (second / rel).read_bytes()
        assert a == b, f"{rel} differs between identically seeded runs"
        compared.append(str(rel))
    kinds = {Path(c).suffix for c in compared}
    record_property("acceptance",
                    f"{len(compared)} artifacts byte-identical across reruns "
                    f"({', '.join(sorted(kinds))})")
    assert {".gsb", ".gse", ".ckpt", ".csv"} <= kinds
