"""Release acceptance suite: criteria A1 through A9, one test per criterion.

Heavy artifacts (200-slide corpora, 200-epoch training runs) live in
session-scoped fixtures shared across the criteria that need them, so the
whole file finishes in a few minutes of CPU. Every seed and threshold is
pinned: a rerun must reproduce the same verdicts.

A1-A4 and A9 replay the checks in ``slidessl.selfcheck`` that
``slidessl selftest`` runs.

conftest.py collects one PASS/FAIL line per criterion and prints the
table after the run.
"""

import dataclasses
import time

import numpy as np
import pytest

from slidessl import selfcheck
from slidessl.bank import list_banks, load_bank
from slidessl.datagen import GenConfig, generate_corpus, verify_marginal_equality
from slidessl.inference import average_mil_embed, embed_dataset
from slidessl.numcore import AdamConfig
from slidessl.probe import (
    _apply_budget,
    _stratified_split,
    align_labels,
    bootstrap_eval,
    load_labels_csv,
    write_report_csv,
)
from slidessl.sparseconv import PoolingNetworkConfig
from slidessl.training import TrainConfig, load_model, pretrain

# --- pinned thresholds -----------------------------------------------------
# (A1-A4 and A9 keep their correctness bounds in slidessl.selfcheck)

GRAD_INSTANCES = 20
GRAD_TIME_LIMIT = 120.0
DENSE_TIME_LIMIT = 30.0

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


# --- A1-A4: corpus-free criteria, shared with `slidessl selftest` ------------

def replay(record_property, check, *args, time_limit=float("inf")):
    t0 = time.perf_counter()
    passed, detail = check(*args)
    elapsed = time.perf_counter() - t0
    record_property("acceptance", detail)
    assert passed, detail
    assert elapsed < time_limit


def test_a1_gradient_suite(record_property):
    replay(record_property, selfcheck.a1_gradient_suite, GRAD_INSTANCES,
           time_limit=GRAD_TIME_LIMIT)


def test_a2_dense_convolution_oracle(record_property):
    replay(record_property, selfcheck.a2_dense_convolution_oracle,
           time_limit=DENSE_TIME_LIMIT)


def test_a3_nt_xent_closed_forms(record_property):
    replay(record_property, selfcheck.a3_nt_xent_closed_forms)


def test_a4_invariance_suite(record_property):
    replay(record_property, selfcheck.a4_invariance_suite)


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


# --- A9: byte-level determinism, shared with `slidessl selftest` ---------------

def test_a9_byte_identical_reruns(record_property):
    replay(record_property, selfcheck.a9_byte_identical_reruns)
