"""
Ensembled slide embeddings and the linear probe
===============================================

After pretraining, the network is frozen. A slide's embedding is the
L2-normalized average of R pooled views (random tile subsets, no
augmentation), which trades a little compute for a lot of variance
reduction. Downstream evaluation is a logistic probe over stratified
train/test splits at several label budgets.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from slidessl import (
    AdamConfig,
    GenConfig,
    PoolingNetworkConfig,
    TrainConfig,
    align_labels,
    average_mil_embed,
    bootstrap_eval,
    embed_dataset,
    format_report_table,
    generate_corpus,
    list_banks,
    load_bank,
    load_labels_csv,
    load_model,
    pretrain,
)

work = Path(tempfile.mkdtemp(prefix="slidessl_demo_"))
banks = work / "banks"

### Corpus and a short pretraining run #######################################

gen = GenConfig(n_slides=60, n_classes=2, n_tiles=64, n_augs=8, feat_dim=16,
                grid_extent=2048, seed=11)
generate_corpus(gen, banks)
cfg = TrainConfig(tiles=16, batch_size=8, temperature=0.5, epochs=60,
                  shared_aug=True, slide_aug=True, seed=0,
                  adam=AdamConfig(lr=1e-3))
net = PoolingNetworkConfig(in_channels=16, block_channels=(32, 32), out_dim=32)
pretrain(cfg, banks, work / "model.ckpt", net_config=net)
model, _ = load_model(work / "model.ckpt")

### Embed with different ensemble sizes ######################################
# More views, steadier embeddings: re-embedding with another seed moves
# the vectors far less at R=20 than at R=1.

labels_map = load_labels_csv(banks / "labels.csv")
for r in (1, 20):
    runs = [embed_dataset(banks, model, r_views=r, seed=s)[1] for s in (0, 1)]
    drift = float(np.abs(runs[0] - runs[1]).mean())
    ids, matrix, _ = embed_dataset(banks, model, r_views=r, seed=0)
    auc = bootstrap_eval(matrix, align_labels(ids, labels_map),
                         splits=10, seed=0).mean
    print(f"R={r:>2}: probe auc {auc:.3f}, re-embed drift {drift:.4f}")

### The mean-tile baseline ####################################################
# Averaging tile features ignores arrangement, and the generator put the
# entire class signal in arrangement; this should hover near chance.

bank_objs = [load_bank(p, slices=1) for p in list_banks(banks)]
mil = np.stack([average_mil_embed(b) for b in bank_objs])
mil_auc = bootstrap_eval(mil, align_labels([b.slide_id for b in bank_objs],
                                           labels_map),
                         splits=10, seed=0, normalization="standard").mean
print(f"mean-tile baseline auc: {mil_auc:.3f}")

### Label budgets #############################################################

ids, matrix, _ = embed_dataset(banks, model, r_views=20, seed=0)
y = align_labels(ids, labels_map)
reports = [bootstrap_eval(matrix, y, budget=b, splits=10, seed=0)
           for b in ("all", 0.5, 20)]
print()
print(format_report_table(reports))

shutil.rmtree(work)
