"""
Contrastive pretraining on a synthetic corpus
=============================================

The generator writes embedding banks whose class signal lives purely in
the spatial arrangement of tile prototypes; tile marginals are identical
across classes, so averaging tiles is blind to the label by construction.
We pretrain the pooling network with the normalized-temperature
cross-entropy objective over pairs of augmented slide views.
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
    generate_corpus,
    load_model,
    nt_xent,
    pretrain,
    verify_marginal_equality,
)

work = Path(tempfile.mkdtemp(prefix="slidessl_demo_"))
banks = work / "banks"

### Generate a small corpus ##################################################

gen = GenConfig(n_slides=40, n_classes=2, n_tiles=64, n_augs=8, feat_dim=16,
                grid_extent=2048, nuisance_strength=0.0, seed=11)
generate_corpus(gen, banks)
print("banks written to", banks)
print("class-marginal statistic (should sit below 3):",
      round(verify_marginal_equality(banks), 2))

### The loss at a glance #####################################################
# Views are paired (0,1), (2,3), ... Identical partners and orthogonal
# strangers give the textbook value log((e + 2) / e).

z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
loss, grad = nt_xent(z, temperature=1.0)
print("closed-form check:", round(loss, 6), "=",
      round(float(np.log((np.e + 2) / np.e)), 6))

### Pretrain #################################################################

cfg = TrainConfig(tiles=16, batch_size=8, temperature=0.5, epochs=30,
                  shared_aug=True, slide_aug=True, seed=0,
                  adam=AdamConfig(lr=1e-3))
net = PoolingNetworkConfig(in_channels=16, block_channels=(32, 32), out_dim=32)
ckpt = work / "model.ckpt"
report = pretrain(cfg, banks, ckpt, net_config=net)

log = (work / "model.log.csv").read_text().splitlines()
losses = [float(row.split(",")[1]) for row in log[1:]]
print(f"loss: epoch 1 {losses[0]:.4f} -> epoch {len(losses)} {losses[-1]:.4f}")
print("final loss from report:", round(report["final_loss"], 4))

model, epoch = load_model(ckpt)
print("reloaded checkpoint at epoch", epoch,
      "- views were trained with", model.train_tiles, "tiles")

shutil.rmtree(work)
