"""
The command-line pipeline, end to end
=====================================

Each stage is also exposed as a subcommand of the ``slidessl`` console
script: gen, pretrain, embed, probe, gradcheck, selftest. This script
drives the same entry points in-process. Identical seeds give
byte-identical artifacts, so runs are fully reproducible.
"""

import shutil
import tempfile
from pathlib import Path

from slidessl.cli import main

work = Path(tempfile.mkdtemp(prefix="slidessl_demo_"))
banks = work / "banks"

### gen: write a corpus of embedding banks ###################################

main(["gen", "--out", str(banks), "--slides", "24", "--tiles", "32",
      "--augs", "4", "--dim", "12", "--extent", "1536", "--seed", "3",
      "--verify"])

### pretrain: contrastive training over the banks ############################

main(["pretrain", "--banks", str(banks),
      "--checkpoint", str(work / "model.ckpt"),
      "--epochs", "10", "--tiles", "8", "--batch", "8", "--seed", "0"])

### embed: frozen network, ensembled views ###################################

main(["embed", "--banks", str(banks),
      "--checkpoint", str(work / "model.ckpt"),
      "--out", str(work / "slides.gse"),
      "--csv", str(work / "slides.csv"),
      "--views", "10", "--seed", "0"])

### probe: linear evaluation at several label budgets ########################

main(["probe", "--embeddings", str(work / "slides.gse"),
      "--labels", str(banks / "labels.csv"),
      "--out", str(work / "report.csv"),
      "--budget", "all", "0.5", "10", "--splits", "5", "--seed", "0"])

print()
print("artifacts in", work)
for p in sorted(work.rglob("*")):
    if p.is_file():
        print(f"  {p.relative_to(work)}  ({p.stat().st_size} bytes)")

shutil.rmtree(work)
