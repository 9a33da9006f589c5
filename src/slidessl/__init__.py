"""Whole-slide representation learning on precomputed tile embeddings.

Slides are sparse 2D maps of tile feature vectors. A small submanifold
convolutional network pools each map into one vector, trained with a
contrastive objective over augmented slide views, then frozen; downstream
tasks see only ensembled slide embeddings and a linear probe.

Importing the package fixes glibc's malloc thresholds for the whole process
(``mallopt``: mmap from 32 MiB, trim above 64 MiB), so the ~5 MB a dense
training step or embedded slide frees is reused, not returned to the kernel
and faulted back in; up to 64 MiB of freed heap stays resident. A user's
``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or ``GLIBC_TUNABLES``
``glibc.malloc.*_threshold`` keeps glibc's own policy. No result changes.
"""

import ctypes
import os
import re

from slidessl.bank import EmbeddingBank, list_banks, load_bank, save_bank
from slidessl.datagen import GenConfig, generate_corpus, verify_marginal_equality
from slidessl.errors import PipelineError, RuntimeFailure, ValidationError
from slidessl.gradcheck import format_gradcheck_report, run_gradcheck
from slidessl.inference import (
    SlideEmbedding,
    average_mil_embed,
    embed_dataset,
    embed_slide,
    export_embeddings_csv,
    load_embeddings,
    save_embeddings,
)
from slidessl.numcore import AdamConfig, ParamStore, adam_step, finite_diff_grad
from slidessl.probe import (
    LinearProbe,
    ProbeReport,
    align_labels,
    auc,
    bootstrap_eval,
    fit_logistic,
    format_report_table,
    load_labels_csv,
    write_report_csv,
)
from slidessl.selfcheck import run_selftest
from slidessl.sparseconv import (
    PoolingNetwork,
    PoolingNetworkConfig,
    Rulebook,
    build_rulebook,
    global_average_pool,
    submconv_forward,
    submconv_input_grad,
    submconv_weight_grad,
)
from slidessl.sparsemap import (
    SlideAugParams,
    SparseMap,
    augment_sparse_map,
    build_sparse_map,
    sample_slide_aug,
)
from slidessl.training import (
    SlideModel,
    TrainConfig,
    build_model,
    interleaved_pairing,
    load_model,
    load_train_config,
    nt_xent,
    pretrain,
    sample_view,
    save_model,
    train_step,
)

__version__ = "0.1.0"

# mallopt's parameter numbers (glibc malloc.h) and values. Minor faults per
# dense training step (10 slides, view pairs of 256 of 600 tiles, 2-core
# x86-64): 1,040-1,290 under glibc's dynamic thresholds, 2-11 at 32/64 MiB,
# 2 at 2/8 MiB and 1,060 at 1/4 MiB, whose trim threshold is below the ~5 MB
# a step frees.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES, TRIM_THRESHOLD_BYTES = 32 << 20, 64 << 20


def _keep_freed_heap() -> bool:
    """Set both thresholds (setting one ends glibc's adjustment of both)
    unless the user set one; True when both calls succeed."""
    if ({"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys()
            or re.search(r"glibc\.malloc\.\w+_threshold",
                         os.environ.get("GLIBC_TUNABLES", ""))):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # no libc, or no mallopt
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


_keep_freed_heap()

__all__ = [
    "AdamConfig",
    "EmbeddingBank",
    "GenConfig",
    "LinearProbe",
    "ParamStore",
    "PipelineError",
    "PoolingNetwork",
    "PoolingNetworkConfig",
    "ProbeReport",
    "Rulebook",
    "RuntimeFailure",
    "SlideAugParams",
    "SlideEmbedding",
    "SlideModel",
    "SparseMap",
    "TrainConfig",
    "ValidationError",
    "adam_step",
    "align_labels",
    "auc",
    "augment_sparse_map",
    "average_mil_embed",
    "bootstrap_eval",
    "build_model",
    "build_rulebook",
    "build_sparse_map",
    "embed_dataset",
    "embed_slide",
    "export_embeddings_csv",
    "finite_diff_grad",
    "fit_logistic",
    "format_gradcheck_report",
    "format_report_table",
    "generate_corpus",
    "global_average_pool",
    "interleaved_pairing",
    "list_banks",
    "load_bank",
    "load_embeddings",
    "load_labels_csv",
    "load_model",
    "load_train_config",
    "nt_xent",
    "pretrain",
    "run_gradcheck",
    "run_selftest",
    "sample_slide_aug",
    "sample_view",
    "save_bank",
    "save_embeddings",
    "save_model",
    "submconv_forward",
    "submconv_input_grad",
    "submconv_weight_grad",
    "train_step",
    "verify_marginal_equality",
    "write_report_csv",
]
