"""Whole-slide representation learning on precomputed tile embeddings.

Slides are sparse 2D maps of tile feature vectors. A small submanifold
convolutional network pools each map into one vector, trained with a
contrastive objective over augmented slide views, then frozen; downstream
tasks see only ensembled slide embeddings and a linear probe.
"""

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
    submconv_backward,
    submconv_forward,
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
    "submconv_backward",
    "submconv_forward",
    "train_step",
    "verify_marginal_equality",
    "write_report_csv",
]
