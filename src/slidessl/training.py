"""Contrastive pretraining over frozen tile-embedding banks.

Each training step draws two views per slide (a view is T tiles from one or
more augmentation slices, placed on the lattice and optionally transformed at
the slide level), embeds them with the pooling network, projects them, and
applies the normalized-temperature cross-entropy loss across the batch.
Augmentation slice 0 is never drawn here; it is reserved for inference.

``sample_batch`` checks every bank, then draws a step's V = 2B views with
whole-batch ``rng`` calls, in order: slice indices, (V,) in shared mode or
(V, T); every view's tile set (``draw_views``, embedding's tile draw too);
five arrays of V values, flip_x, flip_y, rotation, scale_x and scale_y.
The batch is built as each view alone would be from the same draws. This is
training stream v2: older checkpoints load and resume bit-identically
within it, but cannot reproduce an uninterrupted run of the old stream.

A model is laid out once from one name -> shape table, the network's then
the projector's: ``build_model`` fills it with ``init_params`` from the
stream [seed, 0], ``load_model`` from a checkpoint, drawing nothing.
Everything is seeded: epoch e uses the stream [seed, 1, e], so a resumed
run continues bit-identically to an uninterrupted one. ``_checkpoint_arrays``
alone decides what a checkpoint holds, for ``save_model`` and ``load_model``.
"""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bank import EmbeddingBank, list_banks, load_bank
from .container import reserve_descriptors, write_atomic
from .errors import (
    DegenerateBatch,
    DegenerateProjection,
    DimensionMismatch,
    FormatError,
    InsufficientTiles,
    ValidationError,
    check_positive,
    check_seed,
)
from .numcore import (
    AdamConfig,
    ParamStore,
    PROJECTOR_DIM,
    adam_step,
    init_params,
    load_checkpoint,
    mlp_projector_backward,
    mlp_projector_forward,
    projector_shapes,
    save_checkpoint,
)
from .sparseconv import (
    PoolingNetwork,
    PoolingNetworkConfig,
    network_shapes,
    view_pairs,
    view_segments,
)
from .sparsemap import (
    SlideAugParams,
    SparseMap,
    augment_rows,
    draw_slide_aug,
    place_tiles,
)


@dataclass(frozen=True)
class ViewSpec:
    """Record of the random draws that produced one view."""

    slide_id: str
    shared: bool
    aug_indices: tuple[int, ...]
    tile_indices: tuple[int, ...]
    slide_aug: SlideAugParams | None


@dataclass(frozen=True)
class TrainConfig:
    tiles: int = 5
    batch_size: int = 16
    temperature: float = 0.5
    epochs: int = 1000
    shared_aug: bool = True
    slide_aug: bool = True
    adam: AdamConfig = field(default_factory=AdamConfig)
    seed: int = 0

    def __post_init__(self):
        if self.tiles < 1:
            raise ValidationError(f"tiles must be >= 1, got {self.tiles}")
        if self.batch_size < 2:
            raise ValidationError(f"batch_size must be >= 2, got {self.batch_size}")
        check_positive(temperature=self.temperature)
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        check_seed(self.seed)


# ---------------------------------------------------------------------------
# Config files: flat key=value lines, '#' comments, adam fields dotted.

_CONFIG_KEYS = {
    "tiles": int,
    "batch_size": int,
    "temperature": float,
    "epochs": int,
    "shared_aug": bool,
    "slide_aug": bool,
    "seed": int,
    "adam.lr": float,
    "adam.beta1": float,
    "adam.beta2": float,
    "adam.eps": float,
    "adam.weight_decay": float,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise FormatError(f"cannot parse boolean from '{text}'")


def parse_config_text(text: str) -> dict:
    """Parse key=value lines into typed values; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected key=value, "
                              f"got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise FormatError(f"config line {lineno}: unknown key '{key}'")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = _parse_bool(value) if caster is bool else caster(value)
        except ValueError as exc:
            raise FormatError(
                f"config line {lineno}: bad value for '{key}': {value}") from exc
    return values


def train_config_from_values(values: dict, base: TrainConfig | None = None
                             ) -> TrainConfig:
    """Overlay flat config values (as from a file or CLI) onto a base config."""
    cfg = base or TrainConfig()
    adam_kwargs = {k.split(".", 1)[1]: v for k, v in values.items()
                   if k.startswith("adam.")}
    plain = {k: v for k, v in values.items() if not k.startswith("adam.")}
    if adam_kwargs:
        plain["adam"] = replace(cfg.adam, **adam_kwargs)
    return replace(cfg, **plain)


def load_train_config(path, base: TrainConfig | None = None) -> TrainConfig:
    return train_config_from_values(parse_config_text(Path(path).read_text()),
                                    base)


# ---------------------------------------------------------------------------
# View sampling

#: Largest tile count whose views ``draw_views`` draws in one call.
DRAW_ONE_CALL_MAX = 512


def draw_views(rng: np.random.Generator, sizes, tiles: int) -> np.ndarray:
    """One uniform ``tiles``-subset of ``range(n)`` per n in ``sizes``, as
    the rows of a (V, tiles) int64 array, in no order within a row. When
    every n <= ``DRAW_ONE_CALL_MAX``, row v is the ``tiles`` smallest of the
    first n of max(sizes) uniforms, all rows in one ``rng.random`` call
    (columns from n on are set to 2, so never drawn); otherwise one
    ``rng.choice`` per row, whose cost does not grow with n (timings in
    README)."""
    sizes = np.asarray(sizes)
    n_max = int(sizes.max())
    if n_max > DRAW_ONE_CALL_MAX:
        return np.stack([rng.choice(n, size=tiles, replace=False)
                         for n in sizes.tolist()])
    keys = rng.random((len(sizes), n_max))
    if sizes.min() < n_max:
        keys[np.arange(n_max) >= sizes[:, None]] = 2.0
    return np.argpartition(keys, tiles - 1, axis=1)[:, :tiles]


def draw_batch(banks: list[EmbeddingBank], cfg: TrainConfig,
               rng: np.random.Generator, per_bank: int = 2):
    """Check every bank, then draw ``per_bank`` views of each, a bank's
    views adjacent, as ``(slices, tiles, aug)``. For V views of T tiles the
    calls are, in order: slice indices uniform on 1..K-1, (V, 1) in shared
    mode or (V, T), one per tile; the tile sets, ``draw_views`` over the
    banks' tile counts, each row then sorted; with slide augmentation the
    five arrays of V values of ``draw_slide_aug``, else ``aug`` is None."""
    for bank in banks:
        if cfg.tiles > bank.n_tiles:
            raise InsufficientTiles(
                f"bank '{bank.slide_id}' has {bank.n_tiles} tiles per slice, "
                f"view needs {cfg.tiles}")
        if bank.n_augs < 2:
            raise InsufficientTiles(
                f"bank '{bank.slide_id}' has no augmentation slices beyond the "
                f"identity slice; training needs at least 2")
    n_augs, sizes = np.repeat([[b.n_augs, b.n_tiles] for b in banks],
                              per_bank, axis=0).T
    slices = rng.integers(1, n_augs[:, None],
                          size=(len(sizes), 1 if cfg.shared_aug else cfg.tiles))
    tiles = np.sort(draw_views(rng, sizes, cfg.tiles), axis=1)
    return slices, tiles, draw_slide_aug(rng, len(sizes)) if cfg.slide_aug else None


def _view_rows(banks: list[EmbeddingBank], draws):
    """``draw_batch``'s views as canonical map rows ``(view, sites, features)``:
    one gather per bank, one tile sort and merge, one slide augmentation."""
    slices, tiles, aug = draws
    per_bank = (len(banks), len(tiles) // len(banks), -1)
    picks = list(zip(banks, slices.reshape(per_bank), tiles.reshape(per_bank)))
    coords = np.concatenate([b.coords[s, t] for b, s, t in picks])
    feats = np.concatenate([b.features[s, t] for b, s, t in picks])
    rows = place_tiles(np.repeat(np.arange(len(tiles)), tiles.shape[1]),
                       coords.reshape(-1, 2).astype(np.int64),
                       feats.reshape(tiles.size, -1))
    return rows if aug is None else augment_rows(*rows, aug)


def sample_view(bank: EmbeddingBank, cfg: TrainConfig, rng: np.random.Generator
                ) -> tuple[SparseMap, ViewSpec]:
    """One training view: ``draw_batch`` of one view, so its rng calls are
    those of a batch with V = 1 (slice indices, tile set, five augmentation
    values), and its map is the one ``sample_batch`` builds from them."""
    draws = slices, tiles, aug = draw_batch([bank], cfg, rng, per_bank=1)
    _, sites, x = _view_rows([bank], draws)
    spec = ViewSpec(bank.slide_id, cfg.shared_aug, tuple(slices[0].tolist()),
                    tuple(tiles[0].tolist()), None if aug is None else
                    SlideAugParams(*(a[0].item() for a in aug)))
    return SparseMap(sites, x), spec


def sample_batch(banks: list[EmbeddingBank], cfg: TrainConfig,
                 rng: np.random.Generator, kernel_size: int):
    """Two views per bank as network rows ``(x, pairs, segs)``: every bank
    checked, then ``draw_batch``'s whole-batch calls (slice indices, tile
    sets, five slide augmentation arrays), then one batch build: one tile
    sort and merge, one augmentation, one ``view_pairs`` adjacency for
    every conv pass of the step. The rows and pairs are those of
    ``build_sparse_map``, ``augment_sparse_map`` and ``build_rulebook`` per
    view on the same draws, rulebooks merged."""
    view, sites, x = _view_rows(banks, draw_batch(banks, cfg, rng))
    return (x, view_pairs(view, sites, kernel_size),
            view_segments(np.bincount(view)))


# ---------------------------------------------------------------------------
# Loss

def interleaved_pairing(n_views: int) -> np.ndarray:
    """Partner indices when rows (2i, 2i+1) are the two views of slide i."""
    pairing = np.arange(n_views)
    pairing[0::2] += 1
    pairing[1::2] -= 1
    return pairing


def nt_xent(z: np.ndarray, temperature: float = 0.5) -> tuple[float, np.ndarray]:
    """Normalized-temperature cross entropy over 2B projected views.

    Rows (2i, 2i+1) are the two views of slide i (``interleaved_pairing``).
    For view i with partner p(i), the per-view term is
    -log( exp(cos(z_i, z_p(i))/tau) / sum over x != i of exp(cos(z_i, z_x)/tau) );
    the loss is the mean over all views. Returns the loss and its exact
    gradient with respect to every (unnormalized) projection.
    """
    z = np.asarray(z)
    if z.ndim != 2 or len(z) < 2 or len(z) % 2 != 0:
        raise DimensionMismatch(
            f"projections must be (2B, D) with B >= 1, got {z.shape}")
    n = len(z)
    pairing = interleaved_pairing(n)
    check_positive(temperature=temperature)

    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmin(norms))
        raise DegenerateProjection(f"projection {bad} has zero norm")
    zhat = z / norms[:, None]

    sims = zhat @ zhat.T
    logits = sims / temperature
    np.fill_diagonal(logits, -np.inf)
    row_max = logits.max(axis=1, keepdims=True)
    shifted = logits - row_max
    exp = np.exp(shifted)
    denom = exp.sum(axis=1)
    log_denom = np.log(denom) + row_max[:, 0]
    pos = logits[np.arange(n), pairing]
    losses = log_denom - pos
    loss = float(losses.mean())

    g = exp / denom[:, None]
    g[np.arange(n), pairing] -= 1.0
    np.fill_diagonal(g, 0.0)
    g /= n * temperature

    dzhat = (g + g.T) @ zhat
    # through the normalization: remove the radial component, scale by 1/|z|
    radial = np.sum(dzhat * zhat, axis=1, keepdims=True)
    dz = (dzhat - zhat * radial) / norms[:, None]
    return loss, dz.astype(z.dtype, copy=False)


# ---------------------------------------------------------------------------
# Model bundle

@dataclass
class SlideModel:
    """Pooling network + projector sharing one parameter store.

    ``train_tiles`` remembers the per-view tile count the model was trained
    with; inference defaults to it and warns when overridden.
    """

    store: ParamStore
    net: PoolingNetwork
    net_config: PoolingNetworkConfig
    proj_dim: int
    train_tiles: int | None = None

    @property
    def feat_dim(self) -> int:
        return self.net_config.in_channels


def _shapes(net_config: PoolingNetworkConfig, proj_dim: int) -> dict:
    return {**network_shapes(net_config),
            **projector_shapes(net_config.out_dim, proj_dim)}


def build_model(net_config: PoolingNetworkConfig, proj_dim: int = PROJECTOR_DIM,
                seed: int = 0, dtype=np.float32,
                train_tiles: int | None = None) -> SlideModel:
    store = ParamStore(init_params(_shapes(net_config, proj_dim),
                                   np.random.default_rng([seed, 0]), dtype))
    return SlideModel(store, PoolingNetwork(net_config, store), net_config,
                      proj_dim, train_tiles)


def _config_json_array(model: SlideModel) -> np.ndarray:
    doc = {
        "in_channels": model.net_config.in_channels,
        "block_channels": list(model.net_config.block_channels),
        "kernel_size": model.net_config.kernel_size,
        "out_dim": model.net_config.out_dim,
        "proj_dim": model.proj_dim,
        "train_tiles": model.train_tiles,
    }
    raw = json.dumps(doc, sort_keys=True).encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).astype("<f4")


def _checkpoint_arrays(model: SlideModel) -> dict[str, np.ndarray]:
    """Views of the arrays a checkpoint holds, in file order: parameters, their
    Adam moments (``.m``, ``.v``; optional on load), BN running buffers."""
    st = model.store
    moments = {name + s: d[name] for name in st.params
               for s, d in ((".m", st.m), (".v", st.v))}
    return {**st.params, **moments, **model.net.buffers}


def save_model(model: SlideModel, path, epoch: int):
    """Checkpoint ``_checkpoint_arrays`` plus epoch, step count and config.
    Epoch and Adam's step count are float32: 2**24 or more is a ValueError."""
    if max(epoch, model.store.t) >= 2 ** 24:
        raise ValueError(f"epoch {epoch} or step count {model.store.t} is >= 2**24")
    arrays = _checkpoint_arrays(model)
    arrays["meta.state"] = np.array([epoch, model.store.t], dtype=np.float32)
    arrays["meta.config_json"] = _config_json_array(model)
    save_checkpoint(path, arrays)


def load_model(path) -> tuple[SlideModel, int]:
    """Rebuild a model from a checkpoint; returns (model, next epoch). An
    array holding NaN or infinity, a running variance (``*.run_var``)
    below zero, which training never stores, or an array the model does
    not hold (outside ``_checkpoint_arrays`` and ``meta.*``) is a
    ``FormatError`` naming the first; so is a ``meta.state`` whose epoch
    or step count is not a non-negative integer."""
    arrays = load_checkpoint(path)
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"{Path(path).name}: '{name}' holds NaN or infinity")
        if name.endswith(".run_var") and (arr < 0).any():
            raise FormatError(f"{Path(path).name}: '{name}' holds a negative value")
    try:
        doc = json.loads(arrays["meta.config_json"].astype(np.uint8).tobytes())
        net_config = PoolingNetworkConfig(
            in_channels=int(doc["in_channels"]),
            block_channels=tuple(int(c) for c in doc["block_channels"]),
            kernel_size=int(doc["kernel_size"]),
            out_dim=int(doc["out_dim"]))
        tiles = doc.get("train_tiles")
        proj_dim = int(doc["proj_dim"])
        store = ParamStore({name: np.zeros(shape, np.float32)   # filled below
                            for name, shape in _shapes(net_config, proj_dim).items()})
        model = SlideModel(store, PoolingNetwork(net_config, store), net_config,
                           proj_dim, None if tiles is None else int(tiles))
        state = [float(v) for v in arrays["meta.state"]]
        epoch, model.store.t = (int(v) for v in state)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"{Path(path).name}: bad model metadata: {exc!r}") from None
    if not all(v >= 0 and v.is_integer() for v in state):
        raise FormatError(f"{Path(path).name}: 'meta.state' holds {state}; epoch "
                          f"and step count must be non-negative integers")
    dests = _checkpoint_arrays(model)
    extra = next((n for n in arrays
                  if n not in dests and not n.startswith("meta.")), None)
    if extra is not None:
        raise FormatError(f"{Path(path).name}: '{extra}' is not an array "
                          f"of this model")
    for name, dest in dests.items():
        src = arrays.get(name)
        if src is None:
            if not name.endswith((".m", ".v")):
                raise FormatError(f"{Path(path).name}: missing '{name}'")
        elif src.shape != dest.shape:   # exact: one element never broadcasts
            raise DimensionMismatch(f"checkpoint array '{name}' has shape "
                                    f"{src.shape}, expected {dest.shape}")
        else:
            dest[...] = src
    return model, epoch


# ---------------------------------------------------------------------------
# Optimization

def train_step(banks: list[EmbeddingBank], model: SlideModel, cfg: TrainConfig,
               rng: np.random.Generator) -> float:
    """One optimizer step on a batch of slides; returns the batch loss. It
    starts from zero gradients: ``adam_step`` zeroes them after a step. A
    step that raises zeroes them too and puts back the batch-norm running
    statistics its forward advanced, so it leaves no trace in the model."""
    if len(banks) < 2:
        raise DegenerateBatch(
            f"contrastive batch needs >= 2 slides, got {len(banks)}")
    for bank in banks:
        if bank.feat_dim != model.feat_dim:
            raise DimensionMismatch(
                f"bank '{bank.slide_id}' has {bank.feat_dim} feature dims, "
                f"network expects {model.feat_dim}")
    x, pairs, segs = sample_batch(banks, cfg, rng, model.net_config.kernel_size)
    running = {name: buf.copy() for name, buf in model.net.buffers.items()}
    try:
        pooled, cache = model.net.forward_rows(x, pairs, segs, training=True)
        proj, pcache = mlp_projector_forward(pooled, model.store.params)
        loss, dproj = nt_xent(proj, temperature=cfg.temperature)
        dpooled, proj_grads = mlp_projector_backward(dproj, pcache)
        for name, gradval in proj_grads.items():
            model.store.accumulate(name, gradval.astype(model.store[name].dtype,
                                                        copy=False))
        model.net.backward(dpooled.astype(pooled.dtype, copy=False), cache)
        adam_step(model.store, cfg.adam)
    except BaseException:     # the caller may catch it and step again
        model.store.zero_grads()
        for name, buf in model.net.buffers.items():
            buf[...] = running[name]
        raise
    return loss


def pretrain(cfg: TrainConfig, bank_dir, out_checkpoint,
             net_config: PoolingNetworkConfig | None = None,
             proj_dim: int = PROJECTOR_DIM, resume: bool = False,
             log_path=None, report_path=None) -> dict:
    """Train over every bank in a directory; write checkpoint, CSV log, report.

    The per-epoch log is "epoch,loss" CSV. With ``resume`` the checkpoint's
    epoch counter continues the schedule; the random stream of epoch e is
    derived from (seed, e) alone, so the loss trajectory matches an
    uninterrupted run exactly. A checkpoint already past ``cfg.epochs`` is
    a ``ValidationError``, raised before anything is written.

    Every bank stays mapped, each holding a file descriptor, so the soft
    open-file limit is raised first if the bank count needs it. Before any
    bank is loaded, a hard limit too low raises ``RuntimeFailure`` and a
    checkpoint path that is a directory ``IsADirectoryError``.
    """
    out_checkpoint = Path(out_checkpoint)
    if out_checkpoint.is_dir():
        raise IsADirectoryError(errno.EISDIR, "Is a directory", str(out_checkpoint))
    paths = list_banks(bank_dir)
    if len(paths) < 2:
        raise DegenerateBatch(
            f"need at least 2 banks to pretrain, found {len(paths)} in {bank_dir}")
    reserve_descriptors(len(paths))
    banks = [load_bank(p) for p in paths]
    feat_dims = {b.feat_dim for b in banks}
    if len(feat_dims) != 1:
        raise DimensionMismatch(
            f"banks disagree on feature dimension: {sorted(feat_dims)}")
    feat_dim = feat_dims.pop()

    start_epoch = 0
    if resume and out_checkpoint.exists():
        model, start_epoch = load_model(out_checkpoint)
        if start_epoch > cfg.epochs:
            raise ValidationError(
                f"{out_checkpoint.name} has trained {start_epoch} epochs, past "
                f"the {cfg.epochs} asked for; resuming would rewrite it backwards")
        if model.feat_dim != feat_dim:
            raise DimensionMismatch(
                f"checkpoint expects {model.feat_dim} feature dims, "
                f"banks carry {feat_dim}")
    else:
        if net_config is None:
            net_config = PoolingNetworkConfig(in_channels=feat_dim)
        model = build_model(net_config, proj_dim=proj_dim, seed=cfg.seed,
                            train_tiles=cfg.tiles)
    model.train_tiles = cfg.tiles

    if log_path is None:
        log_path = out_checkpoint.with_suffix(".log.csv")
    log_path = Path(log_path)
    mode = "a" if (resume and start_epoch > 0 and log_path.exists()) else "w"

    last_loss = float("nan")
    with open(log_path, mode) as log:
        if mode == "w":
            log.write("epoch,loss\n")
        for epoch in range(start_epoch, cfg.epochs):
            rng = np.random.default_rng([cfg.seed, 1, epoch])
            order = rng.permutation(len(banks))
            losses = []
            for lo in range(0, len(order), cfg.batch_size):
                batch = [banks[i] for i in order[lo:lo + cfg.batch_size]]
                if len(batch) < 2:
                    continue
                losses.append(train_step(batch, model, cfg, rng))
            last_loss = float(np.mean(losses))
            log.write(f"{epoch},{last_loss!r}\n")
            log.flush()

    save_model(model, out_checkpoint, epoch=cfg.epochs)
    report = {
        "banks": len(banks),
        "feat_dim": feat_dim,
        "epochs": cfg.epochs,
        "start_epoch": start_epoch,
        "final_loss": last_loss,
        "shared_aug": cfg.shared_aug,
        "slide_aug": cfg.slide_aug,
        "tiles": cfg.tiles,
        "batch_size": cfg.batch_size,
        "temperature": cfg.temperature,
        "seed": cfg.seed,
        "checkpoint": out_checkpoint.name,
    }
    if report_path is not None:
        text = json.dumps(report, sort_keys=True, indent=1) + "\n"
        write_atomic(report_path, [text.encode("utf-8")])
    return report
