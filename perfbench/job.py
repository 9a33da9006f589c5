"""One workload as a whole user job: inputs, set-up, pretrain, embed, probe.

``run_job`` draws the inputs from the seed, sets up several times, then runs
each stage in whole rounds until the stage's share of the run is used, with
at least one round (two when tracing: the first traced, the second not, so
the tracing overhead is their difference). Artifacts are written from the
first round of each stage only, so they do not depend on how many rounds
the machine's speed allowed. Every output is checked after the clock stops.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import slidessl
from slidessl import bank, inference, probe, training

import checks
import spans
from refclock import RefClock

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: pixel side of one lattice cell (slidessl.sparsemap.DOWNSAMPLE_FACTOR)
TILE_PX = 224
#: probe matrix: rows sit within this per-coordinate spread of one common
#: direction, class means +-PROBE_DELTA from it along another
PROBE_SIGMA = 0.01
PROBE_DELTA = 0.02
PROBE_SPLITS = 10
#: shares of --seconds for the pretrain, embed and probe stages
STAGE_SHARES = (0.3, 0.35, 0.35)


@dataclass(frozen=True)
class Workload:
    name: str
    n_banks: int
    n_tiles: int          # tiles per augmentation slice
    n_augs: int           # slices K, slice 0 for inference
    feat_dim: int         # F
    fill: float           # tiles drawn per lattice site of a bank's region
    tiles: int            # T, tiles per view
    batch_size: int
    block_channels: tuple
    out_dim: int
    embed_threads: int
    shard_slides: int     # slides per embed_dataset call
    round_epochs: int     # epochs per pretraining round
    probe_rows: int       # slides in the labelled cohort
    probe_budgets: tuple
    temperature: float = 0.5
    r_views: int = 50
    setup_reps: int = 5

    @property
    def net_config(self) -> slidessl.PoolingNetworkConfig:
        return slidessl.PoolingNetworkConfig(
            in_channels=self.feat_dim, block_channels=self.block_channels,
            out_dim=self.out_dim)


WORKLOADS = {w.name: w for w in (
    Workload("dense_views", n_banks=20, n_tiles=1024, n_augs=8, feat_dim=16,
             fill=0.75, tiles=256, batch_size=10, block_channels=(16, 16),
             out_dim=16, embed_threads=1, shard_slides=1, round_epochs=2,
             probe_rows=96, probe_budgets=("all", 0.25, 50)),
    Workload("paper_banks", n_banks=32, n_tiles=256, n_augs=50, feat_dim=256,
             fill=0.5, tiles=5, batch_size=16, block_channels=(64, 64),
             out_dim=64, embed_threads=2, shard_slides=4, round_epochs=8,
             probe_rows=96, probe_budgets=("all", 0.25, 50)),
    Workload("many_slides", n_banks=192, n_tiles=48, n_augs=4, feat_dim=16,
             fill=0.5, tiles=16, batch_size=16, block_channels=(32, 32),
             out_dim=32, embed_threads=2, shard_slides=4, round_epochs=1,
             probe_rows=192, probe_budgets=("all", 0.25, 100, 50)),
)}


# ---------------------------------------------------------------------------
# Inputs

def shard_dirs(w: Workload, workdir: Path) -> list[Path]:
    """Embedding runs over small directories so that the reference clock
    sees each ~0.1-0.3 s call; a shared guest's speed moves within a
    second."""
    n = math.ceil(w.n_banks / w.shard_slides)
    return [workdir / "banks" / f"shard{j:03d}" for j in range(n)]


def draw_bank(w: Workload, seed: int, index: int) -> slidessl.EmbeddingBank:
    """K slices, each its own draw of n tiles over a square region of
    n / fill lattice cells (with replacement, so some tiles share a cell)."""
    rng = np.random.default_rng([seed, 4, index])
    side = math.ceil(math.sqrt(w.n_tiles / w.fill))
    cells = rng.integers(0, side, size=(w.n_augs, w.n_tiles, 2))
    coords = cells * TILE_PX + rng.integers(0, TILE_PX, size=cells.shape)
    centre = rng.standard_normal(w.feat_dim, dtype=np.float32)
    feats = centre + rng.standard_normal(
        (w.n_augs, w.n_tiles, w.feat_dim), dtype=np.float32)
    return slidessl.EmbeddingBank(f"slide_{index:04d}", coords, feats)


def write_banks(w: Workload, seed: int, workdir: Path) -> list[Path]:
    """Banks go to contiguous shards, so shard order is slide order."""
    dirs = shard_dirs(w, workdir)
    for d in dirs:
        d.mkdir(parents=True)
    paths = []
    for i in range(w.n_banks):
        path = dirs[i // w.shard_slides] / f"slide_{i:04d}.gsb"
        bank.save_bank(draw_bank(w, seed, i), path)
        paths.append(path)
    return paths


def draw_probe_matrix(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows near one common direction c, classes +-delta along u.

    The rows are drawn from a fixed stream and the seed turns them by a
    random rotation. The probe is rotation-equivariant, so every seed asks
    the solver for the same iterations (about 5k objective evaluations per
    fit; a fresh draw per seed moved that by +-5%) and the rate measures
    speed rather than the luck of the draw."""
    rng = np.random.default_rng([0, 2, w.probe_rows, w.out_dim])
    labels = rng.permutation(np.arange(w.probe_rows) % 2)
    x = PROBE_SIGMA * rng.standard_normal((w.probe_rows, w.out_dim))
    x[:, 0] += 1.0
    x[:, 1] += np.where(labels == 1, PROBE_DELTA, -PROBE_DELTA)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    turn, _ = np.linalg.qr(
        np.random.default_rng([seed, 2]).standard_normal((w.out_dim,) * 2))
    return (x @ turn).astype(np.float32), labels


# ---------------------------------------------------------------------------
# Set-up

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                 "t = time.perf_counter(); import slidessl; "
                 "print(time.perf_counter() - t)")


def child_import_seconds() -> float:
    """`import slidessl` in a fresh interpreter, as a user's job pays it."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(src=str(SRC_DIR))],
        check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(w: Workload, clock: RefClock, paths, workdir: Path):
    """Import, load every bank, build the model, save and reload it.

    Returns (banks, model, set-up time, import time), times at reference
    speed."""
    first = len(clock.raw)
    import_s = child_import_seconds()
    import_scaled = import_s * clock.record(import_s)
    banks = clock.timed(lambda: [bank.load_bank(p) for p in paths])
    model = clock.timed(training.build_model, w.net_config, seed=0,
                        train_tiles=w.tiles)
    ckpt = workdir / "setup.ckpt"

    def save_reload():
        training.save_model(model, ckpt, epoch=0)
        return training.load_model(ckpt)[0]
    model = clock.timed(save_reload)
    return banks, model, sum(clock.scaled[first:]), import_scaled


# ---------------------------------------------------------------------------
# Stages

class Stage:
    """Times a stage's operations and runs whole rounds of them until the
    stage's share of the run is spent.

    A rate is the median over operations of work over time: the speed of
    a shared guest jumps within seconds, and the median of many short
    operations, each scaled by the reference beside it, holds still."""

    def __init__(self, clock: RefClock, share_s: float, min_rounds: int):
        self.clock = clock
        self.share_s = share_s
        self.min_rounds = min_rounds
        self.ops: list[tuple[int, int]] = []    # (work, clock index)
        self.round_scaled: list[float] = []

    def timed(self, work: int, fn, *args, **kwargs):
        result = self.clock.timed(fn, *args, **kwargs)
        self.ops.append((work, len(self.clock.raw) - 1))
        return result

    def rounds(self):
        start = time.perf_counter()
        while True:
            first = len(self.ops)
            yield len(self.round_scaled)
            self.round_scaled.append(
                sum(self.clock.scaled[i] for _, i in self.ops[first:]))
            done = len(self.round_scaled)
            elapsed = time.perf_counter() - start
            if done >= self.min_rounds and elapsed * (done + 1) / done > self.share_s:
                return

    @property
    def work(self) -> int:
        return sum(work for work, _ in self.ops)

    def rate(self, times: list[float]) -> float:
        return statistics.median(work / times[i] for work, i in self.ops)


@contextlib.contextmanager
def hooked(module, name, wrap=None, after=None):
    """Rebind ``module.name`` in every slidessl module: calls go through
    ``wrap(original)`` when given, and ``after(args, result)`` sees each."""
    original = getattr(module, name)
    call = original if wrap is None else wrap(original)

    def hook(*args, **kwargs):
        result = call(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result
    changed = spans.rebind(original, hook)
    try:
        yield
    finally:
        spans.restore(changed)


@contextlib.contextmanager
def traced_if(tracer, on: bool):
    remove = spans.install(tracer) if (tracer is not None and on) else None
    try:
        yield
    finally:
        if remove is not None:
            remove()


def pretrain_stage(w, seed, stage, banks, model, tracer, artifacts):
    """Batches exactly as ``slidessl.pretrain`` does: epoch e shuffles with
    the stream (seed, 1, e) and drops a final batch of one slide."""
    cfg = slidessl.TrainConfig(tiles=w.tiles, batch_size=w.batch_size,
                               temperature=w.temperature, seed=seed)
    losses, epoch = [], 0
    for r in stage.rounds():
        with traced_if(tracer, r == 0):
            for _ in range(w.round_epochs):
                rng = np.random.default_rng([seed, 1, epoch])
                order = rng.permutation(len(banks))
                for lo in range(0, len(order), w.batch_size):
                    batch = [banks[i] for i in order[lo:lo + w.batch_size]]
                    if len(batch) < 2:
                        continue
                    losses.append(stage.timed(len(batch), training.train_step,
                                              batch, model, cfg, rng))
                epoch += 1
        if r == 0:
            training.save_model(model, artifacts / "model.ckpt", epoch=epoch)
            (artifacts / "losses.csv").write_text(
                "".join(f"{v!r}\n" for v in losses))
    return cfg, losses


def embed_stage(w, seed, stage, dirs, model, tracer, artifacts):
    first = None
    failures = []
    for r in stage.rounds():
        ids, rows = [], []
        with traced_if(tracer, r == 0):
            for d in dirs:
                n = len(bank.list_banks(d))
                sids, matrix, fails = stage.timed(
                    n, inference.embed_dataset, d, model, r_views=w.r_views,
                    seed=seed, threads=w.embed_threads)
                ids += sids
                rows.append(matrix)
                failures += fails
        if r == 0:
            first = (ids, np.concatenate(rows))
            inference.save_embeddings(artifacts / "embeddings.gse", *first)
    return first, failures


def probe_stage(w, stage, x, labels, tracer, artifacts):
    fits, aucs, reports = [], [], []

    def on_fit(args, p):
        fits.append((args[0], args[1], p.weights, p.bias))

    def on_auc(args, value):
        aucs.append((args[0], args[1], value))

    for r in stage.rounds():
        with contextlib.ExitStack() as stack:
            # spans go on first, so a fit's span holds the fit alone
            stack.enter_context(traced_if(tracer, r == 0))
            # a bootstrap_eval call runs ~2 s, too long for one reference
            # to speak for, so each of its fits is timed as one operation
            stack.enter_context(hooked(probe, "fit_logistic",
                                       wrap=lambda fn: partial(stage.timed, 1, fn),
                                       after=on_fit if r == 0 else None))
            if r == 0:
                stack.enter_context(hooked(probe, "auc", after=on_auc))
            for budget in w.probe_budgets:
                rep = probe.bootstrap_eval(x, labels, budget=budget,
                                           splits=PROBE_SPLITS, seed=0)
                if r == 0:
                    reports.append(rep)
        if r == 0:
            probe.write_report_csv(artifacts / "probe.csv", reports)
    return fits, aucs, reports


# ---------------------------------------------------------------------------
# The job

@dataclass
class JobResult:
    correct: bool
    problems: list
    attempted: int
    failed: int
    metrics: dict         # end-to-end metrics (untraced) or per-layer (traced)
    raw: dict             # raw wall-clock counterparts, not gated
    counts: dict          # operations per stage


def correctness(w, seed, cfg, losses, banks, train_model, embed_model,
                embedded, failures, fits, aucs, reports) -> list[str]:
    problems = checks.check_losses(losses, w.batch_size, w.temperature)

    rng = np.random.default_rng([seed, 7])
    maps = [training.sample_view(b, cfg, rng)[0]
            for b in banks[:w.batch_size] for _ in range(2)]
    pooled, _ = train_model.net.forward(maps, training=False)
    z, _ = slidessl.numcore.mlp_projector_forward(pooled,
                                                  train_model.store.params)
    loss, _ = training.nt_xent(z, temperature=w.temperature)
    problems += checks.check_nt_xent(z, w.temperature, loss)

    ids, matrix = embedded
    expected = [f"slide_{i:04d}" for i in range(w.n_banks)]
    problems += checks.check_embeddings(ids, matrix, failures, expected)

    one = banks[0]
    perm = np.random.default_rng([seed, 8]).permutation(one.n_tiles)
    shift = np.array([3 * TILE_PX, 5 * TILE_PX], dtype=np.int32)
    variants = [one,
                slidessl.EmbeddingBank(one.slide_id, one.coords[:, perm],
                                       one.features[:, perm]),
                slidessl.EmbeddingBank(one.slide_id, one.coords + shift,
                                       one.features)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # all tiles per view, not T
        rows = [inference.embed_slide(b, embed_model, tiles=one.n_tiles,
                                      r_views=1,
                                      rng=np.random.default_rng(0)).vector
                for b in variants]
    problems += checks.check_invariance(*rows)

    problems += checks.check_fits(fits, probe.DEFAULT_L2)
    problems += checks.check_aucs(aucs)
    problems += checks.check_auc_bound(reports, PROBE_DELTA, PROBE_SIGMA,
                                       w.out_dim)
    return problems


def run_job(w: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> JobResult:
    artifacts = workdir / "artifacts"
    artifacts.mkdir(parents=True)
    paths = write_banks(w, seed, workdir)
    x, labels = draw_probe_matrix(w, seed)

    tracer = spans.Tracer() if trace else None
    clock = RefClock(tracer)
    setups, imports = [], []
    with traced_if(tracer, True):
        for _ in range(w.setup_reps):
            banks = model = None   # free the previous set before loading
            banks, model, setup_s, import_s = set_up(w, clock, paths, workdir)
            setups.append(setup_s)
            imports.append(import_s)
    setup_raw = sum(clock.raw)

    min_rounds = 2 if trace else 1
    train_share, embed_share, probe_share = (seconds * s for s in STAGE_SHARES)

    train = Stage(clock, train_share, min_rounds)
    cfg, losses = pretrain_stage(w, seed, train, banks, model, tracer,
                                 artifacts)

    embed_model, _ = training.load_model(artifacts / "model.ckpt")
    embed = Stage(clock, embed_share, min_rounds)
    embedded, failures = embed_stage(w, seed, embed, shard_dirs(w, workdir),
                                     embed_model, tracer, artifacts)

    fit = Stage(clock, probe_share, min_rounds)
    fits, aucs, reports = probe_stage(w, fit, x, labels, tracer, artifacts)

    problems = correctness(w, seed, cfg, losses, banks, model, embed_model,
                           embedded, failures, fits, aucs, reports)

    counts = {"train_steps": len(losses), "train_slides": train.work,
              "embed_slides": embed.work, "probe_fits": fit.work}
    attempted = len(losses) + embed.work + fit.work
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {"setup_s": setup_raw / w.setup_reps,
           "train_slides_per_s": train.rate(clock.raw),
           "embed_slides_per_s": embed.rate(clock.raw),
           "probe_fits_per_s": fit.rate(clock.raw)}
    if trace:
        metrics = spans.layer_metrics(tracer)
        metrics["import.slidessl_s"] = {"value": sum(imports), "unit": "s"}
        stages = (train, embed, fit)
        traced = sum(s.round_scaled[0] for s in stages)
        untraced = sum(s.round_scaled[1] for s in stages)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "train_slides_per_s": {"value": train.rate(clock.scaled),
                                   "unit": "slides/s"},
            "embed_slides_per_s": {"value": embed.rate(clock.scaled),
                                   "unit": "slides/s"},
            "probe_fits_per_s": {"value": fit.rate(clock.scaled),
                                 "unit": "fits/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return JobResult(not problems, problems, attempted, len(failures),
                     metrics, raw, counts)
