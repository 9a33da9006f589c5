"""The acceptance criteria that need no trained corpus: A1-A4 and A9.

Each returns ``(passed, detail)``. ``slidessl selftest`` and the release
tests run the same functions; verdicts are computed, not asserted, so they
hold under ``python -O``.
"""

import io
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from .bank import EmbeddingBank
from .gradcheck import PASS_BOUND, run_gradcheck
from .inference import embed_slide
from .sparseconv import PoolingNetworkConfig, build_rulebook, submconv_forward
from .sparsemap import SlideAugParams, SparseMap, augment_sparse_map
from .training import build_model, nt_xent

GRADCHECK_OPS = {"submconv", "batchnorm_train", "batchnorm_eval",
                 "global_average_pool", "projector", "nt_xent",
                 "network_train", "network_eval"}
DENSE_MAPS = 100
DENSE_WINDOW = 16
DENSE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9
TRANSLATION_TOL = 1e-9
NORM_TOL = 1e-6


def a1_gradient_suite(n_instances: int) -> tuple[bool, str]:
    """Every op's backward pass against central finite differences."""
    t0 = time.perf_counter()
    results = run_gradcheck(n_instances, seed=0)
    detail = (f"worst rel err {max(results.values()):.2e} over {len(results)} "
              f"ops x {n_instances} instances (bound {PASS_BOUND:.0e}), "
              f"{time.perf_counter() - t0:.1f}s")
    passed = (set(results) == GRADCHECK_OPS
              and all(err < PASS_BOUND for err in results.values()))
    return passed, detail


def dense_conv_at_active(smap, weights, extent):
    """Zero-fill a dense image, convolve with explicit loops, read active sites."""
    c = weights.shape[0] // 2
    img = np.zeros((extent, extent, weights.shape[2]))
    for (i, j), f in zip(smap.sites, smap.features):
        img[i, j] = f
    rows = []
    for i, j in smap.sites:
        acc = np.zeros(weights.shape[3])
        for di in range(-c, c + 1):
            for dj in range(-c, c + 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < extent and 0 <= jj < extent:
                    acc = acc + img[ii, jj] @ weights[di + c, dj + c]
        rows.append(acc)
    return np.stack(rows)


def a2_dense_convolution_oracle() -> tuple[bool, str]:
    """Sparse conv equals dense zero-padded conv at the active sites."""
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
        out = submconv_forward(smap.features, weights,
                               build_rulebook(smap, kernel).pairs)
        want = dense_conv_at_active(smap, weights, DENSE_WINDOW)
        worst = max(worst, float(np.abs(out - want).max()))
    detail = (f"{DENSE_MAPS} random maps in a {DENSE_WINDOW}x{DENSE_WINDOW} "
              f"window, worst abs err {worst:.2e} (tol {DENSE_TOL:.0e}), "
              f"{time.perf_counter() - t0:.1f}s")
    return worst <= DENSE_TOL, detail


def a3_nt_xent_closed_forms() -> tuple[bool, str]:
    """NT-Xent on three inputs whose loss is known in closed form."""
    # one pair: the denominator holds only the positive, loss is exactly 0
    single, _ = nt_xent(np.array([[0.3, -1.2], [0.3, -1.2]]), temperature=0.5)
    # two pairs, all four projections identical: each view reads -log(1/3)
    identical, _ = nt_xent(np.ones((4, 3)), temperature=1.0)
    # two aligned pairs, orthogonal across pairs, tau=1: positive logit 1
    # against denominator e + 2
    ortho = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    crossed, _ = nt_xent(ortho, temperature=1.0)
    err_identical = abs(identical - np.log(3.0))
    err_crossed = abs(crossed - np.log((np.e + 2.0) / np.e))
    detail = (f"single-pair loss {single!r}; log 3 err {err_identical:.1e}; "
              f"log((e+2)/e) err {err_crossed:.1e} "
              f"(tol {CLOSED_FORM_TOL:.0e})")
    passed = (single == 0.0 and err_identical < CLOSED_FORM_TOL
              and err_crossed < CLOSED_FORM_TOL)
    return passed, detail


def _toy_bank(rng, n_tiles=12, feat_dim=6, n_augs=2):
    cells = rng.choice(64, size=n_tiles, replace=False)
    coords = np.stack([cells // 8, cells % 8], axis=1).astype(np.int32) * 256
    coords = np.broadcast_to(coords, (n_augs, n_tiles, 2)).copy()
    feats = rng.normal(size=(n_augs, n_tiles, feat_dim)).astype(np.float32)
    return EmbeddingBank("toy", coords, feats)


def a4_invariance_suite() -> tuple[bool, str]:
    """Embeddings ignore tile order and translation and are unit norm; rigid
    moves that compose to the identity leave a map unchanged."""
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
    ident = augment_sparse_map(smap, SlideAugParams())
    quad = smap
    for _ in range(4):
        quad = augment_sparse_map(quad, SlideAugParams(rot_quarters=1))
    both = SlideAugParams(flip_x=True, flip_y=True)
    double_flip = augment_sparse_map(augment_sparse_map(smap, both), both)
    identities = all(np.array_equal(m.sites, smap.sites)
                     and np.array_equal(m.features, smap.features)
                     for m in (ident, quad, double_flip))
    detail = (f"permutation bit-exact {perm_equal}; translation err "
              f"{translation_err:.1e} (tol {TRANSLATION_TOL:.0e}); "
              f"norm err {norm_err:.1e} (tol {NORM_TOL:.0e}); "
              f"identity/rotation/flip identities "
              f"{'hold' if identities else 'broken'}")
    passed = (perm_equal and translation_err <= TRANSLATION_TOL
              and norm_err <= NORM_TOL and identities)
    return passed, detail


def _pipeline_argvs(root: Path) -> list[list[str]]:
    banks, ckpt, emb = root / "banks", root / "model.ckpt", root / "emb.gse"
    return [[str(a) for a in argv] for argv in (
        ["gen", "--out", banks, "--slides", 8, "--classes", 2, "--tiles", 16,
         "--augs", 3, "--dim", 8, "--extent", 1024, "--seed", 5],
        ["pretrain", "--banks", banks, "--checkpoint", ckpt, "--epochs", 2,
         "--tiles", 4, "--batch", 4, "--seed", 0],
        ["embed", "--banks", banks, "--checkpoint", ckpt, "--out", emb,
         "--views", 3, "--seed", 0, "--threads", 2],
        ["probe", "--embeddings", emb, "--labels", banks / "labels.csv",
         "--out", root / "report.csv", "--budget", "all", "--splits", 3,
         "--seed", 0])]


def a9_byte_identical_reruns() -> tuple[bool, str]:
    """Two seeded gen -> pretrain -> embed -> probe runs write equal bytes."""
    from .cli import main  # cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "run1", Path(tmp) / "run2"
        for root in (first, second):
            for argv in _pipeline_argvs(root):
                log = io.StringIO()
                with redirect_stdout(log), redirect_stderr(log):
                    rc = main(argv)
                if rc != 0:
                    return False, f"{argv[0]} exited {rc}: {log.getvalue()}"
        files = sorted(p.relative_to(first)
                       for p in first.rglob("*") if p.is_file())
        differ = [str(rel) for rel in files
                  if (first / rel).read_bytes() != (second / rel).read_bytes()]
    if differ:
        return False, f"{differ} differ between identically seeded runs"
    kinds = sorted({rel.suffix for rel in files})
    return {".gsb", ".gse", ".ckpt", ".csv"} <= set(kinds), (
        f"{len(files)} artifacts byte-identical across reruns "
        f"({', '.join(kinds)})")


CHECKS = (
    ("A1", lambda: a1_gradient_suite(3)),  # the release gate runs 20
    ("A2", a2_dense_convolution_oracle),
    ("A3", a3_nt_xent_closed_forms),
    ("A4", a4_invariance_suite),
    ("A9", a9_byte_identical_reruns),
)


def run_selftest() -> bool:
    """Run every check, print one PASS/FAIL line each (a check that raises
    fails, with its traceback on stderr); True if all passed."""
    all_ok = True
    for name, check in CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:  # noqa: BLE001  (report, do not abort)
            traceback.print_exc()
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok = all_ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return all_ok
