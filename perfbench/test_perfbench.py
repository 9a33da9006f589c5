"""Fast test of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload at toy size (traced and untraced, which must write the
same artifact bytes), shows that each correctness check rejects a
deliberately wrong output, and that the command fails without printing a
result when the program's sources are missing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import job  # noqa: E402
import slidessl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TOY = {
    "dense_views": dict(n_banks=4, n_tiles=96, tiles=48, batch_size=4),
    "paper_banks": dict(n_banks=4, n_tiles=24, n_augs=6, feat_dim=32,
                        batch_size=4),
    "many_slides": dict(n_banks=12, n_tiles=24, tiles=8, batch_size=4),
}


def toy(name):
    return dataclasses.replace(
        job.WORKLOADS[name], shard_slides=2, round_epochs=1, r_views=4,
        probe_rows=40, probe_budgets=("all", 20), setup_reps=2, **TOY[name])


def artifact_bytes(workdir):
    root = workdir / "artifacts"
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(job.WORKLOADS))
def test_toy_workload_traced_and_untraced(name, tmp_path):
    w = toy(name)
    plain = job.run_job(w, seed=3, seconds=0.1, trace=False,
                        workdir=tmp_path / "plain")
    traced = job.run_job(w, seed=3, seconds=0.1, trace=True,
                         workdir=tmp_path / "traced")
    for result in (plain, traced):
        assert result.correct, result.problems
        assert result.failed == 0 and result.attempted > 0
    assert set(plain.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        got = (plain.metrics.get(m["name"]) or traced.metrics[m["name"]])
        assert got["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in plain.metrics.values())
    assert traced.metrics["training.steps"]["value"] > 0
    assert traced.metrics["probe.loss_evals"]["value"] > \
        traced.metrics["probe.fits"]["value"]

    a, b = artifact_bytes(tmp_path / "plain"), artifact_bytes(tmp_path / "traced")
    assert sorted(a) == ["embeddings.gse", "losses.csv", "model.ckpt",
                         "probe.csv"]
    assert a == b


def test_loss_range_check():
    assert checks.check_losses([0.0, 1.0, 3.0], 16, 0.5) == []
    hi = checks.nt_xent_range(16, 0.5)[1]
    for wrong in (-1e-3, float("nan"), hi + 1e-3):
        assert checks.check_losses([1.0, wrong], 16, 0.5)


def test_nt_xent_check():
    z = np.random.default_rng(0).standard_normal((8, 6)).astype(np.float32)
    loss, _ = slidessl.nt_xent(z, temperature=0.5)
    assert checks.check_nt_xent(z, 0.5, loss) == []
    assert checks.check_nt_xent(z, 0.5, loss + 1e-3)
    # pairs must be (2i, 2i+1): swapping two rows breaks agreement
    assert checks.check_nt_xent(z[[1, 2, 0, 3, 4, 5, 6, 7]], 0.5, loss)


def test_embedding_check():
    m = np.random.default_rng(0).standard_normal((3, 4))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    ids = ["a", "b", "c"]
    assert checks.check_embeddings(ids, m, [], ids) == []
    assert checks.check_embeddings(ids, m * 1.001, [], ids)
    assert checks.check_embeddings(ids[:2], m[:2], [("c", "boom")], ids)
    assert checks.check_embeddings(ids[::-1], m, [], ids)


def test_invariance_check():
    row = np.linspace(0.1, 0.9, 8).astype(np.float32)
    assert checks.check_invariance(row, row.copy(), row + 1e-7) == []
    flipped = row.copy()
    flipped[3] = np.nextafter(flipped[3], np.float32(1.0))
    assert checks.check_invariance(row, flipped, row)
    assert checks.check_invariance(row, row.copy(), row + 1e-4)


def test_probe_fit_check():
    w = job.WORKLOADS["many_slides"]
    x, labels = job.draw_probe_matrix(dataclasses.replace(w, probe_rows=40), 0)
    fit = slidessl.fit_logistic(x, labels)
    good = (x, labels, fit.weights, fit.bias)
    assert checks.check_fits([good], slidessl.probe.DEFAULT_L2) == []
    early = slidessl.fit_logistic(x, labels, max_iter=20)
    assert checks.check_fits([(x, labels, early.weights, early.bias)],
                             slidessl.probe.DEFAULT_L2)


def test_auc_checks():
    rng = np.random.default_rng(0)
    labels = np.arange(30) % 2
    scores = rng.random(30) + 0.3 * labels
    value = slidessl.auc(scores, labels)
    assert checks.check_aucs([(scores, labels, value)]) == []
    assert checks.check_aucs([(scores, labels, value + 0.01)])

    def report(mean):
        return slidessl.ProbeReport("t", "50", (mean,) * 10, (50,) * 10)
    assert checks.check_auc_bound([report(0.99)], job.PROBE_DELTA,
                                  job.PROBE_SIGMA, 32) == []
    assert checks.check_auc_bound([report(0.6)], job.PROBE_DELTA,
                                  job.PROBE_SIGMA, 32)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_slides",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
