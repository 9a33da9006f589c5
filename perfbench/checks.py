"""Correctness checks on the pipeline's outputs.

Each check is computed apart from the program (a few-line loss, gradient or
AUC of the benchmark's own) or from a property of the method, never from a
stored copy of earlier output. A check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

#: the probe stops below gradient norm 1e-6; the benchmark's own gradient,
#: summed in another order, may read slightly higher
PROBE_GRAD_TOL = 1e-5
#: slack under the AUC the class margin implies (test sets are ~20-40 rows)
AUC_SLACK = 0.05


def nt_xent_range(batch_size: int, temperature: float) -> tuple[float, float]:
    """Every NT-Xent term is -log(p) with p at least exp(-2/tau)/(2B-1)."""
    return 0.0, math.log(2 * batch_size - 1) + 2.0 / temperature


def check_losses(losses, batch_size: int, temperature: float) -> list[str]:
    lo, hi = nt_xent_range(batch_size, temperature)
    bad = [(i, v) for i, v in enumerate(losses)
           if not (math.isfinite(v) and lo <= v <= hi)]
    return [f"step {i}: loss {v!r} outside [{lo}, {hi:.4f}]" for i, v in bad[:3]]


def reference_nt_xent(z: np.ndarray, temperature: float) -> float:
    """NT-Xent with rows (2i, 2i+1) as positive pairs, in float64."""
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    logits = (zn @ zn.T) / temperature
    np.fill_diagonal(logits, -np.inf)
    partner = np.arange(len(z)) ^ 1
    log_denom = np.log(np.exp(logits).sum(axis=1))
    return float(np.mean(log_denom - logits[np.arange(len(z)), partner]))


def check_nt_xent(z: np.ndarray, temperature: float, program_loss: float
                  ) -> list[str]:
    ref = reference_nt_xent(np.asarray(z, dtype=np.float64), temperature)
    if not abs(ref - program_loss) <= 1e-5 * max(1.0, abs(ref)):
        return [f"nt_xent {program_loss!r} vs reference {ref!r}"]
    return []


def check_embeddings(ids, matrix, failures, expected_ids) -> list[str]:
    problems = [f"slide {sid} failed: {msg}" for sid, msg in failures[:3]]
    if list(ids) != list(expected_ids):
        problems.append(f"{len(ids)} rows for {len(expected_ids)} slides, "
                        "or out of order")
    norms = np.linalg.norm(np.asarray(matrix, dtype=np.float64), axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-5))
    if off.size:
        problems.append(f"{off.size} rows not unit-norm, e.g. row {off[0]} "
                        f"has norm {norms[off[0]]!r}")
    return problems


def check_invariance(base: np.ndarray, permuted: np.ndarray,
                     translated: np.ndarray) -> list[str]:
    """Tile order must not change a row's bits; whole-tile shifts must not
    change it beyond float32 rounding."""
    problems = []
    if base.tobytes() != permuted.tobytes():
        problems.append("permuting a bank's tiles changed its embedding bits")
    if not np.allclose(base, translated, rtol=0.0, atol=1e-6):
        err = float(np.max(np.abs(base - translated)))
        problems.append(f"translating a bank by whole tiles moved its "
                        f"embedding by {err:.3g}")
    return problems


def softmax_grad_norm(x, labels, weights, bias, l2: float) -> float:
    """Gradient norm of mean softmax cross entropy + l2/2 |W|^2 on unit rows."""
    x = np.asarray(x, dtype=np.float64)
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    classes = np.unique(labels)
    onehot = (np.asarray(labels)[:, None] == classes[None, :]).astype(float)
    logits = x @ weights + bias
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    delta = (p - onehot) / len(x)
    gw = x.T @ delta + l2 * weights
    gb = delta.sum(axis=0)
    return float(np.sqrt((gw * gw).sum() + (gb * gb).sum()))


def check_fits(fits, l2: float) -> list[str]:
    """``fits``: (x, labels, weights, bias) of every probe fit."""
    problems = []
    for i, (x, labels, w, b) in enumerate(fits):
        g = softmax_grad_norm(x, labels, w, b, l2)
        if not g < PROBE_GRAD_TOL:
            problems.append(f"fit {i}: gradient norm {g:.3g} at the returned "
                            "weights")
    return problems[:3]


def pairwise_auc(scores, positive) -> float:
    """Share of (positive, negative) pairs ordered right, ties counting half."""
    pos = np.asarray(scores)[np.asarray(positive)]
    neg = np.asarray(scores)[~np.asarray(positive)]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def check_aucs(calls) -> list[str]:
    """``calls``: (scores, labels, value) of every ``auc`` call, binary."""
    problems = []
    for i, (scores, labels, value) in enumerate(calls):
        scores = np.asarray(scores)
        if scores.ndim == 2:
            scores = scores[:, -1]
        classes = np.unique(labels)
        ref = pairwise_auc(scores, np.asarray(labels) == classes[-1])
        if abs(ref - value) > 1e-12:
            problems.append(f"auc call {i}: {value!r} vs pairwise {ref!r}")
    return problems[:3]


def margin_auc(delta: float, sigma: float, dim: int, n_train: int) -> float:
    """AUC the drawn matrix's class margin implies for a probe fit on
    ``n_train`` rows.

    Class means sit +-delta along one direction, every coordinate has noise
    sigma. A probe this strongly regularised scores rows by the estimated
    mean difference (2 delta u plus noise of variance 4 sigma^2 / n per
    coordinate), which separates the classes with
    z = sqrt(2) delta^2 / (sigma sqrt(delta^2 + dim sigma^2 / n)).
    """
    z = math.sqrt(2.0) * delta ** 2 / (
        sigma * math.sqrt(delta ** 2 + dim * sigma ** 2 / n_train))
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def check_auc_bound(reports, delta: float, sigma: float, dim: int
                    ) -> list[str]:
    problems = []
    for rep in reports:
        bound = margin_auc(delta, sigma, dim, min(rep.train_sizes)) - AUC_SLACK
        if not rep.mean >= bound:
            problems.append(f"budget {rep.budget}: mean AUC {rep.mean:.4f} "
                            f"below the margin's bound {bound:.4f}")
    return problems
