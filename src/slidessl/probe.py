"""Linear probing: how much label signal do frozen slide vectors carry?

The probe is a multinomial logistic regression fit by accelerated gradient
descent (fixed step from Boehning's Hessian bound, restarted momentum, no
line search) to a tight gradient norm, so the fit is effectively the unique
optimum of the strongly convex objective; non-finite features are rejected.
Each step costs one objective evaluation and a fit takes a few hundred,
each mostly per-call numpy overhead, so an evaluation builds the logits, the
softmax and the gradient in per-fit buffers and forms no loss; the fit forms
the loss once, for the point it returns, from that point's evaluation.

Quality is reported as ROC AUC over repeated stratified train/test splits,
optionally after downsampling the training side to a label budget, which is
how label efficiency is measured. Report CSVs are written atomically.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import write_csv
from .errors import (BudgetTooSmall, DegenerateLabels, DimensionMismatch,
                     FormatError, ValidationError, check_positive, check_seed)

DEFAULT_L2 = 1e-3
GRAD_TOL = 1e-6
DEFAULT_SPLITS = 10
TEST_FRACTION = 0.2


# ---------------------------------------------------------------------------
# Normalization

def _normalize_train(x: np.ndarray, mode: str):
    """Returns (normalized x, closure that applies the same map to new rows)."""
    x = np.asarray(x, dtype=np.float64)
    if mode == "l2":
        def apply(v):
            v = np.asarray(v, dtype=np.float64)
            norms = np.linalg.norm(v, axis=1, keepdims=True)
            return v / np.where(norms == 0.0, 1.0, norms)
        return apply(x), apply
    if mode == "standard":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)

        def apply(v):
            return (np.asarray(v, dtype=np.float64) - mean) / std
        return apply(x), apply
    raise ValueError(f"unknown normalization '{mode}'")


# ---------------------------------------------------------------------------
# Logistic regression

@dataclass
class LinearProbe:
    """Fitted multinomial logistic probe."""

    weights: np.ndarray          # (dim, n_classes)
    bias: np.ndarray             # (n_classes,)
    classes: np.ndarray          # sorted original labels
    normalization: str
    apply_norm: object = field(repr=False)
    grad_norm: float = 0.0
    loss: float = 0.0

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, rows summing to 1."""
        x = self.apply_norm(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        logits = x @ self.weights + self.bias
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)


def _softmax_loss_grad(w, b, x, onehot, l2, *buffers):
    """(loss, weight gradient, bias gradient) of the probe objective.

    Given per-fit buffers ``logits`` and ``p`` (rows x classes) and ``grad``
    ((dim + 1) x classes), it writes the gradient into ``grad``'s rows,
    weights then bias, leaves the shifted logits in ``logits`` and returns
    only the log-partition; ``_loss`` of those two is the same loss.
    """
    dim = w.shape[0]
    logits, p, grad = buffers or (np.empty_like(onehot), np.empty_like(onehot),
                                  np.empty((dim + 1, onehot.shape[1])))
    np.matmul(x, w, out=logits)
    logits += b
    # row maxima one column at a time: a maximum is exact, so these are the
    # row reduction's values (a zero's sign aside, which no output reads);
    # below ~10 classes this costs less (1.6 against 4.1 us at 2 classes)
    logits -= functools.reduce(np.maximum, logits.T)[:, None]
    np.exp(logits, out=p)
    logz = np.log(np.add.reduce(p, axis=1))
    # p = exp(logits - logz) in place; delta = (p - onehot) / n likewise
    np.subtract(logits, logz[:, None], out=p)
    np.exp(p, out=p)
    p -= onehot
    p /= x.shape[0]
    gw, gb = grad[:dim], grad[dim]
    np.matmul(x.T, p, out=gw)
    gw += l2 * w
    np.add.reduce(p, axis=0, out=gb)
    if buffers:
        return logz
    return _loss(w, logits, logz, onehot, l2), gw, gb


def _loss(w, logits, logz, onehot, l2):
    """The objective from one evaluation's shifted logits and log-partition."""
    return ((np.add.reduce(logz) - np.vdot(logits, onehot)) / logits.shape[0]
            + 0.5 * l2 * np.vdot(w, w))


def fit_logistic(x: np.ndarray, labels, l2: float = DEFAULT_L2,
                 normalization: str = "l2", max_iter: int = 20000,
                 tol: float = GRAD_TOL, init=None) -> LinearProbe:
    """Fit the probe by accelerated gradient descent with adaptive restart.

    Steps are 1/L, L = 0.5 lambda_max([x, 1]^T [x, 1] / n) + l2 (Boehning's
    softmax Hessian bound), so there is no line search; momentum k/(k+3)
    restarts when the gradient opposes the last step, and that step is the
    next momentum term. Each step makes exactly one ``_softmax_loss_grad``
    call, which writes the gradient in place and leaves that point's shifted
    logits behind. Returns the first evaluated point whose gradient norm is
    below ``tol``, with its loss formed from those logits once, after the
    last step (the bytes the five-argument call returns), or warns with a
    RuntimeWarning after ``max_iter`` steps; the objective is strongly
    convex, so every ``init`` (weights, bias) lands on the same loss. Rows
    holding NaN or infinity are rejected. Normalization statistics come from
    ``x`` alone and are replayed onto rows later passed to ``scores``.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != labels.shape[0]:
        raise DimensionMismatch(
            f"{x.shape} features do not match {labels.shape} labels")
    _require_finite(x)
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateLabels(
            f"need at least 2 classes to fit a probe, got {classes.size}")
    check_positive(l2=l2)
    x, apply_norm = _normalize_train(x, normalization)
    n, dim = x.shape
    y = np.searchsorted(classes, labels)
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), y] = 1.0

    # theta stacks (weights; bias); the fit reads both as views of one array
    theta = np.zeros((dim + 1, classes.size))
    if init is not None:
        w = np.array(init[0], dtype=np.float64)
        b = np.array(init[1], dtype=np.float64)
        if w.shape != (dim, classes.size) or b.shape != (classes.size,):
            raise DimensionMismatch(
                f"init shapes {w.shape}/{b.shape} do not fit "
                f"{dim} dims x {classes.size} classes")
        theta[:dim], theta[dim] = w, b
    x1 = np.hstack([x, np.ones((n, 1))])
    step = 1.0 / (0.5 * np.linalg.eigvalsh(x1.T @ x1 / n)[-1] + l2)
    grad = np.empty_like(theta)
    logits, p = np.empty_like(onehot), np.empty_like(onehot)
    k = 0
    for it in itertools.count():
        point = theta + (k / (k + 3)) * moved if k else theta
        logz = _softmax_loss_grad(point[:dim], point[dim], x, onehot, l2,
                                  logits, p, grad)
        gnorm = math.sqrt(np.vdot(grad, grad))
        if gnorm < tol or it >= max_iter:
            break
        prev, theta = theta, point - step * grad
        # restart the momentum when the gradient opposes the step just
        # taken; that step is also the next momentum term
        moved = theta - prev
        k = 0 if np.vdot(grad, moved) > 0 else k + 1
    if gnorm >= tol:
        warnings.warn(f"fit_logistic stopped at max_iter={max_iter} with "
                      f"gradient norm {gnorm:.3e}, not below tol={tol:.3e}",
                      RuntimeWarning, stacklevel=2)
    return LinearProbe(point[:dim], point[dim], classes, normalization,
                       apply_norm, gnorm, _loss(point[:dim], logits, logz,
                                                onehot, l2))


def _require_finite(x: np.ndarray) -> None:
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ValidationError(
            f"feature row {int(np.argmax(bad))} holds NaN or infinity")


# ---------------------------------------------------------------------------
# AUC

def auc(scores: np.ndarray, labels) -> float:
    """ROC AUC. Binary labels use the Mann-Whitney statistic with ties
    counted half; multiclass scores average one-vs-rest AUCs (macro).
    A NaN score has no rank and raises ``ValidationError``.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    nan_rows = np.isnan(scores).reshape(len(scores), -1).any(axis=1)
    if nan_rows.any():
        raise ValidationError(f"score row {int(np.argmax(nan_rows))} is NaN")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateLabels("AUC needs both labels present")
    if scores.ndim == 2 and scores.shape[1] > 1:
        if classes.size == 2 and scores.shape[1] == 2:
            return _binary_auc(scores[:, 1], labels == classes[1])
        vals = [_binary_auc(scores[:, k], labels == c)
                for k, c in enumerate(classes)]
        return float(np.mean(vals))
    return _binary_auc(scores.reshape(-1), labels == classes[1])


def _binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("AUC needs both labels present")
    # a tie group's rank is the mean of the ranks it spans
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    rank_sum = ranks[positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# Stratified splitting and label budgets

def _stratified_split(labels: np.ndarray, test_fraction: float,
                      rng: np.random.Generator):
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if members.size < 2:
            raise BudgetTooSmall(
                f"class {c!r} has {members.size} sample(s); cannot appear in "
                "both train and test")
        members = rng.permutation(members)
        n_test = int(round(test_fraction * members.size))
        n_test = min(max(n_test, 1), members.size - 1)
        test_idx.append(members[:n_test])
        train_idx.append(members[n_test:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def _budget_count(budget, n_train: int) -> int:
    if budget == "all" or budget is None:
        return n_train
    if isinstance(budget, float):
        if not 0.0 < budget <= 1.0:
            raise ValidationError(
                f"fractional budget must be in (0, 1], got {budget}")
        return int(round(budget * n_train))
    count = int(budget)
    if count > n_train:
        raise BudgetTooSmall(
            f"budget {count} exceeds the {n_train} training rows available")
    return count


def _apply_budget(train_idx: np.ndarray, labels: np.ndarray, budget,
                  rng: np.random.Generator) -> np.ndarray:
    """Stratified downsampling by largest remainder; class ratio kept to +-1."""
    target = _budget_count(budget, train_idx.size)
    if target == train_idx.size:
        return train_idx
    classes = np.unique(labels[train_idx])
    if target < classes.size:
        raise BudgetTooSmall(
            f"budget {target} cannot cover {classes.size} classes")
    sizes = np.array([(labels[train_idx] == c).sum() for c in classes])
    quota = target * sizes / train_idx.size
    take = np.floor(quota).astype(int)
    remainder = quota - take
    # hand out the leftover seats by largest fractional part, ties by order
    for k in np.argsort(-remainder, kind="stable")[: target - take.sum()]:
        take[k] += 1
    if np.any(take == 0):
        raise BudgetTooSmall(
            f"budget {target} leaves some class with no training sample")
    kept = []
    for c, n_keep in zip(classes, take):
        members = train_idx[labels[train_idx] == c]
        kept.append(rng.permutation(members)[:n_keep])
    return np.sort(np.concatenate(kept))


# ---------------------------------------------------------------------------
# Bootstrap evaluation

@dataclass(frozen=True)
class ProbeReport:
    """Per-split AUCs of one (embedding set, budget) evaluation."""

    task: str
    budget: str
    aucs: tuple
    train_sizes: tuple

    @property
    def mean(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def std(self) -> float:
        return float(np.std(self.aucs))


def bootstrap_eval(x: np.ndarray, labels, budget="all", splits: int = DEFAULT_SPLITS,
                   seed: int = 0, l2: float = DEFAULT_L2,
                   normalization: str = "l2", task: str = "task") -> ProbeReport:
    """AUC over repeated stratified splits with a training label budget.

    Each split holds out ``TEST_FRACTION`` of every class. It re-randomizes
    the partition and the budget subsample from a stream derived from (seed,
    split), so reports are reproducible and two budgets at the same seed see
    the same partitions. Fewer than one split or a negative seed is a
    ``ValidationError``.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.shape[0] != labels.shape[0]:
        raise DimensionMismatch(
            f"{x.shape[0]} rows do not match {labels.shape[0]} labels")
    if splits < 1:
        raise ValidationError(f"need at least 1 split, got {splits}")
    check_seed(seed)
    _require_finite(x)
    aucs, train_sizes = [], []
    for split in range(splits):
        rng = np.random.default_rng([seed, 3, split])
        train_idx, test_idx = _stratified_split(labels, TEST_FRACTION, rng)
        train_idx = _apply_budget(train_idx, labels, budget, rng)
        probe = fit_logistic(x[train_idx], labels[train_idx], l2=l2,
                             normalization=normalization)
        scores = probe.scores(x[test_idx])
        aucs.append(auc(scores, labels[test_idx]))
        train_sizes.append(int(train_idx.size))
    return ProbeReport(task, _budget_label(budget), tuple(aucs),
                       tuple(train_sizes))


def _budget_label(budget) -> str:
    if budget == "all" or budget is None:
        return "all"
    return repr(float(budget)) if isinstance(budget, float) else str(int(budget))


# ---------------------------------------------------------------------------
# Label files and report files

def load_labels_csv(path) -> dict[str, str]:
    """Read a two-column slide_id,label CSV (with header) into a dict.
    A slide id on two rows raises ``FormatError``."""
    path = Path(path)
    out: dict[str, str] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["slide_id", "label"]:
            raise FormatError(
                f"{path.name}: expected header 'slide_id,label', got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise FormatError(f"{path.name}: malformed row {row}")
            sid = row[0].strip()
            if sid in out:
                raise FormatError(f"{path.name}: slide id {sid!r} is repeated")
            out[sid] = row[1].strip()
    if not out:
        raise FormatError(f"{path.name}: no label rows")
    return out


def align_labels(ids: list[str], label_map: dict[str, str]):
    """Order labels to match embedding rows; every id must be labeled."""
    missing = [sid for sid in ids if sid not in label_map]
    if missing:
        raise DegenerateLabels(
            f"{len(missing)} slide(s) missing labels, first: {missing[0]}")
    return np.array([label_map[sid] for sid in ids])


def write_report_csv(path, reports: list[ProbeReport]) -> None:
    """task,budget,split,auc rows, then one mean/std summary row per report;
    fields quoted where CSV needs it."""
    rows = [["task", "budget", "split", "auc"]]
    for rep in reports:
        for split, value in enumerate(rep.aucs):
            rows.append([str(rep.task), str(rep.budget), str(split), repr(value)])
    for rep in reports:
        rows.append([str(rep.task), str(rep.budget), "mean", repr(rep.mean)])
        rows.append([str(rep.task), str(rep.budget), "std", repr(rep.std)])
    write_csv(path, rows)


def format_report_table(reports: list[ProbeReport]) -> str:
    """Aligned text table of mean +- std AUC per (task, budget)."""
    rows = [("task", "budget", "n_train", "auc")]
    for rep in reports:
        sizes = sorted(set(rep.train_sizes))
        n_train = str(sizes[0]) if len(sizes) == 1 else f"{sizes[0]}-{sizes[-1]}"
        rows.append((rep.task, rep.budget, n_train,
                     f"{rep.mean:.4f} +- {rep.std:.4f}"))
    widths = [max(len(r[k]) for r in rows) for k in range(4)]
    out = []
    for r in rows:
        out.append("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())
    return "\n".join(out)
