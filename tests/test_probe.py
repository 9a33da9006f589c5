"""Linear probe fitting, Mann-Whitney AUC, and budgeted bootstrap reports."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidessl import probe
from slidessl.errors import (
    BudgetTooSmall,
    DegenerateLabels,
    DimensionMismatch,
    FormatError,
    ValidationError,
)
from slidessl.probe import (
    TEST_FRACTION,
    ProbeReport,
    align_labels,
    auc,
    bootstrap_eval,
    fit_logistic,
    format_report_table,
    load_labels_csv,
    write_report_csv,
)


def blobs(n_per_class=60, d=8, n_classes=2, sep=2.5, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, d)) * sep
    x = np.concatenate([centers[c] + rng.normal(size=(n_per_class, d))
                        for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes), n_per_class)
    perm = rng.permutation(y.size)
    return x[perm], y[perm]


# ---------------------------------------------------------------------------
# AUC

def test_auc_perfect_ranking():
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0


def test_auc_inverted_ranking():
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([0, 0, 1, 1])) == 0.0


def test_auc_all_tied_is_half():
    assert auc(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0])) == 0.5


def test_auc_partial_ranking():
    got = auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert got == 0.75


def test_auc_tie_counts_half():
    # pairs: 0.7 ties 0.7, beats 0.1; 0.3 loses to 0.7, beats 0.1
    got = auc(np.array([0.7, 0.3, 0.7, 0.1]), np.array([1, 1, 0, 0]))
    assert got == pytest.approx((0.5 + 1.0 + 0.0 + 1.0) / 4)


def test_auc_single_class_rejected():
    with pytest.raises(DegenerateLabels):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_auc_rejects_nan_scores_naming_the_row():
    with pytest.raises(ValidationError, match="row 0"):
        auc(np.array([np.nan, 0.1, 0.2, 0.3]), np.array([1, 0, 1, 0]))
    x, y = blobs()
    probe = fit_logistic(x, y)
    x[7, 2] = np.nan
    with pytest.raises(ValidationError, match="row 7"):
        auc(probe.scores(x), y)


def test_auc_two_column_scores_use_positive_class():
    scores = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
    labels = np.array([1, 0, 1, 0])
    assert auc(scores, labels) == auc(scores[:, 1], labels)


def test_auc_macro_multiclass_perfect():
    labels = np.array([0, 0, 1, 1, 2, 2])
    scores = np.eye(3)[labels] * 0.8 + 0.1
    assert auc(scores, labels) == 1.0


def test_auc_macro_is_mean_of_one_vs_rest():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=60)
    scores = rng.random((60, 3))
    per_class = [auc(scores[:, c], (labels == c).astype(int)) for c in range(3)]
    assert auc(scores, labels) == pytest.approx(np.mean(per_class), abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_complement_labels(seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(20)
    labels = np.array([0] * 10 + [1] * 10)
    assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_monotone_transform_invariant(seed):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(24), 2)  # rounding makes ties likely
    labels = rng.permutation([0] * 12 + [1] * 12)
    base = auc(scores, labels)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


def loop_auc(scores, positive):
    """Mann-Whitney AUC with tie groups averaged one group at a time."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1)
    bounds = np.flatnonzero(np.diff(scores[order]) != 0) + 1
    for s, e in zip(np.r_[0, bounds], np.r_[bounds, scores.size]):
        ranks[order[s:e]] = 0.5 * (s + 1 + e)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_auc_equals_tie_group_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    scores = rng.integers(-4, 5, size=n) * rng.choice([0.25, 1e-3, 7.0])
    scores[rng.random(n) < 0.1] = -0.0
    positive = rng.random(n) < 0.5
    positive[:2] = True, False
    assert auc(scores, positive) == loop_auc(scores, positive)


def test_auc_ties_repeated_infinities():
    # the loop splits tie groups where neighbours differ, and inf - inf is
    # NaN, so it ranked equal infinite scores apart
    scores = np.array([np.inf, np.inf, 0.0, 0.0, -np.inf, -np.inf])
    positive = np.array([True, False, True, False, True, False])
    assert auc(scores, positive) == 0.5
    with np.errstate(invalid="ignore"):
        assert loop_auc(scores, positive) != 0.5


# ---------------------------------------------------------------------------
# fit_logistic

def test_separable_data_fits_to_perfect_train_auc():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    probe = fit_logistic(x, y, normalization="standard")
    assert probe.grad_norm < 1e-6
    assert auc(probe.scores(x), y) == 1.0


def test_stopping_at_max_iter_warns():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 8))
    y = rng.integers(0, 2, size=40)
    with pytest.warns(RuntimeWarning, match=r"max_iter=5 .* tol=1\.000e-06"):
        probe = fit_logistic(x, y, max_iter=5)
    assert probe.grad_norm >= 1e-6


def test_converged_fit_does_not_warn():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 8))
    y = rng.integers(0, 2, size=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = fit_logistic(x, y)
    assert probe.grad_norm < 1e-6


def test_scores_are_probabilities():
    x, y = blobs(n_classes=3)
    probe = fit_logistic(x, y)
    scores = probe.scores(x)
    assert scores.shape == (x.shape[0], 3)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(scores >= 0)


def test_multiclass_blobs_fit_well():
    x, y = blobs(n_classes=3, sep=3.0)
    probe = fit_logistic(x, y, normalization="standard")
    assert auc(probe.scores(x), y) > 0.99


def test_fit_reaches_same_loss_from_any_init():
    x, y = blobs(n_per_class=40, d=6)
    losses = [fit_logistic(x, y).loss]
    for s in range(4):
        rng = np.random.default_rng(s)
        init = (rng.normal(size=(6, 2)), rng.normal(size=2))
        losses.append(fit_logistic(x, y, init=init).loss)
    assert max(losses) - min(losses) < 1e-8


def test_string_labels_work():
    x, y = blobs()
    named = np.array(["tumor" if c else "normal" for c in y])
    probe = fit_logistic(x, named)
    assert list(probe.classes) == ["normal", "tumor"]
    assert auc(probe.scores(x)[:, 1], (named == "tumor").astype(int)) > 0.95


def test_standard_scaling_uses_train_stats_only():
    x, y = blobs(seed=3)
    probe = fit_logistic(x, y, normalization="standard")
    shifted = probe.apply_norm(x + 10.0)
    base = probe.apply_norm(x)
    expect = 10.0 / x.std(axis=0)
    np.testing.assert_allclose(shifted - base,
                               np.broadcast_to(expect, x.shape), atol=1e-9)


def test_l2_normalization_makes_rows_unit():
    x, y = blobs()
    probe = fit_logistic(x, y, normalization="l2")
    rows = probe.apply_norm(x * 37.0)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def test_stronger_penalty_shrinks_weights():
    x, y = blobs()
    light = fit_logistic(x, y, l2=1e-4)
    heavy = fit_logistic(x, y, l2=1.0)
    assert np.linalg.norm(heavy.weights) < np.linalg.norm(light.weights)


def test_single_class_rejected():
    with pytest.raises(DegenerateLabels):
        fit_logistic(np.zeros((4, 2)), np.zeros(4))


def test_row_count_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        fit_logistic(np.zeros((4, 2)), np.zeros(5))


def test_bad_init_shape_rejected():
    x, y = blobs(n_per_class=10)
    with pytest.raises(DimensionMismatch):
        fit_logistic(x, y, init=(np.zeros((3, 2)), np.zeros(2)))


def test_bad_l2_rejected():
    x, y = blobs(n_per_class=10)
    with pytest.raises(ValueError):
        fit_logistic(x, y, l2=0.0)


@pytest.mark.parametrize("l2", [np.nan, np.inf])
def test_non_finite_l2_rejected(l2):
    x, y = blobs(n_per_class=10)
    with pytest.raises(ValidationError, match="l2 must be finite"):
        fit_logistic(x, y, l2=l2)


def test_unknown_normalization_rejected():
    x, y = blobs(n_per_class=10)
    with pytest.raises(ValueError):
        fit_logistic(x, y, normalization="minmax")


def reference_loss_and_grad_norm(x, labels, weights, bias, l2):
    """The probe objective, written apart from the module's."""
    n = x.shape[0]
    logits = x @ weights + bias
    top = logits.max(axis=1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    loss = (lse - logits[np.arange(n), labels]).mean() \
        + 0.5 * l2 * (weights ** 2).sum()
    resid = np.exp(logits - lse[:, None])
    resid[np.arange(n), labels] -= 1.0
    gw = x.T @ resid / n + l2 * weights
    gb = resid.sum(axis=0) / n
    return loss, np.sqrt((gw ** 2).sum() + (gb ** 2).sum())


def count_evaluations(monkeypatch):
    calls = []
    inner = probe._softmax_loss_grad

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(probe, "_softmax_loss_grad", counted)
    return calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_rejected_before_any_evaluation(monkeypatch, bad):
    calls = count_evaluations(monkeypatch)
    x, y = blobs(n_per_class=10)
    x[7, 3] = bad
    x[12, 0] = bad
    with pytest.raises(ValidationError, match="row 7 "):
        fit_logistic(x, y)
    with pytest.raises(ValidationError, match="row 7 "):
        bootstrap_eval(x, y, splits=2)
    assert calls == []


def test_benchmark_shaped_fit_takes_few_evaluations(monkeypatch):
    # unit rows near one common direction, classes +-0.02 along another:
    # badly conditioned; backtracking gradient descent needs about 4,800
    rng = np.random.default_rng(0)
    y = rng.permutation(np.arange(96) % 2)
    x = 0.01 * rng.standard_normal((96, 64))
    x[:, 0] += 1.0
    x[:, 1] += np.where(y == 1, 0.02, -0.02)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    calls = count_evaluations(monkeypatch)
    fit = fit_logistic(x, y)
    assert fit.grad_norm < 1e-6
    assert len(calls) <= 600


@pytest.mark.parametrize("normalization", ["l2", "standard"])
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("random_init", [False, True])
def test_returned_point_is_the_evaluated_one(normalization, n_classes,
                                             random_init):
    x, y = blobs(n_per_class=30, d=5, n_classes=n_classes, sep=1.0, seed=4)
    init = None
    if random_init:
        rng = np.random.default_rng(1)
        init = (rng.normal(size=(5, n_classes)), rng.normal(size=n_classes))
    fit = fit_logistic(x, y, normalization=normalization, init=init)
    loss, gnorm = reference_loss_and_grad_norm(
        fit.apply_norm(x), np.searchsorted(fit.classes, y), fit.weights,
        fit.bias, probe.DEFAULT_L2)
    assert fit.loss == pytest.approx(loss, rel=1e-12)
    assert fit.grad_norm == pytest.approx(gnorm, rel=0, abs=1e-12)
    assert gnorm < 1e-6


@pytest.mark.parametrize("n_classes", [2, 3])
def test_fitted_loss_matches_lbfgs(n_classes):
    from scipy.optimize import minimize
    x, y = blobs(n_per_class=30, d=6, n_classes=n_classes, sep=1.0, seed=2)
    fit = fit_logistic(x, y)
    xn, idx = fit.apply_norm(x), np.searchsorted(fit.classes, y)
    onehot = np.eye(n_classes)[idx]

    def objective(theta):
        w, b = theta[:-n_classes].reshape(6, n_classes), theta[-n_classes:]
        loss, gw, gb = probe._softmax_loss_grad(w, b, xn, onehot,
                                                probe.DEFAULT_L2)
        return loss, np.concatenate([gw.ravel(), gb])

    best = minimize(objective, np.zeros(7 * n_classes), jac=True,
                    method="L-BFGS-B",
                    options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 10000})
    assert abs(fit.loss - best.fun) < 1e-9


@pytest.mark.parametrize("max_iter", [0, -1])
def test_no_steps_returns_init_and_warns(max_iter):
    x, y = blobs(n_per_class=10, d=4)
    rng = np.random.default_rng(3)
    init = (rng.normal(size=(4, 2)), rng.normal(size=2))
    with pytest.warns(RuntimeWarning, match=f"max_iter={max_iter} "):
        fit = fit_logistic(x, y, max_iter=max_iter, init=init)
    np.testing.assert_array_equal(fit.weights, init[0])
    np.testing.assert_array_equal(fit.bias, init[1])
    assert fit.grad_norm >= 1e-6


def reference_softmax_loss_grad(w, b, x, onehot, l2):
    """The objective as first written: the gradient bytes to keep."""
    logits = x @ w + b
    logits -= logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(logits).sum(axis=1))
    n = x.shape[0]
    loss = (logz - (logits * onehot).sum(axis=1)).mean() + 0.5 * l2 * (w * w).sum()
    p = np.exp(logits - logz[:, None])
    delta = (p - onehot) / n
    return loss, x.T @ delta + l2 * w, delta.sum(axis=0)


def reference_fit(x, labels, l2=probe.DEFAULT_L2, normalization="l2",
                  max_iter=20000, tol=probe.GRAD_TOL, init=None):
    """The solver loop as first written, on the reference objective:
    (weights, bias, grad_norm, loss, evaluations)."""
    x, _ = probe._normalize_train(x, normalization)
    n, dim = x.shape
    classes = np.unique(labels)
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), np.searchsorted(classes, labels)] = 1.0
    theta = np.zeros((dim + 1, classes.size))
    if init is not None:
        theta[:dim], theta[dim] = init
    x1 = np.hstack([x, np.ones((n, 1))])
    step = 1.0 / (0.5 * np.linalg.eigvalsh(x1.T @ x1 / n)[-1] + l2)
    grad = np.empty_like(theta)
    prev, k = theta, 0
    for it in itertools.count():
        point = theta + (k / (k + 3)) * (theta - prev) if k else theta
        loss, grad[:dim], grad[dim] = reference_softmax_loss_grad(
            point[:dim], point[dim], x, onehot, l2)
        gnorm = float(np.sqrt(np.vdot(grad, grad)))
        if gnorm < tol or it >= max_iter:
            break
        prev, theta = theta, point - step * grad
        k = 0 if np.vdot(grad, theta - prev) > 0 else k + 1
    return point[:dim], point[dim], gnorm, loss, it + 1


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSolverBytes:
    """The solver's iterates equal the reference loop's byte for byte; only
    the loss, summed in another order, may move in its last bits."""

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    @pytest.mark.parametrize("normalization", ["l2", "standard"])
    @pytest.mark.parametrize("random_init", [False, True])
    @pytest.mark.parametrize("max_iter", [20000, 0, 1, 17])
    def test_fit_equals_reference(self, monkeypatch, n_classes, normalization,
                                  random_init, max_iter):
        calls = count_evaluations(monkeypatch)
        for seed in range(3):
            rng = np.random.default_rng([seed, n_classes])
            n, d = int(rng.integers(12, 80)), int(rng.integers(2, 24))
            y = rng.permutation(np.arange(n) % n_classes)
            x = rng.normal(size=(n, d)) + 0.7 * rng.normal(size=(n_classes, d))[y]
            init = None
            if random_init:
                init = (rng.normal(size=(d, n_classes)), rng.normal(size=n_classes))
            kwargs = dict(normalization=normalization, max_iter=max_iter,
                          init=init)
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit = fit_logistic(x, y, **kwargs)
            weights, bias, gnorm, loss, evals = reference_fit(x, y, **kwargs)
            assert same_bytes(fit.weights, weights)
            assert same_bytes(fit.bias, bias)
            assert fit.grad_norm.hex() == gnorm.hex()
            assert len(calls) == evals
            assert fit.loss == pytest.approx(loss, rel=1e-15, abs=0)
            if max_iter < 20000:
                assert evals == max_iter + 1

    @pytest.mark.parametrize("case", ["large_logits", "tied_maxima"])
    def test_objective_gradient_bytes(self, case):
        rng = np.random.default_rng(7)
        for n_classes in (2, 3, 4):
            x = rng.normal(size=(30, 6))
            w = rng.normal(size=(6, n_classes))
            b = rng.normal(size=n_classes)
            if case == "large_logits":
                # logits in the thousands: most exponentials underflow to 0
                w *= 1e3
                b *= 1e3
            else:
                # two equal leading columns tie every row's maximum; zero
                # rows leave the bias alone, tied too
                w[:, 1] = w[:, 0]
                b[1] = b[0] = b.max() + 1.0
                x[::3] = 0.0
            onehot = np.eye(n_classes)[rng.integers(0, n_classes, size=30)]
            got = probe._softmax_loss_grad(w, b, x, onehot, probe.DEFAULT_L2)
            want = reference_softmax_loss_grad(w, b, x, onehot,
                                               probe.DEFAULT_L2)
            assert same_bytes(got[1], want[1])
            assert same_bytes(got[2], want[2])
            assert got[0] == pytest.approx(want[0], rel=1e-15, abs=0)


def loss_summed_as_before(w, b, x, onehot, l2):
    """The loss in the summation order every evaluation used to form it."""
    logits = x @ w + b
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(logits), axis=1))
    return ((np.add.reduce(logz) - np.vdot(logits, onehot)) / x.shape[0]
            + 0.5 * l2 * np.vdot(w, w))


class TestLossFormedOnce:
    """The solver forms the loss once, from the returned point's last
    evaluation, and writes each gradient into its own stacked rows; both
    keep the bytes of the five-argument objective, whose loss keeps the
    bytes it had when every evaluation formed one."""

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    @pytest.mark.parametrize("normalization", ["l2", "standard"])
    @pytest.mark.parametrize("max_iter", [0, 1, 17, 20000])
    def test_loss_is_the_objective_at_the_returned_point(
            self, n_classes, normalization, max_iter):
        for seed in range(3):
            rng = np.random.default_rng([seed, n_classes, 5])
            n, d = int(rng.integers(12, 80)), int(rng.integers(2, 24))
            y = rng.permutation(np.arange(n) % n_classes)
            x = rng.normal(size=(n, d)) + 0.7 * rng.normal(size=(n_classes, d))[y]
            init = None
            if seed:
                init = (rng.normal(size=(d, n_classes)), rng.normal(size=n_classes))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit = fit_logistic(x, y, normalization=normalization,
                                   max_iter=max_iter, init=init)
            onehot = np.eye(n_classes)[np.searchsorted(fit.classes, y)]
            args = (fit.weights, fit.bias, fit.apply_norm(x), onehot,
                    probe.DEFAULT_L2)
            assert fit.loss.hex() == probe._softmax_loss_grad(*args)[0].hex()
            assert fit.loss.hex() == loss_summed_as_before(*args).hex()

    @pytest.mark.parametrize("case", ["large_logits", "tied_maxima"])
    def test_in_place_gradient_bytes(self, case):
        rng = np.random.default_rng(7)
        # 12 classes: numpy's row maximum takes its vector path
        for n_classes in (2, 3, 4, 12):
            x = rng.normal(size=(30, 6))
            w = rng.normal(size=(6, n_classes))
            b = rng.normal(size=n_classes)
            if case == "large_logits":
                w *= 1e3
                b *= 1e3
            else:
                w[:, 1] = w[:, 0]
                b[1] = b[0] = b.max() + 1.0
                x[::3] = 0.0
            onehot = np.eye(n_classes)[rng.integers(0, n_classes, size=30)]
            loss, gw, gb = probe._softmax_loss_grad(w, b, x, onehot,
                                                    probe.DEFAULT_L2)
            # the solver's buffers: stale values from another point first
            logits, p = np.full((2, 30, n_classes), np.nan)
            grad = np.full((7, n_classes), np.nan)
            for point in (-w, w):
                logz = probe._softmax_loss_grad(point, b, x, onehot,
                                                probe.DEFAULT_L2, logits, p,
                                                grad)
            want = reference_softmax_loss_grad(w, b, x, onehot,
                                               probe.DEFAULT_L2)
            assert same_bytes(gw, want[1]) and same_bytes(gb, want[2])
            assert same_bytes(grad[:6], gw)
            assert same_bytes(grad[6], gb)
            assert probe._loss(w, logits, logz, onehot,
                               probe.DEFAULT_L2).hex() == loss.hex()


# ---------------------------------------------------------------------------
# bootstrap_eval

def test_report_shape_and_range():
    x, y = blobs(n_per_class=50)
    rep = bootstrap_eval(x, y, splits=10, seed=0, task="demo")
    assert len(rep.aucs) == 10
    assert rep.task == "demo" and rep.budget == "all"
    assert all(0.0 <= a <= 1.0 for a in rep.aucs)
    assert rep.mean > 0.9  # well-separated blobs


def test_budget_all_equals_fraction_one():
    x, y = blobs(n_per_class=30)
    assert bootstrap_eval(x, y, budget="all", seed=5).aucs == \
        bootstrap_eval(x, y, budget=1.0, seed=5).aucs


def test_count_budget_trains_on_exact_count():
    x, y = blobs(n_per_class=100)
    rep = bootstrap_eval(x, y, budget=50, seed=1)
    assert rep.train_sizes == (50,) * 10
    assert rep.budget == "50"


def test_count_budget_keeps_class_ratio():
    rng = np.random.default_rng(0)
    y = np.array([0] * 400 + [1] * 200)
    x = rng.normal(size=(600, 4)) + y[:, None]
    rep = bootstrap_eval(x, y, budget=51, seed=2)
    assert rep.train_sizes == (51,) * 10
    # 2:1 ratio: exact quota is 34/17; largest remainder keeps it within one
    from slidessl.probe import _apply_budget, _stratified_split
    for split in range(10):
        srng = np.random.default_rng([2, 3, split])
        train_idx, _ = _stratified_split(y, 0.2, srng)
        kept = _apply_budget(train_idx, y, 51, srng)
        n0 = int((y[kept] == 0).sum())
        assert abs(n0 - 34) <= 1 and kept.size == 51


def test_fraction_budget():
    x, y = blobs(n_per_class=50)
    rep = bootstrap_eval(x, y, budget=0.25, seed=0)
    assert rep.budget == "0.25"
    assert all(size == 20 for size in rep.train_sizes)  # 0.25 * 80


# per-split AUCs of the seeded matrix below, recorded under the backtracking
# gradient descent that preceded the accelerated solver; the optimum, not
# the solver's path, decides them, so a change here changes the fit
PINNED_AUCS = {
    "all": (0.75, 0.5208333333333334, 0.6180555555555556, 0.6111111111111112,
            0.7986111111111112, 0.7430555555555556, 0.5555555555555556,
            0.7986111111111112, 0.4861111111111111, 0.6458333333333334),
    20: (0.6527777777777778, 0.6527777777777778, 0.5, 0.4375,
         0.5069444444444444, 0.6458333333333334, 0.4652777777777778,
         0.5347222222222222, 0.2013888888888889, 0.625),
}


@pytest.mark.parametrize("budget", ["all", 20])
def test_aucs_match_pinned_values(budget):
    rng = np.random.default_rng(9)
    y = np.arange(120) % 2
    x = rng.normal(size=(120, 8))
    x[:, 0] += 1.2 * y
    rep = bootstrap_eval(x, y, budget=budget, seed=5, normalization="standard")
    assert rep.aucs == PINNED_AUCS[budget]


def test_same_seed_reproduces_report():
    x, y = blobs(n_per_class=25)
    assert bootstrap_eval(x, y, seed=7) == bootstrap_eval(x, y, seed=7)


def test_different_seed_changes_splits():
    x, y = blobs(n_per_class=25, sep=0.4, seed=1)
    assert bootstrap_eval(x, y, seed=0).aucs != bootstrap_eval(x, y, seed=1).aucs


def test_shuffled_labels_score_near_chance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 8))
    y = np.array([0, 1] * 100)
    for seed in range(3):
        rep = bootstrap_eval(x, rng.permutation(y), seed=seed)
        assert 0.35 <= rep.mean <= 0.65


@pytest.mark.parametrize("kwargs", [{"splits": 0}, {"seed": -1}])
def test_no_splits_and_negative_seed_rejected(kwargs):
    x, y = blobs(n_per_class=10)
    with pytest.raises(ValidationError, match="split|seed"):
        bootstrap_eval(x, y, **kwargs)


def test_budget_below_class_count_rejected():
    x, y = blobs(n_per_class=20, n_classes=3)
    with pytest.raises(BudgetTooSmall):
        bootstrap_eval(x, y, budget=2, seed=0)


def test_budget_exceeding_train_rejected():
    x, y = blobs(n_per_class=10)
    with pytest.raises(BudgetTooSmall):
        bootstrap_eval(x, y, budget=100, seed=0)


def test_singleton_class_rejected():
    x = np.random.default_rng(0).normal(size=(21, 3))
    y = np.array([0] * 20 + [1])
    with pytest.raises(BudgetTooSmall):
        bootstrap_eval(x, y, seed=0)


def test_row_label_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        bootstrap_eval(np.zeros((4, 2)), np.zeros(5))


def test_test_fraction_respected():
    assert TEST_FRACTION == 0.2
    x, y = blobs(n_per_class=50)
    rep = bootstrap_eval(x, y, seed=0)
    assert rep.train_sizes == (80,) * 10


# ---------------------------------------------------------------------------
# Label and report files

def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("slide_id,label\ns1,tumor\ns2,normal\ns3,tumor\n")
    assert load_labels_csv(path) == {"s1": "tumor", "s2": "normal", "s3": "tumor"}


def test_labels_csv_bad_header(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,class\ns1,tumor\n")
    with pytest.raises(FormatError):
        load_labels_csv(path)


def test_labels_csv_short_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("slide_id,label\ns1\n")
    with pytest.raises(FormatError):
        load_labels_csv(path)


def test_labels_csv_repeated_id(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("slide_id,label\na,0\nb,1\na,1\n")
    with pytest.raises(FormatError, match="slide id 'a' is repeated"):
        load_labels_csv(path)


def test_labels_csv_empty(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("slide_id,label\n")
    with pytest.raises(FormatError):
        load_labels_csv(path)


def test_align_labels_orders_by_ids():
    got = align_labels(["b", "a"], {"a": "0", "b": "1"})
    assert list(got) == ["1", "0"]


def test_align_labels_missing_id():
    with pytest.raises(DegenerateLabels):
        align_labels(["a", "b"], {"a": "0"})


def test_report_csv_layout(tmp_path):
    rep = ProbeReport("demo", "all", (0.5, 0.75), (8, 8))
    path = tmp_path / "report.csv"
    write_report_csv(path, [rep])
    assert path.read_text() == (
        "task,budget,split,auc\n"
        "demo,all,0,0.5\n"
        "demo,all,1,0.75\n"
        "demo,all,mean,0.625\n"
        "demo,all,std,0.125\n")


def test_report_table_alignment():
    reps = [ProbeReport("ssl", "all", (0.9, 0.9), (80, 80)),
            ProbeReport("baseline", "50", (0.5, 0.7), (50, 50))]
    table = format_report_table(reps)
    lines = table.splitlines()
    assert lines[0].split() == ["task", "budget", "n_train", "auc"]
    assert lines[1].startswith("ssl")
    assert "0.9000 +- 0.0000" in lines[1]
    assert "0.6000 +- 0.1000" in lines[2]
    # columns align: 'budget' column starts at the same offset everywhere
    offset = lines[0].index("budget")
    assert lines[1][offset:offset + 3] in ("all", "50 ")
