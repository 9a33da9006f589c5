"""Finite-difference verification of every hand-written backward pass.

Each checker builds a batch of small random problem instances, pushes a
random linear probe loss through the analytic backward pass, and compares
against central differences. Probe directions are kept small where a
composed path contains train-mode batch normalization: a convolution bias
feeding train-mode BN has an exactly-zero analytic gradient, and a small
loss scale keeps the finite-difference roundoff on those coordinates below
the relative-error floor.
"""

from __future__ import annotations

import numpy as np

from .numcore import (
    ParamStore,
    finite_diff_grad,
    init_projector,
    max_rel_err,
    mlp_projector_backward,
    mlp_projector_forward,
)
from .sparseconv import (
    PoolingNetwork,
    PoolingNetworkConfig,
    build_rulebook,
    global_average_pool,
    global_average_pool_backward,
    sparse_batchnorm_backward,
    sparse_batchnorm_forward,
    submconv_backward,
    submconv_forward,
)
from .sparsemap import SparseMap
from .training import nt_xent

DEFAULT_INSTANCES = 20
PASS_BOUND = 1e-4


def _random_map(rng, n_sites, channels, extent=6) -> SparseMap:
    flat = rng.choice(extent * extent, size=n_sites, replace=False)
    sites = np.stack([flat // extent, flat % extent], axis=1).astype(np.int64)
    feats = rng.normal(size=(n_sites, channels))
    return SparseMap(sites - sites.min(axis=0), feats)


def check_submconv(n_instances=DEFAULT_INSTANCES, seed=0) -> float:
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng([seed, 10, i])
        c_in, c_out = rng.integers(1, 4), rng.integers(1, 4)
        smap = _random_map(rng, rng.integers(3, 9), c_in)
        pairs = build_rulebook(smap, 3).pairs
        w = rng.normal(size=(3, 3, c_in, c_out))
        b = rng.normal(size=c_out)
        probe = rng.normal(size=(smap.n_sites, c_out))

        def loss(feats, weights, bias):
            out = submconv_forward(feats.reshape(smap.features.shape),
                                   weights.reshape(w.shape), bias, pairs)
            return float((out * probe).sum())

        dx, dw, db = submconv_backward(probe, smap.features, w, pairs)
        worst = max(
            worst,
            max_rel_err(dx.ravel(),
                        finite_diff_grad(lambda v: loss(v, w.ravel(), b),
                                         smap.features.ravel())),
            max_rel_err(dw.ravel(),
                        finite_diff_grad(
                            lambda v: loss(smap.features.ravel(), v, b),
                            w.ravel())),
            max_rel_err(db, finite_diff_grad(
                lambda v: loss(smap.features.ravel(), w.ravel(), v), b)))
    return worst


def check_batchnorm(n_instances=DEFAULT_INSTANCES, seed=0,
                    training=True) -> float:
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng([seed, 11, i])
        n, c = rng.integers(2, 9), rng.integers(1, 5)
        x = rng.normal(size=(n, c))
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        running = rng.normal(size=c), rng.random(c) + 0.5
        probe = rng.normal(size=(n, c))

        def loss(xf, gamma, beta):
            y, _ = sparse_batchnorm_forward(
                xf.reshape(n, c), gamma, beta, *(r.copy() for r in running),
                training=training)
            return float((y * probe).sum())

        y, cache = sparse_batchnorm_forward(x, gamma, beta, *running,
                                            training=training)
        dx, dgamma, dbeta = sparse_batchnorm_backward(probe, cache)
        worst = max(
            worst,
            max_rel_err(dx.ravel(), finite_diff_grad(
                lambda v: loss(v, gamma, beta), x.ravel())),
            max_rel_err(dgamma, finite_diff_grad(
                lambda v: loss(x.ravel(), v, beta), gamma)),
            max_rel_err(dbeta, finite_diff_grad(
                lambda v: loss(x.ravel(), gamma, v), beta)))
    return worst


def check_global_average_pool(n_instances=DEFAULT_INSTANCES, seed=0) -> float:
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng([seed, 12, i])
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 4)))
        c = int(rng.integers(1, 5))
        ends = np.cumsum(sizes)
        segs = list(zip((ends - sizes).tolist(), ends.tolist()))
        x = rng.normal(size=(int(ends[-1]), c))
        probe = rng.normal(size=(len(segs), c))
        analytic = global_average_pool_backward(probe, segs)

        def loss(v):
            return float((global_average_pool(v.reshape(x.shape), segs)
                          * probe).sum())

        fd = finite_diff_grad(loss, x.ravel())
        worst = max(worst, max_rel_err(analytic.ravel(), fd))
    return worst


def check_projector(n_instances=DEFAULT_INSTANCES, seed=0) -> float:
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng([seed, 13, i])
        n, d_in, d_out = rng.integers(1, 5), rng.integers(2, 5), rng.integers(2, 5)
        store = ParamStore()
        init_projector(store, d_in, d_out, rng, dtype=np.float64)
        x = rng.normal(size=(n, d_in))
        probe = rng.normal(size=(n, d_out))

        def loss_x(v):
            z, _ = mlp_projector_forward(v.reshape(n, d_in), store.params)
            return float((z * probe).sum())

        z, cache = mlp_projector_forward(x, store.params)
        dx, grads = mlp_projector_backward(probe, cache)
        worst = max(worst, max_rel_err(
            dx.ravel(), finite_diff_grad(loss_x, x.ravel())))
        for name in store.names():
            def loss_p(v, name=name):
                saved = store.params[name].copy()
                store.params[name][...] = v.reshape(saved.shape)
                z, _ = mlp_projector_forward(x, store.params)
                store.params[name][...] = saved
                return float((z * probe).sum())

            fd = finite_diff_grad(loss_p, store.params[name].ravel())
            worst = max(worst, max_rel_err(grads[name].ravel(), fd))
    return worst


def check_nt_xent(n_instances=DEFAULT_INSTANCES, seed=0) -> float:
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng([seed, 14, i])
        b, d = rng.integers(2, 5), rng.integers(2, 6)
        z = rng.normal(size=(2 * b, d))
        tau = float(rng.uniform(0.2, 2.0))
        _, grad = nt_xent(z, temperature=tau)
        fd = finite_diff_grad(
            lambda v: nt_xent(v.reshape(z.shape), temperature=tau)[0], z.ravel())
        worst = max(worst, max_rel_err(grad.ravel(), fd))
    return worst


def _randomize_network(net: PoolingNetwork, store: ParamStore,
                       rng: np.random.Generator) -> None:
    """Move every parameter and buffer off its init value.

    Fresh networks have zero biases and identity-like eval BN, which lines
    whole neighborhoods up at exact ReLU hinges where the loss is not
    differentiable and finite differences measure a subgradient average.
    Generic values make every hinge coordinate land strictly off zero.
    """
    for name in store.names():
        p = store.params[name]
        if name.endswith(("conv1.b", "conv2.b", "beta", "head.b")):
            p[...] = 0.3 * rng.normal(size=p.shape)
        elif name.endswith("gamma"):
            p[...] = rng.uniform(0.5, 1.5, size=p.shape)
    for name, buf in net.buffers.items():
        if name.endswith("run_mean"):
            buf[...] = 0.2 * rng.normal(size=buf.shape)
        else:
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)


def check_network(n_instances=DEFAULT_INSTANCES, seed=0, training=True) -> float:
    """End-to-end check through conv, BN, ReLU, residual merge, GAP, head."""
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng([seed, 15, i])
        c_in = int(rng.integers(2, 4))
        cfg = PoolingNetworkConfig(in_channels=c_in, block_channels=(3, 3),
                                   kernel_size=3, out_dim=3)
        store = ParamStore()
        net = PoolingNetwork(cfg, store, rng, dtype=np.float64)
        _randomize_network(net, store, rng)
        maps = [_random_map(rng, int(rng.integers(2, 6)), c_in)
                for _ in range(int(rng.integers(2, 4)))]
        # small probe: see module docstring on BN and structural zeros;
        # train mode needs the smaller scale, eval has no zero-grad params
        scale = 0.001 if training else 0.01
        probe = scale * rng.normal(size=(len(maps), cfg.out_dim))

        def run(feature_list):
            ms = [SparseMap(m.sites, f.reshape(m.features.shape))
                  for m, f in zip(maps, feature_list)]
            out, cache = net.forward(ms, training=training)
            return out, cache

        out, cache = run([m.features for m in maps])
        store.zero_grads()
        dmaps = net.backward(probe, cache)

        flat = np.concatenate([m.features.ravel() for m in maps])
        splits = np.cumsum([m.features.size for m in maps])[:-1]

        def loss_features(v):
            parts = np.split(v, splits)
            out, _ = run(parts)
            return float((out * probe).sum())

        analytic_x = np.concatenate([d.ravel() for d in dmaps])
        worst = max(worst, max_rel_err(
            analytic_x, finite_diff_grad(loss_features, flat)))

        for name in store.names():
            def loss_param(v, name=name):
                saved = store.params[name].copy()
                buffers = {k: b.copy() for k, b in net.buffers.items()}
                store.params[name][...] = v.reshape(saved.shape)
                out, _ = run([m.features for m in maps])
                store.params[name][...] = saved
                for k, b in buffers.items():
                    net.buffers[k][...] = b
                return float((out * probe).sum())

            fd = finite_diff_grad(loss_param, store.params[name].ravel())
            worst = max(worst, max_rel_err(store.grads[name].ravel(), fd))
    return worst


CHECKS = (
    ("submconv", check_submconv),
    ("batchnorm_train", lambda n, s: check_batchnorm(n, s, training=True)),
    ("batchnorm_eval", lambda n, s: check_batchnorm(n, s, training=False)),
    ("global_average_pool", check_global_average_pool),
    ("projector", check_projector),
    ("nt_xent", check_nt_xent),
    ("network_train", lambda n, s: check_network(n, s, training=True)),
    ("network_eval", lambda n, s: check_network(n, s, training=False)),
)


def run_gradcheck(n_instances: int = DEFAULT_INSTANCES, seed: int = 0) -> dict:
    """Max relative error per op over ``n_instances`` random instances each."""
    return {name: fn(n_instances, seed) for name, fn in CHECKS}


def format_gradcheck_report(results: dict) -> str:
    width = max(len(name) for name in results)
    lines = []
    for name, err in results.items():
        flag = "ok" if err < PASS_BOUND else "FAIL"
        lines.append(f"{name.ljust(width)}  {err:.3e}  {flag}")
    overall = "PASS" if all(e < PASS_BOUND for e in results.values()) else "FAIL"
    lines.append(f"{'overall'.ljust(width)}  bound {PASS_BOUND:.0e}  {overall}")
    return "\n".join(lines)
