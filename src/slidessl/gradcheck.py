"""Finite-difference verification of every hand-written backward pass.

Each op in ``CHECKS`` has a builder that draws one small random instance and
returns ``(loss, inputs, grads)``: a random linear probe loss that reads the
input arrays in place, those arrays, and their analytic gradients. One
harness, ``_worst_err``, perturbs each input in place, compares central
differences of ``loss()`` with the analytic gradient and restores the input.
Instance i of an op draws from the stream ``[seed, tag, i]``. Batch norm
has a backward in training mode only, and no loss restores its running
buffers: it folds batch statistics into them but normalizes with the batch
statistics, so they never reach the loss. The conv and network ops take
their pairs from ``view_pairs``, as training does. The network op checks
parameter gradients only, as the network makes no input-feature gradient;
block 0's parameter gradients still test every later block's input
gradient, and the ``submconv`` op the conv's own.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, check_seed
from .numcore import (
    ParamStore,
    finite_diff_grad,
    init_params,
    max_rel_err,
    mlp_projector_backward,
    mlp_projector_forward,
    projector_shapes,
)
from .sparseconv import (
    PoolingNetwork,
    PoolingNetworkConfig,
    global_average_pool,
    global_average_pool_backward,
    map_rows,
    network_shapes,
    sparse_batchnorm_backward,
    sparse_batchnorm_forward,
    submconv_forward,
    submconv_input_grad,
    submconv_weight_grad,
    view_pairs,
)
from .sparsemap import SparseMap
from .training import nt_xent

DEFAULT_INSTANCES = 20
PASS_BOUND = 1e-4


def _worst_err(loss, inputs, grads) -> float:
    """Largest relative error of each analytic gradient against central
    differences of ``loss()`` in its input, perturbed in place and restored."""
    worst = 0.0
    for x, grad in zip(inputs, grads):
        saved = x.copy()

        def at(v, x=x):
            x[...] = v
            return loss()

        fd = finite_diff_grad(at, saved)
        x[...] = saved
        worst = max(worst, max_rel_err(grad.ravel(), fd.ravel()))
    return worst


def _random_map(rng, n_sites, channels, extent=6) -> SparseMap:
    flat = rng.choice(extent * extent, size=n_sites, replace=False)
    sites = np.stack([flat // extent, flat % extent], axis=1).astype(np.int64)
    feats = rng.normal(size=(n_sites, channels))
    return SparseMap(sites - sites.min(axis=0), feats)


def _submconv(rng):
    c_in, c_out = rng.integers(1, 4), rng.integers(1, 4)
    smap = _random_map(rng, rng.integers(3, 9), c_in)
    pairs = view_pairs(np.zeros(smap.n_sites, np.int64), smap.sites, 3)
    w = rng.normal(size=(3, 3, c_in, c_out))
    probe = rng.normal(size=(smap.n_sites, c_out))

    def loss():
        return float((submconv_forward(smap.features, w, pairs) * probe).sum())

    dw = np.zeros_like(w)
    submconv_weight_grad(probe, smap.features, pairs, dw)
    return (loss, (smap.features, w),
            (submconv_input_grad(probe, w, pairs), dw))


def _batchnorm(rng):
    n, c = rng.integers(2, 9), rng.integers(1, 5)
    x = rng.normal(size=(n, c))
    gamma, beta = rng.normal(size=c), rng.normal(size=c)
    running = rng.normal(size=c), rng.random(c) + 0.5
    probe = rng.normal(size=(n, c))

    def forward():
        return sparse_batchnorm_forward(x, gamma, beta, *running)

    grads = sparse_batchnorm_backward(probe, forward()[1])
    return lambda: float((forward()[0] * probe).sum()), (x, gamma, beta), grads


def _global_average_pool(rng):
    sizes = rng.integers(1, 9, size=int(rng.integers(1, 4)))
    c = int(rng.integers(1, 5))
    ends = np.cumsum(sizes)
    segs = list(zip((ends - sizes).tolist(), ends.tolist()))
    x = rng.normal(size=(int(ends[-1]), c))
    probe = rng.normal(size=(len(segs), c))

    def loss():
        return float((global_average_pool(x, segs) * probe).sum())

    return loss, (x,), (global_average_pool_backward(probe, segs),)


def _projector(rng):
    n, d_in, d_out = rng.integers(1, 5), rng.integers(2, 5), rng.integers(2, 5)
    store = ParamStore(init_params(projector_shapes(d_in, d_out), rng, np.float64))
    x = rng.normal(size=(n, d_in))
    probe = rng.normal(size=(n, d_out))

    def loss():
        return float((mlp_projector_forward(x, store.params)[0] * probe).sum())

    dx, grads = mlp_projector_backward(
        probe, mlp_projector_forward(x, store.params)[1])
    return loss, [x, *store.params.values()], [dx] + [grads[k] for k in store.params]


def _nt_xent(rng):
    b, d = rng.integers(2, 5), rng.integers(2, 6)
    z = rng.normal(size=(2 * b, d))
    tau = float(rng.uniform(0.2, 2.0))
    return lambda: nt_xent(z, tau)[0], (z,), (nt_xent(z, tau)[1],)


def _randomize_network(net: PoolingNetwork, rng: np.random.Generator) -> None:
    """Move every parameter and buffer off its init value.

    Fresh networks have zero biases and identity-like BN, which lines
    whole neighborhoods up at exact ReLU hinges where the loss is not
    differentiable and finite differences measure a subgradient average.
    Generic values make every hinge coordinate land strictly off zero.
    """
    for name, p in net.store.params.items():
        if name.endswith(("beta", "head.b")):
            p[...] = 0.3 * rng.normal(size=p.shape)
        elif name.endswith("gamma"):
            p[...] = rng.uniform(0.5, 1.5, size=p.shape)
    for name, buf in net.buffers.items():
        if name.endswith("run_mean"):
            buf[...] = 0.2 * rng.normal(size=buf.shape)
        else:
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)


def _network(rng):
    """End to end through conv, BN, ReLU, residual merge, GAP, head; the
    rows are built once, as only parameters are perturbed."""
    c_in = int(rng.integers(2, 4))
    cfg = PoolingNetworkConfig(in_channels=c_in, block_channels=(3, 3),
                               kernel_size=3, out_dim=3)
    store = ParamStore(init_params(network_shapes(cfg), rng, np.float64))
    net = PoolingNetwork(cfg, store)
    _randomize_network(net, rng)
    maps = [_random_map(rng, int(rng.integers(2, 6)), c_in)
            for _ in range(int(rng.integers(2, 4)))]
    probe = 0.01 * rng.normal(size=(len(maps), cfg.out_dim))
    rows = map_rows(maps, cfg.kernel_size)

    def loss():
        return float((net.forward_rows(*rows)[0] * probe).sum())

    net.backward(probe, net.forward_rows(*rows)[1])
    return loss, [*store.params.values()], [*store.grads.values()]


CHECKS = (
    ("submconv", 10, _submconv),
    ("batchnorm_train", 11, _batchnorm),
    ("global_average_pool", 12, _global_average_pool),
    ("projector", 13, _projector),
    ("nt_xent", 14, _nt_xent),
    ("network_train", 15, _network),
)


def run_gradcheck(n_instances: int = DEFAULT_INSTANCES, seed: int = 0) -> dict:
    """Max relative error per op over ``n_instances`` random instances each;
    fewer than one instance or a negative seed is a ``ValidationError``."""
    if n_instances < 1:
        raise ValidationError(f"gradcheck needs at least 1 instance, "
                              f"got {n_instances}")
    check_seed(seed)
    return {name: max(_worst_err(*build(np.random.default_rng([seed, tag, i])))
                      for i in range(n_instances))
            for name, tag, build in CHECKS}


def format_gradcheck_report(results: dict) -> str:
    width = max(len(name) for name in results)
    lines = []
    for name, err in results.items():
        flag = "ok" if err < PASS_BOUND else "FAIL"
        lines.append(f"{name.ljust(width)}  {err:.3e}  {flag}")
    overall = "PASS" if all(e < PASS_BOUND for e in results.values()) else "FAIL"
    lines.append(f"{'overall'.ljust(width)}  bound {PASS_BOUND:.0e}  {overall}")
    return "\n".join(lines)
