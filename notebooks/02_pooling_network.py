"""
The sparse pooling network, checked against oracles
===================================================

A two-block residual convnet runs directly on the active lattice sites of
a sparse map (inactive sites stay inactive, so sparsity is preserved) and
global-average-pools into one slide vector. Everything here is plain
numpy with hand-written backward passes, so we lean on two oracles: a
dense zero-padded convolution and central finite differences.
"""

import numpy as np

from slidessl import (
    PoolingNetwork,
    PoolingNetworkConfig,
    ParamStore,
    run_gradcheck,
    format_gradcheck_report,
    submconv_forward,
)
from slidessl.numcore import init_params
from slidessl.sparseconv import kernel_offsets, network_shapes, view_pairs
from slidessl.sparsemap import SparseMap

rng = np.random.default_rng(0)

### A sparse map and its adjacency ##########################################
# The adjacency holds, per kernel offset, the (input site, output site)
# index pairs. Convolution is then a handful of gathers and matmuls.
# view_pairs builds it for maps laid out as rows, view after view; here
# every row belongs to view 0, the one map.

sites = np.array([[0, 0], [0, 1], [1, 1], [3, 2]])
smap = SparseMap(sites, rng.normal(size=(4, 3)))
pairs = view_pairs(np.zeros(smap.n_sites, np.int64), smap.sites, kernel_size=3)
for o, offset in enumerate(kernel_offsets(3)):
    if len(pairs[o]):
        print(f"offset {offset}: {len(pairs[o])} pair(s)")

### One convolution, against the dense oracle ################################

w = rng.normal(size=(3, 3, 3, 5))
out = submconv_forward(smap.features, w, pairs)

dense = np.zeros((8, 8, 3))
for (i, j), f in zip(smap.sites, smap.features):
    dense[i, j] = f
want = []
for i, j in smap.sites:
    acc = np.zeros(5)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if 0 <= i + di < 8 and 0 <= j + dj < 8:
                acc = acc + dense[i + di, j + dj] @ w[di + 1, dj + 1]
    want.append(acc)
print("max |sparse - dense|:", float(np.abs(out - np.stack(want)).max()))

### The full network #########################################################

cfg = PoolingNetworkConfig(in_channels=3, block_channels=(8, 8), out_dim=6)
# the network's name -> shape table, initialised and laid out in one store
store = ParamStore(init_params(network_shapes(cfg), rng, np.float64))
net = PoolingNetwork(cfg, store)
# eval mode: batch norm normalizes with the running statistics, folded
# into the convs (PoolingNetwork.embed_rows)
vec = net.forward([smap], training=False)[0][0]
print("pooled slide vector:", np.round(vec, 3))

### Gradients against finite differences #####################################
# Every differentiable op is compared to the central-difference estimate
# at randomized parameters. Three instances per op keeps this demo quick;
# the test suite runs twenty.

results = run_gradcheck(n_instances=3, seed=1)
print(format_gradcheck_report(results))
