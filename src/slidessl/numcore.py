"""Numeric substrate: parameter store, Adam, finite differences, projector.

Tensors are plain numpy arrays (row-major, float64 in tests, float32 allowed
for training). The store lays parameters, gradients and Adam moments out
once, as rows of one buffer, from a name -> value table that ``init_params``
draws from the modules' name -> shape tables. Every learnable module ships a
hand-derived backward pass; ``finite_diff_grad`` plus ``max_rel_err`` form
the oracle those passes are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .container import Reader, string, u32, write_atomic
from .errors import (DimensionMismatch, FormatError, NonFiniteGradient,
                     ValidationError, check_positive)

CHECKPOINT_MAGIC = b"GSCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        check_positive(lr=self.lr, eps=self.eps)
        check_positive(allow_zero=True, weight_decay=self.weight_decay)
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 < b < 1.0):
                raise ValidationError(f"{name} must lie in (0, 1), got {b}")


class ParamStore:
    """Named parameters with aligned gradients and Adam moments.

    ``arrays`` (name -> initial value, one dtype) are laid out once, in
    order, along ``buffer``, whose rows are (parameters, gradients, m, v);
    ``params``, ``grads``, ``m`` and ``v`` map each name to its view of a
    row, so a network holds names, never arrays. ``t`` counts Adam steps.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        arrays = {name: np.asarray(value) for name, value in arrays.items()}
        dtypes = {value.dtype for value in arrays.values()}
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got {dtypes}")
        bounds = np.cumsum([0, *(value.size for value in arrays.values())]).tolist()
        self.buffer = np.zeros((4, bounds[-1]), *dtypes)
        self.params, self.grads, self.m, self.v = per_row = ({}, {}, {}, {})
        self.t = 0
        for (name, value), lo, hi in zip(arrays.items(), bounds, bounds[1:]):
            rows = self.buffer[:, lo:hi].reshape(4, *value.shape)
            rows[0] = value
            for i, views in enumerate(per_row):
                views[name] = rows[i, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    def zero_grads(self):
        self.buffer[1] = 0.0

    def accumulate(self, name: str, grad: np.ndarray):
        if grad.shape != self.params[name].shape:
            raise DimensionMismatch(
                f"gradient for '{name}' has shape {grad.shape}, "
                f"parameter has {self.params[name].shape}")
        self.grads[name] += grad


#: Elements per block of ``adam_step``. At 291,840 float32 parameters (F = 256,
#: a 64-64 network; 2-core Haswell guest) a step took 1.18-1.25 ms in whole rows
#: and 0.90 / 0.84 / 0.81 / 0.88 / 1.04 ms in blocks of 16 / 32 / 64 / 128 / 256K.
ADAM_BLOCK = 65536


def adam_step(store: ParamStore, cfg: AdamConfig):
    """Bias-corrected Adam update in place; zeroes gradients, increments t.

    The whole gradient row is checked before any parameter moves, so a
    non-finite gradient aborts the step without partial updates and names
    the first parameter holding one. The update then runs in blocks of
    ``ADAM_BLOCK`` elements that stay in cache, through two scratch blocks,
    with the operations and order of whole-row Adam, so its bytes are theirs.
    """
    g = store.buffer[1]
    if not np.isfinite(g).all():
        name = next(n for n, gn in store.grads.items() if not np.isfinite(gn).all())
        raise NonFiniteGradient(f"non-finite gradient for parameter '{name}'")
    t = store.t + 1
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    scratch = np.empty((2, min(ADAM_BLOCK, g.size)), g.dtype)
    for lo in range(0, g.size, ADAM_BLOCK):
        pb, gb, mb, vb = store.buffer[:, lo:lo + ADAM_BLOCK]
        sa, sb = scratch[:, :len(pb)]
        if cfg.weight_decay != 0.0:
            gb = np.add(gb, np.multiply(cfg.weight_decay, pb, out=sa), out=sa)
        mb *= cfg.beta1
        mb += np.multiply(1.0 - cfg.beta1, gb, out=sb)
        vb *= cfg.beta2
        vb += np.multiply(1.0 - cfg.beta2, np.square(gb, out=sb), out=sb)
        step = np.multiply(cfg.lr, np.divide(mb, bc1, out=sa), out=sa)
        root = np.sqrt(np.divide(vb, bc2, out=sb), out=sb)
        pb -= np.divide(step, np.add(root, cfg.eps, out=sb), out=sa)
    store.t = t
    store.zero_grads()


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Works on a private copy of ``x`` so callers that alias it (for example a
    probe closure restoring a parameter from the same array) stay unharmed.
    """
    x = np.array(x, dtype=np.float64)
    out = np.zeros_like(x)
    for k in np.ndindex(x.shape):
        orig = x[k]
        x[k] = orig + h
        fp = float(f(x))
        x[k] = orig - h
        fm = float(f(x))
        x[k] = orig
        out[k] = (fp - fm) / (2.0 * h)
    return out


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest element-wise relative error, floored denominator 1e-8."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise DimensionMismatch(f"shapes {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom))


# ---------------------------------------------------------------------------
# Projection head: Linear(C -> C) -> ReLU -> Linear(C -> D_proj)

PROJECTOR_DIM = 128


def projector_shapes(c_in: int, d_proj: int) -> dict[str, tuple[int, ...]]:
    """The projector's parameters, name -> shape, in layout order."""
    return {"proj.w1": (c_in, c_in), "proj.b1": (c_in,),
            "proj.w2": (c_in, d_proj), "proj.b2": (d_proj,)}


def init_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator,
                dtype) -> dict[str, np.ndarray]:
    """Initial values of a name -> shape table, drawn in table order.

    A weight (last name part ``w``, ``w1`` or ``w2``) is He-normal over its
    fan-in, the product of every axis but the last (arXiv 1502.01852), with
    unit gain for ``net.head.w``; a ``gamma`` is one, everything else zero.
    """
    values = {}
    for name, shape in shapes.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("w"):
            gain = 1.0 if name == "net.head.w" else 2.0
            std = np.sqrt(gain / math.prod(shape[:-1]))
            values[name] = rng.normal(0.0, std, size=shape).astype(dtype)
        else:
            values[name] = (np.ones if leaf == "gamma" else np.zeros)(shape, dtype)
    return values


def mlp_projector_forward(x: np.ndarray, params: dict[str, np.ndarray]
                          ) -> tuple[np.ndarray, dict]:
    """Two-layer perceptron x @ w1 + b1 -> ReLU -> @ w2 + b2 on a batch of
    row vectors; returns the output rows plus a cache for the backward pass.
    """
    w1, b1 = params["proj.w1"], params["proj.b1"]
    w2, b2 = params["proj.w2"], params["proj.b2"]
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise DimensionMismatch(
            f"projector input has shape {x.shape}, expected (*, {w1.shape[0]})")
    h = x @ w1 + b1
    a = np.maximum(h, 0.0)
    z = a @ w2 + b2
    return z, {"x": x, "h": h, "a": a, "w1": w1, "w2": w2}


def mlp_projector_backward(grad_out: np.ndarray, cache: dict
                           ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Exact gradients of the projector w.r.t. input and parameters."""
    dz = np.asarray(grad_out)
    a, h, x = cache["a"], cache["h"], cache["x"]
    w1, w2 = cache["w1"], cache["w2"]
    if dz.shape != (x.shape[0], w2.shape[1]):
        raise DimensionMismatch(
            f"grad_out has shape {dz.shape}, "
            f"expected ({x.shape[0]}, {w2.shape[1]})")
    dw2 = a.T @ dz
    db2 = dz.sum(axis=0)
    da = dz @ w2.T
    dh = da * (h > 0.0)
    dw1 = x.T @ dh
    db1 = dh.sum(axis=0)
    dx = dh @ w1.T
    return dx, {"proj.w1": dw1, "proj.b1": db1, "proj.w2": dw2, "proj.b2": db2}


# ---------------------------------------------------------------------------
# Checkpoint format: a ``container`` (magic "GSCK", version 1) with header field
# array count, then per array its name (string), u32 rank, u32 dims and raw
# float32 data. Optimizer moments ride along under names suffixed .m / .v.

def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    def chunks():
        yield CHECKPOINT_MAGIC + u32(CHECKPOINT_VERSION, len(arrays))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            yield string(name) + u32(arr.ndim, *arr.shape)
            yield np.ascontiguousarray(arr, dtype="<f4")

    write_atomic(path, chunks())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    reader = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 1)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(reader.fields[0]):
        name = reader.string("name")
        if name in arrays:
            raise FormatError(f"{reader.name}: array '{name}' is repeated")
        (rank,) = reader.u32(1, "rank")
        if rank > 32:   # numpy 1.x's limit; numpy 2 allows 64
            raise FormatError(f"{reader.name}: '{name}' has rank {rank} > 32")
        shape = reader.u32(rank, "shape")
        arrays[name] = reader.array("<f4", shape, f"data of '{name}'").copy()
    reader.end()
    return arrays
