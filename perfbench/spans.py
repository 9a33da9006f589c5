"""Spans and counts around the public functions of each slidessl layer.

``install(tracer)`` rebinds every public function named in ``TARGETS`` (and
the two ``PoolingNetwork`` passes) to a wrapper that opens a span and bumps
the layer's counters, in every slidessl module that refers to it, so calls
made inside the package are seen too. The returned function puts the
originals back. The program's files are not touched.

A span is (name, start, end, parent). Parents are tracked per thread, so a
span opened in an embedding worker thread has no parent. A span's self time
is its duration minus the durations of its children.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from slidessl import bank, inference, numcore, probe, sparseconv, sparsemap, training


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, scale]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._unsettled = 0

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else None, None])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, value: float = 1):
        with self._lock:
            self.counts[name] += value

    def settle(self, scale: float):
        """Give every span opened since the last call the scale factor of the
        timed operation that contained it."""
        for rec in self.spans[self._unsettled:]:
            rec[4] = scale
        self._unsettled = len(self.spans)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds per span name, at reference speed."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, scale in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _, scale), inner in zip(self.spans, child):
            scale = 1.0 if scale is None else scale
            total[name] += (end - start) * scale
            own[name] += (end - start - inner) * scale
        return total, own


def _bank_bytes(b) -> int:
    return 20 + b.n_augs * b.n_tiles * (8 + 4 * b.feat_dim)


def _pairs(book) -> int:
    return sum(len(p) for p in book.pairs)


# (module, function, span name or None, {counter: f(args, result)})
TARGETS = [
    (bank, "load_bank", "bank.load",
     {"bank.bytes": lambda a, r: _bank_bytes(r)}),
    (sparsemap, "build_sparse_map", "sparsemap.build",
     {"sparsemap.tiles_in": lambda a, r: len(
         a[0][0] if isinstance(a[0], tuple) else a[0]),
      "sparsemap.sites_out": lambda a, r: r.n_sites}),
    (sparsemap, "augment_sparse_map", "sparsemap.augment", {}),
    (sparseconv, "build_rulebook", "sparseconv.rulebook",
     {"sparseconv.rulebook_calls": lambda a, r: 1,
      "sparseconv.pairs": lambda a, r: _pairs(r)}),
    (sparseconv, "merge_rulebooks", "sparseconv.merge", {}),
    (sparseconv, "sparse_batchnorm_forward", "sparseconv.batchnorm", {}),
    (sparseconv, "sparse_batchnorm_backward", "sparseconv.batchnorm", {}),
    (numcore, "mlp_projector_forward", "numcore.projector", {}),
    (numcore, "mlp_projector_backward", "numcore.projector", {}),
    (numcore, "adam_step", "numcore.adam", {}),
    (numcore, "save_checkpoint", "numcore.checkpoint", {}),
    (numcore, "load_checkpoint", "numcore.checkpoint", {}),
    (training, "sample_view", "training.sample_view", {}),
    (training, "nt_xent", "training.nt_xent", {}),
    (training, "train_step", "training.step",
     {"training.steps": lambda a, r: 1}),
    (inference, "embed_slide", "inference.embed_slide",
     {"inference.views": lambda a, r: r.r_views}),
    (inference, "embed_dataset", "inference.dataset", {}),
    (probe, "fit_logistic", "probe.fit", {"probe.fits": lambda a, r: 1}),
    # the solver's objective: counted, not spanned (thousands per fit)
    (probe, "_softmax_loss_grad", None, {"probe.loss_evals": lambda a, r: 1}),
    (probe, "auc", "probe.auc", {}),
]

METHODS = [
    ("forward", "sparseconv.forward",
     {"sparseconv.sites": lambda a, r: sum(m.n_sites for m in a[1])}),
    ("backward", "sparseconv.backward", {}),
]


def _wrap(tracer: Tracer, fn, span_name, counters):
    if span_name is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for cname, f in counters.items():
                tracer.count(cname, f(args, result))
            return result
        return counted

    def traced(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        for cname, f in counters.items():
            tracer.count(cname, f(args, result))
        return result
    return traced


def rebind(original, replacement):
    """Point every slidessl module attribute that is ``original`` at
    ``replacement``; returns what it changed, for ``restore``."""
    changed = []
    for name, mod in list(sys.modules.items()):
        if name != "slidessl" and not name.startswith("slidessl."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr, original))
    return changed


def restore(changed):
    for mod, attr, original in reversed(changed):
        setattr(mod, attr, original)


def install(tracer: Tracer):
    """Wrap every target; returns a function that removes the wrappers."""
    changed = []
    for mod, fname, span_name, counters in TARGETS:
        original = getattr(mod, fname)
        changed += rebind(original, _wrap(tracer, original, span_name, counters))
    net = sparseconv.PoolingNetwork
    for mname, span_name, counters in METHODS:
        original = getattr(net, mname)
        setattr(net, mname, _wrap(tracer, original, span_name, counters))
        changed.append((net, mname, original))
    return lambda: restore(changed)


#: per-layer metric -> (span name, "self" or "total") for times, or counter
TIME_METRICS = {
    "bank.load_s": ("bank.load", "self"),
    "sparsemap.build_s": ("sparsemap.build", "self"),
    "sparsemap.augment_s": ("sparsemap.augment", "self"),
    "sparseconv.rulebook_s": ("sparseconv.rulebook", "self"),
    "sparseconv.merge_s": ("sparseconv.merge", "self"),
    "sparseconv.batchnorm_s": ("sparseconv.batchnorm", "self"),
    "sparseconv.forward_self_s": ("sparseconv.forward", "self"),
    "sparseconv.backward_self_s": ("sparseconv.backward", "self"),
    "numcore.projector_s": ("numcore.projector", "self"),
    "numcore.adam_s": ("numcore.adam", "self"),
    "numcore.checkpoint_s": ("numcore.checkpoint", "self"),
    "training.sample_view_self_s": ("training.sample_view", "self"),
    "training.nt_xent_s": ("training.nt_xent", "self"),
    "training.step_self_s": ("training.step", "self"),
    "inference.embed_slide_self_s": ("inference.embed_slide", "self"),
    "inference.dataset_s": ("inference.dataset", "total"),
    "inference.slide_s": ("inference.embed_slide", "total"),
    "probe.fit_s": ("probe.fit", "self"),
    "probe.auc_s": ("probe.auc", "self"),
}

COUNT_METRICS = {
    "bank.bytes": "bytes",
    "sparsemap.tiles_in": "count",
    "sparsemap.sites_out": "count",
    "sparseconv.rulebook_calls": "count",
    "sparseconv.pairs": "count",
    "sparseconv.sites": "count",
    "training.steps": "count",
    "inference.views": "count",
    "probe.fits": "count",
    "probe.loss_evals": "count",
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    total, own = tracer.times()
    out = {}
    for metric, (span_name, kind) in TIME_METRICS.items():
        value = (own if kind == "self" else total).get(span_name, 0.0)
        out[metric] = {"value": value, "unit": "s"}
    for metric, unit in COUNT_METRICS.items():
        out[metric] = {"value": int(tracer.counts.get(metric, 0)), "unit": unit}
    return out

