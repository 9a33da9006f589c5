"""Timing at reference speed.

A shared 2-core KVM guest changes speed by up to 1.6x from one second to
the next, and other tenants can take its cores, so a
raw wall-clock duration says as much about the machine as about the
program. A reference kernel, a fixed mix of the kinds of work the pipeline
does, runs between consecutive timed operations. Each operation's duration
is scaled by the kernel's fixed nominal time over the kernel time measured
beside it, so a metric reads the same on a slow minute as on a fast one."""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Nominal duration of one reference kernel call, seconds. Scaled times are
#: "seconds at the speed where the kernel takes exactly this long".
NOMINAL_S = 2.0e-3

#: Kernel calls per measurement of the reference; their median is used.
REF_CALLS = 3


def reference_kernel() -> float:
    """About 2 ms of the kinds of work the pipeline does: an interpreted
    loop, a dict of lattice sites probed for neighbours (as rulebooks are
    built), numpy calls on small arrays (as the probe's solver and batch
    norm make them) and small BLAS products. Each part's speed tracks the
    program's differently as the machine's load changes; their sum tracks
    it better than any one."""
    acc = 0
    for i in range(9000):
        acc += i & 7
    sites = {(k // 29, k % 29): k for k in range(600)}
    for i, j in list(sites):
        for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            if (i + di, j + dj) in sites:
                acc += 1
    v = np.linspace(-1.0, 1.0, 64)
    for _ in range(130):
        v = np.tanh(v * 0.5 + 0.1)
    x = np.linspace(0.0, 1.0, 154).reshape(77, 2)
    for _ in range(40):
        z = np.exp(x - x.max(axis=1, keepdims=True))
        x = x * 0.99 + z / z.sum(axis=1, keepdims=True) * 0.01
    a = np.eye(48) * 0.5 + 0.01
    m = a
    for _ in range(60):
        m = m @ a + a
    return acc + float(v.sum()) + float(x.sum()) + float(m[0, 0])


def measure_reference() -> float:
    """Median duration of ``REF_CALLS`` reference kernel calls, seconds."""
    samples = []
    for _ in range(REF_CALLS):
        t0 = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class RefClock:
    """Times operations with the reference kernel run between them.

    An operation's scale is the nominal time over the mean of the reference
    measured right before it and right after it (the "before" of the next
    operation). Operations should be short: a shared guest's speed moves
    within a second. A tracer, when given, is told each operation's scale
    for the spans opened inside it.
    """

    def __init__(self, tracer=None):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.tracer = tracer
        self._before = measure_reference()

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.record(time.perf_counter() - t0)
        return result

    def record(self, raw: float) -> float:
        """Book an operation that ran since the last reference; returns its
        scale factor."""
        after = measure_reference()
        scale = 2.0 * NOMINAL_S / (self._before + after)
        self._before = after
        self.raw.append(raw)
        self.scaled.append(raw * scale)
        if self.tracer is not None:
            self.tracer.settle(scale)
        return scale
