"""Host-speed reference for the end-to-end timings.

The shared hosts this benchmark runs on move between contention states
that last for minutes and change every timing by up to about 40%, so a
run cannot average them out and run medians scatter by more than any
useful bound.  The benchmark therefore times a fixed kernel next to
every measurement and scales the measured time by how fast the kernel
ran, relative to :data:`REFERENCE_S`, its median time on the machine the
benchmark was sized on.  A reported time is then the time the work would
have taken on that machine in its usual state.

The kernel does the kind of work dmin does, with a similar working set:
it records a few thousand small-array nodes with closures, walks them
back in reverse like a tape, and adds a few megabyte-sized outer
products.  It calls no dmin code, so no change to the package can move
it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Typical kernel time on the sizing machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6, OpenBLAS).
REFERENCE_S = 0.08

_NODES = 5000


def kernel_seconds() -> float:
    """Run the fixed kernel once and return its wall time."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(0))
    w = rng.normal(0.0, 0.3, size=(16, 32))
    x = rng.normal(size=32)
    u, v = rng.normal(size=64), rng.normal(size=4096)
    big = np.zeros((64, 4096))
    nodes = []
    for i in range(_NODES):
        s = np.tanh(w @ x)
        nodes.append((s, lambda g, s=s: g * (1.0 - s * s)))
        x = 0.5 * x + 0.5 * np.concatenate([s, s])
        if i % 100 == 0:
            big += np.outer(u, v)
    grad = np.ones(16)
    acc = 0.0
    for s, vjp in reversed(nodes):
        grad = vjp(grad) + 0.01 * s
        acc += math.fsum(grad)
    if not math.isfinite(acc + float(big[0, 0])):
        raise ArithmeticError("reference kernel diverged")
    return time.perf_counter() - start


def speed(samples) -> float:
    """Host speed factor of kernel times: above 1 when the host ran the
    kernel faster than on the sizing machine."""
    return REFERENCE_S / statistics.median(samples)
