"""A fixed reference workload that measures how fast the machine runs now.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes, so the same code can read 20 or 45 iterations a
second depending on when it runs. `sample()` times a fixed piece of work
of the same kind as the program's (small numpy arrays, Python-level
reverse mode: the oracle's own autodiff on a two-layer network) and
`scale()` turns the run's samples into the factor that takes a time
measured in that run to reference seconds: the time the same work would
have taken on a machine where one sample takes `REFERENCE_S`.

The workload depends on no input and no program code, so a change to the
program cannot move it; only the machine does.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

import oracle as o

REPS = 400
# fixed; near `sample()`'s time on a 2-vCPU Xeon (2.1 GHz), Python 3.11.7,
# numpy 2.4.6
REFERENCE_S = 0.0700

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(60, 10))
_Y = _rng.normal(size=(60, 16))
_W = [_rng.normal(size=s) * 0.3 for s in [(10, 32), (32,), (32, 16), (16,)]]


def sample() -> float:
    """Wall seconds of one pass of the reference workload.

    The cyclic collector is off during the pass (the work makes no cycles),
    so the time does not depend on how many objects the program keeps."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        ws = [o.Var(w) for w in _W]
        for _ in range(REPS):
            h = o.leaky_relu(o.add(o.matmul(_X, ws[0]), ws[1]), 0.01)
            d = o.sub(o.add(o.matmul(h, ws[2]), ws[3]), _Y)
            o.gradients(o.total(o.total(o.mul(d, d), 1), 0), ws)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(samples) -> float:
    """Reference seconds per measured second in this run."""
    return REFERENCE_S / statistics.median(samples)
