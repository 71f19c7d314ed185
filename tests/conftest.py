import tracemalloc

import numpy as np
import pytest

from metainterp import autodiff as ad
from metainterp import interpolate as itp
from metainterp import protonet as pn


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at matrix x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def analytic_grad(build, x0):
    """Gradient of scalar build(x: DiffValue) at x0 via the tape."""
    tape = ad.Tape()
    x = tape.param(x0)
    out = build(x)
    (g,) = ad.grad(out, [x])
    return g.data


def traced_peak(fn):
    """fn()'s result and the peak of tracemalloc's traced bytes while it
    ran, above the bytes traced when it started. Tracing starts and stops
    here unless it is already on; the traced peak is reset either way."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


def fused_prototypes(lam, theta, task1, task2, pairing, cfg, mode="eval", rng=None):
    """The (K, D) fused prototypes of the pair as the program builds them:
    the prototypes of one `add_mix` episode. In train mode the episode
    draws the prototypes' randomness, then its queries' dropout masks."""
    batch = pn.Batch(lam, theta, mode, rng)
    itp.add_mix(batch, task1, task2, pairing, cfg)
    return batch.forward().protos.data


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
