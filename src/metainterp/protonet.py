"""Encoder split at the interpolation layer, prototypes, the per-task
cross-entropy loss, and meta-test classification.

The predictive model is upper-stack ∘ set-function ∘ lower-stack: every
support and query representation passes through the set function as a
singleton set at the split layer, in training and at meta-test alike. The
rows of a batch go through one `setfunc.set_forward` pass with set size 1
(`setfunc.singleton_batch`), the same batched pass that fuses the sets of
the mixed-task loss. With the identity set function this is a vanilla
prototypical network.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import setfunc
from .autodiff import DiffValue
from .episodes import Task


class MissingClassError(ValueError):
    def __init__(self, k: int):
        super().__init__(f"class {k} has no members")
        self.k = k


@dataclass
class LayerParams:
    w: np.ndarray  # (d_in, d_out)
    b: np.ndarray  # (1, d_out)


@dataclass
class EncoderParams:
    """Affine + leaky-ReLU stack (identity activation on the last layer),
    split at layer `split`: the first `split` layers run below the set
    function, the rest above it."""

    layers: list
    split: int
    slope: float = 0.01

    def __post_init__(self):
        if not 0 <= self.split < len(self.layers):
            raise ValueError(
                f"split {self.split} outside 0..{len(self.layers) - 1}"
            )

    @property
    def interp_width(self) -> int:
        if self.split == 0:
            w = self.layers[0].w
            arr = w.data if isinstance(w, DiffValue) else w
            return arr.shape[0]
        w = self.layers[self.split - 1].w
        arr = w.data if isinstance(w, DiffValue) else w
        return arr.shape[1]


def init_encoder(widths, split: int, rng: np.random.Generator,
                 slope: float = 0.01) -> EncoderParams:
    """widths is the chain [D_in, ..., D]; He-style scaled normal init."""
    layers = []
    for din, dout in zip(widths[:-1], widths[1:]):
        layers.append(
            LayerParams(
                w=rng.standard_normal((din, dout)) * np.sqrt(2.0 / din),
                b=np.zeros((1, dout)),
            )
        )
    return EncoderParams(layers=layers, split=split, slope=slope)


def _run_layers(layers, x, slope: float, tail_has_last: bool) -> DiffValue:
    """tail_has_last: this slice contains the network's final layer, which
    gets no activation."""
    n = len(layers)
    for i, layer in enumerate(layers):
        x = ad.add(ad.matmul(x, layer.w), layer.b)
        if not (tail_has_last and i == n - 1):
            x = ad.leaky_relu(x, slope)
    return x


def encode_lower(theta: EncoderParams, x) -> DiffValue:
    """Layers 1..split (identity when split = 0, input-layer interpolation)."""
    x = ad._lift(x)
    return _run_layers(theta.layers[: theta.split], x, theta.slope, tail_has_last=False)


def encode_upper(theta: EncoderParams, h) -> DiffValue:
    """Layers split+1..L; the final layer is affine-only."""
    h = ad._lift(h)
    return _run_layers(theta.layers[theta.split :], h, theta.slope, tail_has_last=True)


def embed_batch(lam, theta: EncoderParams, x, mode: str = "eval",
                rng: Optional[np.random.Generator] = None) -> DiffValue:
    """Full model on a batch of rows: lower stack, singleton set-function
    pass, upper stack. Train mode draws dropout masks from rng."""
    h = encode_lower(theta, x)
    masks = None
    if mode == "train":
        masks = setfunc.make_masks(lam, h.shape[0], rng, set_size=1)
    z = setfunc.singleton_batch(lam, h, masks)
    return encode_upper(theta, z)


def prototypes(embeddings, way: int) -> DiffValue:
    """Class means of (row, label) pairs, stacked into a (K, D) matrix."""
    rows = [ad._lift(e) for e, _ in embeddings]
    labels = [y for _, y in embeddings]
    mat = rows[0]
    for r in rows[1:]:
        mat = ad.concat_rows(mat, r)
    return prototypes_from_matrix(mat, labels, way)


def prototypes_from_matrix(embeddings, labels, way: int) -> DiffValue:
    """Same as `prototypes` for an (N, D) embedding matrix."""
    embeddings = ad._lift(embeddings)
    n = embeddings.shape[0]
    pick = np.zeros((way, n))
    for i, y in enumerate(labels):
        pick[y - 1, i] = 1.0
    counts = pick.sum(axis=1)
    for k in range(way):
        if counts[k] == 0:
            raise MissingClassError(k + 1)
    pick /= counts[:, None]
    return ad.matmul(DiffValue.const(pick), embeddings)


def sq_dist(a, b) -> DiffValue:
    a, b = ad._lift(a), ad._lift(b)
    diff = ad.sub(a, b)
    return ad.row_sum(ad.mul(diff, diff))


def pairwise_dists(queries, protos, metric: str = "sqeuclidean") -> DiffValue:
    """(N, K) distance matrix between query rows and prototype rows."""
    d2 = ad.pairwise_sq_dists(queries, protos)
    if metric == "sqeuclidean":
        return d2
    if metric == "euclidean":
        eps = DiffValue(np.full(d2.shape, 1e-12))
        return ad.powf(ad.add(d2, eps), 0.5)
    raise ValueError(f"unknown metric {metric!r}")


def cross_entropy_to_prototypes(dists, labels) -> DiffValue:
    """Mean over rows of -log softmax(-d) at each row's class column."""
    n, way = dists.shape
    logp = ad.log_softmax_rows(ad.neg(dists))
    onehot = np.zeros((n, way))
    for i, y in enumerate(labels):
        onehot[i, y - 1] = 1.0
    picked = ad.sum_all(ad.mul(logp, DiffValue.const(onehot)))
    return ad.neg(ad.scale(picked, 1.0 / n))


def task_dists(lam, theta: EncoderParams, task: Task, mode: str = "train",
               rng: Optional[np.random.Generator] = None,
               metric: str = "sqeuclidean") -> DiffValue:
    """(N_q, K) distances from the task's embedded queries to the prototypes
    of its embedded supports, every row a singleton of the set function."""
    xs, ys = task.support_matrix()
    xq, _ = task.query_matrix()
    es = embed_batch(lam, theta, xs, mode, rng)
    eq = embed_batch(lam, theta, xq, mode, rng)
    protos = prototypes_from_matrix(es, ys, task.way)
    return pairwise_dists(eq, protos, metric)


def accuracy_from_dists(dists, labels) -> float:
    """Fraction of rows whose nearest prototype is their own class; ties go
    to the lowest index."""
    pred = np.argmin(ad._lift(dists).data, axis=1) + 1
    return float(np.mean(pred == np.asarray(labels)))


def loss_singleton(lam, theta: EncoderParams, task: Task, mode: str = "train",
                   rng: Optional[np.random.Generator] = None,
                   metric: str = "sqeuclidean") -> DiffValue:
    """Eq.-(2)-style episode loss with every representation routed through
    the set function as a singleton."""
    dists = task_dists(lam, theta, task, mode, rng, metric)
    return cross_entropy_to_prototypes(dists, task.query_matrix()[1])


def classify(lam, theta: EncoderParams, query, protos, metric: str = "sqeuclidean") -> int:
    """Nearest-prototype class (1-based); ties go to the lowest index."""
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    with ad.pause_recording():
        e = embed_batch(lam, theta, q, mode="eval")
        d = pairwise_dists(e, ad._lift(protos), metric)
    return int(np.argmin(d.data[0])) + 1


def task_accuracy(lam, theta: EncoderParams, task: Task,
                  metric: str = "sqeuclidean") -> float:
    """Fraction of query points classified to their own class."""
    with ad.pause_recording():
        d = task_dists(lam, theta, task, "eval", None, metric)
    return accuracy_from_dists(d, task.query_matrix()[1])


def accuracy(lam, theta: EncoderParams, tasks, episodes: int, seed,
             metric: str = "sqeuclidean", threads: int = 1):
    """Mean episode accuracy and a 95% CI half-width over episodes.

    Episodes draw tasks uniformly with replacement; task evaluation is
    deterministic, so per-task accuracies are computed once and reused.
    seed may also be a list of seeds: the result is then one (mean, half)
    pair per seed, every task still evaluated once.
    """
    if not tasks:
        raise ValueError("no tasks to evaluate")
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_task = list(
                pool.map(lambda t: task_accuracy(lam, theta, t, metric), tasks)
            )
    else:
        per_task = [task_accuracy(lam, theta, t, metric) for t in tasks]

    def stats(s):
        rng = np.random.default_rng([s, 0x5EED])
        accs = np.asarray(per_task)[rng.integers(len(tasks), size=episodes)]
        half = float(1.96 * np.std(accs, ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
        return float(np.mean(accs)), half

    if isinstance(seed, (list, tuple)):
        return [stats(s) for s in seed]
    return stats(seed)
