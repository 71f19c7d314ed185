"""Task interpolation: class pairing, interpolated prototypes, and the
mixed-task loss with its ablation strategies.

Two tasks are fused class-by-class: permutations assign new class k to the
pair (sigma1(k), sigma2(k)), paired support representations at the split
layer are fused by the set function and lifted by the upper stack, and
task1's queries are scored against the fused prototypes. Queries are left
unmixed in the main strategy; the query / query+support / noise variants
are the ablation axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import protonet as pn
from . import setfunc
from .autodiff import DiffValue
from .episodes import Task

STRATEGIES = ("support", "query", "support_and_query", "support_noise")


@dataclass
class ClassPairing:
    sigma1: np.ndarray  # sigma1[k-1] in 1..K
    sigma2: np.ndarray

    def __post_init__(self):
        for s in (self.sigma1, self.sigma2):
            if sorted(s) != list(range(1, len(s) + 1)):
                raise ValueError(f"not a permutation of 1..{len(s)}: {s}")

    @property
    def way(self) -> int:
        return len(self.sigma1)


@dataclass
class InterpConfig:
    strategy: str = "support"
    layer: int = 1        # encoder split the run is built with
    cardinality: int = 2  # set size n; support_noise uses 1 real + n-1 noise
    noise_mean: float = 0.0
    noise_std: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy {self.strategy!r} not in {STRATEGIES}")
        if not 2 <= self.cardinality <= 5:
            raise ValueError("cardinality must be in 2..5")
        if not self.noise_std >= 0:  # NaN fails too
            raise ValueError(f"noise_std {self.noise_std} must be >= 0")


def pair_classes(way: int, rng: np.random.Generator) -> ClassPairing:
    """Two independent uniform permutations of 1..K."""
    return ClassPairing(
        sigma1=rng.permutation(way) + 1,
        sigma2=rng.permutation(way) + 1,
    )


def _extra_members(anchor: int, count: int, pool_size: int,
                   rng: np.random.Generator) -> list:
    """Indices of extra same-class elements for cardinality > 2 sets."""
    if count <= 0:
        return []
    others = [i for i in range(pool_size) if i != anchor]
    if len(others) >= count:
        return list(rng.choice(others, size=count, replace=False))
    return list(rng.integers(pool_size, size=count))


def _class_sets(a, b, n1: int, n2: int, rng: np.random.Generator) -> list:
    """Member rows of one class's fused sets, one set per support pair
    (a[i], b[j]) in i-major order: a[i] and n1 - 1 other rows of a, then
    b[j] and n2 - 1 other rows of b. Extras are drawn set by set."""
    return [[a[i], *a[_extra_members(i, n1 - 1, len(a), rng)],
             b[j], *b[_extra_members(j, n2 - 1, len(b), rng)]]
            for i in range(len(a)) for j in range(len(b))]


def _gather(h, index, fill=None) -> DiffValue:
    """Rows h[index] as one product with a constant selection matrix; an
    index of -1 gives a zero row. The constant `fill` is added if given."""
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    pick = np.zeros((len(index), h.shape[0]))
    used = np.flatnonzero(index >= 0)
    pick[used, index[used]] = 1.0
    out = ad.matmul(DiffValue.const(pick), h)
    return out if fill is None else ad.add(out, DiffValue.const(fill))


def interpolated_prototypes(lam, theta, task1: Task, task2: Task,
                            pairing: ClassPairing, cfg: InterpConfig,
                            mode: str = "train",
                            rng: Optional[np.random.Generator] = None) -> DiffValue:
    """Fused class prototypes: the split-layer rows of every fused set of
    every class go through the set function in one batched pass, the upper
    stack lifts the fusions, and the per-class mean is the prototype.
    Returns a (K, D) matrix.

    Draws, class by class: the class's extra members (or noise rows), then
    in train mode its sets' dropout masks, set by set.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    n = cfg.cardinality
    noise_only = cfg.strategy == "support_noise"
    xs1, ys1 = task1.support_matrix()
    xs2, ys2 = task2.support_matrix()
    h = pn.encode_lower(theta, xs1 if noise_only else np.vstack([xs1, xs2]))
    d = h.shape[1]

    index, noise, classes, masks = [], [], [], []
    for k in range(1, task1.way + 1):
        a = np.flatnonzero(np.asarray(ys1) == pairing.sigma1[k - 1])
        if noise_only:
            sets = np.column_stack([a, np.full((len(a), n - 1), -1)]).tolist()
            fill = np.zeros((len(a), n, d))
            fill[:, 1:] = rng.normal(cfg.noise_mean, cfg.noise_std,
                                     size=(len(a), n - 1, d))
            noise.append(fill.reshape(-1, d))
        else:
            b = len(xs1) + np.flatnonzero(np.asarray(ys2) == pairing.sigma2[k - 1])
            sets = _class_sets(a, b, (n + 1) // 2, n // 2, rng)
        index += sets
        classes += [k] * len(sets)
        if mode == "train":
            masks.append(setfunc.make_masks(lam, len(sets) * n, rng, set_size=n))

    x = _gather(h, index, np.vstack(noise) if noise else None)
    masks = tuple(map(np.vstack, zip(*masks))) if masks and masks[0] else None
    z = setfunc.set_forward(lam, x, masks, set_size=n)
    return pn.prototypes_from_matrix(pn.encode_upper(theta, z), classes, task1.way)


def _query_partners(task1: Task, task2: Task, pairing: ClassPairing,
                    rng: np.random.Generator):
    """For each task1 query in order, the index of a task2 query drawn from
    the paired class, and the query's new class k."""
    yq2 = np.asarray(task2.query_matrix()[1])
    label_to_k = {int(pairing.sigma1[k - 1]): k for k in range(1, task1.way + 1)}
    partners, ks = [], []
    for y in task1.query_matrix()[1]:
        k = label_to_k[y]
        pool = np.flatnonzero(yq2 == pairing.sigma2[k - 1])
        if not len(pool):
            raise ValueError(
                f"task2 has no queries of class {int(pairing.sigma2[k - 1])}"
            )
        partners.append(int(pool[int(rng.integers(len(pool)))]))
        ks.append(k)
    return partners, ks


def _mixed_query_rows(lam, theta, task1, task2, pairing, mode, rng):
    """Fuse each task1 query with a drawn task2 partner in one batched set
    pass; returns the (Nq, D) embeddings and the per-row target class k."""
    partners, ks = _query_partners(task1, task2, pairing, rng)
    xq1, xq2 = task1.query_matrix()[0], task2.query_matrix()[0]
    h = pn.encode_lower(theta, np.vstack([xq1, xq2]))
    index = np.column_stack([np.arange(len(xq1)), len(xq1) + np.asarray(partners)])
    masks = setfunc.make_masks(lam, index.size, rng, set_size=2) if mode == "train" else None
    z = setfunc.set_forward(lam, _gather(h, index), masks, set_size=2)
    return pn.encode_upper(theta, z), ks


def loss_mix(lam, theta, task1: Task, task2: Task, pairing: ClassPairing,
             cfg: InterpConfig, mode: str = "train",
             rng: Optional[np.random.Generator] = None,
             metric: str = "sqeuclidean") -> DiffValue:
    """Mixed-task episode loss under the configured strategy."""
    rng = rng if rng is not None else np.random.default_rng(0)
    way = task1.way

    if cfg.strategy in ("support", "support_noise", "support_and_query"):
        protos = interpolated_prototypes(lam, theta, task1, task2, pairing,
                                         cfg, mode, rng)
        proto_index = {k: k for k in range(1, way + 1)}  # row k-1 is class k
    else:  # query strategy: plain task1 prototypes
        xs, ys = task1.support_matrix()
        es = pn.embed_batch(lam, theta, xs, mode, rng)
        protos = pn.prototypes_from_matrix(es, ys, way)
        proto_index = None  # rows indexed by original task1 labels

    if cfg.strategy in ("query", "support_and_query"):
        rows, ks = _mixed_query_rows(lam, theta, task1, task2, pairing, mode, rng)
        if proto_index is None:
            targets = [int(pairing.sigma1[k - 1]) for k in ks]
        else:
            targets = ks
    else:
        xq, yq = task1.query_matrix()
        rows = pn.embed_batch(lam, theta, xq, mode, rng)
        label_to_k = {int(pairing.sigma1[k - 1]): k for k in range(1, way + 1)}
        targets = [label_to_k[y] for y in yq]

    dists = pn.pairwise_dists(rows, protos, metric)
    return pn.cross_entropy_to_prototypes(dists, targets)


def mlti_baseline_loss(theta, task1: Task, task2: Task, pairing: ClassPairing,
                       beta_params=(2.0, 2.0),
                       rng: Optional[np.random.Generator] = None,
                       metric: str = "sqeuclidean") -> DiffValue:
    """Manifold-mixup task interpolation: convex mixing of split-layer rows
    with a Beta-drawn coefficient, applied to support pairs and query
    pairs; no set function, no bilevel structure.

    beta_params (a, b) draws the coefficient from Beta(a, b); b <= 0 pins
    it to exactly a (useful for the degenerate checks).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    beta_a, beta_b = beta_params
    lam_mix = float(beta_a) if beta_b <= 0 else float(rng.beta(beta_a, beta_b))
    partners, ks = _query_partners(task1, task2, pairing, rng)

    xs1, ys1 = task1.support_matrix()
    xs2, ys2 = task2.support_matrix()
    xq1, xq2 = task1.query_matrix()[0], task2.query_matrix()[0]
    h = pn.encode_lower(theta, np.vstack([xs1, xs2, xq1, xq2]))
    sup_pairs, classes = [], []
    for k in range(1, task1.way + 1):
        a = np.flatnonzero(np.asarray(ys1) == pairing.sigma1[k - 1])
        b = len(xs1) + np.flatnonzero(np.asarray(ys2) == pairing.sigma2[k - 1])
        pairs = _class_sets(a, b, 1, 1, rng)
        sup_pairs += pairs
        classes += [k] * len(pairs)
    q0 = len(xs1) + len(xs2)
    query_pairs = np.column_stack([q0 + np.arange(len(xq1)),
                                   q0 + len(xq1) + np.asarray(partners)])
    pairs = np.vstack([np.asarray(sup_pairs, dtype=np.int64), query_pairs])

    mix = np.zeros((len(pairs), h.shape[0]))
    mix[np.arange(len(pairs)), pairs[:, 0]] = lam_mix
    mix[np.arange(len(pairs)), pairs[:, 1]] = 1.0 - lam_mix
    e = pn.encode_upper(theta, ad.matmul(DiffValue.const(mix), h))
    n_sup = len(classes)
    protos = pn.prototypes_from_matrix(ad.slice_rows(e, 0, n_sup), classes, task1.way)
    rows = ad.slice_rows(e, n_sup, len(pairs))
    dists = pn.pairwise_dists(rows, protos, metric)
    return pn.cross_entropy_to_prototypes(dists, ks)
