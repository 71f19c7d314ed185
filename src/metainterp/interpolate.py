"""Task interpolation: class pairing, interpolated prototypes, and the
mixed-task loss with its ablation strategies.

Two tasks are fused class-by-class: permutations assign new class k to the
pair (sigma1(k), sigma2(k)), paired support representations at the split
layer are fused by the set function and lifted by the upper stack, and
task1's queries are scored against the fused prototypes. Queries are left
unmixed in the main strategy; the query / query+support / noise variants
are the ablation axes.

A pair's terms are episodes of a `protonet.Batch` (`add_mix`, `add_mlti`):
its fused sets join the sets of every other pair of the training step in
one `set_forward` per set size, and its queries and prototypes one block
of the step's distances. `loss_mix`, `mlti_baseline_loss` and
`interpolated_prototypes` are batches of the one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import protonet as pn
from .autodiff import DiffValue
from .episodes import Task

STRATEGIES = ("support", "query", "support_and_query", "support_noise")


@dataclass
class ClassPairing:
    sigma1: np.ndarray  # sigma1[k-1] in 1..K
    sigma2: np.ndarray

    def __post_init__(self):
        self.sigma1 = np.asarray(self.sigma1, dtype=np.int64)
        self.sigma2 = np.asarray(self.sigma2, dtype=np.int64)
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


def _class_sets(a, b, n1: int, n2: int, rng: np.random.Generator) -> np.ndarray:
    """Member rows of one class's fused sets, one set per support pair
    (a[i], b[j]) in i-major order: a[i] and n1 - 1 other rows of a, then
    b[j] and n2 - 1 other rows of b. Extras are drawn set by set."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    return np.array([[a[i], *a[_extra_members(i, n1 - 1, len(a), rng)],
                      b[j], *b[_extra_members(j, n2 - 1, len(b), rng)]]
                     for i in range(len(a)) for j in range(len(b))],
                    dtype=np.int64).reshape(-1, n1 + n2)


def _inverse(sigma) -> np.ndarray:
    """Lookup from an original label to its new class k (entry 0 unused)."""
    out = np.zeros(len(sigma) + 1, dtype=np.int64)
    out[sigma] = np.arange(1, len(sigma) + 1)
    return out


def _support_pairs(s1, task1: Task, s2, task2: Task, pairing: ClassPairing):
    """Every pair of a task1 and a task2 support row of one new class,
    class by class and task1-major within a class, as the fused sets of
    cardinality 2 are; s1 and s2 are the tasks' support rows. Returns the
    (P, 2) rows and the pairs' classes."""
    k1, k2 = _inverse(pairing.sigma1)[task1.ys], _inverse(pairing.sigma2)[task2.ys]
    a, b = s1[np.argsort(k1, kind="stable")], s2[np.argsort(k2, kind="stable")]
    c1 = np.bincount(k1, minlength=pairing.way + 1)[1:]  # class sizes
    c2 = np.bincount(k2, minlength=pairing.way + 1)[1:]
    cls = np.repeat(np.arange(pairing.way), c1 * c2)  # each pair's class - 1
    p = np.arange(len(cls)) - (np.cumsum(c1 * c2) - c1 * c2)[cls]  # pair number in its class
    rows1 = a[(np.cumsum(c1) - c1)[cls] + p // c2[cls]]
    rows2 = b[(np.cumsum(c2) - c2)[cls] + p % c2[cls]]
    return np.column_stack([rows1, rows2]), cls + 1


def _fused_sets(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing,
                cfg: InterpConfig, rng: np.random.Generator) -> tuple:
    """Adds every fused support set of the pair to batch; returns their ref
    and new classes. Draws, class by class: the class's extra members (or
    noise rows), then in train mode its sets' dropout masks, set by set."""
    n = cfg.cardinality
    s1 = batch.rows(task1, "s")
    s2 = None if cfg.strategy == "support_noise" else batch.rows(task2, "s")
    group, sets, classes = None, [], []
    for k in range(1, task1.way + 1):
        a = s1[task1.ys == pairing.sigma1[k - 1]]
        fill = None
        if s2 is None:
            d = batch.theta.interp_width
            index = np.column_stack([a, np.full((len(a), n - 1), -1)])
            fill = np.zeros((len(a), n, d))
            fill[:, 1:] = rng.normal(cfg.noise_mean, cfg.noise_std, size=(len(a), n - 1, d))
            fill = fill.reshape(-1, d)
        else:
            b = s2[task2.ys == pairing.sigma2[k - 1]]
            index = _class_sets(a, b, (n + 1) // 2, n // 2, rng)
        group, numbers = batch.sets(index, rng, fill)
        sets.append(numbers)
        classes.append(np.full(len(index), k))
    return (group, np.concatenate(sets)), np.concatenate(classes)


def interpolated_prototypes(lam, theta, task1: Task, task2: Task,
                            pairing: ClassPairing, cfg: InterpConfig,
                            mode: str = "train",
                            rng: Optional[np.random.Generator] = None) -> DiffValue:
    """Fused class prototypes: the split-layer rows of every fused set of
    every class go through the set function in one batched pass, the upper
    stack lifts the fusions, and the per-class mean is the prototype.
    Returns a (K, D) matrix. Draws as `_fused_sets`.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    batch = pn.Batch(lam, theta, mode)
    protos, classes = _fused_sets(batch, task1, task2, pairing, cfg, rng)
    batch.episode(pn.NO_QUERIES, [], protos, classes, task1.way)
    return batch.forward().protos


def _query_pairs(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing,
                 rng: np.random.Generator):
    """Each task1 query's input row beside the row of a task2 query drawn
    from the paired class, in task1's query order, as a (Nq, 2) index; and
    each query's new class k."""
    ks = _inverse(pairing.sigma1)[task1.yq]
    pools = {}
    partners = np.zeros(len(ks), dtype=np.int64)
    for i, label in enumerate(pairing.sigma2[ks - 1]):
        if label not in pools:
            pools[label] = np.flatnonzero(task2.yq == label)
        pool = pools[label]
        if not len(pool):
            raise ValueError(f"task2 has no queries of class {int(label)}")
        partners[i] = pool[int(rng.integers(len(pool)))]
    return np.column_stack([batch.rows(task1, "q"), batch.rows(task2, "q")[partners]]), ks


def add_mix(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing,
            cfg: InterpConfig, weight: float = 1.0,
            rng: Optional[np.random.Generator] = None) -> None:
    """Adds the mixed-task episode under the configured strategy: task1's
    queries (or, for the query strategies, each fused with a drawn task2
    partner of the paired class) against the fused prototypes (or, for
    the query strategy, task1's own). Draws the prototypes' randomness,
    then the queries' partners and masks."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if cfg.strategy == "query":  # plain task1 prototypes, by original label
        protos, classes = batch.singletons(batch.rows(task1, "s"), rng), task1.ys
    else:
        protos, classes = _fused_sets(batch, task1, task2, pairing, cfg, rng)
    if cfg.strategy in ("query", "support_and_query"):
        pairs, ks = _query_pairs(batch, task1, task2, pairing, rng)
        queries = batch.sets(pairs, rng)
        targets = pairing.sigma1[ks - 1] if cfg.strategy == "query" else ks
    else:
        queries = batch.singletons(batch.rows(task1, "q"), rng)
        targets = _inverse(pairing.sigma1)[task1.yq]
    batch.episode(queries, targets, protos, classes, task1.way, weight)


def loss_mix(lam, theta, task1: Task, task2: Task, pairing: ClassPairing,
             cfg: InterpConfig, mode: str = "train",
             rng: Optional[np.random.Generator] = None,
             metric: str = "sqeuclidean") -> DiffValue:
    """Mixed-task episode loss under the configured strategy."""
    batch = pn.Batch(lam, theta, mode)
    add_mix(batch, task1, task2, pairing, cfg, rng=rng)
    return batch.forward(metric).loss()


def add_mlti(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing,
             beta_params=(2.0, 2.0), weight: float = 1.0,
             rng: Optional[np.random.Generator] = None) -> None:
    """Adds the manifold-mixup episode: convex mixing of split-layer rows
    with a Beta-drawn coefficient, applied to support pairs and query
    pairs; no set function, no bilevel structure. Draws the coefficient,
    then the query partners.

    beta_params (a, b) draws the coefficient from Beta(a, b); b <= 0 pins
    it to exactly a (useful for the degenerate checks).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    beta_a, beta_b = beta_params
    lam_mix = float(beta_a) if beta_b <= 0 else float(rng.beta(beta_a, beta_b))
    query_pairs, ks = _query_pairs(batch, task1, task2, pairing, rng)
    sup_pairs, classes = _support_pairs(batch.rows(task1, "s"), task1,
                                        batch.rows(task2, "s"), task2, pairing)
    coef = (lam_mix, 1.0 - lam_mix)
    protos = batch.mixes(sup_pairs, coef)
    batch.episode(batch.mixes(query_pairs, coef), ks, protos, classes, task1.way, weight)


def mlti_baseline_loss(theta, task1: Task, task2: Task, pairing: ClassPairing,
                       beta_params=(2.0, 2.0),
                       rng: Optional[np.random.Generator] = None,
                       metric: str = "sqeuclidean") -> DiffValue:
    """Manifold-mixup task interpolation loss of one pair (`add_mlti`)."""
    batch = pn.Batch(None, theta)
    add_mlti(batch, task1, task2, pairing, beta_params, rng=rng)
    return batch.forward(metric).loss()
