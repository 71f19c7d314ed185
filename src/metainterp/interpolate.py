"""Task interpolation: class pairing, fused prototypes, and the mixed-task
loss with its ablation strategies.

Two tasks are fused class-by-class: permutations assign new class k to the
pair (sigma1(k), sigma2(k)), paired support representations at the split
layer are fused by the set function and lifted by the upper stack, and
task1's queries are scored against the fused prototypes. Queries are left
unmixed in the main strategy; the query / query+support / noise variants
are the ablation axes.

A pair's terms are episodes of a `protonet.Batch` (`add_mix`, `add_mlti`)
and draw from the batch's generator: its fused sets join the sets of every
other pair of the training step in one `set_forward` per set size, and its
queries and prototypes one block of the step's distances. A pair's
support pairs (one index) and query partners (one draw) are read from the
tasks' class tables, `Task.support_by_class` and `Task.query_by_class`.
`loss_mix` is a batch of the one pair; the fused prototypes a training
run writes out are the `protos` of `add_mix` episodes.
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
        self.sigma1, self.sigma2 = _permutation(self.sigma1), _permutation(self.sigma2)


def _permutation(s) -> np.ndarray:
    """s as an int64 array, which must be a permutation of 1..len(s) with
    an integer dtype: a float or bool array is not truncated into one."""
    s = np.asarray(s)
    if s.dtype.kind not in "iu" or s.ndim != 1 or sorted(s.tolist()) != list(range(1, s.size + 1)):
        raise ValueError(f"not a permutation of 1..{s.size}: {s}")
    return s.astype(np.int64, copy=False)


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


def _support_pairs(task1: Task, task2: Task, pairing: ClassPairing) -> tuple:
    """Every support pair (a_i, b_j) of every new class k, a_i a task1 row
    of class sigma1(k) and b_j a task2 row of class sigma2(k): the pairs'
    task1 rows, task2 rows and classes, class by class and i-major within
    a class, read from the tasks' class tables with no draw."""
    rows1, first1, count1 = task1.support_by_class
    rows2, first2, count2 = task2.support_by_class
    first1, n1 = first1[pairing.sigma1 - 1], count1[pairing.sigma1 - 1]
    first2, n2 = first2[pairing.sigma2 - 1], count2[pairing.sigma2 - 1]
    sizes = n1 * n2
    k = np.repeat(np.arange(len(sizes)), sizes)
    pos = np.arange(len(k)) - (np.cumsum(sizes) - sizes)[k]  # place within its class
    i, j = np.divmod(pos, n2[k])
    return rows1[first1[k] + i], rows2[first2[k] + j], k + 1


def _class_rows(task: Task, label: int) -> np.ndarray:
    """Task's support rows of class label, in row order."""
    rows, first, count = task.support_by_class
    return rows[first[label - 1]:first[label - 1] + count[label - 1]]


def _inverse(sigma) -> np.ndarray:
    """Lookup from an original label to its new class k (entry 0 unused)."""
    out = np.zeros(len(sigma) + 1, dtype=np.int64)
    out[sigma] = np.arange(1, len(sigma) + 1)
    return out


def _fused_sets(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing,
                cfg: InterpConfig) -> tuple:
    """Adds every fused support set of the pair to batch; returns their ref
    and new classes.

    At cardinality 2 the sets are the support pairs of `_support_pairs`,
    added in one `batch.sets` call: nothing is drawn for their members, so
    in train mode one draw of every set's dropout masks equals the class
    by class draws. Otherwise draws interleave, class by class: the
    class's extra members (or noise rows), then in train mode its sets'
    dropout masks, set by set."""
    n = cfg.cardinality
    s1 = batch.rows(task1, "s")
    s2 = None if cfg.strategy == "support_noise" else batch.rows(task2, "s")
    if n == 2 and s2 is not None:
        a, b, classes = _support_pairs(task1, task2, pairing)
        return batch.sets(np.column_stack([s1[a], s2[b]])), classes
    group, sets, classes = None, [], []
    for k in range(1, task1.way + 1):
        a = s1[_class_rows(task1, pairing.sigma1[k - 1])]
        fill = None
        if s2 is None:
            d = batch.theta.interp_width
            index = np.column_stack([a, np.full((len(a), n - 1), -1)])
            fill = np.zeros((len(a), n, d))
            fill[:, 1:] = batch.rng.normal(cfg.noise_mean, cfg.noise_std, size=(len(a), n - 1, d))
            fill = fill.reshape(-1, d)
        else:
            b = s2[_class_rows(task2, pairing.sigma2[k - 1])]
            index = _class_sets(a, b, (n + 1) // 2, n // 2, batch.rng)
        group, numbers = batch.sets(index, fill)
        sets.append(numbers)
        classes.append(np.full(len(index), k))
    return (group, np.concatenate(sets)), np.concatenate(classes)


def _query_pairs(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing):
    """Each task1 query's input row beside the row of a task2 query drawn
    from the paired class, in task1's query order, as a (Nq, 2) index; and
    each query's new class k. The partners are one draw over task2's query
    class table, made query by query as one call per query would be."""
    ks = _inverse(pairing.sigma1)[task1.yq]
    labels = pairing.sigma2[ks - 1]
    rows, first, count = task2.query_by_class
    empty = labels[count[labels - 1] == 0]
    if len(empty):
        raise ValueError(f"task2 has no queries of class {int(empty[0])}")
    partners = rows[first[labels - 1] + batch.rng.integers(count[labels - 1])]
    return np.column_stack([batch.rows(task1, "q"), batch.rows(task2, "q")[partners]]), ks


def add_mix(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing,
            cfg: InterpConfig, weight: float = 1.0) -> None:
    """Adds the mixed-task episode under the configured strategy: task1's
    queries (or, for the query strategies, each fused with a drawn task2
    partner of the paired class) against the fused prototypes (or, for
    the query strategy, task1's own). Draws the prototypes' randomness,
    then the queries' partners and masks."""
    if cfg.strategy == "query":  # plain task1 prototypes, by original label
        protos, classes = batch.singletons(batch.rows(task1, "s")), task1.ys
    else:
        protos, classes = _fused_sets(batch, task1, task2, pairing, cfg)
    if cfg.strategy in ("query", "support_and_query"):
        pairs, ks = _query_pairs(batch, task1, task2, pairing)
        queries = batch.sets(pairs)
        targets = pairing.sigma1[ks - 1] if cfg.strategy == "query" else ks
    else:
        queries = batch.singletons(batch.rows(task1, "q"))
        targets = _inverse(pairing.sigma1)[task1.yq]
    batch.episode(queries, targets, protos, classes, task1.way, weight)


def loss_mix(lam, theta, task1: Task, task2: Task, pairing: ClassPairing,
             cfg: InterpConfig, mode: str = "eval",
             rng: Optional[np.random.Generator] = None,
             metric: str = "sqeuclidean") -> DiffValue:
    """Mixed-task episode loss under the configured strategy."""
    batch = pn.Batch(lam, theta, mode, rng)
    add_mix(batch, task1, task2, pairing, cfg)
    return batch.forward(metric).loss()


def add_mlti(batch: pn.Batch, task1: Task, task2: Task, pairing: ClassPairing,
             beta_params=(2.0, 2.0), weight: float = 1.0) -> None:
    """Adds the manifold-mixup episode: convex mixing of split-layer rows
    with a Beta-drawn coefficient, applied to support pairs and query
    pairs; no set function, no bilevel structure. Draws the coefficient,
    then the query partners.

    beta_params (a, b) draws the coefficient from Beta(a, b); b <= 0 pins
    it to exactly a (useful for the degenerate checks).
    """
    beta_a, beta_b = beta_params
    lam_mix = float(beta_a) if beta_b <= 0 else float(batch.rng.beta(beta_a, beta_b))
    query_pairs, ks = _query_pairs(batch, task1, task2, pairing)
    s1, s2 = batch.rows(task1, "s"), batch.rows(task2, "s")
    a, b, classes = _support_pairs(task1, task2, pairing)
    coef = (lam_mix, 1.0 - lam_mix)
    protos = batch.mixes(np.column_stack([s1[a], s2[b]]), coef)
    batch.episode(batch.mixes(query_pairs, coef), ks, protos, classes, task1.way, weight)

