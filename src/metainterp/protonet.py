"""Encoder split at the interpolation layer, prototypes, the episode
cross-entropy, the batched episode graph, and meta-test classification.

The predictive model is upper-stack ∘ set-function ∘ lower-stack: every
support and query representation passes through the set function as a
singleton set at the split layer, in training and at meta-test alike.
With the identity set function this is a vanilla prototypical network.

Every loss is one `Batch`: the episodes of all task pairs and all loss
terms are laid out first, drawing their randomness in a fixed order, and
then one graph computes them together. The singleton episode loss, the
mixed-task loss of `interpolate` and the validation loss are batches of
one or many episodes; rows of every set size share one lower-stack and
one upper-stack pass, and each episode's queries meet only its own
prototypes, as one block of `block_sq_dists`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from . import setfunc
from ._params import _leaf_array
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
            return _leaf_array(self.layers[0].w).shape[0]
        return _leaf_array(self.layers[self.split - 1].w).shape[1]


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
        x = ad.affine(x, layer.w, layer.b)
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


def prototypes_from_matrix(embeddings, labels, way: int) -> DiffValue:
    """Class means of the rows of an (N, D) embedding matrix, by their
    1-based labels, stacked into a (K, D) matrix: one row scatter, then one
    scaling by the inverse class sizes."""
    embeddings = ad._lift(embeddings)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1) - 1
    counts = np.bincount(labels, minlength=way)
    missing = np.flatnonzero(counts == 0)
    if len(missing):
        raise MissingClassError(int(missing[0]) + 1)
    inverse = np.repeat(1.0 / counts[:, None], embeddings.shape[1], axis=1)
    return ad.mul(ad.scatter_rows(embeddings, labels, way), DiffValue.const(inverse))


def _apply_metric(d2, metric: str) -> DiffValue:
    if metric == "sqeuclidean":
        return d2
    if metric == "euclidean":
        return ad.powf(ad.add(d2, DiffValue(np.full(d2.shape, 1e-12))), 0.5)
    raise ValueError(f"unknown metric {metric!r}")


def pairwise_dists(queries, protos, metric: str = "sqeuclidean") -> DiffValue:
    """(N, K) distance matrix between query rows and prototype rows."""
    return _apply_metric(ad.pairwise_sq_dists(queries, protos), metric)


def _cross_entropy_terms(dists, weights: np.ndarray) -> DiffValue:
    """weights * (-log softmax(-dists)), row by row: summed, the cross-
    entropy of every row at the columns its nonnegative weights mark."""
    logp = ad.log_softmax_rows(ad.neg(dists))
    return ad.mul(logp, DiffValue.const(-weights))


def cross_entropy_to_prototypes(dists, labels) -> DiffValue:
    """Mean over rows of -log softmax(-d) at each row's class column."""
    n, way = dists.shape
    weights = np.zeros((n, way))
    weights[np.arange(n), np.asarray(labels, dtype=np.int64) - 1] = 1.0 / n
    return ad.sum_all(_cross_entropy_terms(dists, weights))


def accuracy_from_dists(dists, labels) -> float:
    """Fraction of rows whose nearest prototype is their own class; ties go
    to the lowest index."""
    pred = np.argmin(ad._lift(dists).data, axis=1) + 1
    return float(np.mean(pred == np.asarray(labels)))


# ---------------------------------------------------------------------------
# the batched episode graph


@dataclass
class _Sets:
    """The sets of one group in the order they were added: (P, n) member
    rows of the lower-stack output each, with their dropout mask pairs,
    constant row additions (noise members) and, for the mixed rows of size
    0, their two mixing coefficients."""

    index: list = field(default_factory=list)
    masks: list = field(default_factory=list)
    fill: list = field(default_factory=list)
    coef: list = field(default_factory=list)
    count: int = 0


class _Episode(NamedTuple):
    queries: tuple        # ref of the query rows
    targets: np.ndarray   # their classes, 1..way
    protos: tuple         # ref of the rows whose class means are the prototypes
    classes: np.ndarray   # their classes, 1..way
    way: int
    weight: float


# the ref of an episode without queries (prototypes only)
NO_QUERIES = ((1, False), np.zeros(0, dtype=np.int64))


class Batch:
    """The episodes of one loss, laid out before any compute.

    Each `add_*` (here and in `interpolate`) makes its term's random draws
    in a fixed order and records row indices only. `forward` then builds
    one graph for every episode: one lower-stack pass over the features of
    every task involved (each task's support and query rows enter once),
    one `setfunc.set_forward` per group of sets (below), one upper-stack pass over all
    set outputs, the class means of every episode by one row scatter, each
    episode's queries against its own prototypes as one block of
    `block_sq_dists`, one log-softmax and one weighted sum.

    A ref (group, numbers) names set outputs. A group is a set size and
    whether its sets carry dropout masks, so sets of one size drawn with
    and without masks (train mode without an rng, where only the mixed
    term makes its own generator) run as two passes, each as drawn. The
    upper-stack input stacks the outputs of every group, smallest first;
    size 0 holds the mixed rows of the manifold-mixup baseline, which skip
    the set function.
    Singletons drawn without dropout masks are shared, so two terms that
    embed the same rows (the singleton and the mixed-task term's queries)
    embed them once.
    """

    def __init__(self, lam, theta: EncoderParams, mode: str = "eval"):
        self.lam, self.theta, self.mode = lam, theta, mode
        self._inputs = []        # feature matrices, stacked into the lower-stack input
        self._first_row = {}     # (id(task), role) -> its first input row
        self._tasks = []         # keeps the tasks whose ids key _first_row alive
        self._shared = np.zeros(0, dtype=np.int64)  # input row -> shared singleton, or -1
        self._groups = {}        # (set size, masked) -> _Sets
        self._episodes = []

    def rows(self, task: Task, role: str) -> np.ndarray:
        """The input rows of task's support ("s") or query ("q") features."""
        x = task.xs if role == "s" else task.xq
        key = (id(task), role)
        if key not in self._first_row:
            self._first_row[key] = len(self._shared)
            self._inputs.append(x)
            self._tasks.append(task)
            self._shared = np.concatenate([self._shared, np.full(len(x), -1)])
        return self._first_row[key] + np.arange(len(x))

    def _add(self, size: int, index, masks=None, fill=None, coef=None) -> tuple:
        key = (size, masks is not None)
        g = self._groups.setdefault(key, _Sets())
        g.index.append(index)
        g.masks.append(masks)
        g.fill.append(fill)
        g.coef.append(coef)
        g.count += len(index)
        return key, np.arange(g.count - len(index), g.count)

    def singletons(self, rows, rng=None) -> tuple:
        """Ref of the input rows, each its own set; in train mode with an
        rng, their dropout masks are drawn."""
        masks = setfunc.make_masks(self.lam, len(rows), rng, set_size=1) \
            if self.mode == "train" else None
        if masks is not None:
            return self._add(1, rows[:, None], masks)
        new = rows[self._shared[rows] < 0]
        if len(new):
            self._shared[new] = self._add(1, new[:, None])[1]
        return (1, False), self._shared[rows]

    def sets(self, index, rng=None, fill=None) -> tuple:
        """Ref of the sets whose member rows are the rows of the (P, n)
        index (-1 for a zero row); fill, (P n, d), is added to the members.
        In train mode their dropout masks are drawn from rng, set by set."""
        index = np.asarray(index, dtype=np.int64)
        masks = setfunc.make_masks(self.lam, index.size, rng, set_size=index.shape[1]) \
            if self.mode == "train" else None
        return self._add(index.shape[1], index, masks, fill)

    def mixes(self, index, coef) -> tuple:
        """Ref of the rows coef[0] h[i] + coef[1] h[j] for the rows (i, j) of
        the (P, 2) index, h the lower-stack output; they skip the set
        function."""
        index = np.asarray(index, dtype=np.int64)
        return self._add(0, index, coef=np.tile(coef, (len(index), 1)))

    def episode(self, queries: tuple, targets, protos: tuple, classes, way: int,
                weight: float = 1.0) -> None:
        """Scores the queries ref against the class means of the protos ref
        (classes 1..way, one per set), with cross-entropy at targets; the
        loss adds weight times the mean over the queries."""
        self._episodes.append(_Episode(queries, np.asarray(targets, dtype=np.int64), protos,
                                       np.asarray(classes, dtype=np.int64), way, weight))

    def add_singleton(self, task: Task, weight: float = 1.0, rng=None) -> None:
        """Task's episode with every row a singleton of the set function.
        Train mode draws the supports' masks, then the queries'."""
        protos = self.singletons(self.rows(task, "s"), rng)
        queries = self.singletons(self.rows(task, "q"), rng)
        self.episode(queries, task.yq, protos, task.ys, task.way, weight)

    def _outputs(self, key: tuple, g: _Sets, h: DiffValue) -> DiffValue:
        """The set outputs of one group, in the order the sets were added."""
        size, masked = key
        index = np.concatenate(g.index).reshape(-1)
        if size == 0:
            coef = np.repeat(np.concatenate(g.coef).reshape(-1, 1), h.shape[1], axis=1)
            mixed = ad.mul(ad.take_rows(h, index), DiffValue.const(coef))
            return ad.scatter_rows(mixed, np.repeat(np.arange(g.count), 2), g.count)
        identity = len(index) == h.shape[0] and np.array_equal(index, np.arange(len(index)))
        x = h if identity else ad.take_rows(h, index)
        if any(f is not None for f in g.fill):
            x = ad.add(x, DiffValue.const(np.vstack([
                np.zeros((i.size, h.shape[1])) if f is None else f
                for i, f in zip(g.index, g.fill)])))
        masks = tuple(np.vstack(site) for site in zip(*g.masks)) if masked else None
        return setfunc.set_forward(self.lam, x, masks, set_size=size)

    def forward(self, metric: str = "sqeuclidean") -> "Scores":
        """The graph of every episode added so far."""
        if not self._episodes:
            raise ValueError("empty batch")
        ways = {ep.way for ep in self._episodes}
        if len(ways) > 1:
            raise ValueError(f"episodes of different ways {sorted(ways)} in one batch")
        way = ways.pop()

        x = self._inputs[0] if len(self._inputs) == 1 else np.vstack(self._inputs)
        h = encode_lower(self.theta, x)
        start, z = {}, None
        for key in sorted(self._groups):
            start[key] = 0 if z is None else z.shape[0]
            out = self._outputs(key, self._groups[key], h)
            z = out if z is None else ad.concat_rows(z, out)
        e = encode_upper(self.theta, z)

        n_eps = len(self._episodes)
        m = max(len(ep.targets) for ep in self._episodes)
        q_index = np.full((n_eps, m), -1, dtype=np.int64)
        weights = np.zeros((n_eps, m, way))
        p_rows, p_labels = [], []
        for j, ep in enumerate(self._episodes):
            nq = len(ep.targets)
            if nq:
                q_index[j, :nq] = start[ep.queries[0]] + ep.queries[1]
                weights[j, np.arange(nq), ep.targets - 1] = ep.weight / nq
            p_rows.append(start[ep.protos[0]] + ep.protos[1])
            p_labels.append(j * way + ep.classes)
        protos = prototypes_from_matrix(ad.take_rows(e, np.concatenate(p_rows)),
                                        np.concatenate(p_labels), n_eps * way)
        dists = None
        if m:
            queries = ad.take_rows(e, q_index.reshape(-1))
            dists = _apply_metric(ad.block_sq_dists(queries, protos, n_eps), metric)
        return Scores(protos, dists, weights.reshape(n_eps * m, way),
                      [ep.targets for ep in self._episodes])


@dataclass
class Scores:
    """A batch's graph: every episode's K prototype rows, and each
    episode's (m, K) block of query distances, whose rows past its own
    queries are padding of weight 0."""

    protos: DiffValue
    dists: Optional[DiffValue]
    weights: np.ndarray      # (episodes m, K): weight / queries at the targets
    targets: list            # each episode's query targets

    def loss(self) -> DiffValue:
        """The sum over episodes of weight times the mean query cross-entropy."""
        return ad.sum_all(_cross_entropy_terms(self.dists, self.weights))

    def episode_losses(self) -> np.ndarray:
        """Each episode's weighted mean query cross-entropy."""
        terms = _cross_entropy_terms(self.dists, self.weights).data
        return terms.reshape(len(self.targets), -1).sum(axis=1)

    def accuracies(self) -> list:
        """Each episode's fraction of queries nearest their own class."""
        m = self.dists.shape[0] // len(self.targets)
        return [accuracy_from_dists(self.dists.data[j * m:j * m + len(t)], t)
                for j, t in enumerate(self.targets)]


def loss_singleton(lam, theta: EncoderParams, task: Task, mode: str = "train",
                   rng: Optional[np.random.Generator] = None,
                   metric: str = "sqeuclidean") -> DiffValue:
    """Eq.-(2)-style episode loss with every representation routed through
    the set function as a singleton."""
    batch = Batch(lam, theta, mode)
    batch.add_singleton(task, rng=rng)
    return batch.forward(metric).loss()


def task_accuracy(lam, theta: EncoderParams, task: Task,
                  metric: str = "sqeuclidean") -> float:
    """Fraction of query points classified to their own class."""
    batch = Batch(lam, theta)
    batch.add_singleton(task)
    return batch.forward(metric).accuracies()[0]


def accuracy(lam, theta: EncoderParams, tasks, episodes: int, seed,
             metric: str = "sqeuclidean", threads: int = 1):
    """Mean episode accuracy and a 95% CI half-width over episodes.

    Episodes draw tasks uniformly with replacement; task evaluation is
    deterministic, so per-task accuracies are computed once, in one
    batched pass over every task, and reused. threads is accepted for the
    CLI's `--threads` and changes nothing.
    seed may also be a list of seeds: the result is then one (mean, half)
    pair per seed, every task still evaluated once.
    """
    if not tasks:
        raise ValueError("no tasks to evaluate")
    if episodes < 1:
        raise ValueError("episodes must be positive")

    batch = Batch(lam, theta)
    for t in tasks:
        batch.add_singleton(t)
    per_task = batch.forward(metric).accuracies()

    def stats(s):
        rng = np.random.default_rng([s, 0x5EED])
        accs = np.asarray(per_task)[rng.integers(len(tasks), size=episodes)]
        half = float(1.96 * np.std(accs, ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
        return float(np.mean(accs)), half

    if isinstance(seed, (list, tuple)):
        return [stats(s) for s in seed]
    return stats(seed)
