"""Encoder split at the interpolation layer, prototypes, the episode
cross-entropy, the batched episode graph, and meta-test classification.

The predictive model is upper-stack ∘ set-function ∘ lower-stack: every
support and query representation passes through the set function as a
singleton set at the split layer, in training and at meta-test alike.
With the identity set function this is a vanilla prototypical network.

Every loss and score is one `Batch`: the episodes of all task pairs and
all loss terms are laid out first, drawing their randomness in a fixed
order, and then one graph computes them together. The singleton episode
loss, the mixed-task loss of `interpolate`, the validation loss, the
meta-test accuracies and the prototypes a training run writes out are
batches of one or many episodes; rows of every set size share one
lower-stack and one upper-stack pass, and each episode's queries (every
episode has at least one) meet only its own prototypes, as one block of
`block_sq_dists`.
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


def encode_lower(theta: EncoderParams, x) -> DiffValue:
    """Layers 1..split (identity when split = 0, input-layer interpolation)."""
    return ad.affine_stack(x, [(l.w, l.b) for l in theta.layers[: theta.split]], theta.slope)


def encode_upper(theta: EncoderParams, h) -> DiffValue:
    """Layers split+1..L; the final layer is affine-only."""
    return ad.affine_stack(h, [(l.w, l.b) for l in theta.layers[theta.split :]], theta.slope,
                           activate_last=False)


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
    return ad.mul(ad.scatter_rows(embeddings, labels, way), 1.0 / counts[:, None])


METRICS = ("sqeuclidean", "euclidean")  # in checkpoint-code order


def _apply_metric(d2, metric: str) -> DiffValue:
    if metric == "sqeuclidean":
        return d2
    if metric == "euclidean":
        return ad.powf(ad.add(d2, 1e-12), 0.5)
    raise ValueError(f"unknown metric {metric!r}")


def pairwise_dists(queries, protos, metric: str = "sqeuclidean") -> DiffValue:
    """(N, K) distance matrix between query rows and prototype rows."""
    return _apply_metric(ad.block_sq_dists(queries, protos, 1), metric)


def _cross_entropy_terms(dists, weights: np.ndarray) -> DiffValue:
    """weights * (-log softmax(-dists)), row by row: summed, the cross-
    entropy of every row at the columns its nonnegative weights mark."""
    logp = ad.log_softmax_rows(ad.mul(dists, -1.0))
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


class _NoRng:
    """The generator of a batch built without one: any draw raises."""

    def __getattr__(self, name):
        raise ValueError("a term of this batch draws at random, but the batch has no rng")


class Batch:
    """The episodes of one loss, laid out before any compute.

    Each `add_*` (here and in `interpolate`) makes its term's random draws
    from `rng` in a fixed order and records row indices only, as a few
    array operations per call: a task's rows are numbered once per batch,
    and a pair's cardinality-2 fused sets are one (P, 2) index built from
    the tasks' class tables and added in one call. Train mode
    needs an rng, and so does any term that must draw (extra set members,
    noise rows, query partners, the MLTI coefficient); without one such a
    draw raises ValueError. `forward` then builds one graph for every
    episode: one lower-stack pass over the features of every task involved
    (each task's support and query rows enter once), one
    `setfunc.set_forward` per set size, one upper-stack pass over all set
    outputs, the class means of every episode by one row scatter, each
    episode's queries against its own prototypes as one block of
    `block_sq_dists`, one log-softmax and one weighted sum.

    A ref (size, numbers) names set outputs. Every set of one size is
    drawn alike (in train mode the full set transformer's carry dropout
    masks), so the sets of one size are one group. The upper-stack input
    stacks the outputs of every group, smallest first; size 0 holds the
    mixed rows of the manifold-mixup baseline, which skip the set function.
    Singletons drawn without dropout masks are shared, so two terms that
    embed the same rows (the singleton and the mixed-task term's queries)
    embed them once.
    """

    def __init__(self, lam, theta: EncoderParams, mode: str = "eval",
                 rng: Optional[np.random.Generator] = None):
        if mode == "train" and rng is None:
            raise ValueError("a train-mode batch needs an rng")
        self.lam, self.theta, self.mode = lam, theta, mode
        self.rng = _NoRng() if rng is None else rng
        self._inputs = []        # feature matrices, stacked into the lower-stack input
        self._rows = {}          # (task, role) -> its input rows
        self._row_count = 0
        self._shared = np.full(64, -1)  # input row -> shared singleton, or -1; grows by doubling
        self._groups = {}        # set size -> _Sets
        self._episodes = []

    def rows(self, task: Task, role: str) -> np.ndarray:
        """The input rows of task's support ("s") or query ("q") features,
        laid out on first use; later calls return the same read-only array."""
        key = (task, role)
        rows = self._rows.get(key)
        if rows is None:
            x = task.xs if role == "s" else task.xq
            rows = np.arange(self._row_count, self._row_count + len(x))
            rows.flags.writeable = False
            self._rows[key] = rows
            self._inputs.append(x)
            self._row_count += len(x)
            if self._row_count > len(self._shared):
                grown = np.full(2 * self._row_count, -1)
                grown[:len(self._shared)] = self._shared
                self._shared = grown
        return rows

    def _add(self, size: int, index, masks=None, fill=None, coef=None) -> tuple:
        g = self._groups.setdefault(size, _Sets())
        g.index.append(index)
        g.masks.append(masks)
        g.fill.append(fill)
        g.coef.append(coef)
        g.count += len(index)
        return size, np.arange(g.count - len(index), g.count)

    def singletons(self, rows) -> tuple:
        """Ref of the input rows, each its own set; in train mode their
        dropout masks are drawn."""
        masks = setfunc.make_masks(self.lam, len(rows), self.rng, set_size=1) \
            if self.mode == "train" else None
        if masks is not None:
            return self._add(1, rows[:, None], masks)
        new = rows[self._shared[rows] < 0]
        if len(new):
            self._shared[new] = self._add(1, new[:, None])[1]
        return 1, self._shared[rows]

    def sets(self, index, fill=None) -> tuple:
        """Ref of the sets whose member rows are the rows of the (P, n)
        index (-1 for a zero row); fill, (P n, d), is added to the members.
        In train mode their dropout masks are drawn, set by set."""
        index = np.asarray(index, dtype=np.int64)
        masks = setfunc.make_masks(self.lam, index.size, self.rng, set_size=index.shape[1]) \
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
        loss adds weight times the mean over the queries, of which there
        must be at least one."""
        if not len(queries[1]):
            raise ValueError("an episode needs at least one query")
        self._episodes.append(_Episode(queries, np.asarray(targets, dtype=np.int64), protos,
                                       np.asarray(classes, dtype=np.int64), way, weight))

    def add_singleton(self, task: Task, weight: float = 1.0) -> None:
        """Task's episode with every row a singleton of the set function.
        Train mode draws the supports' masks, then the queries'."""
        protos = self.singletons(self.rows(task, "s"))
        queries = self.singletons(self.rows(task, "q"))
        self.episode(queries, task.yq, protos, task.ys, task.way, weight)

    def _outputs(self, size: int, g: _Sets, h: DiffValue) -> DiffValue:
        """The set outputs of one group, in the order the sets were added."""
        index = np.concatenate(g.index).reshape(-1)
        if size == 0:
            mixed = ad.mul(ad.take_rows(h, index), np.concatenate(g.coef).reshape(-1, 1))
            return ad.scatter_rows(mixed, np.repeat(np.arange(g.count), 2), g.count)
        identity = len(index) == h.shape[0] and np.array_equal(index, np.arange(len(index)))
        x = h if identity else ad.take_rows(h, index)
        if any(f is not None for f in g.fill):
            x = ad.add(x, DiffValue.const(np.vstack([
                np.zeros((i.size, h.shape[1])) if f is None else f
                for i, f in zip(g.index, g.fill)])))
        masks = None if g.masks[0] is None else tuple(np.vstack(site) for site in zip(*g.masks))
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
        for size in sorted(self._groups):
            start[size] = 0 if z is None else z.shape[0]
            out = self._outputs(size, self._groups[size], h)
            z = out if z is None else ad.concat_rows(z, out)
        e = encode_upper(self.theta, z)

        n_eps = len(self._episodes)
        m = max(len(ep.targets) for ep in self._episodes)
        q_index = np.full((n_eps, m), -1, dtype=np.int64)
        weights = np.zeros((n_eps, m, way))
        p_rows, p_labels = [], []
        for j, ep in enumerate(self._episodes):
            nq = len(ep.targets)
            q_index[j, :nq] = start[ep.queries[0]] + ep.queries[1]
            weights[j, np.arange(nq), ep.targets - 1] = ep.weight / nq
            p_rows.append(start[ep.protos[0]] + ep.protos[1])
            p_labels.append(j * way + ep.classes)
        protos = prototypes_from_matrix(ad.take_rows(e, np.concatenate(p_rows)),
                                        np.concatenate(p_labels), n_eps * way)
        queries = ad.take_rows(e, q_index.reshape(-1))
        dists = _apply_metric(ad.block_sq_dists(queries, protos, n_eps), metric)
        return Scores(protos, dists, weights.reshape(n_eps * m, way),
                      [ep.targets for ep in self._episodes])


@dataclass
class Scores:
    """A batch's graph: every episode's K prototype rows (episode j's class
    k is row j K + k - 1), and each episode's (m, K) block of query
    distances, m the most queries of any episode, whose rows past its own
    queries are padding of weight 0."""

    protos: DiffValue
    dists: DiffValue
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


def loss_singleton(lam, theta: EncoderParams, task: Task, mode: str = "eval",
                   rng: Optional[np.random.Generator] = None,
                   metric: str = "sqeuclidean") -> DiffValue:
    """Eq.-(2)-style episode loss with every representation routed through
    the set function as a singleton."""
    batch = Batch(lam, theta, mode, rng)
    batch.add_singleton(task)
    return batch.forward(metric).loss()


def task_accuracy(lam, theta: EncoderParams, task: Task,
                  metric: str = "sqeuclidean") -> float:
    """Fraction of query points classified to their own class."""
    batch = Batch(lam, theta)
    batch.add_singleton(task)
    return batch.forward(metric).accuracies()[0]


def accuracy(lam, theta: EncoderParams, tasks, episodes: int, seed,
             metric: str = "sqeuclidean"):
    """Mean episode accuracy and a 95% CI half-width over episodes.

    Episodes draw tasks uniformly with replacement; task evaluation is
    deterministic, so per-task accuracies are computed once, in one
    batched pass over every task, and reused.
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
