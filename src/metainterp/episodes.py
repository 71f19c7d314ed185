"""Episodic task data model, synthetic few-task generators, and task-file I/O.

A Task is a K-way classification episode: a labeled support set for
adaptation and a labeled query set for evaluation. The generator builds a
small number of distinct tasks by composing per-task transforms
(rotation / scale / offset) of a Gaussian cluster layout, which gives a
controllable "few distinct tasks" axis without any real dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

_QUARTER_TURNS = tuple(i * np.pi / 4.0 for i in range(5))


class TaskError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Example:
    features: np.ndarray  # (D_in,)
    label: int            # 1..K

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.features)):
            raise TaskError("non-finite feature")


def _features(examples, width: int) -> np.ndarray:
    """The examples' features as one read-only (N, width) matrix."""
    x = np.stack([ex.features for ex in examples]) if examples else np.empty((0, width))
    x.flags.writeable = False
    return x


def _labels(examples) -> np.ndarray:
    """The examples' labels as one read-only int array."""
    y = np.array([ex.label for ex in examples], dtype=np.int64)
    y.flags.writeable = False
    return y


@dataclass(frozen=True)
class Task:
    """An episode's examples, fixed at construction (stored as tuples; to
    change a task, build a new one), and their arrays, each built on first
    use and kept."""

    support: tuple
    query: tuple
    way: int

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "query", tuple(self.query))
        for ex in self.support + self.query:
            if not 1 <= ex.label <= self.way:
                raise TaskError(f"label {ex.label} outside 1..{self.way}")
        for k in range(1, self.way + 1):
            if not any(ex.label == k for ex in self.support):
                raise TaskError(f"class {k} has no support examples")

    @cached_property
    def xs(self) -> np.ndarray:
        """Support features, (N_s, D_in)."""
        return _features(self.support, 0)

    @cached_property
    def ys(self) -> np.ndarray:
        """Support labels, 1..way."""
        return _labels(self.support)

    @cached_property
    def xq(self) -> np.ndarray:
        """Query features, (N_q, D_in)."""
        return _features(self.query, self.xs.shape[1])

    @cached_property
    def yq(self) -> np.ndarray:
        """Query labels, 1..way."""
        return _labels(self.query)

    def support_of_class(self, k: int) -> list:
        out = [ex for ex in self.support if ex.label == k]
        if not out:
            raise TaskError(f"class {k} has no support examples")
        return out

    def queries_of_class(self, k: int) -> list:
        return [ex for ex in self.query if ex.label == k]


@dataclass
class TaskDataset:
    meta_train: list
    meta_val: list
    meta_test: list
    dim: int

    def __post_init__(self):
        for split in (self.meta_train, self.meta_val, self.meta_test):
            for t in split:
                for ex in t.support + t.query:
                    if ex.features.shape != (self.dim,):
                        raise TaskError(
                            f"feature width {ex.features.shape[0]} != dims {self.dim}"
                        )

    @property
    def way(self) -> int:
        for split in (self.meta_train, self.meta_val, self.meta_test):
            if split:
                return split[0].way
        raise TaskError("empty dataset")


@dataclass
class GenConfig:
    way: int = 5
    shots: int = 1
    queries: int = 5
    dim: int = 8
    train_tasks: int = 5
    val_tasks: int = 2
    test_tasks: int = 10
    spread: float = 0.5
    angles: Sequence[float] = _QUARTER_TURNS
    scales: Sequence[float] = (0.6, 1.0, 1.6)
    offsets: Sequence[float] = (-1.0, 0.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("way", "shots", "queries", "dim", "train_tasks", "val_tasks", "test_tasks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def _rotation(dim: int, angle: float) -> np.ndarray:
    """Givens rotation by `angle` in every consecutive coordinate pair."""
    R = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for j in range(0, dim - 1, 2):
        R[j, j], R[j, j + 1], R[j + 1, j], R[j + 1, j + 1] = c, -s, s, c
    return R


def _noise_profile(dim: int) -> np.ndarray:
    """Per-dimension noise scale, fixed across tasks.

    The ramp makes some coordinates reliable and others noisy, so a metric
    that down-weights the noisy ones transfers between tasks; with
    isotropic noise there would be nothing for a meta-learner to learn.
    """
    if dim == 1:
        return np.ones(1)
    return np.linspace(0.5, 2.5, dim)


def _base_centers(cfg: GenConfig) -> np.ndarray:
    """Class layout shared by every task; tasks differ by their transform."""
    rng = np.random.default_rng([cfg.seed, 7])
    return rng.standard_normal((cfg.way, cfg.dim)) * 2.0


def _gen_task(cfg: GenConfig, base: np.ndarray, rng: np.random.Generator) -> Task:
    angle = cfg.angles[rng.integers(len(cfg.angles))]
    scale = cfg.scales[rng.integers(len(cfg.scales))]
    offset = cfg.offsets[rng.integers(len(cfg.offsets))]
    R = _rotation(cfg.dim, angle)
    noise_scale = cfg.spread * _noise_profile(cfg.dim)

    # task-specific transformed base distribution: the shared class layout
    # under this task's transform composition, plus a center draw
    centers = scale * (base @ R.T) + offset
    centers = centers + 0.5 * noise_scale * rng.standard_normal(centers.shape)

    support, query = [], []
    for k in range(cfg.way):
        pts = centers[k] + noise_scale * rng.standard_normal(
            (cfg.shots + cfg.queries, cfg.dim)
        )
        for i in range(cfg.shots):
            support.append(Example(pts[i], k + 1))
        for i in range(cfg.shots, cfg.shots + cfg.queries):
            query.append(Example(pts[i], k + 1))
    return Task(support=support, query=query, way=cfg.way)


def gen_gaussian_tasks(cfg: GenConfig) -> TaskDataset:
    """Deterministic in cfg.seed; tasks are transform compositions of one
    shared class layout, mirroring the image-transform task construction."""
    base = _base_centers(cfg)
    splits = []
    for split_idx, count in enumerate((cfg.train_tasks, cfg.val_tasks, cfg.test_tasks)):
        tasks = []
        for t in range(count):
            rng = np.random.default_rng([cfg.seed, split_idx, t])
            tasks.append(_gen_task(cfg, base, rng))
        splits.append(tasks)
    return TaskDataset(*splits, dim=cfg.dim)


def sample_pair(dataset: TaskDataset, rng: np.random.Generator):
    """Uniform ordered pair of distinct meta-train tasks (same task twice
    only when there is a single task)."""
    tasks = dataset.meta_train
    if not tasks:
        raise TaskError("no tasks in meta_train")
    if len(tasks) == 1:
        return tasks[0], tasks[0]
    i = int(rng.integers(len(tasks)))
    j = int(rng.integers(len(tasks) - 1))
    if j >= i:
        j += 1
    return tasks[i], tasks[j]


# ---------------------------------------------------------------------------
# file format

_HEADER = "# meta-interp-tasks v1"
_SPLITS = ("train", "val", "test")
_ROLES = ("support", "query")


def save_tasks(dataset: TaskDataset, path) -> None:
    lines = [_HEADER, f"dims={dataset.dim} way={dataset.way}"]
    for split_name, tasks in zip(_SPLITS, (dataset.meta_train, dataset.meta_val, dataset.meta_test)):
        for tid, task in enumerate(tasks):
            for role, examples in (("support", task.support), ("query", task.query)):
                for ex in examples:
                    feats = ",".join("%.17g" % v for v in ex.features)
                    lines.append(f"{tid},{split_name},{ex.label},{role},{feats}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_tasks(path) -> TaskDataset:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise ParseError(f"expected header {_HEADER!r}", 1)
    if len(lines) < 2:
        raise ParseError("missing dims/way line", 2)
    try:
        fields = dict(part.split("=", 1) for part in lines[1].split())
        dim = int(fields["dims"])
        way = int(fields["way"])
    except (ValueError, KeyError) as e:
        raise ParseError(f"bad dims/way header: {e}", 2) from None

    rows: dict = {s: {} for s in _SPLITS}
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4 + dim:
            raise ParseError(
                f"expected {4 + dim} fields for dims={dim}, got {len(parts)}", ln
            )
        try:
            tid = int(parts[0])
            split = parts[1]
            label = int(parts[2])
            role = parts[3]
            feats = np.array([float(v) for v in parts[4:]], dtype=np.float64)
        except ValueError as e:
            raise ParseError(str(e), ln) from None
        if split not in _SPLITS:
            raise ParseError(f"unknown split {split!r}", ln)
        if role not in _ROLES:
            raise ParseError(f"unknown role {role!r}", ln)
        bucket = rows[split].setdefault(tid, {"support": [], "query": []})
        bucket[role].append(Example(feats, label))

    splits = []
    for split in _SPLITS:
        tasks = []
        for tid in sorted(rows[split]):
            bucket = rows[split][tid]
            tasks.append(Task(support=bucket["support"], query=bucket["query"], way=way))
        splits.append(tasks)
    if not splits[0]:
        raise ParseError("no tasks", len(lines))
    return TaskDataset(*splits, dim=dim)
