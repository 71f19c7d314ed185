"""Episodic task data model, synthetic few-task generators, and task-file I/O.

A Task is a K-way classification episode held as four read-only arrays:
labeled support rows for adaptation (`xs`, `ys`) and labeled query rows
for evaluation (`xq`, `yq`), checked in bulk when the task is built, and
tables of its support and of its query rows by class, built on first use.
The generator builds a small number of distinct tasks by composing per-task
transforms (rotation / scale / offset) of a Gaussian cluster layout, which
gives a controllable "few distinct tasks" axis without any real dataset.
The reader parses a task file in one pass: every line's key fields one by
one, all feature text in one float conversion, then each task's rows by
index. A fault found in a task names the file's split and task id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

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
    """One row of a task, as `Task.support` and `Task.query` list them."""

    features: np.ndarray  # (D_in,)
    label: int            # 1..K


def _class_table(labels: np.ndarray, way: int) -> tuple:
    """(rows, first, count): the row numbers of labels (1..way) grouped by
    class by one stable sort, so each class's rows keep their order; class
    c's (maybe none) are rows[first[c-1]:first[c-1] + count[c-1]]."""
    rows = np.argsort(labels, kind="stable")
    count = np.bincount(labels, minlength=way + 1)[1:]
    first = np.cumsum(count) - count
    for a in (rows, first, count):
        a.flags.writeable = False
    return rows, first, count


@dataclass(frozen=True, eq=False)
class Task:
    """An episode's support and query rows and labels, copied into
    read-only arrays and checked at construction (to change a task, build
    a new one)."""

    xs: np.ndarray  # support features, (N_s, D_in)
    ys: np.ndarray  # support labels, 1..way
    xq: np.ndarray  # query features, (N_q, D_in)
    yq: np.ndarray  # query labels, 1..way
    way: int

    def __post_init__(self):
        for name, dtype in (("xs", np.float64), ("ys", np.int64),
                            ("xq", np.float64), ("yq", np.int64)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        xs, ys, xq, yq = self.xs, self.ys, self.xq, self.yq
        if xs.ndim != 2 or xq.shape[1:] != xs.shape[1:] or ys.shape != xs.shape[:1] \
                or yq.shape != xq.shape[:1]:
            raise TaskError("feature rows and labels do not line up")
        if not (np.isfinite(xs).all() and np.isfinite(xq).all()):
            raise TaskError("non-finite feature")
        y = np.concatenate([ys, yq])
        bad = (y < 1) | (y > self.way)
        if bad.any():
            raise TaskError(f"label {y[bad.argmax()]} outside 1..{self.way}")
        missing = np.flatnonzero(np.bincount(ys, minlength=self.way + 1)[1:] == 0)
        if missing.size:
            raise TaskError(f"class {missing[0] + 1} has no support examples")
        if not len(yq):
            raise TaskError("task has no query rows")

    @cached_property
    def support_by_class(self) -> tuple:
        """The support rows' `_class_table`, built on first use."""
        return _class_table(self.ys, self.way)

    @cached_property
    def query_by_class(self) -> tuple:
        """The query rows' `_class_table`, built on first use."""
        return _class_table(self.yq, self.way)

    @cached_property
    def support(self) -> tuple:
        """The support rows as Examples, built on first use."""
        return tuple(map(Example, self.xs, self.ys.tolist()))

    @cached_property
    def query(self) -> tuple:
        """The query rows as Examples, built on first use."""
        return tuple(map(Example, self.xq, self.yq.tolist()))


@dataclass
class TaskDataset:
    meta_train: list
    meta_val: list
    meta_test: list
    dim: int
    # the task file's id of each meta-train task; None numbers them by
    # position, as generated datasets and the files gen-tasks writes do
    meta_train_ids: Optional[tuple] = None

    def __post_init__(self):
        for t in (*self.meta_train, *self.meta_val, *self.meta_test):
            if t.xs.shape[1] != self.dim:
                raise TaskError(f"feature width {t.xs.shape[1]} != dims {self.dim}")

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
        for name in ("angles", "scales", "offsets"):
            values = getattr(self, name)
            if not len(values) or not np.isfinite(values).all():
                raise ValueError(f"{name} must list at least one value, all finite")
        if not 0 <= self.spread < np.inf:  # NaN fails too
            raise ValueError(f"spread {self.spread} is not a finite number >= 0")


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

    # each class's rows in one draw: its shots, then its queries
    n = cfg.shots + cfg.queries
    pts = centers[:, None] + noise_scale * rng.standard_normal((cfg.way, n, cfg.dim))
    labels = np.arange(1, cfg.way + 1)
    return Task(pts[:, :cfg.shots].reshape(-1, cfg.dim), np.repeat(labels, cfg.shots),
                pts[:, cfg.shots:].reshape(-1, cfg.dim), np.repeat(labels, cfg.queries),
                cfg.way)


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
    row = ",".join(["%.17g"] * dataset.dim)
    for split_name, tasks in zip(_SPLITS, (dataset.meta_train, dataset.meta_val, dataset.meta_test)):
        for tid, task in enumerate(tasks):
            for role, x, y in (("support", task.xs, task.ys), ("query", task.xq, task.yq)):
                for feats, label in zip(x.tolist(), y.tolist()):
                    lines.append(f"{tid},{split_name},{label},{role}," + row % tuple(feats))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _row(text: str, line: int) -> list:
    """One row's feature values, parsed as the bulk conversion parses them."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as e:
        raise ParseError(str(e), line) from None


_NUMBERS_PER_CONVERSION = 1024  # bounds the number strings alive at once


def _features(rows: list, dim: int) -> np.ndarray:
    """A block of (feature text, line number) rows as a (rows, dim) matrix,
    in one numpy float conversion. Only when the conversion or the
    finiteness check fails are the rows parsed one by one, to report the
    first bad or non-finite number."""
    try:
        x = np.array(",".join(t for t, _ in rows).split(",") if rows else [], dtype=np.float64)
        if np.isfinite(x).all():
            return x.reshape(-1, dim)
    except ValueError:
        pass
    values = []
    for text, line in rows:
        values.append(_row(text, line))
        if not np.isfinite(values[-1]).all():
            raise TaskError("non-finite feature")
    return np.array(values).reshape(-1, dim)


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
        if dim < 1 or way < 1:
            raise ValueError("dims and way must be positive")
    except (ValueError, KeyError) as e:
        raise ParseError(f"bad dims/way header: {e}", 2) from None

    # key fields line by line, feature text a block of rows at a time; a
    # bad line is reported after the rows before it are converted, so the
    # first fault in file order is the one reported
    blocks, pending, labels, rows = [], [], [], {}
    step = max(1, _NUMBERS_PER_CONVERSION // dim)
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        got = line.count(",") + 1
        if got != 4 + dim:
            _features(pending, dim)
            raise ParseError(f"expected {4 + dim} fields for dims={dim}, got {got}", ln)
        tid, split, label, role, feats = line.split(",", 4)
        try:
            tid, label = int(tid), int(label)
        except ValueError as e:
            _features(pending, dim)
            raise ParseError(str(e), ln) from None
        if split not in _SPLITS or role not in _ROLES:
            _features(pending, dim)
            _row(feats, ln)  # on its own line, a bad number comes first
            bad = ("split", split) if split not in _SPLITS else ("role", role)
            raise ParseError("unknown %s %r" % bad, ln)
        rows.setdefault((split, tid), ([], []))[role == "query"].append(len(labels))
        labels.append(label)
        pending.append((feats, ln))
        if len(pending) == step:
            blocks.append(_features(pending, dim))
            pending = []
    blocks.append(_features(pending, dim))

    x, y = np.concatenate(blocks), np.array(labels, dtype=np.int64)
    keys = [sorted(k for k in rows if k[0] == split) for split in _SPLITS]
    splits = [[_task(x, y, rows[k], way, k) for k in split_keys] for split_keys in keys]
    if not splits[0]:
        raise ParseError("no tasks", len(lines))
    return TaskDataset(*splits, dim=dim, meta_train_ids=tuple(tid for _, tid in keys[0]))


def _task(x, y, rows, way: int, key) -> Task:
    """The task of a file's (split, task id) key from its support and
    query row numbers; a fault is reported with the key."""
    s, q = rows
    try:
        return Task(x[s], y[s], x[q], y[q], way)
    except TaskError as e:
        raise TaskError("%s task %d: %s" % (*key, e)) from None
