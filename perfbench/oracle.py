"""Numpy re-computations of the program's outputs, written apart from it.

Nothing here imports `metainterp`. Task files and checkpoints are parsed
by the readers below, the model is rebuilt from checkpoint arrays, first-
order gradients come from the small reverse mode below, and every
Hessian-vector product of the Neumann hypergradient is a central finite
difference of those first-order gradients.

Arrays keep the program's row convention. A batch of sets is a
(sets, members, width) array, so one set-function forward covers the
singleton pass (one member per set) and the fused sets of the mixed loss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class OracleError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# file readers


@dataclass
class TaskArrays:
    xs: np.ndarray  # (support rows, dims)
    ys: np.ndarray  # support labels, 1..way
    xq: np.ndarray
    yq: np.ndarray
    way: int


def read_tasks(path) -> dict:
    """{"train"|"val"|"test": [TaskArrays, ...]} in task-id order."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    fields = dict(part.split("=", 1) for part in lines[1].split())
    dim, way = int(fields["dims"]), int(fields["way"])
    rows: dict = {"train": {}, "val": {}, "test": {}}
    for line in lines[2:]:
        if not line:
            continue
        tid, split, label, role, *feats = line.split(",")
        if len(feats) != dim:
            raise OracleError(f"task row with {len(feats)} features, expected {dim}")
        bucket = rows[split].setdefault(int(tid), {"support": [], "query": []})
        bucket[role].append((int(label), [float(v) for v in feats]))
    out = {}
    for split, tasks in rows.items():
        out[split] = []
        for tid in sorted(tasks):
            s, q = tasks[tid]["support"], tasks[tid]["query"]
            out[split].append(TaskArrays(
                xs=np.array([r for _, r in s]), ys=np.array([y for y, _ in s]),
                xq=np.array([r for _, r in q]), yq=np.array([y for y, _ in q]),
                way=way))
    return out


def read_checkpoint(path) -> dict:
    """{name: (rows, cols) float64 array} from a checkpoint file."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    named, i = {}, 1
    while i < len(lines):
        tag, name, rows, cols = lines[i].split()
        if tag != "tensor":
            raise OracleError(f"checkpoint line {i + 1}: {lines[i]!r}")
        rows, cols = int(rows), int(cols)
        named[name] = np.array([[float(v) for v in lines[i + 1 + r].split()]
                                for r in range(rows)]).reshape(rows, cols)
        i += 1 + rows
    return named


# ---------------------------------------------------------------------------
# first-order reverse mode over numpy arrays with broadcasting

_ORDER = itertools.count()


class Var:
    """A differentiable array: its value and (parent, vector-Jacobian) links."""

    __slots__ = ("value", "links", "order")

    def __init__(self, value, links=()):
        self.value = np.asarray(value, dtype=np.result_type(value, np.float64))
        self.links = links
        self.order = next(_ORDER)


def val(x):
    return x.value if isinstance(x, Var) else x


def _node(value, *links):
    links = tuple((p, f) for p, f in links if isinstance(p, Var))
    return Var(value, links) if links else value


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _swap(x):
    return np.swapaxes(x, -1, -2)


def add(a, b):
    sa, sb = np.shape(val(a)), np.shape(val(b))
    return _node(val(a) + val(b), (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(g, sb)))


def sub(a, b):
    sa, sb = np.shape(val(a)), np.shape(val(b))
    return _node(val(a) - val(b), (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(-g, sb)))


def mul(a, b):
    av, bv = val(a), val(b)
    return _node(av * bv, (a, lambda g: _unbroadcast(g * bv, np.shape(av))),
                 (b, lambda g: _unbroadcast(g * av, np.shape(bv))))


def div(a, b):
    av, bv = val(a), val(b)
    return _node(av / bv, (a, lambda g: _unbroadcast(g / bv, np.shape(av))),
                 (b, lambda g: _unbroadcast(-g * av / (bv * bv), np.shape(bv))))


def matmul(a, b):
    av, bv = val(a), val(b)
    return _node(av @ bv, (a, lambda g: _unbroadcast(g @ _swap(bv), av.shape)),
                 (b, lambda g: _unbroadcast(_swap(av) @ g, bv.shape)))


def transpose(a):
    return _node(_swap(val(a)), (a, _swap))


def exp(a):
    out = np.exp(val(a))
    return _node(out, (a, lambda g: g * out))


def log(a):
    av = val(a)
    return _node(np.log(av), (a, lambda g: g / av))


def power(a, p):
    av = val(a)
    return _node(av ** p, (a, lambda g: g * p * av ** (p - 1)))


def total(a, axis):
    shape = np.shape(val(a))
    return _node(val(a).sum(axis=axis, keepdims=True),
                 (a, lambda g: np.broadcast_to(g, shape)))


def reshape(a, shape):
    old = np.shape(val(a))
    return _node(val(a).reshape(shape), (a, lambda g: g.reshape(old)))


def concat(parts, axis):
    sizes = [np.shape(val(p))[axis] for p in parts]
    cuts = np.cumsum(sizes)[:-1]
    out = np.concatenate([val(p) for p in parts], axis=axis)
    return _node(out, *[(p, lambda g, i=i: np.split(g, cuts, axis=axis)[i])
                        for i, p in enumerate(parts)])


def take_rows(a, idx):
    av = val(a)

    def vjp(g):
        z = np.zeros_like(av)
        np.add.at(z, idx, g)
        return z

    return _node(av[idx], (a, vjp))


def leaky_relu(a, slope, kinks=None):
    """kinks, when given, collects each call's sign pattern, so a finite
    difference can tell whether its two points sit on one linear piece."""
    pos = val(a) > 0
    if kinks is not None:
        kinks.append(pos)
    factor = np.where(pos, 1.0, slope)
    return _node(val(a) * factor, (a, lambda g: g * factor))


def gradients(out: Var, leaves) -> list:
    """d out / d leaf for each leaf (zeros for leaves out doesn't reach)."""
    seen, stack, nodes = set(), [out], []
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        nodes.append(n)
        stack.extend(p for p, _ in n.links)
    nodes.sort(key=lambda n: n.order, reverse=True)
    adj = {id(out): np.ones_like(out.value)}
    for n in nodes:
        g = adj.get(id(n))
        if g is None:
            continue
        for p, vjp in n.links:
            pg = vjp(g)
            adj[id(p)] = adj[id(p)] + pg if id(p) in adj else pg
    return [adj.get(id(leaf), np.zeros_like(leaf.value)) for leaf in leaves]


# ---------------------------------------------------------------------------
# the model, rebuilt from checkpoint arrays

KINDS = {0: "identity", 1: "simple", 2: "full", 3: "deepsets"}
METRICS = {0: "sqeuclidean", 1: "euclidean"}
N_HEADS = 4


@dataclass
class Model:
    p: dict                   # checkpoint name -> array or Var
    kinks: list = None

    def __post_init__(self):
        meta = {k: float(np.asarray(val(v)).ravel()[0])
                for k, v in self.p.items() if k.startswith("meta.")}
        self.split = int(meta["meta.split"])
        self.slope = meta["meta.slope"]
        self.kind = KINDS[int(meta["meta.set_kind"])]
        self.rate = meta["meta.dropout_rate"]
        self.metric = METRICS[int(meta["meta.metric"])]
        self.depth = sum(1 for k in self.p if k.startswith("theta.layers[") and k.endswith("].w"))
        if self.kind not in ("simple", "full"):
            raise OracleError(f"no oracle for set kind {self.kind!r}")

    @property
    def hidden(self) -> int:
        return np.shape(val(self.p["lam.w4"]))[0]


def _stack(m: Model, x, layers, last_linear: bool):
    for n, i in enumerate(layers):
        x = add(matmul(x, m.p[f"theta.layers[{i}].w"]), m.p[f"theta.layers[{i}].b"])
        if not (last_linear and n == len(layers) - 1):
            x = leaky_relu(x, m.slope, m.kinks)
    return x


def lower(m: Model, x):
    return _stack(m, x, range(m.split), last_linear=False)


def upper(m: Model, h):
    return _stack(m, h, range(m.split, m.depth), last_linear=True)


def softmax_last(z):
    e = exp(sub(z, val(z).max(axis=-1, keepdims=True)))
    return div(e, total(e, -1))


def layer_norm(x, gain, bias):
    n = np.shape(val(x))[-1]
    xc = sub(x, mul(total(x, -1), 1.0 / n))
    var = mul(total(mul(xc, xc), -1), 1.0 / n)
    return add(mul(mul(xc, power(add(var, 1e-12), -0.5)), gain), bias)


def _simple_sets(m: Model, x):
    p = m.p
    c = 1.0 / math.sqrt(np.shape(val(x))[-1])
    q1 = add(matmul(x, p["lam.w1q"]), p["lam.b1q"])
    k1 = add(matmul(x, p["lam.w1k"]), p["lam.b1k"])
    v1 = add(matmul(x, p["lam.w1v"]), p["lam.b1v"])
    h2 = matmul(softmax_last(mul(matmul(q1, transpose(k1)), c)), v1)
    q2 = add(matmul(p["lam.seed"], p["lam.w2q"]), p["lam.b2q"])
    k2 = add(matmul(h2, p["lam.w2k"]), p["lam.b2k"])
    v2 = add(matmul(h2, p["lam.w2v"]), p["lam.b2v"])
    return matmul(softmax_last(mul(matmul(q2, transpose(k2)), c)), v2)


def _attend(m: Model, block: str, queries, keys_values):
    outs = []
    for j in range(N_HEADS):
        h = f"lam.{block}.heads[{j}]"
        q = add(matmul(queries, m.p[f"{h}.wq"]), m.p[f"{h}.bq"])
        k = add(matmul(keys_values, m.p[f"{h}.wk"]), m.p[f"{h}.bk"])
        v = add(matmul(keys_values, m.p[f"{h}.wv"]), m.p[f"{h}.bv"])
        c = 1.0 / math.sqrt(np.shape(val(q))[-1])
        att = softmax_last(mul(matmul(q, transpose(k)), c))
        outs.append(layer_norm(add(q, matmul(att, v)), m.p[f"{h}.ln_gain"],
                               m.p[f"{h}.ln_bias"]))
    return concat(outs, axis=-1)


def _mix(m: Model, block: str, o, first: bool):
    p = m.p
    ff = leaky_relu(add(matmul(o, p[f"lam.{block}.w"]), p[f"lam.{block}.b"]), 0.0, m.kinks)
    if first:
        return add(layer_norm(o, p[f"lam.{block}.ln_gain"], p[f"lam.{block}.ln_bias"]), ff)
    return layer_norm(add(o, ff), p[f"lam.{block}.ln_gain"], p[f"lam.{block}.ln_bias"])


def _full_sets(m: Model, x, masks):
    keep = 1.0 - m.rate
    g1 = _mix(m, "block1", _attend(m, "block1", x, x), True)
    h2 = _mix(m, "block2", _attend(m, "block2", g1, g1), False)
    if masks is not None:
        h2 = mul(h2, masks[0] / keep)
    h3 = _mix(m, "block3", _attend(m, "block3", m.p["lam.seed"], h2), False)
    if masks is not None:
        h3 = mul(h3, masks[1] / keep)
    return add(matmul(h3, m.p["lam.w4"]), m.p["lam.b4"])


def set_function(m: Model, x, masks=None):
    """(sets, members, d) -> (sets, 1, d). masks: the two dropout sites as
    (sets, members, hidden) and (sets, 1, hidden) keep-masks."""
    if m.kind == "simple":
        return _simple_sets(m, x)
    return _full_sets(m, x, masks)


def embed(m: Model, x, masks=None):
    """Lower stack, every row through the set function alone, upper stack."""
    h = lower(m, x)
    n, d = np.shape(val(h))
    z = set_function(m, reshape(h, (n, 1, d)), masks)
    return upper(m, reshape(z, (n, np.shape(val(z))[-1])))


def class_means(labels, way: int) -> np.ndarray:
    pick = (np.asarray(labels)[None, :] == np.arange(1, way + 1)[:, None]).astype(float)
    return pick / pick.sum(axis=1, keepdims=True)


def distances(m: Model, e, protos):
    n, k = np.shape(val(e))[0], np.shape(val(protos))[0]
    diff = sub(reshape(e, (n, 1, -1)), reshape(protos, (1, k, -1)))
    d2 = reshape(total(mul(diff, diff), -1), (n, k))
    return power(add(d2, 1e-12), 0.5) if m.metric == "euclidean" else d2


def cross_entropy(d, targets):
    z = mul(d, -1.0)
    zs = sub(z, val(z).max(axis=1, keepdims=True))
    logp = sub(zs, log(total(exp(zs), 1)))
    onehot = (np.asarray(targets)[:, None] == np.arange(1, np.shape(val(d))[1] + 1)).astype(float)
    return mul(total(total(mul(logp, onehot), 1), 0), -1.0 / len(targets))


def episode_loss(m: Model, t: TaskArrays, sup_masks=None, query_masks=None):
    """Cross-entropy of the queries against the support class means."""
    protos = matmul(class_means(t.ys, t.way), embed(m, t.xs, sup_masks))
    return cross_entropy(distances(m, embed(m, t.xq, query_masks), protos), t.yq)


# ---------------------------------------------------------------------------
# meta-test accuracy


def task_accuracies(named: dict, tasks) -> np.ndarray:
    """Nearest-prototype query accuracy of every task (ties to the lowest
    class), all tasks in one pass."""
    m = Model(named)
    ns, nq = len(tasks[0].ys), len(tasks[0].yq)
    es = embed(m, np.concatenate([t.xs for t in tasks])).reshape(len(tasks), ns, -1)
    eq = embed(m, np.concatenate([t.xq for t in tasks])).reshape(len(tasks), nq, -1)
    protos = np.stack([class_means(t.ys, t.way) for t in tasks]) @ es
    d = np.sum((eq[:, :, None, :] - protos[:, None, :, :]) ** 2, axis=-1)
    if m.metric == "euclidean":
        d = np.sqrt(d + 1e-12)
    pred = np.argmin(d, axis=2) + 1
    return np.mean(pred == np.stack([t.yq for t in tasks]), axis=1)


def episode_accuracy(per_task: np.ndarray, episodes: int, seed: int):
    """Mean and 95% half-width over episodes drawn with the documented
    stream default_rng([seed, 0x5EED])."""
    draws = np.random.default_rng([seed, 0x5EED]).integers(len(per_task), size=episodes)
    accs = per_task[draws]
    half = 1.96 * np.std(accs, ddof=1) / np.sqrt(episodes) if episodes > 1 else 0.0
    return float(np.mean(accs)), float(half)


# ---------------------------------------------------------------------------
# one outer update's hypergradient


@dataclass
class StepConfig:
    """What a training step's draws and losses depend on."""

    seed: int
    iteration: int
    batch: int
    val_batch: int
    alpha: float             # inner learning rate
    q: int                   # Neumann terms
    cardinality: int = 2


@dataclass
class Plan:
    """Every random draw of one training step, made once so the loss can
    be re-evaluated at perturbed parameters with the same draws."""

    steps: list = field(default_factory=list)
    val_tasks: list = field(default_factory=list)
    rng_state: dict = None   # generator state when the hypergradient starts


def _singleton_masks(kind, rate, hidden, n, rng):
    if kind != "full":
        return None
    keep = 1.0 - rate
    m2 = (rng.random((n, hidden)) < keep).astype(float)
    m3 = (rng.random((n, hidden)) < keep).astype(float)
    return m2.reshape(n, 1, hidden), m3.reshape(n, 1, hidden)


def _extra(anchor, count, pool, rng):
    if count <= 0:
        return []
    others = [i for i in range(pool) if i != anchor]
    if len(others) >= count:
        return [int(i) for i in rng.choice(others, size=count, replace=False)]
    return [int(i) for i in rng.integers(pool, size=count)]


def draw_plan(cfg: StepConfig, tasks: dict, kind: str, rate: float, hidden: int) -> Plan:
    """Replays the documented draw order of one training step: the batch
    of (task pair, class pairing), then per pair the singleton loss's
    dropout masks, the mixed loss's extra set members and masks, then the
    validation tasks of the hypergradient."""
    rng = np.random.default_rng([cfg.seed, 211, cfg.iteration])
    train, way = tasks["train"], tasks["train"][0].way
    if len(train) < 2:
        raise OracleError("the oracle needs at least two meta-train tasks")
    pairs = []
    for _ in range(cfg.batch):
        i = int(rng.integers(len(train)))
        j = int(rng.integers(len(train) - 1))
        j += j >= i
        pairs.append((train[i], train[j], rng.permutation(way) + 1, rng.permutation(way) + 1))
    plan = Plan()
    n1, n2 = (cfg.cardinality + 1) // 2, cfg.cardinality // 2
    for t1, t2, s1, s2 in pairs:
        step = {"t1": t1, "sup": _singleton_masks(kind, rate, hidden, len(t1.ys), rng),
                "query": _singleton_masks(kind, rate, hidden, len(t1.yq), rng)}
        step["t2"], step["s1"], classes = t2, s1, []
        for k in range(way):
            a = np.flatnonzero(t1.ys == s1[k])
            b = np.flatnonzero(t2.ys == s2[k])
            sets = []
            for i in range(len(a)):
                for j in range(len(b)):
                    mem1 = [i] + _extra(i, n1 - 1, len(a), rng)
                    mem2 = [j] + _extra(j, n2 - 1, len(b), rng)
                    sets.append([a[x] for x in mem1] + [len(t1.ys) + b[x] for x in mem2])
            masks = None
            if kind == "full":
                keep = 1.0 - rate
                drawn = [((rng.random((cfg.cardinality, hidden)) < keep).astype(float),
                          (rng.random((1, hidden)) < keep).astype(float)) for _ in sets]
                masks = (np.stack([d[0] for d in drawn]), np.stack([d[1] for d in drawn]))
            classes.append((np.array(sets), masks))
        step["classes"] = classes
        step["mix_query"] = _singleton_masks(kind, rate, hidden, len(t1.yq), rng)
        plan.steps.append(step)
    plan.rng_state = rng.bit_generator.state
    val_tasks = tasks["val"]
    plan.val_tasks = [val_tasks[int(rng.integers(len(val_tasks)))] for _ in range(cfg.val_batch)]
    return plan


def mixed_loss(m: Model, step: dict):
    """Queries of the first task against class prototypes fused from both
    tasks' supports by the set function."""
    t1, t2 = step["t1"], step["t2"]
    h = concat([lower(m, t1.xs), lower(m, t2.xs)], axis=0)
    d = np.shape(val(h))[1]
    protos = []
    for sets, masks in step["classes"]:
        x = reshape(take_rows(h, sets.ravel()), (sets.shape[0], sets.shape[1], d))
        z = set_function(m, x, masks)
        e = upper(m, reshape(z, (sets.shape[0], np.shape(val(z))[-1])))
        protos.append(mul(total(e, 0), 1.0 / sets.shape[0]))
    label_to_k = {int(y): k + 1 for k, y in enumerate(step["s1"])}
    rows = embed(m, t1.xq, step["mix_query"])
    return cross_entropy(distances(m, rows, concat(protos, axis=0)),
                         [label_to_k[int(y)] for y in t1.yq])


def train_loss(m: Model, plan: Plan):
    """Mean over the batch of (singleton loss + mixed loss) / 2."""
    out = None
    for step in plan.steps:
        term = mul(add(episode_loss(m, step["t1"], step["sup"], step["query"]),
                       mixed_loss(m, step)), 0.5)
        out = term if out is None else add(out, term)
    return mul(out, 1.0 / len(plan.steps))


def val_loss(m: Model, plan: Plan):
    out = None
    for t in plan.val_tasks:
        term = episode_loss(m, t)
        out = term if out is None else add(out, term)
    return mul(out, 1.0 / len(plan.val_tasks))


def _grad(loss, named: dict, names: list, kinks=None):
    leaves = [Var(named[n]) for n in names]
    out = loss(Model({**named, **dict(zip(names, leaves))}, kinks))
    return np.concatenate([g.ravel() for g in gradients(out, leaves)])


def _flat(named, names):
    return np.concatenate([named[n].ravel() for n in names])


def _unflat(vec, named, names) -> dict:
    out, at = {}, 0
    for n in names:
        size = named[n].size
        out[n] = vec[at:at + size].reshape(named[n].shape)
        at += size
    return out


def _directional(grad_at, x, v):
    """Central difference of grad_at along v with one Richardson step, on
    one linear piece of every (leaky) ReLU: the step shrinks until all
    four points share a sign pattern."""
    h = 1e-5 / max(float(np.max(np.abs(v))), 1e-300)
    for _ in range(8):
        kinks = [[], [], [], []]
        g = [grad_at(x + s * h * v, k) for s, k in zip((1.0, -1.0, 0.5, -0.5), kinks)]
        if all(all(np.array_equal(a, b) for a, b in zip(kinks[0], k)) for k in kinks[1:]):
            wide, narrow = (g[0] - g[1]) / (2.0 * h), (g[2] - g[3]) / h
            return (4.0 * narrow - wide) / 3.0
        h /= 16.0
    raise OracleError("a ReLU kink sits at the expansion point")


def hypergradient(theta_old: dict, theta_new: dict, lam: dict, meta: dict,
                  tasks: dict, cfg: StepConfig):
    """dL_V/dlam - alpha d2L_tr/(dlam dtheta) sum_{j<=q} (I - alpha H)^j dL_V/dtheta.

    theta_old is the encoder the training loss was taken at, theta_new the
    encoder after the inner step (where the validation loss is taken).
    Returns ({lam name: array}, the plan, with the generator state the
    program's hypergradient should have started from).
    """
    probe = Model({**theta_old, **lam, **meta})
    plan = draw_plan(cfg, tasks, probe.kind, probe.rate,
                     probe.hidden if probe.kind == "full" else 0)
    t_names, l_names = list(theta_old), list(lam)
    at_new = {**theta_new, **lam, **meta}
    gv = _grad(lambda m: val_loss(m, plan), at_new, t_names + l_names)
    nt = sum(theta_old[n].size for n in t_names)
    v, g_lam = gv[:nt], gv[nt:]

    base = {**theta_old, **lam, **meta}
    th0 = _flat(theta_old, t_names)

    def grad_theta(th, kinks):
        return _grad(lambda m: train_loss(m, plan),
                     {**base, **_unflat(th, theta_old, t_names)}, t_names, kinks)

    def grad_lam(th, kinks):
        return _grad(lambda m: train_loss(m, plan),
                     {**base, **_unflat(th, theta_old, t_names)}, l_names, kinks)

    p = v.copy()
    for _ in range(cfg.q):
        v = v - cfg.alpha * _directional(grad_theta, th0, v)
        p = p + v
    mixed = _directional(grad_lam, th0, cfg.alpha * p)
    return _unflat(g_lam - mixed, lam, l_names), plan
