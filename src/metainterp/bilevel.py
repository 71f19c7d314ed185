"""Bilevel meta-training: alternating inner updates of the encoder and
periodic outer updates of the set-function parameters via a
Neumann-series implicit hypergradient.

The inner objective averages, over a batch of task pairs, the loss terms
of the training method (`METHODS`): the singleton episode loss and the
mixed-task loss for meta-interpolation. All pairs and terms of a step are
one graph (`protonet.Batch`). Every S-th iteration the retained
inner-gradient graph feeds the hypergradient routine, which approximates
the inverse Hessian with a truncated Neumann series and differentiates
the result into the set-function parameters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _params
from . import autodiff as ad
from . import episodes as ep
from . import interpolate as itp
from . import protonet as pn
from . import setfunc
from .autodiff import DiffValue, Tape
from .interpolate import InterpConfig

# method -> (loss terms averaged per task pair, in the order they draw from
# the step's rng; how the set function λ learns). Terms: "single" the
# singleton episode loss, "mix" the mixed-task loss, "mlti" the
# manifold-mixup baseline. Rules: None, λ is the identity map; "joint", λ
# steps with θ on the training-loss gradient; "hyper", λ steps on the
# Neumann hypergradient every update_period iterations. The key order is
# the checkpoint's method code.
METHODS = {
    "meta-interp": (("single", "mix"), "hyper"),
    "protonet": (("single",), None),
    "protonet-st": (("single",), "hyper"),
    "mlti": (("mlti",), None),
    "no-bilevel": (("single", "mix"), "joint"),
    "no-singleton": (("mix",), "hyper"),
}

_INIT_TAG = 101
_ITER_TAG = 211


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    inner_lr: float = 1e-3        # alpha
    hyper_lr: float = 1e-4        # eta
    update_period: int = 100      # S
    batch_size: int = 4           # B
    val_batch_size: Optional[int] = None  # B'; defaults to B
    neumann_iters: int = 5        # q
    max_iters: int = 10_000       # M
    theta_opt: str = "adam"
    lam_opt: str = "adam"
    hyper_schedule: str = "linear"  # falls to 0 at M; or "constant"
    patience: int = 20            # evaluations without val-acc improvement
    seed: int = 0
    interp: InterpConfig = field(default_factory=InterpConfig)
    eval_episodes: int = 3000
    encoder_widths: tuple = (32, 16)
    set_kind: str = "simple"      # a setfunc.KINDS name but identity
    set_hidden: Optional[int] = None      # the full form's; None is its default
    dropout_rate: Optional[float] = None  # the full form's; None is its default
    metric: str = "sqeuclidean"
    mlti_beta: tuple = (2.0, 2.0)

    def __post_init__(self):
        if not (self.inner_lr > 0 and self.hyper_lr >= 0):  # NaN fails too
            raise ValueError("learning rates must be positive")
        for name in ("update_period", "batch_size", "neumann_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.val_batch_size is not None and self.val_batch_size < 1:
            raise ValueError("val_batch_size must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.patience >= 0:  # NaN fails too
            raise ValueError("patience must be >= 0")
        if self.hyper_schedule not in ("linear", "constant"):
            raise ValueError(f"unknown hyper schedule {self.hyper_schedule!r}")
        for name in ("theta_opt", "lam_opt"):
            if getattr(self, name) not in ("adam", "sgd"):
                raise ValueError(f"unknown optimizer {getattr(self, name)!r} for {name}")
        if self.set_kind not in setfunc.KINDS or self.set_kind == "identity":
            raise ValueError(f"unknown set kind {self.set_kind!r}")
        for name in ("set_hidden", "dropout_rate"):
            if getattr(self, name) is not None and self.set_kind != "full":
                raise ValueError(f"{name} applies only to set_kind full, not {self.set_kind!r}")
        if self.set_hidden is not None:
            setfunc.check_hidden(self.set_hidden)
        if any(w < 1 for w in self.encoder_widths):
            raise ValueError(f"encoder_widths {self.encoder_widths} has a width below 1")
        if not 0 <= self.interp.layer < len(self.encoder_widths):
            raise ValueError("interpolation layer outside encoder depth")
        if self.dropout_rate is not None and not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if self.metric not in pn.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if len(self.mlti_beta) != 2 or not all(b > 0 for b in self.mlti_beta):
            raise ValueError(f"mlti_beta {self.mlti_beta} is not two positive numbers")

    @property
    def bprime(self) -> int:
        return self.val_batch_size or self.batch_size


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptState:
    kind: str
    lr: float
    step: int = 0
    m: Optional[np.ndarray] = None  # adaptive-moment's moments, each one vector
    v: Optional[np.ndarray] = None  # as long as the parameter vector


def opt_init(kind: str, lr: float, size: int) -> OptState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    moments = (np.zeros(size), np.zeros(size)) if kind == "adam" else (None, None)
    return OptState(kind, lr, 0, *moments)


def opt_step(state: OptState, vec, grad, lr: Optional[float] = None) -> np.ndarray:
    """One update of vec; adaptive-moment uses beta1=0.9, beta2=0.999, eps=1e-8."""
    lr = state.lr if lr is None else lr
    state.step += 1
    if state.kind == "sgd":
        return vec - lr * grad
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = state.step
    state.m = b1 * state.m + (1 - b1) * grad
    state.v = b2 * state.v + (1 - b2) * grad * grad
    mhat = state.m / (1 - b1 ** t)
    vhat = state.v / (1 - b2 ** t)
    return vec - lr * mhat / (np.sqrt(vhat) + eps)


# ---------------------------------------------------------------------------
# losses


def inner_loss(lam, theta, pairs, cfg: TrainConfig, mode: str = "train",
               rng: Optional[np.random.Generator] = None,
               method: str = "meta-interp") -> DiffValue:
    """Batch training objective: the mean over pairs of the mean of the
    method's loss terms, so (1/2B) sum of singleton + mixed losses for
    meta-interp and (1/B) sum of the one term of a one-term method.

    Every term of every pair is an episode of one `pn.Batch`, added pair
    by pair and term by term, so the draws from rng (which train mode
    needs) keep that order; the loss is then one graph over all of them."""
    if not pairs:
        raise ValueError("empty batch")
    terms = METHODS[method][0]
    weight = 1.0 / (len(pairs) * len(terms))
    batch = pn.Batch(lam, theta, mode, rng)
    for task1, task2, pairing in pairs:
        for name in terms:
            if name == "single":
                batch.add_singleton(task1, weight)
            elif name == "mix":
                itp.add_mix(batch, task1, task2, pairing, cfg.interp, weight)
            else:
                itp.add_mlti(batch, task1, task2, pairing, cfg.mlti_beta, weight)
    return batch.forward(cfg.metric).loss()


def theta_step(opt: OptState, theta, grads, lr: Optional[float] = None):
    """Optimizer step over a parameter container as one vector."""
    return _params.unflatten(
        theta, opt_step(opt, _params.flatten(theta), _params.flatten(grads), lr))


# ---------------------------------------------------------------------------
# Algorithm 2


def neumann_hypergrad(dltr_dtheta, theta_leaves, lam_leaves,
                      dlv_dtheta, dlv_dlam, alpha: float, q: int):
    """Truncated-Neumann implicit hypergradient.

    dltr_dtheta must have been produced with create_graph=True on the
    same tape as theta_leaves / lam_leaves. dlv_dtheta and dlv_dlam are
    arrays or DiffValues. Returns arrays aligned with lam_leaves:
    dL_V/dlam - d2L_tr/(dlam dtheta) . alpha * sum_{j<=q} (I - alpha H)^j . dL_V/dtheta
    """
    v1 = p = _params.flatten(dlv_dtheta)  # each step makes new vectors
    for _ in range(q):
        hvp = ad.grad(dltr_dtheta, theta_leaves, _params.unflatten(theta_leaves, v1))
        v1 = v1 - alpha * _params.flatten(hvp)
        p = p + v1
    v2 = ad.grad(dltr_dtheta, lam_leaves, _params.unflatten(theta_leaves, alpha * p))
    return _params.unflatten(dlv_dlam, _params.flatten(dlv_dlam) - _params.flatten(v2))


def _validation_grads(theta, lam_live, val_tasks, bprime: int, rng: np.random.Generator,
                      tape: Tape, metric: str) -> tuple:
    """dL_V/dθ and dL_V/dλ as two lists of DiffValues. The validation loss
    is one eval-mode batch of B' tasks drawn from val_tasks; its graph
    goes when this returns."""
    theta_val = _params.bind(theta, tape)
    batch = pn.Batch(lam_live, theta_val, "eval")
    for _ in range(bprime):
        batch.add_singleton(val_tasks[int(rng.integers(len(val_tasks)))], 1.0 / bprime)
    lv = batch.forward(metric).loss()
    theta_val_leaves = _params.leaves(theta_val)
    gv = ad.grad(lv, theta_val_leaves + _params.leaves(lam_live))
    return gv[:len(theta_val_leaves)], gv[len(theta_val_leaves):]


def hypergrad(theta, lam_live, theta_leaves, dltr_dtheta, val_tasks,
              alpha: float, bprime: int, q: int, rng: np.random.Generator,
              tape: Tape, metric: str = "sqeuclidean"):
    """Set-function gradient of the validation objective (Algorithm-2 flow).

    theta holds the current (already updated) encoder arrays; the
    second-order terms reuse the retained training-loss graph through
    theta_leaves / dltr_dtheta. The validation loss is evaluated in eval
    mode, so it is deterministic given the sampled tasks, and as one
    batch of the B' drawn tasks. Its graph is freed before the Neumann
    series runs, which keeps only the gradient arrays.
    """
    if not val_tasks:
        raise ValueError("no validation tasks")
    dlv_dtheta, dlv_dlam = _validation_grads(theta, lam_live, val_tasks, bprime, rng,
                                             tape, metric)
    return neumann_hypergrad(dltr_dtheta, theta_leaves, _params.leaves(lam_live),
                             dlv_dtheta, dlv_dlam, alpha, q)


# ---------------------------------------------------------------------------
# training state and loop


@dataclass
class TrainState:
    theta: pn.EncoderParams
    lam: object
    opt_theta: OptState
    opt_lam: Optional[OptState]
    iteration: int = 0
    work: int = 0                  # recorded primitive ops (deterministic)
    best_val_acc: float = -1.0
    best_iter: int = 0
    best_theta: Optional[pn.EncoderParams] = None
    best_lam: Optional[object] = None
    evals_since_best: int = 0
    history: list = field(default_factory=list)
    loss_window: list = field(default_factory=list)  # since the last evaluation
    stopped_early: bool = False    # set by each meta_train call; not checkpointed


# the run's counters, each checkpointed as meta.<name>, in tensor order
_COUNTERS = (("iteration", int), ("work", int), ("best_val_acc", float),
             ("best_iter", int), ("evals_since_best", int))


def init_state(dataset: ep.TaskDataset, cfg: TrainConfig,
               method: str = "meta-interp") -> TrainState:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choices {tuple(METHODS)}")
    rule = METHODS[method][1]
    rng = np.random.default_rng([cfg.seed, _INIT_TAG])
    widths = [dataset.dim, *cfg.encoder_widths]
    theta = pn.init_encoder(widths, cfg.interp.layer, rng)
    lam = setfunc.build("identity" if rule is None else cfg.set_kind, theta.interp_width,
                        rng, cfg.set_hidden, cfg.dropout_rate)
    opt_lam = None
    if rule is not None:
        lr = cfg.inner_lr if rule == "joint" else cfg.hyper_lr
        opt_lam = opt_init(cfg.lam_opt, lr, _params.flatten(lam).size)
    opt_theta = opt_init(cfg.theta_opt, cfg.inner_lr, _params.flatten(theta).size)
    return TrainState(theta=theta, lam=lam, opt_theta=opt_theta, opt_lam=opt_lam)


def check_query_classes(dataset: ep.TaskDataset, cfg: TrainConfig, method: str) -> None:
    """ValueError unless every meta-train task has a query of every class,
    when the method draws query partners by class (its `mlti` term, or its
    `mix` term under a query strategy), rather than failing at the first
    step whose pairing needs a missing class. The error names the task by
    its id in the task file."""
    terms, strategy = METHODS[method][0], cfg.interp.strategy
    if "mlti" not in terms and not ("mix" in terms and strategy in ("query", "support_and_query")):
        return
    who = f"method {method}" if "mlti" in terms else f"strategy {strategy}"
    ids = dataset.meta_train_ids or range(len(dataset.meta_train))
    for tid, task in zip(ids, dataset.meta_train):
        empty = np.flatnonzero(task.query_by_class[2] == 0)
        if empty.size:
            raise ValueError(f"meta-train task {tid} has no queries of class {empty[0] + 1}, "
                             f"which {who} needs")


def _sample_batch(dataset, cfg, rng):
    pairs = []
    for _ in range(cfg.batch_size):
        t1, t2 = ep.sample_pair(dataset, rng)
        pairing = itp.pair_classes(t1.way, rng)
        pairs.append((t1, t2, pairing))
    return pairs


def evaluate_validation(lam, theta, val_tasks, metric: str):
    """Deterministic validation metrics: mean episode loss and accuracy,
    both read from one batched pass over every task."""
    batch = pn.Batch(lam, theta)
    for t in val_tasks:
        batch.add_singleton(t)
    scores = batch.forward(metric)
    return float(np.mean(scores.episode_losses())), float(np.mean(scores.accuracies()))


def _check_finite(values, what: str, i: int):
    """values (a list of arrays or a container), or TrainingDiverged if any entry is not finite."""
    if not np.all(np.isfinite(_params.flatten(values))):
        raise TrainingDiverged(f"non-finite {what} at iteration {i}")
    return values


def train_step(state: TrainState, dataset: ep.TaskDataset, cfg: TrainConfig,
               method: str) -> float:
    """One Algorithm-1 iteration; returns the inner loss value.

    θ steps on the training-loss gradient. λ steps on the same gradient
    ("joint"), on the hypergradient every update_period iterations
    ("hyper"), or never (None, the identity map binds to no leaves)."""
    rule = METHODS[method][1]
    i = state.iteration + 1
    rng = np.random.default_rng([cfg.seed, _ITER_TAG, i])
    tape = Tape()
    theta_live = _params.bind(state.theta, tape)
    lam_live = _params.bind(state.lam, tape)

    pairs = _sample_batch(dataset, cfg, rng)
    ltr = inner_loss(lam_live, theta_live, pairs, cfg, "train", rng, method)
    loss_val = ltr.item()
    if not np.isfinite(loss_val):
        raise TrainingDiverged(f"non-finite training loss {loss_val} at iteration {i}")

    hyper_due = rule == "hyper" and i % cfg.update_period == 0
    theta_leaves = _params.leaves(theta_live)
    grads = ad.grad(ltr, theta_leaves + (_params.leaves(lam_live) if rule == "joint" else []),
                    create_graph=hyper_due)
    g_theta, g_lam, eta = grads[:len(theta_leaves)], grads[len(theta_leaves):], None

    state.theta = _check_finite(
        theta_step(state.opt_theta, state.theta, g_theta), "encoder update", i)

    if hyper_due:
        g_lam = _check_finite(
            hypergrad(state.theta, lam_live, theta_leaves, g_theta,
                      dataset.meta_val, cfg.inner_lr, cfg.bprime,
                      cfg.neumann_iters, rng, tape, cfg.metric),
            "hypergradient", i)
        eta = cfg.hyper_lr
        if cfg.hyper_schedule == "linear":
            eta = cfg.hyper_lr * max(0.0, 1.0 - i / cfg.max_iters)
    del ltr, grads, g_theta, theta_leaves, theta_live, lam_live  # free the graph before λ's step
    if g_lam:
        state.lam = _check_finite(
            theta_step(state.opt_lam, state.lam, g_lam, eta), "set-function update", i)

    state.iteration = i
    state.work += tape.op_count
    return loss_val


@np.errstate(all="ignore")  # each loss and update is checked for non-finite values
def meta_train(dataset: ep.TaskDataset, cfg: TrainConfig,
               method: str = "meta-interp",
               state: Optional[TrainState] = None,
               on_eval=None,
               stop_iteration: Optional[int] = None) -> TrainState:
    """Run Algorithm 1 to max_iters (or early stop on validation accuracy)
    and return the advanced state.

    Fully deterministic per (cfg.seed, cfg, dataset): every iteration
    derives its randomness from the seed and the iteration index, so a
    resumed state continues the identical trajectory. stop_iteration
    interrupts the run at an evaluation boundary without altering the
    schedule; resuming from the saved state completes the original run.
    """
    if state is None:
        state = init_state(dataset, cfg, method)
    if state.best_theta is None:
        state.best_theta = _params.values(state.theta)
        state.best_lam = _params.values(state.lam)
    state.stopped_early = False
    limit = cfg.max_iters if stop_iteration is None else min(cfg.max_iters, stop_iteration)

    while state.iteration < limit:
        state.loss_window.append(train_step(state, dataset, cfg, method))
        i = state.iteration
        if i % cfg.update_period == 0 or i == cfg.max_iters:
            val_loss, val_acc = evaluate_validation(state.lam, state.theta, dataset.meta_val,
                                                    cfg.metric)
            if not np.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at iteration {i}")
            row = {
                "iter": i,
                "train_loss": float(np.mean(state.loss_window)),
                "val_loss": val_loss,
                "val_acc": val_acc,
                "work": state.work,
            }
            state.loss_window = []
            state.history.append(row)
            if val_acc > state.best_val_acc:
                state.best_val_acc = val_acc
                state.best_iter = i
                state.best_theta = _params.values(state.theta)
                state.best_lam = _params.values(state.lam)
                state.evals_since_best = 0
            else:
                state.evals_since_best += 1
            # the state is complete here, so on_eval may checkpoint it
            if on_eval is not None:
                on_eval(row)
            if cfg.patience > 0 and state.evals_since_best >= cfg.patience:
                state.stopped_early = True
                break
    return state


# ---------------------------------------------------------------------------
# checkpoint container

CKPT_HEADER = "# meta-interp-ckpt v1"


def _tensor_text(name: str, arr) -> tuple:
    """A tensor's block: its `tensor name rows cols` line, then its rows."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    rows, cols = arr.shape
    row_fmt = " ".join(["%.17g"] * cols) + "\n"
    return f"tensor {name} {rows} {cols}\n", (row_fmt * rows) % tuple(arr.ravel().tolist())


def save_checkpoint(path, named: dict, blocks: Optional[dict] = None) -> None:
    """Named-tensor container: one `tensor name rows cols` line per entry,
    then the rows with 17-significant-digit doubles.

    Each tensor's block goes to a sibling temporary file as it is
    formatted, and that file then replaces path, so a crash mid-write
    leaves the previous file whole. blocks, when given, maps some tensor
    names to their blocks: a name mapped to a block is written from it,
    not formatted again, and a name mapped to None gets its block stored
    there, for a later save of the same values."""
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(CKPT_HEADER + "\n")
        for name, arr in named.items():
            block = None if blocks is None else blocks.get(name)
            if block is None:
                block = _tensor_text(name, arr)
                if blocks is not None and name in blocks:
                    blocks[name] = block
            f.writelines(block)
    os.replace(tmp, path)


def load_checkpoint(path) -> dict:
    """The named float64 tensors of a file `save_checkpoint` wrote. Each
    tensor's rows are converted in one numpy call; only when that fails,
    or gives the wrong shape, are they parsed again row by row, to report
    the first bad row."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != CKPT_HEADER:
        raise ValueError(f"{path}: expected header {CKPT_HEADER!r}")
    named = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        parts = line.split()
        if parts[0] != "tensor" or len(parts) != 4:
            raise ValueError(f"{path}: malformed entry line {i}: {line!r}")
        name, rows, cols = parts[1], int(parts[2]), int(parts[3])
        if i + rows > len(lines):
            raise ValueError(f"{path}: tensor {name} is cut short after {len(lines) - i} of {rows} rows")
        try:
            data = np.array([row.split() for row in lines[i:i + rows]], dtype=np.float64)
        except ValueError:  # a ragged row or a bad number
            data = None
        if data is None or data.shape != (rows, cols):
            data = np.empty((rows, cols))
            for r in range(rows):
                vals = lines[i + r].split()
                if len(vals) != cols:
                    raise ValueError(f"{path}: tensor {name} row {r} has {len(vals)} values, expected {cols}")
                data[r] = [float(v) for v in vals]
        i += rows
        named[name] = data
    return named


def model_to_named(theta: pn.EncoderParams, lam, cfg: TrainConfig) -> dict:
    named = dict(_params.named_arrays(theta, "theta"))
    named.update(_params.named_arrays(lam, "lam"))
    named["meta.split"] = np.array([[float(theta.split)]])
    named["meta.slope"] = np.array([[theta.slope]])
    named["meta.set_kind"] = np.array([[float(list(setfunc.KINDS).index(setfunc.kind_of(lam)))]])
    # the rate a full form holds, which a resume keeps; else the full form's default
    named["meta.dropout_rate"] = np.array([[getattr(lam, "dropout_rate", setfunc.DROPOUT_RATE)]])
    named["meta.metric"] = np.array([[float(pn.METRICS.index(cfg.metric))]])
    return named


def _tensor(named: dict, name: str) -> np.ndarray:
    if name not in named:
        raise ValueError(f"checkpoint has no tensor {name!r}")
    return named[name]


def _integer(named: dict, name: str, col: int = 0, names=None):
    """Entry col of tensor name's first row: a non-negative integer, or,
    given names, the one of names that it indexes."""
    x = float(_tensor(named, name)[0, col])
    if not (x >= 0 and x.is_integer() and (names is None or x < len(names))):
        want = "a non-negative integer" if names is None else f"an integer in 0..{len(names) - 1}"
        raise ValueError(f"checkpoint tensor {name!r} holds {x:g}, not {want}")
    return int(x) if names is None else names[int(x)]


def _indexed(named: dict, fmt: str) -> list:
    """The tensors fmt.format(0), fmt.format(1), ... up to the first gap."""
    out = []
    while fmt.format(len(out)) in named:
        out.append(named[fmt.format(len(out))])
    return out


def model_from_named(named: dict):
    """Rebuild (theta, lam, metric) from a checkpoint's tensors: templates
    built from the stored widths and codes, filled by tensor name."""
    rng = np.random.default_rng(0)
    widths = [_tensor(named, "theta.layers[0].w").shape[0],
              *(w.shape[1] for w in _indexed(named, "theta.layers[{}].w"))]
    theta = pn.init_encoder(widths, _integer(named, "meta.split"), rng,
                            float(_tensor(named, "meta.slope")[0, 0]))
    kind = _integer(named, "meta.set_kind", names=list(setfunc.KINDS))
    hidden = _tensor(named, "lam.w4").shape[0] if kind == "full" else None
    lam = setfunc.build(kind, theta.interp_width, rng, hidden,
                        float(_tensor(named, "meta.dropout_rate")[0, 0]))
    return (_params.from_named_arrays(theta, named, "theta"),
            _params.from_named_arrays(lam, named, "lam"),
            _integer(named, "meta.metric", names=pn.METRICS))


def state_to_named(state: TrainState, cfg: TrainConfig, method: str) -> dict:
    """The state's tensors; the best model is written only when it is not
    the current one (a state saved at a new best leaves it out)."""
    named = model_to_named(state.theta, state.lam, cfg)
    if state.best_iter != state.iteration:
        named.update(_params.named_arrays(state.best_theta, "best_theta"))
        named.update(_params.named_arrays(state.best_lam, "best_lam"))
    for slot, opt, model in (("opt_theta", state.opt_theta, state.theta),
                             ("opt_lam", state.opt_lam, state.lam)):
        if opt is None:
            continue
        named[f"{slot}.meta"] = np.array(
            [[float(opt.step), float(opt.lr), 1.0 if opt.kind == "adam" else 0.0]]
        )
        if opt.kind == "adam":  # slots m[i] and v[i] are views shaped like leaf i
            m, v = (_params.unflatten(_params.leaves(model), s) for s in (opt.m, opt.v))
            for i, (mi, vi) in enumerate(zip(m, v)):
                named[f"{slot}.m[{i}]"] = mi
                named[f"{slot}.v[{i}]"] = vi
    for name, _kind in _COUNTERS:
        named[f"meta.{name}"] = np.array([[float(getattr(state, name))]])
    named["meta.method"] = np.array([[float(list(METHODS).index(method))]])
    if state.loss_window:  # a stop between evaluations
        named["meta.loss_window"] = np.array([state.loss_window])
    return named


def state_from_named(named: dict):
    theta, lam, _metric = model_from_named(named)
    counters = {name: _integer(named, f"meta.{name}") if kind is int
                else float(_tensor(named, f"meta.{name}")[0, 0]) for name, kind in _COUNTERS}
    # the best model is stored only when it is not the current one
    best_theta, best_lam = (
        _params.from_named_arrays(model, named, prefix)
        if counters["best_iter"] != counters["iteration"] else _params.values(model)
        for model, prefix in ((theta, "best_theta"), (lam, "best_lam")))

    def opt_from(slot, model):
        key = f"{slot}.meta"
        if key not in named:
            return None
        opt = OptState(kind=_integer(named, key, 2, ("sgd", "adam")),
                       lr=float(named[key][0, 1]), step=_integer(named, key))
        if opt.kind == "adam":  # slots m[i] and v[i] are shaped like leaf i
            opt.m, opt.v = (_params.flatten(_params.from_named_arrays(
                _params.leaves(model), named, f"{slot}.{s}")) for s in "mv")
        return opt

    window = named.get("meta.loss_window")  # present after a stop between evaluations
    state = TrainState(
        theta=theta,
        lam=lam,
        opt_theta=opt_from("opt_theta", theta),
        opt_lam=opt_from("opt_lam", lam),
        best_theta=best_theta,
        best_lam=best_lam,
        loss_window=[] if window is None else window[0].tolist(),
        **counters,
    )
    method = _integer(named, "meta.method", names=list(METHODS))
    if (METHODS[method][1] is None) != isinstance(lam, setfunc.IdentitySet):
        raise ValueError(f"checkpoint's set function does not fit its method {method!r}")
    return state, method
