"""Bilevel meta-training: alternating inner updates of the encoder and
periodic outer updates of the set-function parameters via a
Neumann-series implicit hypergradient.

The inner objective averages the singleton episode loss and the
mixed-task loss over a batch of task pairs; every S-th iteration the
retained inner-gradient graph feeds the hypergradient routine, which
approximates the inverse Hessian with a truncated Neumann series and
differentiates the result into the set-function parameters.
"""

from __future__ import annotations

import io
import time
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

METHODS = ("meta-interp", "protonet", "protonet-st", "mlti",
           "no-bilevel", "no-singleton")

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
    set_kind: str = "simple"      # simple | full | deepsets | identity
    set_hidden: Optional[int] = None
    dropout_rate: float = 0.1
    metric: str = "sqeuclidean"
    mlti_beta: tuple = (2.0, 2.0)

    def __post_init__(self):
        if self.inner_lr <= 0 or self.hyper_lr < 0:
            raise ValueError("learning rates must be positive")
        for name in ("update_period", "batch_size", "neumann_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.hyper_schedule not in ("linear", "constant"):
            raise ValueError(f"unknown hyper schedule {self.hyper_schedule!r}")
        if self.set_kind not in ("simple", "full", "deepsets", "identity"):
            raise ValueError(f"unknown set kind {self.set_kind!r}")
        if not 0 <= self.interp.layer < len(self.encoder_widths):
            raise ValueError("interpolation layer outside encoder depth")

    @property
    def bprime(self) -> int:
        return self.val_batch_size if self.val_batch_size else self.batch_size


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptState:
    kind: str
    lr: float
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def opt_init(kind: str, lr: float, arrays) -> OptState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    state = OptState(kind=kind, lr=lr)
    if kind == "adam":
        state.m = [np.zeros_like(a) for a in arrays]
        state.v = [np.zeros_like(a) for a in arrays]
    return state


def opt_step(state: OptState, arrays, grads, lr: Optional[float] = None) -> list:
    """One update; adaptive-moment uses beta1=0.9, beta2=0.999, eps=1e-8."""
    lr = state.lr if lr is None else lr
    state.step += 1
    out = []
    if state.kind == "sgd":
        for a, g in zip(arrays, grads):
            out.append(a - lr * g)
        return out
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = state.step
    for i, (a, g) in enumerate(zip(arrays, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        mhat = state.m[i] / (1 - b1 ** t)
        vhat = state.v[i] / (1 - b2 ** t)
        out.append(a - lr * mhat / (np.sqrt(vhat) + eps))
    return out


# ---------------------------------------------------------------------------
# losses


def _variant(method: str) -> str:
    return {
        "meta-interp": "full",
        "protonet": "singleton_only",
        "protonet-st": "no_mix",
        "mlti": "mlti",
        "no-bilevel": "full",
        "no-singleton": "no_singleton",
    }[method]


def inner_loss(lam, theta, pairs, cfg: TrainConfig, mode: str = "train",
               rng: Optional[np.random.Generator] = None,
               variant: str = "full") -> DiffValue:
    """Batch training objective.

    full: (1/2B) sum of singleton + mixed losses per pair. no_mix /
    no_singleton drop one term (renormalized to 1/B); singleton_only and
    mlti are the identity-map and manifold-mixup baselines.
    """
    if not pairs:
        raise ValueError("empty batch")
    total = None
    for task1, task2, pairing in pairs:
        if variant == "full":
            a = pn.loss_singleton(lam, theta, task1, mode, rng, cfg.metric)
            b = itp.loss_mix(lam, theta, task1, task2, pairing, cfg.interp,
                             mode, rng, cfg.metric)
            term = ad.scale(ad.add(a, b), 0.5)
        elif variant == "no_mix":
            term = pn.loss_singleton(lam, theta, task1, mode, rng, cfg.metric)
        elif variant == "no_singleton":
            term = itp.loss_mix(lam, theta, task1, task2, pairing, cfg.interp,
                                mode, rng, cfg.metric)
        elif variant == "singleton_only":
            term = pn.loss_singleton(setfunc.IdentitySet(), theta, task1,
                                     mode, rng, cfg.metric)
        elif variant == "mlti":
            term = itp.mlti_baseline_loss(theta, task1, task2, pairing,
                                          cfg.mlti_beta, rng, cfg.metric)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / len(pairs))


def theta_step(opt: OptState, theta, grads, lr: Optional[float] = None):
    """Optimizer step over the encoder's flattened tensors."""
    arrays = [a for _, a in _params.named_arrays(theta)]
    new = opt_step(opt, arrays, [g.data if isinstance(g, DiffValue) else g for g in grads], lr)
    it = iter(new)
    return _params._map_leaves(theta, lambda _a: next(it))


# ---------------------------------------------------------------------------
# Algorithm 2


def neumann_hypergrad(dltr_dtheta, theta_leaves, lam_leaves,
                      dlv_dtheta, dlv_dlam, alpha: float, q: int):
    """Truncated-Neumann implicit hypergradient.

    dltr_dtheta must have been produced with create_graph=True on the
    same tape as theta_leaves / lam_leaves. dlv_dtheta and dlv_dlam are
    plain arrays. Returns arrays aligned with lam_leaves:
    dL_V/dlam - d2L_tr/(dlam dtheta) . alpha * sum_{j<=q} (I - alpha H)^j . dL_V/dtheta
    """
    v1 = [np.array(v, dtype=np.float64) for v in dlv_dtheta]
    p = [v.copy() for v in v1]
    for _ in range(q):
        hvp = ad.grad(
            dltr_dtheta, theta_leaves,
            grad_outputs=[DiffValue.const(v) for v in v1],
        )
        v1 = [v - alpha * h.data for v, h in zip(v1, hvp)]
        for i in range(len(p)):
            p[i] = p[i] + v1[i]
    v2 = ad.grad(
        dltr_dtheta, lam_leaves,
        grad_outputs=[DiffValue.const(alpha * pi) for pi in p],
    )
    return [gl - g2.data for gl, g2 in zip(dlv_dlam, v2)]


def hypergrad(theta, lam_live, theta_leaves, dltr_dtheta, val_tasks,
              alpha: float, bprime: int, q: int, rng: np.random.Generator,
              tape: Tape, metric: str = "sqeuclidean"):
    """Set-function gradient of the validation objective (Algorithm-2 flow).

    theta holds the current (already updated) encoder arrays; the
    second-order terms reuse the retained training-loss graph through
    theta_leaves / dltr_dtheta. The validation loss is evaluated in eval
    mode, so it is deterministic given the sampled tasks.
    """
    if not val_tasks:
        raise ValueError("no validation tasks")
    theta_val = _params.bind(theta, tape)
    lv = None
    for _ in range(bprime):
        task = val_tasks[int(rng.integers(len(val_tasks)))]
        term = pn.loss_singleton(lam_live, theta_val, task, "eval", None, metric)
        lv = term if lv is None else ad.add(lv, term)
    lv = ad.scale(lv, 1.0 / bprime)

    theta_val_leaves = _params.leaves(theta_val)
    lam_leaves = _params.leaves(lam_live)
    gv = ad.grad(lv, theta_val_leaves + lam_leaves)
    nt = len(theta_val_leaves)
    dlv_dtheta = [g.data for g in gv[:nt]]
    dlv_dlam = [g.data for g in gv[nt:]]
    return neumann_hypergrad(dltr_dtheta, theta_leaves, lam_leaves,
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


@dataclass
class TrainResult:
    theta: pn.EncoderParams
    lam: object
    history: list
    best_theta: pn.EncoderParams
    best_lam: object
    best_val_acc: float
    best_iter: int
    iterations: int
    stopped_early: bool
    wall_seconds: float


def build_lambda(cfg: TrainConfig, d: int, rng: np.random.Generator):
    if cfg.set_kind == "simple":
        return setfunc.init_simple(d, rng)
    if cfg.set_kind == "full":
        return setfunc.init_full(d, cfg.set_hidden, rng, cfg.dropout_rate)
    if cfg.set_kind == "deepsets":
        return setfunc.init_deepsets(d, (max(8, d),), rng)
    return setfunc.IdentitySet()


def init_state(dataset: ep.TaskDataset, cfg: TrainConfig,
               method: str = "meta-interp") -> TrainState:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choices {METHODS}")
    rng = np.random.default_rng([cfg.seed, _INIT_TAG])
    widths = [dataset.dim, *cfg.encoder_widths]
    theta = pn.init_encoder(widths, cfg.interp.layer, rng)
    if method in ("protonet", "mlti"):
        lam = setfunc.IdentitySet()
    else:
        lam = build_lambda(cfg, theta.interp_width, rng)
    lam_arrays = [a for _, a in _params.named_arrays(lam)]
    opt_lam = None
    if lam_arrays:
        lr = cfg.inner_lr if method == "no-bilevel" else cfg.hyper_lr
        opt_lam = opt_init(cfg.lam_opt, lr, lam_arrays)
    opt_theta = opt_init(cfg.theta_opt, cfg.inner_lr,
                         [a for _, a in _params.named_arrays(theta)])
    return TrainState(theta=theta, lam=lam, opt_theta=opt_theta, opt_lam=opt_lam)


def _sample_batch(dataset, cfg, rng):
    pairs = []
    for _ in range(cfg.batch_size):
        t1, t2 = ep.sample_pair(dataset, rng)
        pairing = itp.pair_classes(t1.way, rng)
        pairs.append((t1, t2, pairing))
    return pairs


def evaluate_validation(lam, theta, val_tasks, metric: str):
    """Deterministic validation metrics: mean episode loss and accuracy,
    both read from one embedding of each task."""
    losses, accs = [], []
    with ad.pause_recording():
        for t in val_tasks:
            dists = pn.task_dists(lam, theta, t, "eval", None, metric)
            labels = t.query_matrix()[1]
            losses.append(pn.cross_entropy_to_prototypes(dists, labels).item())
            accs.append(pn.accuracy_from_dists(dists, labels))
    return float(np.mean(losses)), float(np.mean(accs))


def _check_finite(arrays: list, what: str, i: int) -> list:
    """arrays, or TrainingDiverged if any entry is NaN or infinite."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise TrainingDiverged(f"non-finite {what} at iteration {i}")
    return arrays


def train_step(state: TrainState, dataset: ep.TaskDataset, cfg: TrainConfig,
               method: str) -> float:
    """One Algorithm-1 iteration; returns the inner loss value."""
    i = state.iteration + 1
    rng = np.random.default_rng([cfg.seed, _ITER_TAG, i])
    tape = Tape()
    theta_live = _params.bind(state.theta, tape)
    uses_lambda = not isinstance(state.lam, setfunc.IdentitySet)
    lam_live = _params.bind(state.lam, tape) if uses_lambda else state.lam

    pairs = _sample_batch(dataset, cfg, rng)
    ltr = inner_loss(lam_live, theta_live, pairs, cfg, "train", rng,
                     _variant(method))
    loss_val = ltr.item()
    if not np.isfinite(loss_val):
        raise TrainingDiverged(
            f"non-finite training loss {loss_val} at iteration {i}"
        )

    bilevel_due = (
        method in ("meta-interp", "protonet-st", "no-singleton")
        and i % cfg.update_period == 0
    )
    theta_leaves = _params.leaves(theta_live)
    lam_leaves = _params.leaves(lam_live) if uses_lambda else []

    if method == "no-bilevel":
        grads = ad.grad(ltr, theta_leaves + lam_leaves)
        g_theta = grads[: len(theta_leaves)]
        g_lam = grads[len(theta_leaves) :]
    else:
        g_theta = ad.grad(ltr, theta_leaves, create_graph=bilevel_due)
        g_lam = None

    state.theta = theta_step(state.opt_theta, state.theta, g_theta)

    if method == "no-bilevel" and g_lam:
        arrays = [a for _, a in _params.named_arrays(state.lam)]
        new = _check_finite(opt_step(state.opt_lam, arrays, [g.data for g in g_lam]),
                            "set-function update", i)
        it = iter(new)
        state.lam = _params._map_leaves(state.lam, lambda _a: next(it))
    elif bilevel_due and uses_lambda:
        g = hypergrad(state.theta, lam_live, theta_leaves, g_theta,
                      dataset.meta_val, cfg.inner_lr, cfg.bprime,
                      cfg.neumann_iters, rng, tape, cfg.metric)
        _check_finite(g, "hypergradient", i)
        eta = cfg.hyper_lr
        if cfg.hyper_schedule == "linear":
            eta = cfg.hyper_lr * max(0.0, 1.0 - i / cfg.max_iters)
        arrays = [a for _, a in _params.named_arrays(state.lam)]
        new = _check_finite(opt_step(state.opt_lam, arrays, g, lr=eta),
                            "set-function update", i)
        it = iter(new)
        state.lam = _params._map_leaves(state.lam, lambda _a: next(it))

    state.iteration = i
    state.work += tape.op_count
    return loss_val


def meta_train(dataset: ep.TaskDataset, cfg: TrainConfig,
               method: str = "meta-interp",
               state: Optional[TrainState] = None,
               on_eval=None,
               stop_iteration: Optional[int] = None) -> TrainResult:
    """Run Algorithm 1 to max_iters (or early stop on validation accuracy).

    Fully deterministic per (cfg.seed, cfg, dataset): every iteration
    derives its randomness from the seed and the iteration index, so a
    resumed state continues the identical trajectory. stop_iteration
    interrupts the run at an evaluation boundary without altering the
    schedule; resuming from the saved state completes the original run.
    """
    t0 = time.perf_counter()
    if state is None:
        state = init_state(dataset, cfg, method)
    if state.best_theta is None:
        state.best_theta = _params.values(state.theta)
        state.best_lam = _params.values(state.lam)
    stopped = False
    window: list = []
    limit = cfg.max_iters if stop_iteration is None else min(cfg.max_iters, stop_iteration)

    while state.iteration < limit:
        window.append(train_step(state, dataset, cfg, method))
        i = state.iteration
        if i % cfg.update_period == 0 or i == cfg.max_iters:
            val_loss, val_acc = evaluate_validation(
                state.lam, state.theta, dataset.meta_val, cfg.metric
            )
            row = {
                "iter": i,
                "train_loss": float(np.mean(window)),
                "val_loss": val_loss,
                "val_acc": val_acc,
                "work": state.work,
            }
            window = []
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
                stopped = True
                break

    return TrainResult(
        theta=state.theta,
        lam=state.lam,
        history=state.history,
        best_theta=state.best_theta,
        best_lam=state.best_lam,
        best_val_acc=state.best_val_acc,
        best_iter=state.best_iter,
        iterations=state.iteration,
        stopped_early=stopped,
        wall_seconds=time.perf_counter() - t0,
    )


def ablation_variants(cfg: TrainConfig) -> list:
    """Table-3 style variant set: full model, no interpolation, joint
    training instead of bilevel, and no singleton term."""
    return [
        ("meta-interp", cfg),
        ("protonet-st", cfg),
        ("no-bilevel", cfg),
        ("no-singleton", cfg),
    ]


# ---------------------------------------------------------------------------
# checkpoint container

CKPT_HEADER = "# meta-interp-ckpt v1"

_SET_KIND_CODES = {"identity": 0, "simple": 1, "full": 2, "deepsets": 3}
_SET_KIND_NAMES = {v: k for k, v in _SET_KIND_CODES.items()}
_METRIC_CODES = {"sqeuclidean": 0, "euclidean": 1}
_METRIC_NAMES = {v: k for k, v in _METRIC_CODES.items()}


def save_checkpoint(path, named: dict) -> None:
    """Named-tensor container: one `tensor name rows cols` line per entry,
    then the rows with 17-significant-digit doubles."""
    buf = io.StringIO()
    buf.write(CKPT_HEADER + "\n")
    for name, arr in named.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        rows, cols = arr.shape
        buf.write(f"tensor {name} {rows} {cols}\n")
        row_fmt = " ".join(["%.17g"] * cols) + "\n"
        buf.write((row_fmt * rows) % tuple(arr.ravel().tolist()))
    with open(path, "w", encoding="utf-8") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> dict:
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
        data = np.empty((rows, cols))
        for r in range(rows):
            vals = lines[i].split()
            if len(vals) != cols:
                raise ValueError(f"{path}: tensor {name} row {r} has {len(vals)} values, expected {cols}")
            data[r] = [float(v) for v in vals]
            i += 1
        named[name] = data
    return named


def model_to_named(theta: pn.EncoderParams, lam, cfg: TrainConfig) -> dict:
    named = {}
    for name, arr in _params.named_arrays(theta):
        named[f"theta.{name}"] = arr
    for name, arr in _params.named_arrays(lam):
        named[f"lam.{name}"] = arr
    named["meta.split"] = np.array([[float(theta.split)]])
    named["meta.slope"] = np.array([[theta.slope]])
    named["meta.set_kind"] = np.array(
        [[float(_SET_KIND_CODES[_kind_of(lam)])]]
    )
    named["meta.dropout_rate"] = np.array([[cfg.dropout_rate]])
    named["meta.metric"] = np.array([[float(_METRIC_CODES[cfg.metric])]])
    return named


def _kind_of(lam) -> str:
    return {
        setfunc.IdentitySet: "identity",
        setfunc.SimpleSetParams: "simple",
        setfunc.FullSetTransformerParams: "full",
        setfunc.DeepSetsParams: "deepsets",
    }[type(lam)]


def _tensor(named: dict, name: str) -> np.ndarray:
    if name not in named:
        raise ValueError(f"checkpoint has no tensor {name!r}")
    return named[name]


def _code(named: dict, name: str, table: dict) -> str:
    code = int(_tensor(named, name)[0, 0])
    if code not in table:
        raise ValueError(f"checkpoint tensor {name!r} holds unknown code {code}")
    return table[code]


def _indexed(named: dict, fmt: str) -> list:
    """The tensors fmt.format(0), fmt.format(1), ... up to the first gap."""
    out = []
    while fmt.format(len(out)) in named:
        out.append(named[fmt.format(len(out))])
    return out


def _lam_template(kind: str, named: dict, rate: float, rng):
    """A set function of the given kind with the stored tensors' shapes."""
    if kind == "identity":
        return setfunc.IdentitySet()
    if kind == "simple":
        return setfunc.init_simple(_tensor(named, "lam.w1q").shape[0], rng)
    if kind == "full":
        w4 = _tensor(named, "lam.w4")
        return setfunc.init_full(w4.shape[1], w4.shape[0], rng, rate)
    d = _tensor(named, "lam.pre[0][0]").shape[0]
    widths = tuple(w.shape[1] for w in _indexed(named, "lam.pre[{}][0]"))
    return setfunc.init_deepsets(d, widths, rng)


def model_from_named(named: dict):
    """Rebuild (theta, lam, metric) from a checkpoint's tensors: templates
    with the stored shapes, filled by tensor name."""
    rng = np.random.default_rng(0)
    widths = [_tensor(named, "theta.layers[0].w").shape[0],
              *(w.shape[1] for w in _indexed(named, "theta.layers[{}].w"))]
    theta = pn.init_encoder(widths, int(_tensor(named, "meta.split")[0, 0]), rng,
                            float(_tensor(named, "meta.slope")[0, 0]))
    lam = _lam_template(_code(named, "meta.set_kind", _SET_KIND_NAMES), named,
                        float(_tensor(named, "meta.dropout_rate")[0, 0]), rng)
    theta = _params.from_named_arrays(theta, _strip(named, "theta."))
    lam = _params.from_named_arrays(lam, _strip(named, "lam."))
    return theta, lam, _code(named, "meta.metric", _METRIC_NAMES)


def _strip(named: dict, prefix: str) -> dict:
    return {n[len(prefix):]: a for n, a in named.items() if n.startswith(prefix)}


def state_to_named(state: TrainState, cfg: TrainConfig, method: str) -> dict:
    named = model_to_named(state.theta, state.lam, cfg)
    for name, arr in _params.named_arrays(state.best_theta):
        named[f"best_theta.{name}"] = arr
    for name, arr in _params.named_arrays(state.best_lam):
        named[f"best_lam.{name}"] = arr
    for slot, opt in (("opt_theta", state.opt_theta), ("opt_lam", state.opt_lam)):
        if opt is None:
            continue
        named[f"{slot}.meta"] = np.array(
            [[float(opt.step), float(opt.lr), 1.0 if opt.kind == "adam" else 0.0]]
        )
        for i, (m, v) in enumerate(zip(opt.m, opt.v)):
            named[f"{slot}.m[{i}]"] = m
            named[f"{slot}.v[{i}]"] = v
    named["meta.iteration"] = np.array([[float(state.iteration)]])
    named["meta.work"] = np.array([[float(state.work)]])
    named["meta.best_val_acc"] = np.array([[state.best_val_acc]])
    named["meta.best_iter"] = np.array([[float(state.best_iter)]])
    named["meta.evals_since_best"] = np.array([[float(state.evals_since_best)]])
    named["meta.method"] = np.array([[float(METHODS.index(method))]])
    return named


def state_from_named(named: dict, cfg: TrainConfig):
    theta, lam, _metric = model_from_named(named)
    best_theta = _params.from_named_arrays(theta, _strip(named, "best_theta."))
    best_lam_named = _strip(named, "best_lam.")
    best_lam = _params.from_named_arrays(lam, best_lam_named) if best_lam_named else lam

    def opt_from(slot, template_arrays):
        key = f"{slot}.meta"
        if key not in named:
            return None
        step, lr, is_adam = named[key][0]
        opt = OptState(kind="adam" if is_adam else "sgd", lr=float(lr), step=int(step))
        if opt.kind == "adam":
            opt.m = [_tensor(named, f"{slot}.m[{i}]") for i in range(len(template_arrays))]
            opt.v = [_tensor(named, f"{slot}.v[{i}]") for i in range(len(template_arrays))]
        return opt

    theta_arrays = [a for _, a in _params.named_arrays(theta)]
    lam_arrays = [a for _, a in _params.named_arrays(lam)]
    state = TrainState(
        theta=theta,
        lam=lam,
        opt_theta=opt_from("opt_theta", theta_arrays),
        opt_lam=opt_from("opt_lam", lam_arrays),
        iteration=int(_tensor(named, "meta.iteration")[0, 0]),
        work=int(_tensor(named, "meta.work")[0, 0]),
        best_val_acc=float(_tensor(named, "meta.best_val_acc")[0, 0]),
        best_iter=int(_tensor(named, "meta.best_iter")[0, 0]),
        best_theta=best_theta,
        best_lam=best_lam,
        evals_since_best=int(_tensor(named, "meta.evals_since_best")[0, 0]),
    )
    method = _code(named, "meta.method", dict(enumerate(METHODS)))
    return state, method
