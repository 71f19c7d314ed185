"""Span recording around the program's public functions, and the reduction
of spans to per-layer metrics.

`Tracer.install` replaces each function named in `TRACED` with a timing
wrapper on its module attribute. Callers reach these functions through
module attributes (`bl.hypergrad`, `ad.grad`, `setfunc.set_forward`, ...),
so a wrapper sees every call. Spans stay in memory until `write`.
"""

from __future__ import annotations

import dataclasses
import json
import time

# (module, function) pairs; the span name is "<module>.<function>"
TRACED = (
    ("bilevel", "train_step"), ("bilevel", "hypergrad"),
    ("bilevel", "evaluate_validation"), ("bilevel", "theta_step"),
    ("bilevel", "save_checkpoint"), ("bilevel", "load_checkpoint"),
    ("autodiff", "grad"),
    ("setfunc", "set_forward"), ("setfunc", "singleton_batch"),
    ("interpolate", "loss_mix"),
    ("protonet", "loss_singleton"), ("protonet", "accuracy"),
    ("protonet", "task_accuracy"),
    ("episodes", "gen_gaussian_tasks"), ("episodes", "save_tasks"),
    ("episodes", "load_tasks"),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    nodes: int = None       # tape growth during the span, when on a tape
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.children_s


def _tape_of(x, DiffValue):
    """The tape x's values are bound to: x itself, the first item of a
    list, or the first leaf of a parameter dataclass."""
    if isinstance(x, DiffValue):
        return x.tape
    if isinstance(x, (list, tuple)) and x:
        return _tape_of(x[0], DiffValue)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            tape = _tape_of(getattr(x, f.name), DiffValue)
            if tape is not None:
                return tape
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.seconds

    def install(self, mi) -> None:
        """Wrap TRACED in the `metainterp` package mi (already imported)."""
        from metainterp.autodiff import DiffValue
        for mod_name, fn_name in TRACED:
            module = getattr(mi, mod_name)
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name,
                    self._wrap(f"{mod_name}.{fn_name}", original, DiffValue))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def _wrap(self, name, fn, DiffValue):
        if name == "bilevel.train_step":
            # the step's tape is private; its node count is added to state.work
            def counter(args, kwargs):
                state = args[0]
                return lambda: state.work
        else:
            def counter(args, kwargs):
                for x in (*args, *kwargs.values()):
                    tape = _tape_of(x, DiffValue)
                    if tape is not None:
                        return lambda: tape.op_count
                return None

        def wrapper(*args, **kwargs):
            count = counter(args, kwargs)
            n0 = count() if count else None
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if count:
                    span.nodes = count() - n0

        return wrapper

    def write(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "nodes": s.nodes} for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f)


def _under(spans, i, name) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list, neumann_iters: int) -> dict:
    """Per-layer figures from the spans of traced rounds.

    Times are self times unless the name says otherwise: a span minus the
    spans it contains. Node counts are the tape growth over a span, which
    includes what its children recorded.
    """
    def pick(name, under=None, outside=None):
        return [s for i, s in enumerate(spans) if s.name == name
                and (under is None or _under(spans, i, under))
                and (outside is None or not _under(spans, i, outside))]

    def per(xs, n):
        return sum(xs) / n if n else 0.0

    steps = pick("bilevel.train_step")
    iters = len(steps)
    hyper = pick("bilevel.hypergrad")
    evals = pick("bilevel.evaluate_validation")
    trains = pick("cli.train")
    ev_cmds = pick("cli.eval")

    # grad spans directly inside one hypergradient, in call order:
    # validation gradient, the q Neumann HVPs, the mixed partial
    grads_in: dict = {}
    for s in spans:
        if s.name == "autodiff.grad" and s.parent >= 0 \
                and spans[s.parent].name == "bilevel.hypergrad":
            grads_in.setdefault(s.parent, []).append(s)
    hvp_s = sum(s.seconds for grads in grads_in.values()
                for s in grads[1:1 + neumann_iters])

    in_step = "bilevel.train_step"
    set_fwd = pick("setfunc.set_forward", under=in_step)
    load = pick("episodes.load_tasks")
    return {
        "autodiff.nodes_per_iter": per([s.nodes for s in steps], iters),
        "autodiff.backward_s_per_iter": per(
            [s.self_s for s in pick("autodiff.grad", under=in_step,
                                     outside="bilevel.hypergrad")], iters),
        "setfunc.set_forward_calls_per_iter": per([1] * len(set_fwd), iters),
        "setfunc.set_forward_s_per_iter": per([s.self_s for s in set_fwd], iters),
        "setfunc.singleton_batch_s_per_iter": per(
            [s.self_s for s in pick("setfunc.singleton_batch", under=in_step)], iters),
        "interpolate.loss_mix_s_per_iter": per(
            [s.self_s for s in pick("interpolate.loss_mix", under=in_step)], iters),
        "interpolate.loss_mix_nodes_per_iter": per(
            [s.nodes or 0 for s in pick("interpolate.loss_mix", under=in_step)], iters),
        "protonet.loss_singleton_s_per_iter": per(
            [s.self_s for s in pick("protonet.loss_singleton", under=in_step)], iters),
        "protonet.accuracy_s": per(
            [s.seconds for s in pick("protonet.accuracy", under="cli.eval")], len(ev_cmds)),
        "protonet.task_accuracy_calls": per(
            [1] * len(pick("protonet.task_accuracy", under="protonet.accuracy")), len(ev_cmds)),
        "bilevel.hypergrad_s_per_update": per([s.seconds for s in hyper], len(hyper)),
        "bilevel.hypergrad_hvp_s_per_update": per([hvp_s], len(hyper)),
        "bilevel.hypergrad_nodes_per_update": per([s.nodes for s in hyper], len(hyper)),
        "bilevel.validation_s_per_eval": per([s.seconds for s in evals], len(evals)),
        "bilevel.optimizer_s_per_iter": per(
            [s.self_s for s in pick("bilevel.theta_step")], iters),
        "bilevel.step_other_s_per_iter": per([s.self_s for s in steps], iters),
        "bilevel.checkpoint_save_s": per(
            [s.seconds for s in pick("bilevel.save_checkpoint", under="cli.train")], len(trains)),
        "bilevel.checkpoint_load_s": per(
            [s.seconds for s in pick("bilevel.load_checkpoint", under="cli.eval")], len(ev_cmds)),
        "episodes.gen_s": per(
            [s.seconds for s in pick("episodes.gen_gaussian_tasks", under="cli.gen-tasks")],
            len(pick("cli.gen-tasks"))),
        "episodes.save_tasks_s": per(
            [s.seconds for s in pick("episodes.save_tasks")], len(pick("episodes.save_tasks"))),
        "episodes.load_tasks_s": per([s.seconds for s in load], len(load)),
        "cli.train_other_s": per([s.self_s for s in trains], len(trains)),
        "cli.eval_other_s": per([s.self_s for s in ev_cmds], len(ev_cmds)),
    }
