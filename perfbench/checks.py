"""Checks of one benchmark run's outputs against `oracle` and against
properties the method must have. Each check returns (name, ok, detail)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracle


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def task_file(mi, gen, read, ours) -> tuple:
    """The program's reader (`read`) returns bit for bit what its generator
    wrote, and so does the oracle's reader (`ours`)."""
    written = mi.episodes.gen_gaussian_tasks(gen)
    ok = True
    for split, name in (("meta_train", "train"), ("meta_val", "val"), ("meta_test", "test")):
        w_tasks, r_tasks = getattr(written, split), getattr(read, split)
        ok &= len(w_tasks) == len(r_tasks) == len(ours[name])
        for w, r, o in zip(w_tasks, r_tasks, ours[name]):
            for role, xo, yo in (("support", o.xs, o.ys), ("query", o.xq, o.yq)):
                xw = np.stack([e.features for e in getattr(w, role)])
                xr = np.stack([e.features for e in getattr(r, role)])
                yw = [e.label for e in getattr(w, role)]
                ok &= _bits_equal(xw, xr) and _bits_equal(xw, xo)
                ok &= yw == [e.label for e in getattr(r, role)] == list(yo)
    return "task_file_bit_equal", bool(ok), f"{len(read.meta_test)} test tasks"


def checkpoint(mi, path, named=None) -> tuple:
    """The program's reader and the oracle's agree bit for bit on a
    checkpoint, and with `named` when that is what was written."""
    read, ours = mi.bilevel.load_checkpoint(path), oracle.read_checkpoint(path)
    ok = list(read) == list(ours) and all(_bits_equal(read[k], ours[k]) for k in read)
    if named is not None:
        ok &= list(named) == list(read) and all(
            _bits_equal(np.asarray(named[k], dtype=np.float64).reshape(read[k].shape), read[k])
            for k in named)
    return f"checkpoint_bit_equal:{Path(path).name}", bool(ok), f"{len(read)} tensors"


def metrics_rows(path, max_iters, period) -> tuple:
    """metrics.csv holds the header and one row per evaluation of the
    schedule: every `period` iterations and at the last one."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    want = [i for i in range(1, max_iters + 1) if i % period == 0 or i == max_iters]
    got = [int(line.split(",")[0]) for line in lines[1:]]
    ok = lines[0] == "iter,train_loss,val_loss,val_acc,wall_ms" and got == want
    return "metrics_csv_schedule", ok, f"rows {got}"


def same_bytes(name, blobs) -> tuple:
    """Rounds of identical commands produce identical files."""
    return f"deterministic:{name}", all(b == blobs[0] for b in blobs), f"{len(blobs)} rounds"


def val_loss(mi, ckpt, dataset, tasks, metrics_path, report_path) -> tuple:
    """Eval-mode loss of the saved best model on every meta-val task, by
    the program and by the oracle; and the metrics.csv row of the best
    iteration, which was computed from the same model."""
    named = oracle.read_checkpoint(ckpt)
    m = oracle.Model(named)
    want = [float(oracle.val(oracle.episode_loss(m, t))[0, 0]) for t in tasks["val"]]
    theta, lam, metric = mi.bilevel.model_from_named(mi.bilevel.load_checkpoint(ckpt))
    worst = 0.0
    for task, w in zip(dataset.meta_val, want):
        got = mi.protonet.loss_singleton(lam, theta, task, "eval", None, metric).item()
        worst = max(worst, _rel(got, w))
    best = json.loads(Path(report_path).read_text(encoding="utf-8"))["best_iter"]
    row = [r.split(",") for r in Path(metrics_path).read_text(encoding="utf-8").splitlines()[1:]
           if int(r.split(",")[0]) == best]
    if row:
        worst = max(worst, _rel(float(row[0][2]), float(np.mean(want))))
    ok = bool(row) and worst <= 1e-9
    return "val_loss_oracle", ok, f"{len(want)} tasks, worst relative error {worst:.2e}"


def accuracy(ckpt, tasks, eval_json) -> tuple:
    """Every seed's accuracy and half-width from `eval --json` against the
    oracle, and above chance."""
    payload = json.loads(Path(eval_json).read_text(encoding="utf-8"))
    per_task = oracle.task_accuracies(oracle.read_checkpoint(ckpt), tasks["test"])
    chance = 1.0 / tasks["test"][0].way
    worst, ok = 0.0, True
    for row in payload["per_seed"]:
        mean, half = oracle.episode_accuracy(per_task, payload["episodes"], row["seed"])
        worst = max(worst, abs(mean - row["accuracy"]), abs(half - row["ci95"]))
        ok &= row["accuracy"] > chance
    ok &= worst <= 1e-12
    return "accuracy_oracle", bool(ok), (
        f"{len(payload['per_seed'])} seeds, accuracy {payload['accuracy']:.4f} "
        f"(chance {chance:.3f}), worst abs error {worst:.1e}")


def hypergradient(mi, cfg, dataset, tasks, method, work_dir) -> list:
    """One outer update of a fresh run, by the program and by the oracle.

    The program's training steps run up to the first outer update; the
    arguments and result of its `hypergrad` call are recorded there. The
    state after that step also gives a checkpoint round trip.
    """
    bl, params = mi.bilevel, mi._params
    state = bl.init_state(dataset, cfg, method)
    seen = {}
    original = bl.hypergrad

    def record(theta, lam_live, theta_leaves, *rest):
        rng = rest[5]
        seen.update(theta_new=theta, lam=params.values(lam_live),
                    theta_old=[leaf.data.copy() for leaf in theta_leaves],
                    rng_state=rng.bit_generator.state)
        seen["g"] = [np.array(g) for g in original(theta, lam_live, theta_leaves, *rest)]
        return seen["g"]

    bl.hypergrad = record
    try:
        for _ in range(cfg.update_period):
            bl.train_step(state, dataset, cfg, method)
    finally:
        bl.hypergrad = original

    named = bl.model_to_named(seen["theta_new"], seen["lam"], cfg)
    t_names = [k for k in named if k.startswith("theta.")]
    l_names = [k for k in named if k.startswith("lam.")]
    step = oracle.StepConfig(
        seed=cfg.seed, iteration=cfg.update_period, batch=cfg.batch_size,
        val_batch=cfg.bprime, alpha=cfg.inner_lr, q=cfg.neumann_iters,
        cardinality=cfg.interp.cardinality)
    want, plan = oracle.hypergradient(
        dict(zip(t_names, seen["theta_old"])), {k: named[k] for k in t_names},
        {k: named[k] for k in l_names},
        {k: v for k, v in named.items() if k.startswith("meta.")}, tasks, step)
    scale = max(float(np.max(np.abs(g))) for g in seen["g"])
    worst = max(float(np.max(np.abs(g - want[k]))) / max(float(np.max(np.abs(g))), 1e-4 * scale)
                for k, g in zip(l_names, seen["g"]))
    same_draws = plan.rng_state == seen["rng_state"]
    ok = same_draws and worst <= 1e-4
    path = Path(work_dir) / "state.ckpt"
    full = bl.state_to_named(state, cfg, method)
    bl.save_checkpoint(path, full)
    return [
        ("hypergradient_oracle", bool(ok),
         f"{len(l_names)} tensors, worst relative error {worst:.2e}, "
         f"draw order {'matches' if same_draws else 'differs'}"),
        checkpoint(mi, path, full),
    ]
