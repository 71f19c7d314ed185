"""Command-line surface: task generation, training, evaluation, theory
checks, and ablation sweeps.

Exit codes: 0 success, 1 runtime or check failure, 2 usage/config error.
All outputs land under the directory given by --out / --out-dir. The
wall_ms column of metrics.csv is a deterministic work meter (recorded
primitive operations, in thousands) so identical runs produce identical
bytes; true wall-clock timing lives in run_report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import bilevel as bl
from . import episodes as ep
from . import interpolate as itp
from . import protonet as pn
from . import setfunc
from . import theory as th
from .config import ConfigError, load_run_config

_F = "%.17g"


def _fmt(x) -> str:
    return _F % float(x)


def _threads_default() -> int:
    raw = os.environ.get("META_INTERP_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# gen-tasks


def cmd_gen_tasks(args) -> int:
    cfg = load_run_config(args.config, args.set)
    gen = cfg.gen if args.seed is None else replace(cfg.gen, seed=args.seed)
    ds = ep.gen_gaussian_tasks(gen)
    ep.save_tasks(ds, args.out)
    print(
        f"wrote {args.out}: T={len(ds.meta_train)} T'={len(ds.meta_val)} "
        f"test={len(ds.meta_test)} K={ds.way} dims={ds.dim}"
    )
    return 0


# ---------------------------------------------------------------------------
# train


def _metric_row(row) -> str:
    wall_ms = int(round(row["work"] / 1000.0))
    return ",".join(
        [str(row["iter"]), _fmt(row["train_loss"]), _fmt(row["val_loss"]),
         _fmt(row["val_acc"]), str(wall_ms)]
    )


def _write_prototypes(path, theta, lam, dataset, method, seed) -> None:
    """Raw prototype dump per (task, class, source); the embedding-space
    record that replaces plots."""
    dim_out = None
    lines = []
    rng = np.random.default_rng([seed, 0x9907])
    for tid, task in enumerate(dataset.meta_train):
        xs, ys = task.support_matrix()
        with ad.pause_recording():
            es = pn.embed_batch(lam, theta, xs, mode="eval")
            protos = pn.prototypes_from_matrix(es, ys, task.way).data
        dim_out = protos.shape[1]
        for k in range(task.way):
            feats = ",".join(_fmt(v) for v in protos[k])
            lines.append(f"{tid},{k + 1},original,{feats}")
    if method not in ("protonet", "mlti") and len(dataset.meta_train) >= 2:
        tasks = dataset.meta_train
        for tid in range(len(tasks)):
            other = (tid + 1) % len(tasks)
            pairing = itp.pair_classes(tasks[tid].way, rng)
            with ad.pause_recording():
                protos = itp.interpolated_prototypes(
                    lam, theta, tasks[tid], tasks[other], pairing,
                    itp.InterpConfig(strategy="support"), mode="eval",
                    rng=rng,
                ).data
            for k in range(tasks[tid].way):
                feats = ",".join(_fmt(v) for v in protos[k])
                lines.append(f"{tid},{k + 1},interpolated,{feats}")
    header = "task_id,class,source," + ",".join(
        f"f{i + 1}" for i in range(dim_out)
    )
    Path(path).write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    train_cfg = cfg.train if args.seed is None else replace(cfg.train, seed=args.seed)
    dataset = ep.load_tasks(args.tasks)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"

    state = None
    method = args.method
    if args.resume:
        named = bl.load_checkpoint(args.resume)
        state, method = bl.state_from_named(named, train_cfg)
        if args.method != "meta-interp" and args.method != method:
            raise SystemExit(
                f"resume checkpoint was trained with method {method!r}"
            )
        mode = "a" if metrics_path.exists() else "w"
    else:
        mode = "w"

    t0 = time.perf_counter()
    metrics = open(metrics_path, mode, encoding="utf-8")
    if mode == "w":
        metrics.write("iter,train_loss,val_loss,val_acc,wall_ms\n")

    if state is None:
        state = bl.init_state(dataset, train_cfg, method)

    saved_at = None  # iteration of the last final.ckpt this invocation wrote

    def on_eval(row):
        nonlocal saved_at
        metrics.write(_metric_row(row) + "\n")
        metrics.flush()
        bl.save_checkpoint(out_dir / "final.ckpt",
                           bl.state_to_named(state, train_cfg, method))
        saved_at = state.iteration

    try:
        result = bl.meta_train(dataset, train_cfg, method, state=state,
                               on_eval=on_eval, stop_iteration=args.stop_after)
    except bl.TrainingDiverged as e:
        metrics.close()
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics.close()

    if saved_at != state.iteration:
        bl.save_checkpoint(out_dir / "final.ckpt",
                           bl.state_to_named(state, train_cfg, method))
    bl.save_checkpoint(out_dir / "best.ckpt",
                       bl.model_to_named(result.best_theta, result.best_lam,
                                         train_cfg))
    _write_prototypes(out_dir / "prototypes.csv", result.best_theta,
                      result.best_lam, dataset, method, train_cfg.seed)

    history = result.history
    report = {
        "method": method,
        "seed": train_cfg.seed,
        "iterations": result.iterations,
        "stopped_early": result.stopped_early,
        "best_val_acc": result.best_val_acc,
        "best_iter": result.best_iter,
        "wall_seconds": time.perf_counter() - t0,
        # the training-loss-vs-validation-loss observation is recorded,
        # not asserted: harder augmented tasks show up as higher train loss
        "loss_observation": {
            "final_train_loss": history[-1]["train_loss"] if history else None,
            "final_val_loss": history[-1]["val_loss"] if history else None,
            "mean_train_loss": float(np.mean([r["train_loss"] for r in history]))
            if history else None,
            "mean_val_loss": float(np.mean([r["val_loss"] for r in history]))
            if history else None,
        },
    }
    (out_dir / "run_report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"method={method} iters={result.iterations} "
        f"best_val_acc={result.best_val_acc:.4f} at {result.best_iter}"
    )
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args, parser) -> int:
    if args.episodes < 1:
        parser.error("--episodes must be positive")
    named = bl.load_checkpoint(args.ckpt)
    theta, lam, metric = bl.model_from_named(named)
    dataset = ep.load_tasks(args.tasks)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        parser.error("--seeds must list at least one seed")

    results = pn.accuracy(lam, theta, dataset.meta_test, args.episodes,
                          seeds, metric, threads=args.threads)
    per_seed = [{"seed": seed, "accuracy": mean, "ci95": half}
                for seed, (mean, half) in zip(seeds, results)]
    if len(seeds) > 1:
        means = np.array([r["accuracy"] for r in per_seed])
        mean = float(means.mean())
        ci = float(1.96 * means.std(ddof=1) / np.sqrt(len(seeds)))
    else:
        mean = per_seed[0]["accuracy"]
        ci = per_seed[0]["ci95"]
    payload = {
        "accuracy": mean,
        "ci95": ci,
        "episodes": args.episodes,
        "seeds": seeds,
        "per_seed": per_seed,
    }
    print(f"accuracy: {mean:.4f} +/- {ci:.4f}")
    print(json.dumps(payload, sort_keys=True))
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0


# ---------------------------------------------------------------------------
# theory checks


def _check_closedform(seed):
    rng = np.random.default_rng([seed, 1])
    worst_single, worst_pair = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        p = setfunc.init_simple(d, rng)
        for name in ("b1q", "b1k", "b1v", "b2q", "b2k", "b2v"):
            setattr(p, name, rng.standard_normal((1, d)) * 0.3)
        h, hp = rng.standard_normal((1, d)), rng.standard_normal((1, d))
        M, b = setfunc.effective_affine(p)
        single = setfunc.simple_forward(p, [h]).data
        worst_single = max(worst_single, float(np.max(np.abs(single - (h @ M + b)))))
        alpha, *_ = setfunc.alpha_pair(p, h, hp)
        pair = setfunc.simple_forward(p, [h, hp]).data
        want = (h + alpha * (hp - h)) @ M + b
        worst_pair = max(worst_pair, float(np.max(np.abs(pair - want))))
    return {
        "name": "closedform",
        "inputs": {"draws": 200, "seed": seed},
        "measured": {"singleton_max_dev": worst_single, "pair_max_dev": worst_pair},
        "criteria": {"singleton": 1e-12, "pair": 1e-9},
        "passed": worst_single <= 1e-12 and worst_pair <= 1e-9,
    }


def _check_thm1(seed):
    eps_grid = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    slopes1, slopes2, used = [], [], []
    probe = seed
    while len(used) < 5 and probe < seed + 25:
        prob = th.default_thm1_problem(probe)
        if not th.is_degenerate(prob):
            s1, _ = th.remainder_slope(prob, 1, eps_grid)
            s2, _ = th.remainder_slope(prob, 2, eps_grid)
            slopes1.append(s1)
            slopes2.append(s2)
            used.append(probe)
        probe += 1
    ok = (
        len(used) == 5
        and all(s >= 1.8 for s in slopes1)
        and all(s >= 2.8 for s in slopes2)
    )
    return {
        "name": "thm1",
        "inputs": {"eps_grid": eps_grid, "instance_seeds": used},
        "measured": {"slopes_j1": slopes1, "slopes_j2": slopes2},
        "criteria": {"slope_j1": 1.8, "slope_j2": 2.8},
        "passed": ok,
    }


def _build_mirrored(seed):
    rng = np.random.default_rng([seed, 3])
    d = 3
    zero, row = np.zeros((d, d)), np.zeros((1, d))
    params = setfunc.SimpleSetParams(
        w1q=zero, w1k=zero, w1v=np.eye(d), w2q=zero, w2k=zero, w2v=np.eye(d),
        b1q=row, b1k=row, b1v=row, b2q=row, b2k=row, b2v=row, seed=row,
    )
    s1 = rng.standard_normal((2, d))
    sup = [ep.Example(s1[i], 1) for i in range(2)] + [
        ep.Example(-s1[i], 2) for i in range(2)
    ]
    theta = rng.standard_normal(d)
    queries = []
    for i in range(6):
        r = rng.standard_normal(d)
        if r @ theta < 0:
            r = -r
        queries.append(ep.Example(r, 1 + i % 2))
    task_t = ep.Task(sup, queries, way=2)
    a1, a2 = rng.standard_normal((2, d)), rng.standard_normal((2, d))

    def partner(sign):
        return ep.Task(
            [ep.Example(sign * a1[i], 1) for i in range(2)]
            + [ep.Example(sign * a2[i], 2) for i in range(2)],
            [ep.Example(np.zeros(d), 1)],
            way=2,
        )

    case = th.LogisticSpecialCase(theta=theta, task_t=task_t, set_params=params)
    pairings = [
        (task, sig)
        for task in (partner(1.0), partner(-1.0))
        for sig in (np.array([1, 2]), np.array([2, 1]))
    ]
    return case, pairings


def _check_prop1(seed):
    gaps, residuals = [], []
    for s in range(seed, seed + 5):
        case, pairings = _build_mirrored(s)
        res = th.prop1_check(case, pairings)
        gaps.append(res["gap"])
        residuals.append(res["balance_residual"])
    c_positive = []
    for s in range(seed + 100, seed + 120):
        case, _ = _build_mirrored(s)
        c_positive.append(case.curvature_coefficient() > 0.0)
    ok = all(g <= 1e-9 for g in gaps) and all(c_positive)
    return {
        "name": "prop1",
        "inputs": {"constructions": 5, "c_draws": 20},
        "measured": {"gaps": gaps, "balance_residuals": residuals,
                     "c_positive": int(sum(c_positive))},
        "criteria": {"gap": 1e-9, "c_positive": 20},
        "passed": ok,
    }


def _check_prop2(seed):
    cells = []
    ok = True
    for n in (4, 8, 12):
        for rank in (1, 2, 4):
            for radius in (1.0, 4.0):
                cfg = th.RademacherConfig(n=n, dim=4, rank=rank, radius=radius,
                                          trials=200, seed=seed)
                out = th.rademacher_bound_check(cfg)
                cells.append({"n": n, "rank": rank, "R": radius, **out})
                ok = ok and out["passed"]
    return {
        "name": "prop2",
        "inputs": {"grid": "n in {4,8,12} x rank in {1,2,4} x R in {1,4}",
                   "trials": 200},
        "measured": {"cells": cells},
        "criteria": {"bound": "empirical <= sqrt(R*rank/n) + 3 SE"},
        "passed": ok,
    }


def _check_neumann(seed, verbose=True):
    from . import autodiff as ad
    from .autodiff import Tape

    tape = Tape()
    theta = tape.param([[1.0]])
    lam = tape.param([[1.0]])
    diff = ad.sub(theta, lam)
    ltr = ad.scale(ad.mul(diff, diff), 0.5)
    (dltr,) = ad.grad(ltr, [theta], create_graph=True)
    g = bl.neumann_hypergrad([dltr], [theta], [lam], [np.array([[1.0]])],
                             [np.array([[0.0]])], alpha=0.5, q=10)
    scalar_err = abs(g[0][0, 0] - (1.0 - 0.5 ** 11))

    rng = np.random.default_rng([seed, 5])
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    H = Q @ np.diag(rng.uniform(1.0, 2.5, 3)) @ Q.T
    C = rng.standard_normal((3, 2))
    t = rng.standard_normal(3)
    th0 = rng.standard_normal(3)
    alpha = 0.95 / float(np.max(np.linalg.eigvalsh(H)))
    exact = -(C.T @ np.linalg.solve(H, th0 - t)).reshape(1, -1)

    def hg(q):
        tape = Tape()
        theta = tape.param(th0.reshape(1, -1))
        lam = tape.param(np.zeros((1, 2)))
        from .autodiff import DiffValue

        quad = ad.scale(ad.sum_all(ad.mul(theta, ad.matmul(theta, DiffValue.const(H)))), 0.5)
        cross = ad.sum_all(ad.mul(theta, ad.matmul(lam, DiffValue.const(C.T))))
        (dltr,) = ad.grad(ad.add(quad, cross), [theta], create_graph=True)
        g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                 [(th0 - t).reshape(1, -1)], [np.zeros((1, 2))],
                                 alpha=alpha, q=q)
        return float(np.max(np.abs(g[0] - exact)))

    table = [(q, hg(q)) for q in (0, 1, 2, 5, 10, 20, 50)]
    if verbose:
        print("q  | max abs error vs exact implicit gradient")
        for q, err in table:
            print(f"{q:<3}| {err:.3e}")
    monotone = all(b <= a + 1e-15 for (_, a), (_, b) in zip(table, table[1:]))
    denom = max(float(np.max(np.abs(exact))), 1e-8)
    ok = scalar_err <= 1e-12 and monotone and table[-1][1] / denom <= 1e-6
    return {
        "name": "neumann",
        "inputs": {"alpha": 0.5, "q": 10, "quadratic_seed": seed},
        "measured": {"scalar_error": scalar_err,
                     "q_table": [[q, e] for q, e in table]},
        "criteria": {"scalar": 1e-12, "q50_relative": 1e-6,
                     "monotone": True},
        "passed": ok,
    }


def _check_hvp(seed):
    from . import autodiff as ad
    from .autodiff import DiffValue, Tape

    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for _ in range(10):
        c = rng.standard_normal((4, 4))
        x0 = rng.standard_normal((1, 4))
        v = rng.standard_normal((1, 4))

        def f(x):
            return ad.sum_all(ad.exp(ad.scale(ad.matmul(x, DiffValue.const(c)), 0.5)))

        def grad_at(x0_):
            tape = Tape()
            x = tape.param(x0_)
            (g,) = ad.grad(f(x), [x])
            return g.data

        tape = Tape()
        x = tape.param(x0)
        (gx,) = ad.grad(f(x), [x], create_graph=True)
        (hvp,) = ad.grad(ad.sum_all(ad.mul(gx, DiffValue.const(v))), [x])
        h = 1e-4
        fd = (grad_at(x0 + h * v) - grad_at(x0 - h * v)) / (2 * h)
        denom = max(float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, float(np.max(np.abs(hvp.data - fd))) / denom)
    return {
        "name": "hvp",
        "inputs": {"functions": 10, "fd_step": 1e-4},
        "measured": {"worst_relative_error": worst},
        "criteria": {"relative": 1e-4},
        "passed": worst <= 1e-4,
    }


def _check_balance(seed):
    mirrored = []
    for s in range(seed, seed + 3):
        case, pairings = _build_mirrored(s)
        mirrored.append(th.balance_check(case, pairings))
    rng = np.random.default_rng([seed, 8])
    gen = ep.GenConfig(way=2, shots=2, queries=2, dim=3, train_tasks=2,
                       val_tasks=1, test_tasks=1, spread=0.6, seed=seed)
    ds = ep.gen_gaussian_tasks(gen)
    case, _ = _build_mirrored(seed)
    random_case = th.LogisticSpecialCase(
        theta=rng.standard_normal(3), task_t=ds.meta_train[0],
        set_params=case.set_params,
    )
    random_residual = th.balance_check(
        random_case, [(ds.meta_train[1], np.array([1, 2]))]
    )
    ok = all(r <= 1e-12 for r in mirrored)
    return {
        "name": "balance",
        "inputs": {"mirrored_constructions": 3},
        "measured": {"mirrored_residuals": mirrored,
                     "random_residual": random_residual},
        "criteria": {"mirrored": 1e-12, "random": "reported only"},
        "passed": ok,
    }


_CHECKS = {
    "closedform": _check_closedform,
    "thm1": _check_thm1,
    "prop1": _check_prop1,
    "prop2": _check_prop2,
    "neumann": _check_neumann,
    "hvp": _check_hvp,
    "balance": _check_balance,
}


def cmd_theory_check(args) -> int:
    names = list(_CHECKS) if args.check == "all" else [args.check]
    results = []
    for name in names:
        result = _CHECKS[name](args.seed)
        results.append(result)
        print(f"{result['name']}: {'PASS' if result['passed'] else 'FAIL'}")
    report = {"seed": args.seed, "checks": results,
              "passed": all(r["passed"] for r in results)}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    print(f"report written to {args.out}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# ablations


def _ablate_settings(axis, cfg):
    if axis == "strategy":
        return [(s, lambda c, s=s: replace(c, train=replace(
            c.train, interp=replace(c.train.interp, strategy=s)))) for s in itp.STRATEGIES]
    if axis == "layer":
        depth = len(cfg.train.encoder_widths)
        return [(str(l), lambda c, l=l: replace(c, train=replace(
            c.train, interp=replace(c.train.interp, layer=l)))) for l in range(depth)]
    if axis == "cardinality":
        return [(str(n), lambda c, n=n: replace(c, train=replace(
            c.train, interp=replace(c.train.interp, cardinality=n)))) for n in (2, 3, 4, 5)]
    if axis == "setfunc":
        return [(k, lambda c, k=k: replace(c, train=replace(c.train, set_kind=k)))
                for k in ("simple", "full", "deepsets")]
    if axis == "num-train-tasks":
        return [(str(t), lambda c, t=t: replace(c, gen=replace(c.gen, train_tasks=t)))
                for t in (2, 3, 5, 8)]
    if axis == "num-val-tasks":
        return [(str(t), lambda c, t=t: replace(c, gen=replace(c.gen, val_tasks=t)))
                for t in (1, 2, 4)]
    raise ValueError(f"unknown axis {axis!r}")


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.set)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    rows = []
    for setting, apply_fn in _ablate_settings(args.axis, cfg):
        varied = apply_fn(cfg)
        ds = ep.gen_gaussian_tasks(varied.gen)
        for seed in seeds:
            train_cfg = replace(varied.train, seed=seed)
            result = bl.meta_train(ds, train_cfg, "meta-interp")
            mean, half = pn.accuracy(result.best_lam, result.best_theta,
                                     ds.meta_test, train_cfg.eval_episodes,
                                     seed, train_cfg.metric,
                                     threads=args.threads)
            rows.append((args.axis, setting, seed, mean, half))
            print(f"{args.axis}={setting} seed={seed}: {mean:.4f} +/- {half:.4f}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        f.write("axis,setting,seed,accuracy,ci95\n")
        for axis, setting, seed, mean, half in rows:
            f.write(f"{axis},{setting},{seed},{_fmt(mean)},{_fmt(half)}\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metainterp",
        description="Few-task meta-learning with learned task interpolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tasks", help="generate a synthetic task file")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("train", help="train a model on a task file")
    p.add_argument("--config", default=None)
    p.add_argument("--tasks", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--method", default="meta-interp", choices=bl.METHODS)
    p.add_argument("--resume", default=None, metavar="CKPT")
    p.add_argument("--stop-after", type=int, default=None, metavar="ITER",
                   help="pause at this iteration (resume with --resume)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("eval", help="evaluate a checkpoint on meta-test tasks")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--episodes", type=int, default=3000)
    p.add_argument("--seeds", default="0")
    p.add_argument("--json", default=None)
    p.add_argument("--threads", type=int, default=_threads_default())

    p = sub.add_parser("theory-check", help="run the numerical theory checks")
    p.add_argument("--check", default="all",
                   choices=["all", *_CHECKS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="theory_report.json")

    p = sub.add_parser("ablate", help="sweep one design axis")
    p.add_argument("--axis", required=True,
                   choices=["strategy", "layer", "cardinality", "setfunc",
                            "num-train-tasks", "num-val-tasks"])
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0")
    p.add_argument("--threads", type=int, default=_threads_default())
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-tasks":
            return cmd_gen_tasks(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args, parser)
        if args.command == "theory-check":
            return cmd_theory_check(args)
        if args.command == "ablate":
            return cmd_ablate(args)
    except ConfigError as e:
        parser.error(str(e))  # exits 2
    except (ep.ParseError, ep.TaskError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
