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
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bilevel as bl
from . import episodes as ep
from . import interpolate as itp
from . import protonet as pn
from . import theory as th
from .config import ConfigError, load_run_config

_F = "%.17g"


def _fmt(x) -> str:
    return _F % float(x)


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
    lines = []
    rng = np.random.default_rng([seed, 0x9907])
    batch = pn.Batch(lam, theta)
    for task in dataset.meta_train:
        batch.add_singleton(task)
    protos = batch.forward().protos.data
    dim_out = protos.shape[1]
    for tid, task in enumerate(dataset.meta_train):
        for k in range(task.way):
            feats = ",".join(_fmt(v) for v in protos[tid * task.way + k])
            lines.append(f"{tid},{k + 1},original,{feats}")
    if bl.METHODS[method][1] is not None and len(dataset.meta_train) >= 2:
        tasks = dataset.meta_train
        for tid in range(len(tasks)):
            other = (tid + 1) % len(tasks)
            pairing = itp.pair_classes(tasks[tid].way, rng)
            protos = itp.interpolated_prototypes(
                lam, theta, tasks[tid], tasks[other], pairing,
                itp.InterpConfig(strategy="support"), mode="eval", rng=rng,
            ).data
            for k in range(tasks[tid].way):
                feats = ",".join(_fmt(v) for v in protos[k])
                lines.append(f"{tid},{k + 1},interpolated,{feats}")
    header = "task_id,class,source," + ",".join(
        f"f{i + 1}" for i in range(dim_out)
    )
    Path(path).write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


def _truncate_metrics(path, iteration: int) -> None:
    """Drop the metrics.csv rows after `iteration` (written by a run that
    stopped before checkpointing their evaluation) and any cut-off row."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    keep = lines[:1] + [line for line in lines[1:] if line.endswith("\n")
                        and int(line.split(",")[0]) <= iteration]
    if len(keep) < len(lines):
        Path(path).write_text("".join(keep), encoding="utf-8")


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    train_cfg = cfg.train if args.seed is None else replace(cfg.train, seed=args.seed)
    dataset = ep.load_tasks(args.tasks)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"

    state = None
    method = args.method or "meta-interp"
    mode = "w"
    if args.resume:
        named = bl.load_checkpoint(args.resume)
        state, method = bl.state_from_named(named, train_cfg)
        if args.method is not None and args.method != method:
            print(f"error: resume checkpoint was trained with method {method!r}",
                  file=sys.stderr)
            return 1
        if metrics_path.exists():
            _truncate_metrics(metrics_path, state.iteration)
            mode = "a"

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
        bl.meta_train(dataset, train_cfg, method, state=state,
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
                       bl.model_to_named(state.best_theta, state.best_lam,
                                         train_cfg))
    _write_prototypes(out_dir / "prototypes.csv", state.best_theta,
                      state.best_lam, dataset, method, train_cfg.seed)

    history = state.history
    report = {
        "method": method,
        "seed": train_cfg.seed,
        "iterations": state.iteration,
        "stopped_early": state.stopped_early,
        "best_val_acc": state.best_val_acc,
        "best_iter": state.best_iter,
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
        f"method={method} iters={state.iteration} "
        f"best_val_acc={state.best_val_acc:.4f} at {state.best_iter}"
    )
    return 0


# ---------------------------------------------------------------------------
# eval


def _seed_list(text: str, parser) -> list:
    """The distinct non-negative integers of the comma-separated --seeds;
    anything else, or none, ends in a usage error (exit 2)."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        seeds = None
    if seeds is None or any(s < 0 for s in seeds) or len(set(seeds)) < len(seeds):
        parser.error(f"--seeds must be distinct non-negative integers, got {text!r}")
    if not seeds:
        parser.error("--seeds must list at least one seed")
    return seeds


def cmd_eval(args, parser) -> int:
    if args.episodes < 1:
        parser.error("--episodes must be positive")
    seeds = _seed_list(args.seeds, parser)
    named = bl.load_checkpoint(args.ckpt)
    theta, lam, metric = bl.model_from_named(named)
    dataset = ep.load_tasks(args.tasks)

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


def cmd_theory_check(args) -> int:
    names = list(th.CHECKS) if args.check == "all" else [args.check]
    results = []
    for name in names:
        result = th.CHECKS[name](args.seed)
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


# axis -> (config key, settings); None spans the encoder depth
_ABLATE_AXES = {
    "strategy": ("strategy", itp.STRATEGIES),
    "layer": ("interp_layer", None),
    "cardinality": ("cardinality", (2, 3, 4, 5)),
    "setfunc": ("set_kind", ("simple", "full", "deepsets")),
    "num-train-tasks": ("train_tasks", (2, 3, 5, 8)),
    "num-val-tasks": ("val_tasks", (1, 2, 4)),
}


def cmd_ablate(args, parser) -> int:
    seeds = _seed_list(args.seeds, parser)
    cfg = load_run_config(args.config, args.set)
    key, settings = _ABLATE_AXES[args.axis]
    if settings is None:
        settings = range(len(cfg.train.encoder_widths))
    rows = []
    for setting in settings:
        varied = load_run_config(args.config, [*args.set, f"{key}={setting}"])
        ds = ep.gen_gaussian_tasks(varied.gen)
        for seed in seeds:
            train_cfg = replace(varied.train, seed=seed)
            state = bl.meta_train(ds, train_cfg, "meta-interp")
            mean, half = pn.accuracy(state.best_lam, state.best_theta,
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
    p.add_argument("--method", default=None, choices=bl.METHODS,
                   help="default meta-interp; on --resume, the checkpoint's")
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
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("theory-check", help="run the numerical theory checks")
    p.add_argument("--check", default="all",
                   choices=["all", *th.CHECKS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="theory_report.json")

    p = sub.add_parser("ablate", help="sweep one design axis")
    p.add_argument("--axis", required=True, choices=_ABLATE_AXES)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0")
    p.add_argument("--threads", type=int, default=1)
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
            return cmd_ablate(args, parser)
    except ConfigError as e:
        parser.error(str(e))  # exits 2
    except (ep.ParseError, ep.TaskError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
