"""Training-and-evaluation benchmark of the metainterp CLI.

Each workload is a user session driven through `metainterp.cli.main` in
this one process: `gen-tasks` (set-up), then rounds of `train` and
`eval` until --seconds have passed, then checks of the outputs against
numpy oracles. The last line of standard output is one JSON object.

    python3 perfbench/run.py --workload c8-meta-interp --seed 1 --seconds 45 --trace 0

Times are scaled to reference seconds by a fixed calibration workload
sampled between the commands (calib.py), so that the shared host's drift
in speed does not read as a change of the program.

--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

C8_GEN = dict(way=5, shots=1, queries=10, dim=10, train_tasks=5, val_tasks=6,
              test_tasks=12, spread=1.5)
C8_TRAIN = dict(update_period=25, hyper_lr=3e-3, batch_size=4,
                encoder_widths="32,16", set_kind="simple", patience=0)
EPISODES = 3000
EVAL_SEEDS = "0,1,2,3,4"
SETUP_REPS = 5


@dataclass(frozen=True)
class Workload:
    method: str
    gen: dict
    train: dict
    eval_reps: int        # eval commands per round (short evals repeat)

    @property
    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in {**self.gen, **self.train}.items())


WORKLOADS = {
    # The paper's headline configuration (C8 of the acceptance tests, with
    # fewer iterations): interpolation, first-order backward and the
    # Neumann hypergradient take most of the time.
    "c8-meta-interp": Workload(
        method="meta-interp", gen=C8_GEN,
        train={**C8_TRAIN, "max_iters": 100}, eval_reps=10),
    # The 4-head set transformer. Two shots per class give every fused set
    # of three distinct members, so attention, layer norm and dropout run
    # on real sets, which the simple form's two matmuls barely exercise.
    # Three ways, five queries and S = 10 keep one `train` near 7 s, so a
    # run holds several rounds; iterations still take most of it.
    "full-set-2shot": Workload(
        method="meta-interp",
        gen={**C8_GEN, "way": 3, "shots": 2, "queries": 5},
        train={**C8_TRAIN, "max_iters": 10, "update_period": 10, "batch_size": 2,
               "set_kind": "full", "cardinality": 3}, eval_reps=3),
}


class Session:
    """One workload's files and CLI calls; spans are recorded when a
    tracer is attached."""

    def __init__(self, mi, w: Workload, seed: int, work: Path):
        self.mi, self.w, self.seed = mi, w, seed
        self.cfg = work / "run.cfg"
        self.tasks = work / "tasks.txt"
        self.out = work / "train"
        self.eval_json = work / "eval.json"
        self.tracer = None
        self.cfg.write_text(w.config_text, encoding="utf-8")

    def cli(self, *argv) -> float:
        """Run one command; returns its wall seconds."""
        span = self.tracer.open(f"cli.{argv[0]}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.mi.cli.main(list(argv))
        finally:
            if span:
                self.tracer.close(span)
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"metainterp {argv[0]} exited with {code}")
        return seconds

    def setup(self) -> float:
        """Imports, task generation, task-file write and read-back."""
        imports = import_seconds()
        t0 = time.perf_counter()
        self.cli("gen-tasks", "--config", str(self.cfg), "--out", str(self.tasks),
                 "--seed", str(self.seed))
        self.mi.episodes.load_tasks(self.tasks)
        return imports + time.perf_counter() - t0

    def train(self) -> float:
        return self.cli("train", "--config", str(self.cfg), "--tasks", str(self.tasks),
                        "--out-dir", str(self.out), "--seed", str(self.seed),
                        "--method", self.w.method)

    def eval(self) -> float:
        return self.cli("eval", "--ckpt", str(self.out / "best.ckpt"),
                        "--tasks", str(self.tasks), "--episodes", str(EPISODES),
                        "--seeds", EVAL_SEEDS, "--json", str(self.eval_json),
                        "--threads", "1")


SRC = ROOT / "src"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import metainterp.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """What a fresh interpreter pays to import the CLI and every layer."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def _import_program():
    if not (SRC / "metainterp" / "cli.py").is_file():
        sys.exit(f"error: no metainterp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import metainterp.cli  # noqa: F401  (imports every layer)
    import metainterp as mi
    return mi


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    mi = _import_program()
    w = WORKLOADS[args.workload]

    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(mi, w, args, work, base)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(mi, w, args, work, base) -> int:
    s = Session(mi, w, args.seed, work)
    n_tasks = w.gen["test_tasks"] * len(EVAL_SEEDS.split(","))
    tracer = spans.Tracer() if args.trace else None

    # operations: each gen-tasks, training iteration, meta-test task
    # evaluation and output check; a failed command fails its whole round
    attempted = failed = 0
    setup_s, train_s, eval_s, walls = [], [], [], {False: [], True: []}
    cal = []  # calibration samples, taken between the timed commands
    blobs = {"metrics.csv": [], "eval.json": []}
    if tracer:
        tracer.install(mi)
        s.tracer = tracer
    for _ in range(SETUP_REPS):
        attempted += 1
        cal.append(calib.sample())
        try:
            run_cfg = mi.config.load_run_config(s.cfg)
            setup_s.append(s.setup())
        except (Exception, SystemExit):
            traceback.print_exc()
            failed += 1
            break
    if tracer:
        tracer.uninstall()
    if not failed:
        train_cfg = replace(run_cfg.train, seed=args.seed)

    t_end = time.perf_counter() + args.seconds
    rounds = 0
    while not failed and (time.perf_counter() < t_end or len(train_s) < 3):
        traced = bool(tracer) and rounds % 2 == 1
        rounds += 1
        if traced:
            tracer.install(mi)
        s.tracer = tracer if traced else None
        ops = w.train["max_iters"] + n_tasks * w.eval_reps
        attempted += ops
        try:
            cal.append(calib.sample())
            t = s.train()
            cal.append(calib.sample())
            e = [s.eval() for _ in range(w.eval_reps)]
            cal.append(calib.sample())
            blobs["metrics.csv"].append((s.out / "metrics.csv").read_bytes())
            blobs["eval.json"].append(s.eval_json.read_bytes())
        except (Exception, SystemExit):
            traceback.print_exc()
            failed += ops
            break
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(t + sum(e))
        print(f"round {rounds}{' traced' if traced else ''}: train {t:.3f} s, "
              f"eval {statistics.median(e):.4f} s (median of {len(e)})", file=sys.stderr)
        if not traced:
            train_s.append(t)
            eval_s.extend(e)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []

    def check(fn, *fn_args):
        try:
            out = fn(*fn_args)
        except Exception:  # a check that cannot finish is a failed check
            traceback.print_exc()
            out = (fn.__name__, False, "raised")
        results.extend(out if isinstance(out, list) else [out])

    if not failed:
        dataset = mi.episodes.load_tasks(s.tasks)
        tasks = oracle.read_tasks(s.tasks)
        check(checks.task_file, mi, replace(run_cfg.gen, seed=args.seed), dataset, tasks)
        check(checks.checkpoint, mi, s.out / "best.ckpt")
        check(checks.metrics_rows, s.out / "metrics.csv", train_cfg.max_iters,
              train_cfg.update_period)
        for name, blob in blobs.items():
            check(checks.same_bytes, name, blob)
        check(checks.val_loss, mi, s.out / "best.ckpt", dataset, tasks,
              s.out / "metrics.csv", s.out / "run_report.json")
        check(checks.accuracy, s.out / "best.ckpt", tasks, s.eval_json)
        check(checks.hypergradient, mi, train_cfg, dataset, tasks, w.method, work)
    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)
    attempted += len(results)
    failed += sum(1 for _, ok, _ in results if not ok)
    correct = not failed and bool(results)

    metrics, units = {}, {}
    if tracer and walls[True]:
        metrics = spans.layer_metrics(tracer.spans, train_cfg.neumann_iters)
        metrics["episodes.task_file_mb"] = s.tasks.stat().st_size / 1e6
        metrics["trace.overhead_s_per_round"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]))
        tracer.write(base / f"trace-{args.workload}-seed{args.seed}.json")
        units = {k: "count" if "nodes" in k or "calls" in k
                 else "MB" if k.endswith("_mb") else "s" for k in metrics}
    elif not tracer and train_s:
        k = calib.scale(cal)
        setup, train, ev = (statistics.median(v) for v in (setup_s, train_s, eval_s))
        print(f"measured: setup {setup:.4f} s, train {train:.3f} s, eval {ev:.4f} s; "
              f"calibration median {statistics.median(cal):.4f} s of {len(cal)}, "
              f"scale {k:.4f}", file=sys.stderr)
        metrics = {
            "setup_s": setup * k,
            "train_iters_per_s": w.train["max_iters"] / (train * k),
            "eval_tasks_per_s": n_tasks / (ev * k),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "train_iters_per_s": "iter/s",
                 "eval_tasks_per_s": "task/s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
