import json

import numpy as np
import pytest

from metainterp import bilevel as bl
from metainterp import cli
from metainterp import episodes as ep
from metainterp import theory as th


CFG = """
way = 3
shots = 1
queries = 3
dim = 5
train_tasks = 3
val_tasks = 2
test_tasks = 4
spread = 1.0
gen_seed = 7

max_iters = 40
update_period = 20
batch_size = 2
encoder_widths = 8,6
interp_layer = 1
set_kind = simple
patience = 0
eval_episodes = 100
"""


def _cut_last_column(lines, name):
    """Checkpoint lines with the last column of tensor `name` dropped."""
    i = next(i for i, l in enumerate(lines) if l.startswith(f"tensor {name} "))
    rows, cols = (int(x) for x in lines[i].split()[2:])
    body = [" ".join(l.split()[:-1]) for l in lines[i + 1:i + 1 + rows]]
    return lines[:i] + [f"tensor {name} {rows} {cols - 1}"] + body + lines[i + 1 + rows:]


def _set_entry(lines, name, col, value):
    """Checkpoint lines with entry col of tensor `name`'s first row set to value."""
    i = next(i for i, l in enumerate(lines) if l.startswith(f"tensor {name} "))
    row = lines[i + 1].split()
    row[col] = value
    return lines[:i + 1] + [" ".join(row)] + lines[i + 2:]


def _narrow_tasks(tmp, cfg):
    """A task file like the workspace's with 4 features (dim 5 there)."""
    narrow = tmp / "narrow.txt"
    assert cli.main(["gen-tasks", "--config", str(cfg), "--out", str(narrow),
                     "--seed", "7", "--set", "dim=4"]) == 0
    return narrow


def _holed_tasks(tmp, tasks):
    """The workspace's task file with no meta-train query of class 2."""
    ds = ep.load_tasks(tasks)
    ds.meta_train = [ep.Task(t.xs, t.ys, t.xq[t.yq != 2], t.yq[t.yq != 2], t.way)
                     for t in ds.meta_train]
    holed = tmp / "holed.txt"
    ep.save_tasks(ds, holed)
    return holed


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    tasks = tmp_path / "tasks.txt"
    assert cli.main(["gen-tasks", "--config", str(cfg), "--out", str(tasks),
                     "--seed", "7"]) == 0
    return tmp_path, cfg, tasks


class TestGenTasks:
    def test_roundtrips_through_loader(self, workspace):
        _, _, tasks = workspace
        ds = ep.load_tasks(tasks)
        assert len(ds.meta_train) == 3
        assert ds.way == 3

    def test_same_seed_identical_bytes(self, tmp_path, workspace):
        _, cfg, tasks = workspace
        other = tmp_path / "again.txt"
        cli.main(["gen-tasks", "--config", str(cfg), "--out", str(other),
                  "--seed", "7"])
        assert tasks.read_bytes() == other.read_bytes()

    def test_missing_out_is_usage_error(self, workspace):
        _, cfg, _ = workspace
        with pytest.raises(SystemExit) as e:
            cli.main(["gen-tasks", "--config", str(cfg)])
        assert e.value.code == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wya = 3\n")
        with pytest.raises(SystemExit) as e:
            cli.main(["gen-tasks", "--config", str(cfg),
                      "--out", str(tmp_path / "t.txt")])
        assert e.value.code == 2

    @pytest.mark.parametrize("bad", ["scales=", "angles=", "offsets=", "scales=1,nan",
                                     "angles=inf", "spread=nan", "spread=inf", "spread=-1"])
    def test_bad_generator_setting_is_usage_error(self, workspace, capsys, bad):
        tmp, cfg, _ = workspace
        out = tmp / "bad.txt"
        with pytest.raises(SystemExit) as e:
            cli.main(["gen-tasks", "--config", str(cfg), "--out", str(out), "--set", bad])
        assert e.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("metainterp: error:") and not out.exists()

    def test_override_beats_config_file(self, tmp_path, workspace):
        _, cfg, _ = workspace
        out = tmp_path / "wide.txt"
        cli.main(["gen-tasks", "--config", str(cfg), "--out", str(out),
                  "--seed", "7", "--set", "way=4"])
        assert ep.load_tasks(out).way == 4


class TestTrain:
    def test_writes_all_outputs_and_exit_zero(self, workspace):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                       "--out-dir", str(out), "--seed", "1"])
        assert rc == 0
        for name in ("metrics.csv", "best.ckpt", "final.ckpt",
                     "prototypes.csv", "run_report.json"):
            assert (out / name).exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "iter,train_loss,val_loss,val_acc,wall_ms"

    def test_metrics_byte_identical_across_runs(self, workspace):
        tmp, cfg, tasks = workspace
        a, b = tmp / "a", tmp / "b"
        for out in (a, b):
            cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                      "--out-dir", str(out), "--seed", "5"])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()

    def test_protonet_has_no_set_function_tensors(self, workspace):
        tmp, cfg, tasks = workspace
        out = tmp / "pn"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1", "--method", "protonet"])
        named = bl.load_checkpoint(out / "best.ckpt")
        assert not any(k.startswith("lam.") for k in named)

    @pytest.mark.parametrize("method", list(bl.METHODS))
    def test_interrupt_resume_matches_tail(self, workspace, method):
        # the stop at 20 falls on the first outer update
        tmp, cfg, tasks = workspace
        full, paused = tmp / "full", tmp / "paused"
        run = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "2"]
        assert cli.main([*run, "--out-dir", str(full), "--method", method]) == 0
        assert cli.main([*run, "--out-dir", str(paused), "--method", method,
                         "--stop-after", "20"]) == 0
        assert cli.main([*run, "--out-dir", str(paused),
                         "--resume", str(paused / "final.ckpt")]) == 0
        for name in ("metrics.csv", "final.ckpt"):
            assert (paused / name).read_bytes() == (full / name).read_bytes()

    def test_resumed_run_reports_the_whole_run(self, workspace):
        # the resumed invocation evaluates only at 40, but metrics.csv
        # holds the evaluation at 20 too
        tmp, cfg, tasks = workspace
        full, paused = tmp / "full", tmp / "paused"
        run = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "2"]
        assert cli.main([*run, "--out-dir", str(full)]) == 0
        assert cli.main([*run, "--out-dir", str(paused), "--stop-after", "20"]) == 0
        assert cli.main([*run, "--out-dir", str(paused),
                         "--resume", str(paused / "final.ckpt")]) == 0

        def observed(out):
            return json.loads((out / "run_report.json").read_text())["loss_observation"]

        assert observed(paused) == observed(full)
        rows = (full / "metrics.csv").read_text().splitlines()[1:]
        assert observed(full)["mean_train_loss"] == np.mean([float(r.split(",")[1]) for r in rows])

    def test_resume_after_crash_at_new_best_matches(self, workspace, monkeypatch):
        # a crash right after the evaluation-time final.ckpt of a new best
        # must resume into the uninterrupted run's bytes
        tmp, cfg, tasks = workspace
        full, crashed = tmp / "full", tmp / "crashed"
        argv = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "4",
                "--set", "update_period=10"]
        cli.main(argv + ["--out-dir", str(full)])
        accs = [float(line.split(",")[3]) for line in
                (full / "metrics.csv").read_text().splitlines()[1:]]
        # iteration 30 is a new best that the evaluation at 40 does not beat
        assert accs[2] > max(accs[:2]) and accs[2] >= accs[3]

        class Crash(Exception):
            pass

        save = bl.save_checkpoint

        def crash_at_30(path, named, *rest):
            save(path, named, *rest)
            if int(named["meta.iteration"][0, 0]) == 30:
                raise Crash

        monkeypatch.setattr(bl, "save_checkpoint", crash_at_30)
        with pytest.raises(Crash):
            cli.main(argv + ["--out-dir", str(crashed)])
        monkeypatch.undo()
        # at a new best the best model is the current one, so it is not written
        named = bl.load_checkpoint(crashed / "final.ckpt")
        assert int(named["meta.best_iter"][0, 0]) == 30
        assert not any(k.startswith("best_") for k in named)
        cli.main(argv + ["--out-dir", str(crashed),
                         "--resume", str(crashed / "final.ckpt")])
        for name in ("metrics.csv", "final.ckpt", "best.ckpt"):
            assert (crashed / name).read_bytes() == (full / name).read_bytes(), name

    def test_resume_between_evaluations_keeps_loss_window(self, workspace):
        # a stop between evaluations carries the losses since the last one
        # into the checkpoint, so the next row's train_loss is unchanged
        tmp, cfg, tasks = workspace
        full, paused = tmp / "full", tmp / "paused"
        argv = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "4"]
        cli.main(argv + ["--out-dir", str(full)])
        cli.main(argv + ["--out-dir", str(paused), "--stop-after", "30"])
        assert "meta.loss_window" in bl.load_checkpoint(paused / "final.ckpt")
        cli.main(argv + ["--out-dir", str(paused),
                         "--resume", str(paused / "final.ckpt")])
        for name in ("metrics.csv", "final.ckpt", "best.ckpt"):
            assert (paused / name).read_bytes() == (full / name).read_bytes(), name
        assert "meta.loss_window" not in bl.load_checkpoint(full / "final.ckpt")

    @pytest.mark.parametrize("where", ["before_write", "mid_write"])
    def test_resume_after_crash_before_checkpoint_matches(self, workspace, monkeypatch,
                                                          where):
        # a crash after the metrics row of the evaluation at 30 and before
        # its final.ckpt is in place: resume from the checkpoint at 20
        tmp, cfg, tasks = workspace
        full, crashed = tmp / "full", tmp / "crashed"
        argv = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "4",
                "--set", "update_period=10"]
        cli.main(argv + ["--out-dir", str(full)])

        class Crash(Exception):
            pass

        save, replace = bl.save_checkpoint, bl.os.replace
        at = []

        def crash_at_30(path, named, *rest):
            at[:] = [int(named["meta.iteration"][0, 0])]
            if where == "before_write" and at[0] == 30:
                raise Crash
            save(path, named, *rest)

        def crash_replace(src, dst):
            if at[0] == 30:
                raise Crash
            replace(src, dst)

        monkeypatch.setattr(bl, "save_checkpoint", crash_at_30)
        monkeypatch.setattr(bl.os, "replace", crash_replace)
        with pytest.raises(Crash):
            cli.main(argv + ["--out-dir", str(crashed)])
        monkeypatch.undo()
        rows = (crashed / "metrics.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["10", "20", "30"]
        named = bl.load_checkpoint(crashed / "final.ckpt")
        assert named["meta.iteration"][0, 0] == 20
        cli.main(argv + ["--out-dir", str(crashed),
                         "--resume", str(crashed / "final.ckpt")])
        for name in ("metrics.csv", "final.ckpt", "best.ckpt"):
            assert (crashed / name).read_bytes() == (full / name).read_bytes(), name

    def test_resume_method_defaults_to_checkpoint(self, workspace, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "pn"
        argv = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "1",
                "--out-dir", str(out)]
        assert cli.main(argv + ["--method", "protonet", "--stop-after", "20"]) == 0
        capsys.readouterr()
        resume = argv + ["--resume", str(out / "final.ckpt")]
        # an explicit method, even the default one, must match the checkpoint
        assert cli.main(resume + ["--method", "meta-interp"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: resume checkpoint was trained with method 'protonet'"]
        assert cli.main(resume) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["method"] == "protonet" and report["iterations"] == 40

    def test_final_checkpoint_saved_once_per_state(self, workspace, monkeypatch):
        tmp, cfg, tasks = workspace
        saved = []
        save = bl.save_checkpoint

        def spy(path, named, *rest):
            if path.name == "final.ckpt":
                saved.append(int(named["meta.iteration"][0, 0]))
            save(path, named, *rest)

        monkeypatch.setattr(bl, "save_checkpoint", spy)
        argv = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "2"]
        cli.main(argv + ["--out-dir", str(tmp / "a")])
        assert saved == [20, 40]
        # a stop between evaluations, and a resume with nothing left to run,
        # still write the state they end in
        saved.clear()
        cli.main(argv + ["--out-dir", str(tmp / "b"), "--stop-after", "30"])
        assert saved == [20, 30]
        saved.clear()
        cli.main(argv + ["--out-dir", str(tmp / "a"),
                         "--resume", str(tmp / "a" / "final.ckpt")])
        assert saved == [40]

    @pytest.mark.parametrize("stop,best", [([], "earlier"), (["--stop-after", "30"], "last")],
                             ids=["best-earlier", "best-last"])
    def test_best_checkpoint_reuses_the_text_of_a_final_save(self, workspace, monkeypatch,
                                                             stop, best):
        # the best model of seed 4 is the one at iteration 30; best.ckpt
        # written from the model text of the final.ckpt saved there has the
        # bytes of one formatted anew
        tmp, cfg, tasks = workspace
        argv = ["train", "--config", str(cfg), "--tasks", str(tasks), "--seed", "4",
                "--set", "update_period=10", *stop]
        save = bl.save_checkpoint
        reused = []

        def spy(path, named, blocks=None):
            if path.name == "best.ckpt":
                reused.append(blocks is not None and set(blocks) == set(named)
                              and None not in blocks.values())
            save(path, named, blocks)

        monkeypatch.setattr(bl, "save_checkpoint", spy)
        assert cli.main(argv + ["--out-dir", str(tmp / "reused")]) == 0
        monkeypatch.setattr(bl, "save_checkpoint", lambda path, named, blocks=None:
                            save(path, named))
        assert cli.main(argv + ["--out-dir", str(tmp / "formatted")]) == 0
        report = json.loads((tmp / "reused" / "run_report.json").read_text())
        assert report["best_iter"] == 30
        assert (report["iterations"] == 30) == (best == "last")
        assert reused == [True]
        for name in ("best.ckpt", "final.ckpt"):
            assert ((tmp / "reused" / name).read_bytes()
                    == (tmp / "formatted" / name).read_bytes()), name

    def test_non_finite_hypergradient_exits_one(self, workspace, monkeypatch, capsys):
        tmp, cfg, tasks = workspace

        def poisoned(*a, **k):
            return [np.full((1, 1), np.nan)]

        monkeypatch.setattr(bl, "hypergrad", poisoned)
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                       "--out-dir", str(tmp / "nan"), "--seed", "2"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite hypergradient at iteration 20"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_encoder_step_exits_one(self, workspace, capsys):
        # an SGD step of 1e308 overflows the encoder at the first iteration:
        # the run stops there, before any evaluation or checkpoint
        tmp, cfg, tasks = workspace
        out = tmp / "inf"
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                       "--out-dir", str(out), "--seed", "2", "--method", "protonet",
                       "--set", "theta_opt=sgd", "--set", "inner_lr=1e308",
                       "--set", "max_iters=1"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite encoder update at iteration 1"]
        assert not (out / "best.ckpt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_validation_loss_exits_one(self, workspace, capsys):
        # an SGD step of 1e100 leaves the encoder finite, but its validation
        # distances overflow: the run stops at that evaluation, with no
        # metrics row, no checkpoint and no numpy warning
        tmp, cfg, tasks = workspace
        out = tmp / "nan"
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                       "--out-dir", str(out), "--seed", "2", "--method", "protonet",
                       "--set", "theta_opt=sgd", "--set", "inner_lr=1e100",
                       "--set", "max_iters=1", "--set", "update_period=1"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite validation loss at iteration 1"]
        assert (out / "metrics.csv").read_text() == "iter,train_loss,val_loss,val_acc,wall_ms\n"
        assert not (out / "best.ckpt").exists() and not (out / "final.ckpt").exists()

    @pytest.mark.parametrize("bad", [
        ["--set", "set_kind=full", "--set", "dropout_rate=1.0"],
        ["--set", "set_kind=full", "--set", "dropout_rate=-0.5"],
        ["--set", "metric=foo"],
        ["--set", "theta_opt=foo"],
        ["--set", "lam_opt=rmsprop"],
        ["--set", "set_kind=full", "--set", "set_hidden=3"],
        ["--set", "set_kind=full", "--set", "set_hidden=0"],
        ["--set", "set_kind=simple", "--set", "set_hidden=8"],
        ["--set", "set_kind=deepsets", "--set", "set_hidden=8"],
        ["--set", "inner_lr=nan"],
        ["--set", "hyper_lr=nan"],
        ["--set", "set_kind=identity"],
        ["--set", "val_batch_size=-2"],
        ["--set", "mlti_beta=-1,2"],
        ["--set", "mlti_beta=1"],
        ["--set", "strategy=support_noise", "--set", "noise_std=-1"],
        ["--set", "noise_std=nan"],
        ["--set", "patience=-3"],
        ["--set", "encoder_widths=32,0"],
        ["--set", "encoder_widths=-4,8"],
        ["--set", "set_kind=simple", "--set", "dropout_rate=0.5"],
        ["--set", "set_kind=deepsets", "--set", "dropout_rate=0.1"],
        ["--set", "set_kind=full", "--set", "dropout_rate=nan"],
    ])
    def test_bad_config_value_is_usage_error_before_training(self, workspace,
                                                             capsys, bad):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        with pytest.raises(SystemExit) as e:
            cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                      "--out-dir", str(out), "--seed", "1", *bad])
        assert e.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith(
            "metainterp: error:")
        assert not out.exists()

    def _resume_broken_ckpt(self, workspace, capsys, edit):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        run = ["train", "--config", str(cfg), "--tasks", str(tasks), "--out-dir", str(out)]
        assert cli.main([*run, "--stop-after", "20"]) == 0
        ckpt = out / "final.ckpt"
        ckpt.write_text("\n".join(edit(ckpt.read_text().splitlines())) + "\n")
        capsys.readouterr()
        rc = cli.main([*run, "--resume", str(ckpt)])
        return rc, capsys.readouterr().err.strip().splitlines()

    def test_resume_adam_slot_of_wrong_shape_one_line_error(self, workspace, capsys):
        rc, err = self._resume_broken_ckpt(workspace, capsys,
                                           lambda ls: _cut_last_column(ls, "opt_theta.m[1]"))
        assert rc == 1
        assert err == ["error: checkpoint tensor opt_theta.m[1] has shape (1, 7), "
                       "expected (1, 8)"]

    # opt_*.meta holds (step, lr, 1 for adaptive moments or 0 for SGD)
    @pytest.mark.parametrize("name,col,value,want", [
        ("opt_theta.meta", 0, "inf", "a non-negative integer"),
        ("opt_theta.meta", 0, "-5", "a non-negative integer"),
        ("opt_theta.meta", 0, "nan", "a non-negative integer"),
        ("opt_lam.meta", 0, "2.5", "a non-negative integer"),
        ("opt_theta.meta", 2, "2", "an integer in 0..1"),
        ("opt_lam.meta", 2, "0.5", "an integer in 0..1"),
        ("meta.iteration", 0, "-1", "a non-negative integer"),
        ("meta.work", 0, "inf", "a non-negative integer"),
        ("meta.best_iter", 0, "nan", "a non-negative integer"),
        ("meta.evals_since_best", 0, "1.5", "a non-negative integer"),
        ("meta.method", 0, "6", "an integer in 0..5"),
        ("meta.method", 0, "-inf", "an integer in 0..5"),
    ])
    def test_resume_integral_field_out_of_range_one_line_error(self, workspace, capsys,
                                                               name, col, value, want):
        rc, err = self._resume_broken_ckpt(workspace, capsys,
                                           lambda ls: _set_entry(ls, name, col, value))
        assert rc == 1
        assert err == [f"error: checkpoint tensor {name!r} holds {value}, not {want}"]

    def test_resume_on_task_file_of_other_width_one_line_error(self, workspace, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        run = ["train", "--config", str(cfg), "--out-dir", str(out)]
        assert cli.main([*run, "--tasks", str(tasks), "--stop-after", "20"]) == 0
        narrow = _narrow_tasks(tmp, cfg)
        capsys.readouterr()
        rc = cli.main([*run, "--tasks", str(narrow), "--resume", str(out / "final.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: checkpoint encoder takes 5 features, task file has dims=4"]

    def test_paired_class_without_queries_one_line_error(self, workspace, capsys):
        # no meta-train task keeps a query of class 2, so a manifold-mixup
        # pair that needs a class-2 partner from task2 cannot be built
        tmp, cfg, tasks = workspace
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(_holed_tasks(tmp, tasks)),
                       "--out-dir", str(tmp / "run"), "--seed", "1", "--method", "mlti"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: meta-train task 0 has no queries of class 2, "
                       "which method mlti needs"]
        assert not (tmp / "run" / "metrics.csv").exists()

    def test_query_class_error_names_the_files_task_id(self, workspace, capsys):
        # the file numbers its meta-train tasks 1, 3, 5, 7 and 9, and the
        # task of id 3 (the second) has no query of class 2
        tmp, cfg, _ = workspace
        tasks = tmp / "odd_ids.txt"
        assert cli.main(["gen-tasks", "--config", str(cfg), "--out", str(tasks),
                         "--seed", "7", "--set", "train_tasks=5"]) == 0
        lines = tasks.read_text().splitlines()
        kept = lines[:2]
        for line in lines[2:]:
            tid, split, label, role, feats = line.split(",", 4)
            if split == "train":
                tid = str(2 * int(tid) + 1)
                if (tid, label, role) == ("3", "2", "query"):
                    continue
            kept.append(",".join([tid, split, label, role, feats]))
        tasks.write_text("\n".join(kept) + "\n")
        assert ep.load_tasks(tasks).meta_train_ids == (1, 3, 5, 7, 9)
        capsys.readouterr()
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                       "--out-dir", str(tmp / "run"), "--seed", "1", "--method", "mlti"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: meta-train task 3 has no queries of class 2, which method mlti needs"]

    @pytest.mark.parametrize("method,strategy,rc", [
        ("meta-interp", "query", 1), ("meta-interp", "support_and_query", 1),
        ("meta-interp", "support", 0), ("protonet", "query", 0)])
    def test_query_classes_checked_where_queries_are_paired(self, workspace, capsys,
                                                            method, strategy, rc):
        # only the strategies that fuse task1's queries with task2 queries
        # need every class among every meta-train task's queries
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        assert cli.main(["train", "--config", str(cfg), "--tasks", str(_holed_tasks(tmp, tasks)),
                         "--out-dir", str(out), "--seed", "1", "--method", method,
                         "--set", f"strategy={strategy}"]) == rc
        err = capsys.readouterr().err.strip().splitlines()
        if rc:
            assert err == ["error: meta-train task 0 has no queries of class 2, "
                           f"which strategy {strategy} needs"]
            assert not out.exists()
        else:
            assert err == [] and (out / "run_report.json").exists()

    def test_resume_checks_query_classes(self, workspace, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        run = ["train", "--config", str(cfg), "--seed", "1", "--out-dir", str(out),
               "--method", "mlti"]
        assert cli.main([*run, "--tasks", str(tasks), "--stop-after", "20"]) == 0
        before = (out / "metrics.csv").read_bytes()
        assert cli.main([*run, "--tasks", str(_holed_tasks(tmp, tasks)),
                         "--resume", str(out / "final.ckpt")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: meta-train task 0 has no queries of class 2, "
                       "which method mlti needs"]
        assert (out / "metrics.csv").read_bytes() == before

    @pytest.mark.parametrize("method,stop", [("meta-interp", None), ("protonet", None),
                                             ("protonet", "10")])
    def test_no_val_tasks_one_line_error_before_writing(self, workspace, capsys, method, stop):
        # every method validates on the val split, even a run that stops
        # before its first evaluation
        tmp, cfg, tasks = workspace
        lines = tasks.read_text().splitlines()
        no_val = tmp / "no_val.txt"
        no_val.write_text("\n".join(lines[:2] + [l for l in lines[2:]
                                                 if l.split(",")[1] != "val"]) + "\n")
        assert ep.load_tasks(no_val).meta_val == []
        capsys.readouterr()
        out = tmp / "run"
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(no_val),
                       "--out-dir", str(out), "--method", method,
                       *(["--stop-after", stop] if stop else [])])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {no_val}: no tasks in split val, which training validates on"]
        assert not out.exists()

    def test_prototypes_csv_has_both_sources(self, workspace):
        tmp, cfg, tasks = workspace
        out = tmp / "protos"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        text = (out / "prototypes.csv").read_text()
        assert ",original," in text and ",interpolated," in text

    def test_prototypes_csv_names_tasks_by_the_files_ids(self, workspace):
        # the file numbers its three 3-way meta-train tasks 10, 11 and 12
        tmp, cfg, tasks = workspace
        lines = tasks.read_text().splitlines()
        renumbered = tmp / "ids_from_10.txt"
        rows = []
        for line in lines[2:]:
            tid, split, rest = line.split(",", 2)
            rows.append(",".join([str(int(tid) + 10) if split == "train" else tid, split, rest]))
        renumbered.write_text("\n".join(lines[:2] + rows) + "\n")
        out = tmp / "protos"
        assert cli.main(["train", "--config", str(cfg), "--tasks", str(renumbered),
                         "--out-dir", str(out), "--seed", "1"]) == 0
        table = (out / "prototypes.csv").read_text().splitlines()[1:]
        ids = ["10"] * 3 + ["11"] * 3 + ["12"] * 3
        assert [row.split(",")[0] for row in table] == ids + ids
        assert [row.split(",")[2] for row in table] == ["original"] * 9 + ["interpolated"] * 9


class TestEval:
    def test_zero_episodes_usage_error(self, workspace):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        with pytest.raises(SystemExit) as e:
            cli.main(["eval", "--ckpt", str(out / "best.ckpt"),
                      "--tasks", str(tasks), "--episodes", "0"])
        assert e.value.code == 2

    def test_repeat_same_seed_identical_json(self, workspace, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        capsys.readouterr()  # drop the training banner

        def run_eval():
            rc = cli.main(["eval", "--ckpt", str(out / "best.ckpt"),
                           "--tasks", str(tasks), "--episodes", "50",
                           "--seeds", "0,1"])
            assert rc == 0
            return capsys.readouterr().out

        assert run_eval() == run_eval()

    def test_multi_seed_ci_from_seed_spread(self, workspace, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        cli.main(["eval", "--ckpt", str(out / "best.ckpt"),
                  "--tasks", str(tasks), "--episodes", "50",
                  "--seeds", "0,1,2"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        means = [r["accuracy"] for r in payload["per_seed"]]
        want = 1.96 * np.std(means, ddof=1) / np.sqrt(3)
        assert payload["ci95"] == pytest.approx(want, abs=1e-12)

    def test_single_seed_reports_its_own_ci(self, workspace, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        assert cli.main(["eval", "--ckpt", str(out / "best.ckpt"),
                         "--tasks", str(tasks), "--episodes", "50"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        (only,) = payload["per_seed"]
        assert payload["seeds"] == [0] and only["seed"] == 0
        assert payload["accuracy"] == only["accuracy"]
        assert payload["ci95"] == only["ci95"] > 0

    def test_task_file_of_other_width_one_line_error(self, workspace, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        narrow = _narrow_tasks(tmp, cfg)
        capsys.readouterr()
        rc = cli.main(["eval", "--ckpt", str(out / "best.ckpt"), "--tasks", str(narrow),
                       "--episodes", "10"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: checkpoint encoder takes 5 features, task file has dims=4"]

    def test_threads_do_not_change_result(self, workspace):
        # --threads is parsed and ignored: every task is evaluated in one pass
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        written = []
        for threads in ("1", "4"):
            path = tmp / f"eval-{threads}.json"
            assert cli.main(["eval", "--ckpt", str(out / "best.ckpt"), "--tasks", str(tasks),
                             "--episodes", "50", "--seeds", "0,1", "--json", str(path),
                             "--threads", threads]) == 0
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("seeds", ["x", "0,x", "-1", "0,0"])
    def test_bad_seed_list_is_usage_error(self, workspace, seeds, capsys):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            cli.main(["eval", "--ckpt", str(out / "best.ckpt"),
                      "--tasks", str(tasks), "--seeds", seeds])
        assert e.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def _eval_broken_ckpt(self, workspace, capsys, edit):
        tmp, cfg, tasks = workspace
        out = tmp / "run"
        cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                  "--out-dir", str(out), "--seed", "1"])
        lines = (out / "best.ckpt").read_text().splitlines()
        broken = tmp / "broken.ckpt"
        broken.write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        rc = cli.main(["eval", "--ckpt", str(broken), "--tasks", str(tasks),
                       "--episodes", "10"])
        err = capsys.readouterr().err.strip().splitlines()
        return rc, err

    def test_truncated_checkpoint_one_line_error(self, workspace, capsys):
        rc, err = self._eval_broken_ckpt(workspace, capsys, lambda ls: ls[:3])
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error:") and "cut short" in err[0]

    def test_checkpoint_missing_tensor_one_line_error(self, workspace, capsys):
        def drop_slope(lines):
            i = next(i for i, l in enumerate(lines) if l.startswith("tensor meta.slope "))
            return lines[:i] + lines[i + 2:]

        rc, err = self._eval_broken_ckpt(workspace, capsys, drop_slope)
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error:") and "meta.slope" in err[0]

    # lam.b1q is a tensor that singleton passes never read
    @pytest.mark.parametrize("name", ["lam.b1v", "lam.b1q", "theta.layers[0].b"])
    def test_checkpoint_tensor_of_wrong_shape_one_line_error(self, workspace, capsys, name):
        rc, err = self._eval_broken_ckpt(workspace, capsys,
                                         lambda ls: _cut_last_column(ls, name))
        assert rc == 1
        assert err == [f"error: checkpoint tensor {name} has shape (1, 7), expected (1, 8)"]

    @pytest.mark.parametrize("name,value,want", [
        ("meta.split", "inf", "a non-negative integer"),
        ("meta.split", "nan", "a non-negative integer"),
        ("meta.split", "-1", "a non-negative integer"),
        ("meta.split", "0.5", "a non-negative integer"),
        ("meta.set_kind", "inf", "an integer in 0..3"),
        ("meta.set_kind", "4", "an integer in 0..3"),
        ("meta.metric", "nan", "an integer in 0..1"),
        ("meta.metric", "1.5", "an integer in 0..1"),
    ])
    def test_checkpoint_integral_field_out_of_range_one_line_error(self, workspace, capsys,
                                                                   name, value, want):
        rc, err = self._eval_broken_ckpt(workspace, capsys,
                                         lambda ls: _set_entry(ls, name, 0, value))
        assert rc == 1
        assert err == [f"error: checkpoint tensor {name!r} holds {value}, not {want}"]


class TestPathErrors:
    @pytest.mark.parametrize("argv", [
        ["gen-tasks", "--out", "{tmp}"],
        ["train", "--tasks", "{tmp}", "--out-dir", "{tmp}/run"],
        ["train", "--tasks", "{tasks}", "--out-dir", "{tasks}"],
        ["eval", "--ckpt", "{tmp}", "--tasks", "{tasks}"],
    ])
    def test_directory_or_file_in_wrong_place_is_one_line_error(
            self, workspace, capsys, argv):
        tmp, _, tasks = workspace
        capsys.readouterr()
        rc = cli.main([a.format(tmp=tmp, tasks=tasks) for a in argv])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error:")


class TestTheoryCheck:
    def test_unknown_check_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            cli.main(["theory-check", "--check", "fermat"])
        assert e.value.code == 2

    def test_neumann_prints_q_table(self, tmp_path, capsys):
        rc = cli.main(["theory-check", "--check", "neumann",
                       "--out", str(tmp_path / "rep.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "q " in out.splitlines()[0]
        assert any(line.startswith("50 ") for line in out.splitlines())

    def test_all_checks_pass_in_suite_order(self, tmp_path, capsys):
        rc = cli.main(["theory-check", "--check", "all", "--seed", "0",
                       "--out", str(tmp_path / "rep.json")])
        assert rc == 0
        names = ["closedform", "thm1", "prop1", "prop2", "neumann", "hvp",
                 "balance"]
        assert list(th.CHECKS) == names
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["passed"]
        assert [c["name"] for c in report["checks"]] == names
        assert all(c["passed"] for c in report["checks"])
        out = capsys.readouterr().out.splitlines()
        assert [l for l in out if l.endswith(": PASS")] == [f"{n}: PASS" for n in names]

    def test_report_written_with_inputs_and_values(self, tmp_path):
        rc = cli.main(["theory-check", "--check", "hvp",
                       "--out", str(tmp_path / "rep.json")])
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["passed"]
        (check,) = report["checks"]
        assert {"name", "inputs", "measured", "criteria", "passed"} <= set(check)


class TestAblate:
    def test_strategy_axis_rows(self, workspace, tmp_path):
        tmp, cfg, tasks = workspace
        out = tmp_path / "ablate.csv"
        rc = cli.main(["ablate", "--axis", "strategy", "--config", str(cfg),
                       "--out", str(out), "--seeds", "0,1",
                       "--set", "max_iters=10", "--set", "update_period=5",
                       "--set", "eval_episodes=20"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,setting,seed,accuracy,ci95"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 4 * 2  # strategies x seeds
        settings = {r[1] for r in rows}
        assert settings == {"support", "query", "support_and_query",
                            "support_noise"}

    def test_layer_axis_enumerates_depth(self, workspace, tmp_path):
        tmp, cfg, tasks = workspace
        out = tmp_path / "layers.csv"
        cli.main(["ablate", "--axis", "layer", "--config", str(cfg),
                  "--out", str(out), "--seeds", "0",
                  "--set", "max_iters=10", "--set", "update_period=5",
                  "--set", "eval_episodes=20"])
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["0", "1"]

    def test_setfunc_axis_lists_the_learned_kinds(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = tmp_path / "kinds.csv"
        assert cli.main(["ablate", "--axis", "setfunc", "--config", str(cfg),
                         "--out", str(out), "--seeds", "0",
                         "--set", "max_iters=4", "--set", "update_period=2",
                         "--set", "eval_episodes=10"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["simple", "full", "deepsets"]

    def test_setfunc_axis_gives_set_hidden_to_the_full_form_only(self, workspace, tmp_path,
                                                                monkeypatch):
        # the other kinds have no hidden width and no dropout: their runs
        # drop both settings, which reach the full form's set function
        _, cfg, _ = workspace
        seen, real = [], bl.meta_train

        def spy(ds, train_cfg, method):
            state = real(ds, train_cfg, method)
            seen.append((train_cfg.set_kind, train_cfg.set_hidden, train_cfg.dropout_rate,
                         getattr(state.lam, "dropout_rate", None)))
            return state

        monkeypatch.setattr(bl, "meta_train", spy)
        out = tmp_path / "kinds.csv"
        assert cli.main(["ablate", "--axis", "setfunc", "--config", str(cfg),
                         "--out", str(out), "--seeds", "0", "--set", "set_hidden=8",
                         "--set", "dropout_rate=0.3",
                         "--set", "max_iters=4", "--set", "update_period=2",
                         "--set", "eval_episodes=10"]) == 0
        assert seen == [("simple", None, None, None), ("full", 8, 0.3, 0.3),
                        ("deepsets", None, None, None)]
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["simple", "full", "deepsets"]

    @pytest.mark.parametrize("axis,bad", [("setfunc", "set_hidden=3"),
                                          ("strategy", "set_hidden=8")])
    def test_bad_setting_of_any_run_is_usage_error_before_training(
            self, workspace, tmp_path, monkeypatch, axis, bad):
        # set_hidden=3 fits no full form; set_hidden=8 fits no simple one
        _, cfg, _ = workspace

        def boom(*a, **k):
            raise AssertionError("meta_train called")

        monkeypatch.setattr(bl, "meta_train", boom)
        out = tmp_path / "ablate.csv"
        with pytest.raises(SystemExit) as e:
            cli.main(["ablate", "--axis", axis, "--config", str(cfg),
                      "--out", str(out), "--set", bad])
        assert e.value.code == 2
        assert not out.exists()

    def test_threads_flag_is_usage_error(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = tmp_path / "ablate.csv"
        with pytest.raises(SystemExit) as e:
            cli.main(["ablate", "--axis", "strategy", "--config", str(cfg),
                      "--out", str(out), "--threads", "2"])
        assert e.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["x", "0,x", ",", "", "-1", "0,0"])
    def test_bad_seed_list_is_usage_error_before_training(
            self, workspace, tmp_path, monkeypatch, seeds, capsys):
        _, cfg, _ = workspace

        def boom(*a, **k):
            raise AssertionError("meta_train called")

        monkeypatch.setattr(bl, "meta_train", boom)
        out = tmp_path / "ablate.csv"
        with pytest.raises(SystemExit) as e:
            cli.main(["ablate", "--axis", "strategy", "--config", str(cfg),
                      "--out", str(out), "--seeds", seeds])
        assert e.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_eval_episodes_is_usage_error_before_training(
            self, workspace, tmp_path, monkeypatch):
        _, cfg, _ = workspace

        def boom(*a, **k):
            raise AssertionError("meta_train called")

        monkeypatch.setattr(bl, "meta_train", boom)
        out = tmp_path / "ablate.csv"
        with pytest.raises(SystemExit) as e:
            cli.main(["ablate", "--axis", "strategy", "--config", str(cfg),
                      "--out", str(out), "--set", "eval_episodes=0"])
        assert e.value.code == 2
        assert not out.exists()
