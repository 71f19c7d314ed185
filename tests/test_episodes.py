import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metainterp import cli
from metainterp import episodes as ep


def small_cfg(**kw):
    base = dict(way=3, shots=2, queries=3, dim=4, train_tasks=4,
                val_tasks=2, test_tasks=3, spread=0.3, seed=11)
    base.update(kw)
    return ep.GenConfig(**base)


def task_bytes(ds, path):
    """The task file's bytes; %.17g round-trips every double exactly, so
    equal bytes mean equal datasets."""
    ep.save_tasks(ds, path)
    return path.read_bytes()


class TestGeneration:
    def test_zero_spread_collapses_to_centers(self):
        ds = ep.gen_gaussian_tasks(small_cfg(spread=0.0))
        for task in ds.meta_train:
            for k in range(1, task.way + 1):
                feats = np.vstack([task.xs[task.ys == k], task.xq[task.yq == k]])
                for f in feats[1:]:
                    np.testing.assert_array_equal(f, feats[0])

    def test_same_seed_same_dataset(self, tmp_path):
        a = ep.gen_gaussian_tasks(small_cfg())
        b = ep.gen_gaussian_tasks(small_cfg())
        assert task_bytes(a, tmp_path / "a.txt") == task_bytes(b, tmp_path / "b.txt")

    def test_different_seed_differs(self, tmp_path):
        a = ep.gen_gaussian_tasks(small_cfg())
        b = ep.gen_gaussian_tasks(small_cfg(seed=12))
        assert task_bytes(a, tmp_path / "a.txt") != task_bytes(b, tmp_path / "b.txt")

    def test_well_separated_solved_by_nearest_centroid(self):
        # brute-force nearest-centroid classifier in input space
        ds = ep.gen_gaussian_tasks(small_cfg(way=2, spread=1e-3, dim=6, seed=3))
        for task in ds.meta_train + ds.meta_val + ds.meta_test:
            cents = {k: task.xs[task.ys == k].mean(axis=0) for k in range(1, task.way + 1)}
            for x, y in zip(task.xq, task.yq):
                pred = min(cents, key=lambda k: np.sum((x - cents[k]) ** 2))
                assert pred == y

    def test_every_class_populated(self):
        ds = ep.gen_gaussian_tasks(small_cfg())
        for task in ds.meta_train:
            for k in range(1, task.way + 1):
                assert (task.ys == k).any()

    def test_counts_respected(self):
        cfg = small_cfg()
        ds = ep.gen_gaussian_tasks(cfg)
        assert len(ds.meta_train) == cfg.train_tasks
        assert len(ds.meta_val) == cfg.val_tasks
        assert len(ds.meta_test) == cfg.test_tasks
        t = ds.meta_train[0]
        assert t.xs.shape == (cfg.way * cfg.shots, cfg.dim) and len(t.ys) == len(t.xs)
        assert t.xq.shape == (cfg.way * cfg.queries, cfg.dim) and len(t.yq) == len(t.xq)

    def test_task_arrays_cannot_go_stale(self):
        # a task copies its arrays and keeps them read-only; its examples
        # are built from them
        t = ep.gen_gaussian_tasks(small_cfg()).meta_train[0]
        np.testing.assert_array_equal(t.xs, np.stack([ex.features for ex in t.support]))
        np.testing.assert_array_equal(t.yq, [ex.label for ex in t.query])
        with pytest.raises(AttributeError):
            t.support = t.support[:1]
        with pytest.raises(AttributeError):
            t.query.append(t.query[0])
        with pytest.raises(ValueError):
            t.xs[0, 0] = 1.0
        x = t.xs.copy()
        copy = ep.Task(x, t.ys, t.xq, t.yq, t.way)
        x[0, 0] += 1.0
        assert copy.xs[0, 0] == t.xs[0, 0] and x.flags.writeable

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(way=0)


class TestSamplePair:
    def test_single_task_returns_it_twice(self):
        ds = ep.gen_gaussian_tasks(small_cfg(train_tasks=1))
        t1, t2 = ep.sample_pair(ds, np.random.default_rng(0))
        assert t1 is t2 is ds.meta_train[0]

    def test_never_same_task_when_multiple(self):
        ds = ep.gen_gaussian_tasks(small_cfg(train_tasks=3))
        rng = np.random.default_rng(1)
        for _ in range(300):
            t1, t2 = ep.sample_pair(ds, rng)
            assert t1 is not t2

    def test_ordered_pairs_uniform(self):
        ds = ep.gen_gaussian_tasks(small_cfg(train_tasks=2))
        rng = np.random.default_rng(2)
        hits = {(0, 1): 0, (1, 0): 0}
        idx = {id(t): i for i, t in enumerate(ds.meta_train)}
        for _ in range(10_000):
            t1, t2 = ep.sample_pair(ds, rng)
            hits[(idx[id(t1)], idx[id(t2)])] += 1
        for count in hits.values():
            assert abs(count / 10_000 - 0.5) <= 0.02

    def test_empty_train_split_raises(self):
        ds = ep.gen_gaussian_tasks(small_cfg())
        ds.meta_train = []
        with pytest.raises(ep.TaskError):
            ep.sample_pair(ds, np.random.default_rng(0))


class TestTaskFile:
    def test_roundtrip_identity(self, tmp_path):
        ds = ep.gen_gaussian_tasks(small_cfg())
        path = tmp_path / "tasks.txt"
        written = task_bytes(ds, path)
        again = ep.load_tasks(path)
        assert task_bytes(again, tmp_path / "again.txt") == written

    def test_rows_converted_in_blocks_read_the_same(self, tmp_path, monkeypatch):
        path = tmp_path / "tasks.txt"
        written = task_bytes(ep.gen_gaussian_tasks(small_cfg()), path)
        monkeypatch.setattr(ep, "_NUMBERS_PER_CONVERSION", 12)  # three 4-wide rows
        assert task_bytes(ep.load_tasks(path), tmp_path / "again.txt") == written

    def test_same_dataset_same_bytes(self, tmp_path):
        ds = ep.gen_gaussian_tasks(small_cfg())
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        ep.save_tasks(ds, p1)
        ep.save_tasks(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_width_mismatch_reports_line(self, tmp_path):
        ds = ep.gen_gaussian_tasks(small_cfg())
        path = tmp_path / "tasks.txt"
        ep.save_tasks(ds, path)
        lines = path.read_text().splitlines()
        lines[1] = f"dims={small_cfg().dim + 3} way={small_cfg().way}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ep.ParseError) as err:
            ep.load_tasks(path)
        assert "line 3" in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "tasks.txt"
        path.write_text("# wrong v9\ndims=2 way=2\n")
        with pytest.raises(ep.ParseError):
            ep.load_tasks(path)

    def test_empty_task_list_rejected(self, tmp_path):
        path = tmp_path / "tasks.txt"
        path.write_text("# meta-interp-tasks v1\ndims=2 way=2\n")
        with pytest.raises(ep.ParseError) as err:
            ep.load_tasks(path)
        assert "no tasks" in str(err.value)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "tasks.txt"
        path.write_text(
            "# meta-interp-tasks v1\ndims=2 way=1\n0,warmup,1,support,0,0\n"
        )
        with pytest.raises(ep.ParseError):
            ep.load_tasks(path)


class TestTaskFileProperties:
    @settings(max_examples=15, deadline=None)
    @given(way=st.integers(1, 4), shots=st.integers(1, 3), queries=st.integers(1, 3),
           dim=st.integers(1, 5), counts=st.tuples(*[st.integers(1, 3)] * 3),
           spread=st.floats(0.0, 3.0), seed=st.integers(0, 2**31))
    def test_roundtrip_random_sizes(self, way, shots, queries, dim, counts, spread, seed):
        cfg = ep.GenConfig(way=way, shots=shots, queries=queries, dim=dim,
                           train_tasks=counts[0], val_tasks=counts[1],
                           test_tasks=counts[2], spread=spread, seed=seed)
        ds = ep.gen_gaussian_tasks(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            written = task_bytes(ds, Path(tmp) / "a.txt")
            again = ep.load_tasks(Path(tmp) / "a.txt")
            assert task_bytes(again, Path(tmp) / "b.txt") == written
        for split in ("meta_train", "meta_val", "meta_test"):
            for a, b in zip(getattr(ds, split), getattr(again, split), strict=True):
                for name in ("xs", "ys", "xq", "yq"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and x.shape == y.shape
                    assert x.tobytes() == y.tobytes()

    def test_small_file_bytes_pinned(self, tmp_path):
        out = tmp_path / "pin.txt"
        assert cli.main(["gen-tasks", "--set", "way=2", "--set", "shots=2", "--set", "queries=1",
                         "--set", "dim=3", "--set", "train_tasks=2", "--set", "val_tasks=1",
                         "--set", "test_tasks=1", "--seed", "5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9866dd607ca7438869cbc12a09ce078713d22124703a448bccc38161d93e32ec")


def put(k, text):
    """Replaces comma field k of a row (0 task id, 1 split, 2 label, 3 role,
    4 onward the features)."""
    return lambda parts: parts[:k] + [text] + parts[k + 1:]


# name, {line index of the small_cfg() file: edit of its fields, or None to
# delete the line}, error, message. Rows start at index 2; task 0 of the
# train split holds support rows 2-7 (two per class) and query rows 8-16.
MALFORMED = [
    ("short_row", {4: lambda p: p[:-1]}, ep.ParseError,
     "line 5: expected 8 fields for dims=4, got 7"),
    ("width_not_dims", {4: lambda p: p + ["0.5"]}, ep.ParseError,
     "line 5: expected 8 fields for dims=4, got 9"),
    ("bad_task_id", {8: put(0, "x")}, ep.ParseError,
     "line 9: invalid literal for int() with base 10: 'x'"),
    ("bad_float", {6: put(5, "1.2.3")}, ep.ParseError,
     "line 7: could not convert string to float: '1.2.3'"),
    ("nan_feature", {6: put(5, "nan")}, ep.TaskError, "non-finite feature"),
    ("label_zero", {10: put(2, "0")}, ep.TaskError, "train task 0: label 0 outside 1..3"),
    ("label_way_plus_one", {10: put(2, "4")}, ep.TaskError, "train task 0: label 4 outside 1..3"),
    ("unknown_split", {12: put(1, "warmup")}, ep.ParseError, "line 13: unknown split 'warmup'"),
    ("unknown_role", {12: put(3, "anchor")}, ep.ParseError, "line 13: unknown role 'anchor'"),
    ("class_without_support", {4: None, 5: None}, ep.TaskError,
     "train task 0: class 2 has no support examples"),
    # the first fault in file order wins, and on one line a bad number
    # comes before a bad split, a non-finite one after it
    ("inf_before_bad_split", {6: put(5, "inf"), 12: put(1, "warmup")}, ep.TaskError,
     "non-finite feature"),
    ("bad_split_before_bad_float", {12: put(1, "warmup"), 20: put(4, "1.2.3")}, ep.ParseError,
     "line 13: unknown split 'warmup'"),
    ("bad_float_and_split_one_line", {12: lambda p: put(1, "warmup")(put(6, "e")(p))},
     ep.ParseError, "line 13: could not convert string to float: 'e'"),
    ("nan_and_split_one_line", {12: lambda p: put(1, "warmup")(put(6, "nan")(p))},
     ep.ParseError, "line 13: unknown split 'warmup'"),
    ("bad_label_before_later_nan", {3: put(2, "0"), 40: put(7, "nan")}, ep.TaskError,
     "non-finite feature"),
    # without their query rows (6-14 of a task's 15): validation task 0 at 62,
    # test task 1 at 107, every test task (at 92, 107, 122); eval used to
    # print a NaN accuracy or a traceback, train a NaN validation accuracy
    ("val_task_without_queries", dict.fromkeys(range(68, 77)), ep.TaskError,
     "val task 0: task has no query rows"),
    ("test_task_without_queries", dict.fromkeys(range(113, 122)), ep.TaskError,
     "test task 1: task has no query rows"),
    ("no_test_task_with_queries", dict.fromkeys(i for s in (92, 107, 122)
                                                for i in range(s + 6, s + 15)),
     ep.TaskError, "test task 0: task has no query rows"),
]


def malformed_file(path, edits):
    lines = task_bytes(ep.gen_gaussian_tasks(small_cfg()), path).decode().splitlines()
    for i, edit in edits.items():
        lines[i] = None if edit is None else ",".join(edit(lines[i].split(",")))
    path.write_text("\n".join(line for line in lines if line is not None) + "\n")
    return path


class TestMalformedTaskFile:
    @pytest.mark.parametrize("edits,error,message",
                             [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED])
    @pytest.mark.parametrize("numbers", [12, 1024])  # rows per conversion: 3, or all
    def test_reader_reports_first_fault(self, tmp_path, monkeypatch, numbers, edits, error,
                                        message):
        monkeypatch.setattr(ep, "_NUMBERS_PER_CONVERSION", numbers, raising=False)
        with pytest.raises(error) as err:
            ep.load_tasks(malformed_file(tmp_path / "tasks.txt", edits))
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_cli_exits_1_with_one_error_line(self, tmp_path, capsys, command):
        good = tmp_path / "good.txt"
        task_bytes(ep.gen_gaussian_tasks(small_cfg()), good)
        out = tmp_path / "run"
        assert cli.main(["train", "--tasks", str(good), "--out-dir", str(out),
                         "--set", "max_iters=1"]) == 0
        args = {"train": ["--out-dir", str(tmp_path / "bad-run")],
                "eval": ["--ckpt", str(out / "best.ckpt"), "--episodes", "5"]}[command]
        for name, edits, _, message in MALFORMED:
            capsys.readouterr()
            path = malformed_file(tmp_path / f"{name}.txt", edits)
            assert cli.main([command, "--tasks", str(path), *args]) == 1, name
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"], name


class TestTaskInvariants:
    def test_missing_support_class_rejected(self):
        with pytest.raises(ep.TaskError, match="class 2 has no support"):
            ep.Task(np.zeros((1, 2)), [1], np.empty((0, 2)), [], way=2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ep.TaskError, match="label 5 outside 1..2"):
            ep.Task(np.zeros((1, 2)), [5], np.empty((0, 2)), [], way=2)
        # the first bad label in support-then-query order is the one named
        with pytest.raises(ep.TaskError, match="label 3 outside 1..2"):
            ep.Task(np.zeros((3, 2)), [1, 2, 3], np.zeros((2, 2)), [0, 1], way=2)
        with pytest.raises(ep.TaskError, match="label 0 outside 1..2"):
            ep.Task(np.zeros((2, 2)), [1, 2], np.zeros((2, 2)), [1, 0], way=2)

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(ep.TaskError, match="non-finite"):
            ep.Task(np.array([[np.nan, 0.0]]), [1], np.empty((0, 2)), [], way=1)
        with pytest.raises(ep.TaskError, match="non-finite"):
            ep.Task(np.zeros((1, 2)), [1], np.array([[0.0, -np.inf]]), [1], way=1)

    def test_task_without_queries_rejected(self):
        with pytest.raises(ep.TaskError, match="task has no query rows"):
            ep.Task(np.zeros((2, 2)), [1, 2], np.empty((0, 2)), [], way=2)

    def test_support_rows_by_class(self):
        # a stable grouping: each class's rows in row order, of any count
        task = ep.Task(np.zeros((6, 2)), [3, 1, 3, 1, 1, 2], np.zeros((1, 2)), [1], way=3)
        rows, first, count = task.support_by_class
        assert [rows[f:f + c].tolist() for f, c in zip(first, count)] == \
            [[1, 3, 4], [5], [0, 2]]
        assert task.support_by_class is task.support_by_class
        assert not rows.flags.writeable

    def test_rows_and_labels_must_line_up(self):
        for xs, ys, xq, yq in [(np.zeros(2), [1], np.empty((0, 2)), []),
                               (np.zeros((1, 2)), [1, 1], np.empty((0, 2)), []),
                               (np.zeros((1, 2)), [1], np.zeros((1, 3)), [1])]:
            with pytest.raises(ep.TaskError, match="do not line up"):
                ep.Task(xs, ys, xq, yq, way=1)
