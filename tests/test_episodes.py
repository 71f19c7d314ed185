import numpy as np
import pytest

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
                feats = [ex.features for ex in task.support_of_class(k)]
                feats += [ex.features for ex in task.queries_of_class(k)]
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
            cents = {}
            for k in range(1, task.way + 1):
                cents[k] = np.mean([e.features for e in task.support_of_class(k)], axis=0)
            for q in task.query:
                pred = min(cents, key=lambda k: np.sum((q.features - cents[k]) ** 2))
                assert pred == q.label

    def test_every_class_populated(self):
        ds = ep.gen_gaussian_tasks(small_cfg())
        for task in ds.meta_train:
            for k in range(1, task.way + 1):
                assert task.support_of_class(k)

    def test_counts_respected(self):
        cfg = small_cfg()
        ds = ep.gen_gaussian_tasks(cfg)
        assert len(ds.meta_train) == cfg.train_tasks
        assert len(ds.meta_val) == cfg.val_tasks
        assert len(ds.meta_test) == cfg.test_tasks
        t = ds.meta_train[0]
        assert len(t.support) == cfg.way * cfg.shots
        assert len(t.query) == cfg.way * cfg.queries

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


class TestTaskInvariants:
    def test_missing_support_class_rejected(self):
        ex = ep.Example(np.zeros(2), 1)
        with pytest.raises(ep.TaskError):
            ep.Task(support=[ex], query=[], way=2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ep.TaskError):
            ep.Task(support=[ep.Example(np.zeros(2), 5)], query=[], way=2)

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(ep.TaskError):
            ep.Example(np.array([np.nan, 0.0]), 1)
