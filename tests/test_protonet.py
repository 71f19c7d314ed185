import math

import numpy as np
import pytest

from metainterp import autodiff as ad
from metainterp import episodes as ep
from metainterp import protonet as pn
from metainterp import setfunc as sf
from metainterp.autodiff import DiffValue

from conftest import fd_grad, rel_err
from oracles import plain_protonet_loss


def identity_encoder(dim, layers=1, split=0):
    ls = [pn.LayerParams(np.eye(dim), np.zeros((1, dim))) for _ in range(layers)]
    return pn.EncoderParams(layers=ls, split=split)


def toy_task(way=2, shots=1, queries=2, dim=3, seed=0, spread=0.4):
    cfg = ep.GenConfig(way=way, shots=shots, queries=queries, dim=dim,
                       train_tasks=1, val_tasks=1, test_tasks=1,
                       spread=spread, seed=seed)
    return ep.gen_gaussian_tasks(cfg).meta_train[0]


class TestEncoder:
    def test_split_zero_lower_is_identity(self, rng):
        theta = pn.init_encoder([4, 5, 3], split=0, rng=rng)
        x = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(pn.encode_lower(theta, x).data, x)

    def test_identity_weights_positive_input(self, rng):
        theta = identity_encoder(3, layers=2, split=1)
        x = np.abs(rng.standard_normal((2, 3))) + 0.1
        np.testing.assert_array_equal(pn.encode_lower(theta, x).data, x)

    def test_two_layer_against_hand_rolled(self, rng):
        theta = pn.init_encoder([4, 6, 3, 2], split=2, rng=rng)
        x = rng.standard_normal((5, 4))
        h = x @ theta.layers[0].w + theta.layers[0].b
        h = np.where(h > 0, h, theta.slope * h)
        h = h @ theta.layers[1].w + theta.layers[1].b
        h = np.where(h > 0, h, theta.slope * h)
        got = pn.encode_lower(theta, x).data
        assert np.max(np.abs(got - h)) <= 1e-12

    def test_upper_runs_remaining_layers(self, rng):
        theta = pn.init_encoder([4, 6, 3], split=1, rng=rng)
        x = rng.standard_normal((2, 4))
        h = pn.encode_lower(theta, x)
        e = pn.encode_upper(theta, h)
        # last layer affine-only
        want = h.data @ theta.layers[1].w + theta.layers[1].b
        np.testing.assert_allclose(e.data, want, atol=1e-12)

    def test_upper_hand_rolled_three_layer(self, rng):
        theta = pn.init_encoder([3, 5, 5, 2], split=1, rng=rng)
        h = rng.standard_normal((4, 5))
        z = h @ theta.layers[1].w + theta.layers[1].b
        z = np.where(z > 0, z, theta.slope * z)
        z = z @ theta.layers[2].w + theta.layers[2].b
        got = pn.encode_upper(theta, h).data
        assert np.max(np.abs(got - z)) <= 1e-12

    def test_bad_split_rejected(self, rng):
        with pytest.raises(ValueError):
            pn.init_encoder([4, 3], split=1, rng=rng)

    def test_width_mismatch_raises(self, rng):
        theta = pn.init_encoder([4, 3], split=0, rng=rng)
        with pytest.raises(ad.ShapeError):
            pn.encode_upper(theta, rng.standard_normal((2, 5)))


class TestPrototypes:
    def test_one_embedding_per_class(self, rng):
        e1, e2 = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        protos = pn.prototypes_from_matrix(np.vstack([e1, e2]), [1, 2], way=2).data
        np.testing.assert_array_equal(protos, np.vstack([e1, e2]))

    def test_class_mean(self):
        protos = pn.prototypes_from_matrix(
            np.array([[1.0, 2.0], [3.0, 4.0]]), [1, 1], way=1
        ).data
        np.testing.assert_array_equal(protos, [[2.0, 3.0]])

    def test_duplicating_supports_is_noop(self, rng):
        rows, labels = rng.standard_normal((3, 3)), [1, 1, 2]
        once = pn.prototypes_from_matrix(rows, labels, way=2).data
        twice = pn.prototypes_from_matrix(np.vstack([rows, rows]), labels + labels,
                                          way=2).data
        np.testing.assert_allclose(once, twice, atol=1e-15)

    def test_missing_class_named(self, rng):
        with pytest.raises(pn.MissingClassError) as err:
            pn.prototypes_from_matrix(rng.standard_normal((1, 3)), [1], way=3)
        assert err.value.k == 2


class TestDistances:
    def test_zero_distance(self):
        x = np.array([[1.0, -2.0]])
        assert pn.pairwise_dists(x, x).item() == 0.0

    def test_three_four_five(self):
        assert pn.pairwise_dists([[0.0, 0.0]], [[3.0, 4.0]]).item() == 25.0

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
            assert abs(pn.pairwise_dists(a, b).item()
                       - pn.pairwise_dists(b, a).item()) <= 1e-12

    def test_pairwise_matches_loops(self, rng):
        q = rng.standard_normal((4, 3))
        c = rng.standard_normal((2, 3))
        got = pn.pairwise_dists(q, c).data
        want = np.array([[np.sum((qi - cj) ** 2) for cj in c] for qi in q])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_euclidean_metric(self, rng):
        q = rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 3))
        got = pn.pairwise_dists(q, c, metric="euclidean").data
        want = np.sqrt(
            np.array([[np.sum((qi - cj) ** 2) for cj in c] for qi in q]) + 1e-12
        )
        assert np.max(np.abs(got - want)) <= 1e-10


class TestLossSingleton:
    def test_equidistant_query_ln2(self):
        # two prototypes at +/-1, query at origin: uniform softmax
        task = ep.Task(
            support=[ep.Example(np.array([1.0, 0.0]), 1),
                     ep.Example(np.array([-1.0, 0.0]), 2)],
            query=[ep.Example(np.array([0.0, 0.0]), 1)],
            way=2,
        )
        theta = identity_encoder(2)
        loss = pn.loss_singleton(sf.IdentitySet(), theta, task, mode="eval")
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_query_on_prototype_far_other(self):
        task = ep.Task(
            support=[ep.Example(np.array([0.0, 0.0]), 1),
                     ep.Example(np.array([60.0, 0.0]), 2)],
            query=[ep.Example(np.array([0.0, 0.0]), 1)],
            way=2,
        )
        theta = identity_encoder(2)
        loss = pn.loss_singleton(sf.IdentitySet(), theta, task, mode="eval")
        assert loss.item() <= 1e-12

    def test_hand_computed_two_way_one_shot(self):
        s1, s2 = np.array([0.0, 0.0]), np.array([2.0, 1.0])
        q = np.array([0.5, 0.25])
        task = ep.Task(
            support=[ep.Example(s1, 1), ep.Example(s2, 2)],
            query=[ep.Example(q, 1)],
            way=2,
        )
        d1 = np.sum((q - s1) ** 2)
        d2 = np.sum((q - s2) ** 2)
        want = -np.log(np.exp(-d1) / (np.exp(-d1) + np.exp(-d2)))
        theta = identity_encoder(2)
        loss = pn.loss_singleton(sf.IdentitySet(), theta, task, mode="eval")
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_vanilla_reduction_50_episodes(self, rng):
        # identity set function vs a separately coded plain ProtoNet
        for i in range(50):
            task = toy_task(way=3, shots=2, queries=2, dim=4, seed=100 + i)
            theta = pn.init_encoder([4, 6, 5], split=1, rng=rng)
            got = pn.loss_singleton(sf.IdentitySet(), theta, task, mode="eval").item()
            want = plain_protonet_loss(theta, task)
            assert abs(got - want) <= 1e-12

    def test_loss_nonnegative(self, rng):
        task = toy_task(seed=5)
        theta = pn.init_encoder([3, 4, 4], split=1, rng=rng)
        lam = sf.init_simple(4, rng)
        assert pn.loss_singleton(lam, theta, task, mode="eval").item() >= 0.0

    def test_gradients_match_finite_differences(self, rng):
        task = toy_task(way=2, shots=2, queries=3, dim=3, seed=9)
        theta = pn.init_encoder([3, 4, 3], split=1, rng=rng)
        lam = sf.init_simple(4, rng)

        def run(w_lower, w1v):
            th = pn.EncoderParams(
                layers=[pn.LayerParams(w_lower, theta.layers[0].b), theta.layers[1]],
                split=1, slope=theta.slope,
            )
            lm = sf.SimpleSetParams(**{**lam.__dict__, "w1v": w1v})
            return pn.loss_singleton(lm, th, task, mode="eval").item()

        tape = ad.Tape()
        w_lower = tape.param(theta.layers[0].w)
        w1v = tape.param(lam.w1v)
        th = pn.EncoderParams(
            layers=[pn.LayerParams(w_lower, theta.layers[0].b), theta.layers[1]],
            split=1, slope=theta.slope,
        )
        lm = sf.SimpleSetParams(**{**lam.__dict__, "w1v": w1v})
        loss = pn.loss_singleton(lm, th, task, mode="eval")
        g_theta, g_lam = ad.grad(loss, [w_lower, w1v])

        fd_theta = fd_grad(lambda w: run(w, lam.w1v), theta.layers[0].w)
        fd_lam = fd_grad(lambda w: run(theta.layers[0].w, w), lam.w1v)
        assert rel_err(g_theta.data, fd_theta) <= 1e-5
        assert rel_err(g_lam.data, fd_lam) <= 1e-5


def query_dists(theta, query, protos):
    """(1, K) distances from one embedded query to the prototype rows (the
    identity set function adds nothing between the stacks)."""
    e = pn.encode_upper(theta, pn.encode_lower(theta, np.reshape(query, (1, -1))))
    return pn.pairwise_dists(e, protos)


class TestClassify:
    # accuracy_from_dists scores 1 exactly when the nearest prototype is
    # the row's label
    def test_query_at_prototype(self, rng):
        theta = identity_encoder(3)
        protos = rng.standard_normal((3, 3)) * 3
        assert pn.accuracy_from_dists(query_dists(theta, protos[1], protos), [2]) == 1.0

    def test_tie_goes_to_lower_index(self):
        theta = identity_encoder(1)
        protos = np.array([[1.0], [-1.0]])
        d = query_dists(theta, np.array([0.0]), protos)
        assert d.data[0, 0] == d.data[0, 1]
        assert pn.accuracy_from_dists(d, [1]) == 1.0
        assert pn.accuracy_from_dists(d, [2]) == 0.0

    def test_agrees_with_linear_scan(self, rng):
        theta = identity_encoder(4)
        for _ in range(100):
            protos = rng.standard_normal((5, 4))
            q = rng.standard_normal(4)
            want = min(
                range(5), key=lambda k: (np.sum((q - protos[k]) ** 2), k)
            ) + 1
            assert pn.accuracy_from_dists(query_dists(theta, q, protos), [want]) == 1.0

    def test_argmin_invariant_to_common_shift(self, rng):
        # adding a constant to all squared distances never changes argmin
        for _ in range(50):
            d = rng.standard_normal(6) ** 2
            shift = abs(rng.standard_normal()) * 10
            assert np.argmin(d) == np.argmin(d + shift)


class TestAccuracy:
    def test_perfectly_separable(self, rng):
        cfg = ep.GenConfig(way=2, shots=1, queries=4, dim=5, train_tasks=1,
                           val_tasks=1, test_tasks=6, spread=1e-3, seed=21)
        ds = ep.gen_gaussian_tasks(cfg)
        theta = identity_encoder(5)
        mean, half = pn.accuracy(sf.IdentitySet(), theta, ds.meta_test,
                                 episodes=100, seed=0)
        assert mean == 1.0

    def test_random_labels_near_half(self, rng):
        # K=2 with labels shuffled independently of features
        tasks = []
        label_rng = np.random.default_rng(33)
        for t in range(8):
            feats = label_rng.standard_normal((40, 4))
            support = [ep.Example(feats[i], 1 + i % 2) for i in range(4)]
            query = [
                ep.Example(feats[4 + i], int(label_rng.integers(1, 3)))
                for i in range(36)
            ]
            tasks.append(ep.Task(support=support, query=query, way=2))
        theta = identity_encoder(4)
        mean, _ = pn.accuracy(sf.IdentitySet(), theta, tasks, episodes=3000, seed=1)
        assert abs(mean - 0.5) <= 0.05

    def test_deterministic_per_seed(self, rng):
        ds = ep.gen_gaussian_tasks(ep.GenConfig(way=3, shots=1, queries=3, dim=4,
                                                train_tasks=2, val_tasks=1,
                                                test_tasks=5, spread=0.8, seed=2))
        theta = pn.init_encoder([4, 4], split=0, rng=rng)
        a = pn.accuracy(sf.IdentitySet(), theta, ds.meta_test, episodes=200, seed=7)
        b = pn.accuracy(sf.IdentitySet(), theta, ds.meta_test, episodes=200, seed=7)
        assert a == b

    def test_threads_do_not_change_result(self, rng):
        ds = ep.gen_gaussian_tasks(ep.GenConfig(way=3, shots=1, queries=3, dim=4,
                                                train_tasks=2, val_tasks=1,
                                                test_tasks=5, spread=0.8, seed=2))
        theta = pn.init_encoder([4, 4], split=0, rng=rng)
        a = pn.accuracy(sf.IdentitySet(), theta, ds.meta_test, episodes=50, seed=3)
        b = pn.accuracy(sf.IdentitySet(), theta, ds.meta_test, episodes=50, seed=3,
                        threads=4)
        assert a == b

    def test_seed_list_matches_one_call_per_seed(self, rng):
        ds = ep.gen_gaussian_tasks(ep.GenConfig(way=3, shots=1, queries=3, dim=4,
                                                train_tasks=2, val_tasks=1,
                                                test_tasks=5, spread=0.8, seed=2))
        theta = pn.init_encoder([4, 4], split=0, rng=rng)
        each = [pn.accuracy(sf.IdentitySet(), theta, ds.meta_test, episodes=40, seed=s)
                for s in (0, 1, 2)]
        assert pn.accuracy(sf.IdentitySet(), theta, ds.meta_test, episodes=40,
                           seed=[0, 1, 2]) == each
