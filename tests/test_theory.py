import numpy as np
import pytest

from metainterp import episodes as ep
from metainterp import interpolate as itp
from metainterp import protonet as pn
from metainterp import setfunc as sf
from metainterp import theory as th


def identity_simple(d):
    z, r = np.zeros((d, d)), np.zeros((1, d))
    return sf.SimpleSetParams(w1q=z, w1k=z, w1v=np.eye(d), w2q=z, w2k=z,
                              w2v=np.eye(d), b1q=r, b1k=r, b1v=r,
                              b2q=r, b2k=r, b2v=r, seed=r)


def linear_problem(rng, d=4, out=3, way=2, shots=(2, 3), seed=1, sigma=None):
    cfg = ep.GenConfig(way=way, shots=max(shots), queries=3, dim=d,
                       train_tasks=2, val_tasks=1, test_tasks=1,
                       spread=0.7, seed=seed)
    ds = ep.gen_gaussian_tasks(cfg)
    enc = pn.EncoderParams(
        layers=[pn.LayerParams(rng.standard_normal((d, out)),
                               rng.standard_normal((1, out)))],
        split=0,
    )
    sig = np.asarray(sigma) if sigma is not None else np.arange(1, way + 1)
    return th.TheoryProblem(ds.meta_train[0], ds.meta_train[1],
                            sf.init_simple(d, rng), enc, sig)


def mirrored_case(rng, d=3, n_queries=6):
    """Task with exactly opposite class supports, partner pair {A, -A},
    and queries kept on the better-than-chance side of theta."""
    s1 = rng.standard_normal((2, d))
    sup = [ep.Example(s1[i], 1) for i in range(2)] + [
        ep.Example(-s1[i], 2) for i in range(2)
    ]
    theta = rng.standard_normal(d)
    qs = []
    for i in range(n_queries):
        r = rng.standard_normal(d)
        if r @ theta < 0:
            r = -r
        qs.append(ep.Example(r, 1 + i % 2))
    task_t = ep.Task(sup, qs, way=2)
    a1, a2 = rng.standard_normal((2, d)), rng.standard_normal((2, d))

    def tp(sign):
        return ep.Task(
            [ep.Example(sign * a1[i], 1) for i in range(2)]
            + [ep.Example(sign * a2[i], 2) for i in range(2)],
            [ep.Example(np.zeros(d), 1)],
            way=2,
        )

    case = th.LogisticSpecialCase(theta=theta, task_t=task_t,
                                  set_params=identity_simple(d))
    pairings = [
        (task, sig)
        for task in (tp(1.0), tp(-1.0))
        for sig in (np.array([1, 2]), np.array([2, 1]))
    ]
    return case, pairings


class TestDelta:
    def test_identical_supports_give_zero(self, rng):
        d = 3
        point = rng.standard_normal(d)
        other = rng.standard_normal(d)
        sup = [ep.Example(point, 1), ep.Example(point, 1),
               ep.Example(other, 2)]
        task = ep.Task(sup, [ep.Example(point, 1)], way=2)
        enc = pn.EncoderParams(
            layers=[pn.LayerParams(rng.standard_normal((d, 2)), np.zeros((1, 2)))],
            split=0,
        )
        prob = th.TheoryProblem(task, task, sf.init_simple(d, rng), enc,
                                np.array([1, 2]))
        np.testing.assert_allclose(th.delta_k(prob, 1), 0.0, atol=1e-15)

    def test_one_shot_single_term(self, rng):
        prob = linear_problem(rng, shots=(1, 1), seed=4)
        # restrict both tasks to one support per class

        def first_per_class(task):
            seen = set()
            support = [e for e in task.support
                       if e.label not in seen and not seen.add(e.label)]
            return ep.Task(support, task.query, task.way)

        prob.task_t = first_per_class(prob.task_t)
        prob.task_tp = first_per_class(prob.task_tp)
        M, _ = sf.effective_affine(prob.set_params)
        G = prob.upper.w
        for k in (1, 2):
            x = prob.task_t.support_of_class(k)[0].features
            xp = prob.task_tp.support_of_class(int(prob.sigma[k - 1]))[0].features
            a, *_ = sf.alpha_pair(prob.set_params, x, xp)
            want = a * ((xp - x) @ M @ G)
            np.testing.assert_allclose(th.delta_k(prob, k), want, atol=1e-14)

    def test_multishot_vs_brute_force(self, rng):
        prob = linear_problem(rng, shots=(2, 3), seed=5)
        M, _ = sf.effective_affine(prob.set_params)
        G = prob.upper.w
        for k in (1, 2):
            acc, cnt = 0.0, 0
            for ea in prob.task_t.support_of_class(k):
                for eb in prob.task_tp.support_of_class(int(prob.sigma[k - 1])):
                    a, *_ = sf.alpha_pair(prob.set_params, ea.features, eb.features)
                    acc = acc + a * ((eb.features - ea.features) @ M @ G)
                    cnt += 1
            want = acc / cnt
            assert np.max(np.abs(th.delta_k(prob, k) - want)) <= 1e-12

    def test_linear_in_difference_scale(self, rng):
        prob = linear_problem(rng, seed=6)
        base = th.delta_matrix(prob, 1.0)
        for s in (0.5, 2.0, -3.0):
            np.testing.assert_allclose(th.delta_matrix(prob, s), s * base,
                                       atol=1e-12)

    def test_upper_stack_must_be_linear(self, rng):
        d = 3
        cfg = ep.GenConfig(way=2, shots=1, queries=2, dim=d, train_tasks=2,
                           val_tasks=1, test_tasks=1, spread=0.5, seed=7)
        ds = ep.gen_gaussian_tasks(cfg)
        enc = pn.init_encoder([d, 4, 2], split=0, rng=rng)  # two upper layers
        with pytest.raises(th.TheoryError):
            th.TheoryProblem(ds.meta_train[0], ds.meta_train[1],
                             sf.init_simple(d, rng), enc, np.array([1, 2]))


class TestTaylor:
    def test_zero_direction_equals_singleton(self, rng):
        prob = linear_problem(rng, seed=8)
        single = th.prototype_loss(prob, th.singleton_prototypes(prob))
        assert th.taylor_mix(prob, 1, eps=0.0) == pytest.approx(single, abs=1e-14)
        assert th.taylor_mix(prob, 2, eps=0.0) == pytest.approx(single, abs=1e-14)

    def test_j1_matches_hand_derivative_two_prototypes(self, rng):
        # K=2, one query, 1-D embeddings: the chain rule fits on paper
        d = 2
        task_t = ep.Task(
            [ep.Example(np.array([1.0, 0.3]), 1),
             ep.Example(np.array([-0.7, 0.9]), 2)],
            [ep.Example(np.array([0.4, -0.2]), 1)],
            way=2,
        )
        task_tp = ep.Task(
            [ep.Example(np.array([0.2, -1.0]), 1),
             ep.Example(np.array([1.1, 0.5]), 2)],
            [ep.Example(np.zeros(2), 1)],
            way=2,
        )
        enc = pn.EncoderParams(
            layers=[pn.LayerParams(rng.standard_normal((d, 1)),
                                   rng.standard_normal((1, 1)))],
            split=0,
        )
        prob = th.TheoryProblem(task_t, task_tp, sf.init_simple(d, rng),
                                enc, np.array([1, 2]))
        protos = th.singleton_prototypes(prob)  # (2, 1)
        delta = th.delta_matrix(prob)
        eq, labels = th._query_embeddings(prob)
        e = eq[0, 0]
        c1, c2 = protos[0, 0], protos[1, 0]
        u = (e - c2) ** 2 - (e - c1) ** 2  # d2 - d1, label is class 1
        sig = 1.0 / (1.0 + np.exp(-u))
        dl_dc1 = -(1.0 - sig) * 2.0 * (e - c1)
        dl_dc2 = (1.0 - sig) * 2.0 * (e - c2)
        want = (-np.log(sig)) + dl_dc1 * delta[0, 0] + dl_dc2 * delta[1, 0]
        got = th.taylor_mix(prob, 1, eps=1.0)
        assert got == pytest.approx(want, abs=1e-10)

    def test_unsupported_order_rejected(self, rng):
        prob = linear_problem(rng, seed=9)
        with pytest.raises(th.TheoryError):
            th.taylor_mix(prob, 3)

    def test_remainder_slopes(self):
        eps_grid = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        checked = 0
        for seed in range(6):
            prob = th.default_thm1_problem(seed)
            if th.is_degenerate(prob):
                continue
            s1, _ = th.remainder_slope(prob, 1, eps_grid)
            s2, _ = th.remainder_slope(prob, 2, eps_grid)
            assert s1 >= 1.8, (seed, s1)
            assert s2 >= 2.8, (seed, s2)
            checked += 1
        assert checked >= 4

    def test_degenerate_instances_detected(self):
        # saturated draws exist and are flagged rather than slope-fitted
        flags = [th.is_degenerate(th.default_thm1_problem(s)) for s in range(20)]
        assert any(flags) and not all(flags)

    def test_frozen_mix_matches_real_loss_at_full_scale(self, rng):
        # at eps=1 the frozen attention equals the attention actually used,
        # so the theory-side loss must equal the production mixed loss
        prob = linear_problem(rng, seed=11)
        pairing = itp.ClassPairing(np.arange(1, 3), prob.sigma.copy())
        real = itp.loss_mix(prob.set_params, prob.encoder, prob.task_t,
                            prob.task_tp, pairing,
                            itp.InterpConfig(strategy="support", layer=0),
                            mode="eval")
        assert real.item() == pytest.approx(th.mix_loss_frozen(prob, 1.0),
                                            abs=1e-9)


class TestProp1:
    def test_theta_zero_collapses(self, rng):
        case, pairings = mirrored_case(rng)
        case0 = th.LogisticSpecialCase(theta=np.zeros_like(case.theta),
                                       task_t=case.task_t,
                                       set_params=case.set_params)
        res = th.prop1_check(case0, pairings)
        assert case0.curvature_coefficient() == 0.0
        assert case0.singleton_loss() == pytest.approx(0.5, abs=1e-15)
        assert res["gap"] <= 1e-12

    def test_mirrored_construction_gap(self, rng):
        for seed in range(5):
            case, pairings = mirrored_case(np.random.default_rng(700 + seed))
            res = th.prop1_check(case, pairings)
            assert res["balance_residual"] <= 1e-12
            assert res["gap"] <= 1e-9

    def test_c_positive_for_better_than_chance(self):
        # 20 draws with every query scored on theta's positive side
        for seed in range(20):
            case, _ = mirrored_case(np.random.default_rng(900 + seed))
            assert np.all(case.z_values() > 0)
            assert case.curvature_coefficient() > 0.0

    def test_non_identity_value_path_rejected(self, rng):
        case, _ = mirrored_case(rng)
        bad = sf.init_simple(3, rng)
        with pytest.raises(th.TheoryError):
            th.LogisticSpecialCase(theta=case.theta, task_t=case.task_t,
                                   set_params=bad)


class TestBalance:
    def test_mirrored_residual_tiny(self, rng):
        case, pairings = mirrored_case(rng)
        assert th.balance_check(case, pairings) <= 1e-12

    def test_identical_pairing_zero(self, rng):
        case, _ = mirrored_case(rng)
        pairings = [(case.task_t, np.array([1, 2]))]
        # t' = t with sigma = id and equal shots: differences cancel pairwise
        # only when alpha is symmetric; with constant alpha they cancel in
        # the class sums since both classes share the same index sets
        res = th.balance_check(case, pairings)
        means = case.class_means()
        want = abs(0.5 * (means.sum(axis=0) - means.sum(axis=0)))
        assert res <= 1e-12 + float(np.linalg.norm(want))

    def test_random_tasks_generally_nonzero(self, rng):
        cfg = ep.GenConfig(way=2, shots=2, queries=2, dim=3, train_tasks=2,
                           val_tasks=1, test_tasks=1, spread=0.6, seed=13)
        ds = ep.gen_gaussian_tasks(cfg)
        theta = rng.standard_normal(3)
        case = th.LogisticSpecialCase(theta=theta, task_t=ds.meta_train[0],
                                      set_params=identity_simple(3))
        res = th.balance_check(case, [(ds.meta_train[1], np.array([1, 2]))])
        assert res > 1e-6  # reported, nonzero


class TestRademacher:
    def test_rank1_n4_exhaustive_under_half(self):
        cfg = th.RademacherConfig(n=4, dim=3, rank=1, radius=1.0, trials=200,
                                  seed=1)
        out = th.rademacher_bound_check(cfg)
        assert out["bound"] == pytest.approx(0.5, abs=1e-15)
        assert out["empirical"] <= 0.5
        assert out["passed"]

    def test_radius_homogeneity(self):
        # scaling R by 4 doubles the sup for every sign vector, hence both
        # the empirical value and the bound
        base = th.RademacherConfig(n=6, dim=4, rank=4, radius=1.0, trials=50,
                                   seed=2)
        big = th.RademacherConfig(n=6, dim=4, rank=4, radius=4.0, trials=50,
                                  seed=2)
        a = th.rademacher_bound_check(base)
        b = th.rademacher_bound_check(big)
        assert b["bound"] == pytest.approx(2 * a["bound"], abs=1e-12)
        assert b["empirical"] == pytest.approx(2 * a["empirical"], abs=1e-12)

    def test_bound_formula_rank_halving(self):
        full = th.RademacherConfig(n=8, dim=4, rank=4, radius=1.0).rank
        half = th.RademacherConfig(n=8, dim=4, rank=2, radius=1.0).rank
        b_full = np.sqrt(1.0) * np.sqrt(full) / np.sqrt(8)
        b_half = np.sqrt(1.0) * np.sqrt(half) / np.sqrt(8)
        assert b_full / b_half == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_grid_bound_holds(self):
        for n in (4, 8):
            for rank in (1, 2, 4):
                for radius in (1.0, 4.0):
                    cfg = th.RademacherConfig(n=n, dim=4, rank=rank,
                                              radius=radius, trials=60,
                                              seed=5)
                    out = th.rademacher_bound_check(cfg)
                    assert out["passed"], (n, rank, radius, out)

    def test_data_outside_rowspace_rejected(self, rng):
        cfg = th.RademacherConfig(n=4, dim=3, rank=1, radius=1.0, trials=5,
                                  seed=6)
        sigma, Qr, eigs = th.make_covariance(cfg, np.random.default_rng(0))
        bad = rng.standard_normal((4, 3))  # full-dimensional data
        with pytest.raises(th.TheoryError):
            th.empirical_rademacher(cfg, bad, sigma)

    def test_monte_carlo_path(self):
        cfg = th.RademacherConfig(n=16, dim=3, rank=2, radius=1.0, trials=20,
                                  sign_samples=500, seed=7)
        out = th.rademacher_bound_check(cfg)
        assert out["passed"]
