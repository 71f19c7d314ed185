import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from metainterp import _params
from metainterp import autodiff as ad
from metainterp import bilevel as bl
from metainterp import episodes as ep
from metainterp import interpolate as itp
from metainterp import protonet as pn
from metainterp import setfunc as sf
from metainterp.autodiff import DiffValue, Tape

import reference
from conftest import traced_peak


def small_dataset(seed=42, train_tasks=4, spread=1.0):
    cfg = ep.GenConfig(way=3, shots=1, queries=3, dim=5, train_tasks=train_tasks,
                       val_tasks=2, test_tasks=4, spread=spread, seed=seed)
    return ep.gen_gaussian_tasks(cfg)


def short_cfg(**kw):
    base = dict(max_iters=40, update_period=10, batch_size=2, seed=3,
                encoder_widths=(8, 6), interp=itp.InterpConfig(layer=1),
                set_kind="simple", patience=0)
    base.update(kw)
    return bl.TrainConfig(**base)


class TestOptimizers:
    def test_zero_gradient_no_move(self):
        opt = bl.opt_init("adam", 0.1, [np.ones((2, 2))])
        (new,) = bl.opt_step(opt, [np.ones((2, 2))], [np.zeros((2, 2))])
        np.testing.assert_array_equal(new, np.ones((2, 2)))

    def test_sgd_quadratic_hand_formula(self):
        # f = 0.5 x^2, grad = x; one step: x - lr*x
        opt = bl.opt_init("sgd", 0.25, [np.array([[2.0]])])
        (new,) = bl.opt_step(opt, [np.array([[2.0]])], [np.array([[2.0]])])
        assert new[0, 0] == 2.0 - 0.25 * 2.0

    def test_adam_three_step_reference(self):
        # scalar reference recursion with beta1=.9, beta2=.999, eps=1e-8
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x = 1.0
        m = v = 0.0
        grads = [0.5, -0.2, 0.8]
        opt = bl.opt_init("adam", lr, [np.array([[1.0]])])
        arr = np.array([[1.0]])
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            x = x - lr * mhat / (np.sqrt(vhat) + eps)
            (arr,) = bl.opt_step(opt, [arr], [np.array([[g]])])
        assert arr[0, 0] == pytest.approx(x, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bl.opt_init("lion", 0.1, [])


class TestInnerLoss:
    def test_first_element_collapse_both_terms_equal(self, rng):
        from test_interpolate import FirstElement

        ds = small_dataset()
        theta = pn.init_encoder([5, 6, 4], split=1, rng=rng)
        pairing = itp.pair_classes(3, np.random.default_rng(1))
        pairs = [(ds.meta_train[0], ds.meta_train[1], pairing)]
        cfg = short_cfg(batch_size=1)
        lam = FirstElement()
        full = bl.inner_loss(lam, theta, pairs, cfg, "eval", method="meta-interp")
        single = pn.loss_singleton(lam, theta, ds.meta_train[0], "eval")
        assert full.item() == pytest.approx(single.item(), abs=1e-12)

    def test_dropping_mix_halves_collapsed_loss(self, rng):
        from test_interpolate import FirstElement

        ds = small_dataset()
        theta = pn.init_encoder([5, 6, 4], split=1, rng=rng)
        pairing = itp.pair_classes(3, np.random.default_rng(1))
        pairs = [(ds.meta_train[0], ds.meta_train[1], pairing)]
        cfg = short_cfg(batch_size=1)
        lam = FirstElement()
        full = bl.inner_loss(lam, theta, pairs, cfg, "eval", method="meta-interp")
        no_mix = bl.inner_loss(lam, theta, pairs, cfg, "eval", method="protonet-st")
        assert full.item() == pytest.approx(no_mix.item(), abs=1e-12)
        # the 1/2B weighting halves each term relative to its 1/B variant
        half = ad.mul(
            ad.add(
                pn.loss_singleton(lam, theta, ds.meta_train[0], "eval"),
                pn.loss_singleton(lam, theta, ds.meta_train[0], "eval"),
            ),
            0.5,
        )
        assert full.item() == pytest.approx(half.item(), abs=1e-12)

    def test_batch_two_is_mean_of_singles(self, rng):
        ds = small_dataset()
        theta = pn.init_encoder([5, 6, 4], split=1, rng=rng)
        lam = sf.init_simple(6, rng)
        pairing1 = itp.pair_classes(3, np.random.default_rng(5))
        pairing2 = itp.pair_classes(3, np.random.default_rng(6))
        p1 = (ds.meta_train[0], ds.meta_train[1], pairing1)
        p2 = (ds.meta_train[2], ds.meta_train[3], pairing2)
        cfg = short_cfg()
        both = bl.inner_loss(lam, theta, [p1, p2], cfg, "eval")
        a = bl.inner_loss(lam, theta, [p1], cfg, "eval")
        b = bl.inner_loss(lam, theta, [p2], cfg, "eval")
        assert both.item() == pytest.approx((a.item() + b.item()) / 2, abs=1e-12)

    def test_no_singleton_variant_is_pure_mix(self, rng):
        ds = small_dataset()
        theta = pn.init_encoder([5, 6, 4], split=1, rng=rng)
        lam = sf.init_simple(6, rng)
        pairing = itp.pair_classes(3, np.random.default_rng(7))
        pairs = [(ds.meta_train[0], ds.meta_train[1], pairing)]
        cfg = short_cfg()
        got = bl.inner_loss(lam, theta, pairs, cfg, "eval", method="no-singleton")
        want = itp.loss_mix(lam, theta, ds.meta_train[0], ds.meta_train[1],
                            pairing, cfg.interp, "eval", None, cfg.metric)
        assert got.item() == pytest.approx(want.item(), abs=1e-12)


def quadratic_hypergrad_setup(theta0, lam0):
    """L_tr = 0.5 (theta - lam)^2 on a fresh tape."""
    tape = Tape()
    theta = tape.param([[theta0]])
    lam = tape.param([[lam0]])
    diff = ad.sub(theta, lam)
    ltr = ad.mul(ad.mul(diff, diff), 0.5)
    (dltr,) = ad.grad(ltr, [theta], create_graph=True)
    return tape, theta, lam, dltr


class TestHypergrad:
    def test_scalar_quadratic_exact_value(self):
        _, theta, lam, dltr = quadratic_hypergrad_setup(1.0, 1.0)
        g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                 [np.array([[1.0]])], [np.array([[0.0]])],
                                 alpha=0.5, q=10)
        assert g[0][0, 0] == pytest.approx(1.0 - 0.5 ** 11, abs=1e-12)

    def test_independent_losses_give_zero(self):
        # L_tr and L_V both independent of lambda
        tape = Tape()
        theta = tape.param([[2.0]])
        lam = tape.param([[5.0]])
        ltr = ad.mul(ad.mul(theta, theta), 0.5)
        (dltr,) = ad.grad(ltr, [theta], create_graph=True)
        g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                 [np.array([[2.0]])], [np.array([[0.0]])],
                                 alpha=0.3, q=7)
        assert g[0][0, 0] == 0.0

    def test_q0_one_term_truncation(self):
        # q=0: dL_V/dlam - alpha * d2L_tr/dlamdtheta * dL_V/dtheta
        # with L_tr = 0.5(theta-lam)^2: cross second derivative = -1
        _, theta, lam, dltr = quadratic_hypergrad_setup(0.7, 0.2)
        dlv_dtheta, dlv_dlam = 1.3, 0.4
        g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                 [np.array([[dlv_dtheta]])],
                                 [np.array([[dlv_dlam]])], alpha=0.25, q=0)
        want = dlv_dlam - 0.25 * (-1.0) * dlv_dtheta
        assert g[0][0, 0] == pytest.approx(want, abs=1e-14)

    def _random_quadratic(self, seed, cond=2.5):
        """3-parameter inner problem: L_tr = 0.5 th^T H th + th^T (C lam) with
        H symmetric positive definite, plus L_V = 0.5 |th - t|^2."""
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        eigs = rng.uniform(1.0, cond, size=3)
        H = Q @ np.diag(eigs) @ Q.T
        C = rng.standard_normal((3, 2))
        t = rng.standard_normal(3)
        th0 = rng.standard_normal(3)
        lam0 = rng.standard_normal(2)
        return H, C, t, th0, lam0

    def _build(self, H, C, th0, lam0):
        tape = Tape()
        theta = tape.param(th0.reshape(1, -1))
        lam = tape.param(lam0.reshape(1, -1))
        quad = ad.mul(ad.sum_all(ad.mul(theta, ad.matmul(theta, DiffValue.const(H)))), 0.5)
        cross = ad.sum_all(ad.mul(theta, ad.matmul(lam, DiffValue.const(C.T))))
        ltr = ad.add(quad, cross)
        (dltr,) = ad.grad(ltr, [theta], create_graph=True)
        return tape, theta, lam, dltr

    def test_random_quadratics_match_exact_ift(self):
        # exact: dL_V/dlam - C^T H^{-1} (theta - t) ... with alpha*lmax < 1
        for seed in range(5):
            H, C, t, th0, lam0 = self._random_quadratic(seed)
            alpha = 0.95 / np.max(np.linalg.eigvalsh(H))
            _, theta, lam, dltr = self._build(H, C, th0, lam0)
            dlv_dtheta = (th0 - t).reshape(1, -1)
            g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                     [dlv_dtheta], [np.zeros((1, 2))],
                                     alpha=alpha, q=50)
            exact = -(C.T @ np.linalg.solve(H, th0 - t)).reshape(1, -1)
            denom = max(np.max(np.abs(exact)), 1e-8)
            assert np.max(np.abs(g[0] - exact)) / denom <= 1e-6

    def test_harsher_conditioning_within_1e3_at_q50(self):
        # Neumann truncation error scales as (1 - alpha*lmin)^(q+1); with
        # alpha = 0.9/lmax that stays under 1e-3 up to condition number ~6
        for seed in range(3):
            H, C, t, th0, lam0 = self._random_quadratic(seed, cond=6.0)
            alpha = 0.9 / np.max(np.linalg.eigvalsh(H))
            _, theta, lam, dltr = self._build(H, C, th0, lam0)
            g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                     [(th0 - t).reshape(1, -1)],
                                     [np.zeros((1, 2))], alpha=alpha, q=50)
            exact = -(C.T @ np.linalg.solve(H, th0 - t)).reshape(1, -1)
            denom = max(np.max(np.abs(exact)), 1e-8)
            assert np.max(np.abs(g[0] - exact)) / denom <= 1e-3

    def test_error_monotone_nonincreasing_in_q(self):
        H, C, t, th0, lam0 = self._random_quadratic(7)
        alpha = 0.9 / np.max(np.linalg.eigvalsh(H))
        exact = -(C.T @ np.linalg.solve(H, th0 - t)).reshape(1, -1)
        errs = []
        for q in (0, 1, 2, 5, 10, 20, 50):
            _, theta, lam, dltr = self._build(H, C, th0, lam0)
            g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                     [(th0 - t).reshape(1, -1)],
                                     [np.zeros((1, 2))], alpha=alpha, q=q)
            errs.append(np.max(np.abs(g[0] - exact)))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15

    def test_unrolled_differentiation_cross_check(self):
        # inner problem L_tr = 0.5 a th^2 + b th lam + d th; 200 SGD steps
        a, b, d = 2.0, 0.7, -0.3
        alpha = 0.3
        lam0, th_start = 0.9, 0.1

        def unroll(lam_val, steps=200):
            th = th_start
            for _ in range(steps):
                th = th - alpha * (a * th + b * lam_val + d)
            return th

        def lv(th):
            return 0.5 * (th - 1.0) ** 2

        h = 1e-6
        g_unrolled = (lv(unroll(lam0 + h)) - lv(unroll(lam0 - h))) / (2 * h)

        th_conv = unroll(lam0)
        tape = Tape()
        theta = tape.param([[th_conv]])
        lam = tape.param([[lam0]])
        ltr = ad.add(
            ad.add(
                ad.mul(ad.mul(theta, theta), 0.5 * a),
                ad.mul(ad.mul(theta, lam), b),
            ),
            ad.mul(theta, d),
        )
        (dltr,) = ad.grad(ltr, [theta], create_graph=True)
        g = bl.neumann_hypergrad([dltr], [theta], [lam],
                                 [np.array([[th_conv - 1.0]])],
                                 [np.array([[0.0]])], alpha=alpha, q=100)
        rel = abs(g[0][0, 0] - g_unrolled) / max(abs(g_unrolled), 1e-8)
        assert rel <= 5e-2

    def test_hypergrad_through_real_losses_runs(self, rng):
        # full Algorithm-2 flow on actual episode losses
        ds = small_dataset()
        cfg = short_cfg()
        state = bl.init_state(ds, cfg, "meta-interp")
        tape = Tape()
        theta_live = bl._params.bind(state.theta, tape)
        lam_live = bl._params.bind(state.lam, tape)
        rng_i = np.random.default_rng(0)
        pairs = bl._sample_batch(ds, cfg, rng_i)
        ltr = bl.inner_loss(lam_live, theta_live, pairs, cfg, "train", rng_i)
        theta_leaves = bl._params.leaves(theta_live)
        dltr = ad.grad(ltr, theta_leaves, create_graph=True)
        g = bl.hypergrad(state.theta, lam_live, theta_leaves, dltr,
                         ds.meta_val, cfg.inner_lr, cfg.bprime,
                         cfg.neumann_iters, rng_i, tape, cfg.metric)
        lam_arrays = [arr for _, arr in bl._params.named_arrays(state.lam)]
        assert len(g) == len(lam_arrays)
        assert all(np.all(np.isfinite(x)) for x in g)
        assert any(np.any(x != 0) for x in g)


    def test_hypergrad_releases_validation_graph(self, monkeypatch):
        # the Neumann series runs without the validation loss's graph: only
        # its gradient arrays are still held
        ds = small_dataset()
        cfg = short_cfg(max_iters=5, update_period=5)
        state = bl.init_state(ds, cfg, "meta-interp")
        state.iteration = 4
        losses, alive = [], []
        real_grad, real_neumann = ad.grad, bl.neumann_hypergrad

        def spy_grad(outputs, *rest, **kw):
            if isinstance(outputs, DiffValue):
                losses.append(weakref.ref(outputs))
            return real_grad(outputs, *rest, **kw)

        def spy_neumann(*args):
            alive.append(losses[-1]() is not None)
            return real_neumann(*args)

        monkeypatch.setattr(ad, "grad", spy_grad)
        monkeypatch.setattr(bl, "neumann_hypergrad", spy_neumann)
        gc.disable()
        try:
            bl.train_step(state, ds, cfg, "meta-interp")
        finally:
            gc.enable()
        assert len(losses) == 2 and alive == [False]

class TestMetaTrain:
    def test_zero_iters_returns_initial(self):
        ds = small_dataset()
        cfg = short_cfg(max_iters=0)
        state0 = bl.init_state(ds, cfg, "meta-interp")
        res = bl.meta_train(ds, cfg, "meta-interp")
        for (n1, a1), (n2, a2) in zip(
            bl._params.named_arrays(state0.theta), bl._params.named_arrays(res.theta)
        ):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)
        assert res.history == []

    def test_zero_hyper_lr_freezes_lambda(self):
        ds = small_dataset()
        cfg = short_cfg(hyper_lr=0.0, max_iters=20, update_period=5)
        state0 = bl.init_state(ds, cfg, "meta-interp")
        res = bl.meta_train(ds, cfg, "meta-interp")
        for (_, a1), (_, a2) in zip(
            bl._params.named_arrays(state0.lam), bl._params.named_arrays(res.lam)
        ):
            np.testing.assert_array_equal(a1, a2)
        # theta trajectory identical to a run that never updates lambda
        res2 = bl.meta_train(ds, cfg, "protonet-st")
        # protonet-st shares the singleton term but drops the mix term, so
        # compare against meta-interp with hyper updates disabled instead
        cfg3 = short_cfg(hyper_lr=0.0, max_iters=20, update_period=1_000_000)
        cfg3 = bl.TrainConfig(**{**cfg3.__dict__, "update_period": 10_000})
        res3 = bl.meta_train(ds, cfg3, "meta-interp")
        for (_, a1), (_, a2) in zip(
            bl._params.named_arrays(res.theta), bl._params.named_arrays(res3.theta)
        ):
            np.testing.assert_array_equal(a1, a2)

    def test_deterministic_histories(self):
        ds = small_dataset()
        cfg = short_cfg()
        a = bl.meta_train(ds, cfg, "meta-interp")
        b = bl.meta_train(ds, cfg, "meta-interp")
        assert a.history == b.history

    # the C8 configuration and the full set transformer on 2-shot tasks at
    # cardinality 3, as the benchmark's two workloads run them at seed 1
    C8_GEN = dict(way=5, shots=1, queries=10, dim=10, train_tasks=5, val_tasks=6,
                  test_tasks=12, spread=1.5, seed=1)
    C8_TRAIN = dict(update_period=25, hyper_lr=3e-3, batch_size=4, encoder_widths=(32, 16),
                    set_kind="simple", patience=0, seed=1)
    WORKLOADS = [({}, dict(max_iters=100)),
                 (dict(way=3, shots=2, queries=5),
                  dict(max_iters=10, update_period=10, batch_size=2, set_kind="full",
                       interp=itp.InterpConfig(cardinality=3)))]

    @pytest.mark.parametrize("gen,train,work", [(*WORKLOADS[0], 5199), (*WORKLOADS[1], 2747)],
                             ids=["c8", "full-set-2shot"])
    def test_work_meter_pinned(self, gen, train, work):
        # Tape.op_count is deterministic: a change to how a step is laid out
        # must not grow its graph (51.99 and 274.7 nodes per iteration)
        ds = ep.gen_gaussian_tasks(ep.GenConfig(**{**self.C8_GEN, **gen}))
        res = bl.meta_train(ds, bl.TrainConfig(**{**self.C8_TRAIN, **train}), "meta-interp")
        assert res.work == work

    @pytest.mark.parametrize("workload,graph", [(0, (57, 872_800)), (1, (143, 3_392_576))],
                             ids=["c8", "full-set-2shot"])
    def test_update_step_gradient_graph_size_pinned(self, workload, graph, monkeypatch):
        # the create-graph backward of the update step, which the Neumann
        # series sweeps q times: its nodes and their arrays' bytes follow
        # from the shapes alone, so the check is exact on any machine
        gen, train = self.WORKLOADS[workload]
        ds = ep.gen_gaussian_tasks(ep.GenConfig(**{**self.C8_GEN, **gen}))
        cfg = bl.TrainConfig(**{**self.C8_TRAIN, **train})
        state = bl.init_state(ds, cfg, "meta-interp")
        state.iteration = cfg.update_period - 1
        seen = []
        real = ad.grad

        def spy(outputs, inputs, grad_outputs=None, create_graph=False):
            if not create_graph:
                return real(outputs, inputs, grad_outputs)
            tape = outputs.tape
            before = tape.op_count
            out = real(outputs, inputs, grad_outputs, create_graph)
            nodes, stack = {}, list(out)
            while stack:
                v = stack.pop()
                if v.tape is tape and v._idx >= before and v._idx not in nodes:
                    nodes[v._idx] = v
                    stack.extend(v._parents)
            assert len(nodes) == tape.op_count - before  # the result holds them all
            seen.append((len(nodes), sum(v.data.nbytes for v in nodes.values())))
            return out

        monkeypatch.setattr(ad, "grad", spy)
        bl.train_step(state, ds, cfg, "meta-interp")
        assert seen == [graph]

    def test_fused_row_norm_vjp_keeps_the_step_bits(self, monkeypatch):
        # a full-set update step against one whose row-normalization VJP
        # records 13 nodes: every first-order gradient, raw or recorded,
        # has the same bits; the hypergradient sums its second-order terms
        # in another order and agrees to 1e-12 of its largest entry
        gen, train = self.WORKLOADS[1]
        ds = ep.gen_gaussian_tasks(ep.GenConfig(**{**self.C8_GEN, **gen}))
        cfg = bl.TrainConfig(**{**self.C8_TRAIN, **train})

        def step():
            state = bl.init_state(ds, cfg, "meta-interp")
            rng = np.random.default_rng([cfg.seed, 5])
            tape = Tape()
            theta_live, lam_live = _params.bind(state.theta, tape), _params.bind(state.lam, tape)
            ltr = bl.inner_loss(lam_live, theta_live, bl._sample_batch(ds, cfg, rng), cfg,
                                "train", rng)
            theta, lam = _params.leaves(theta_live), _params.leaves(lam_live)
            dltr = ad.grad(ltr, theta, create_graph=True)
            first = [g.data for g in (*ad.grad(ltr, theta + lam), *dltr)]
            return first, bl.hypergrad(state.theta, lam_live, theta, dltr, ds.meta_val,
                                       cfg.inner_lr, cfg.bprime, cfg.neumann_iters, rng,
                                       tape, cfg.metric)

        first, hyper = step()
        monkeypatch.setattr(ad, "normalize_rows", reference.normalize_rows)
        first_ref, hyper_ref = step()
        assert [g.tobytes() for g in first] == [g.tobytes() for g in first_ref]
        top = max(np.abs(g).max() for g in hyper_ref)
        assert all(np.abs(g - w).max() <= 1e-12 * top for g, w in zip(hyper, hyper_ref, strict=True))

    @pytest.mark.parametrize("gen,train", WORKLOADS, ids=["c8", "full-set-2shot"])
    def test_hypergrad_peak_near_the_bytes_it_starts_with(self, gen, train, monkeypatch):
        # the step's graphs are held when the hyper step starts; its sweeps
        # and the validation graph add little on top: the peak reads 1.30x
        # (c8) and 1.26x (full set) of the held bytes, and 1.96x on both
        # when each sweep kept every cotangent to its end and the
        # validation graph lived through the series
        ds = ep.gen_gaussian_tasks(ep.GenConfig(**{**self.C8_GEN, **gen}))
        cfg = bl.TrainConfig(**{**self.C8_TRAIN, **train})
        state = bl.init_state(ds, cfg, "meta-interp")
        state.iteration = cfg.update_period - 1
        seen = []
        real = bl.hypergrad

        def spy(*args):
            held = tracemalloc.get_traced_memory()[0]
            g, peak = traced_peak(lambda: real(*args))
            seen.append((held, held + peak))
            return g

        monkeypatch.setattr(bl, "hypergrad", spy)
        traced_peak(lambda: bl.train_step(state, ds, cfg, "meta-interp"))
        ((held, peak),) = seen
        assert peak <= 1.4 * held

    @pytest.mark.parametrize("gen,train", WORKLOADS, ids=["c8", "full-set-2shot"])
    def test_sweeps_without_a_graph_give_the_graph_bits(self, gen, train):
        # a training step's three kinds of sweep: the first-order gradient,
        # a Neumann HVP and the set-function sweep, each run on the raw
        # backend and recorded as a graph
        ds = ep.gen_gaussian_tasks(ep.GenConfig(**{**self.C8_GEN, **gen}))
        cfg = bl.TrainConfig(**{**self.C8_TRAIN, **train})
        state = bl.init_state(ds, cfg, "meta-interp")
        rng = np.random.default_rng([cfg.seed, 5])
        tape = Tape()
        theta_live, lam_live = _params.bind(state.theta, tape), _params.bind(state.lam, tape)
        ltr = bl.inner_loss(lam_live, theta_live, bl._sample_batch(ds, cfg, rng), cfg,
                            "train", rng)
        theta, lam = _params.leaves(theta_live), _params.leaves(lam_live)
        dltr = ad.grad(ltr, theta, create_graph=True)
        v = [rng.standard_normal(t.shape) for t in theta]
        for outs, ins, cot in ((ltr, theta, None), (dltr, theta, v), (dltr, lam, v)):
            graph = ad.grad(outs, ins, cot, create_graph=True)
            before = tape.op_count
            raw = ad.grad(outs, ins, cot)
            assert tape.op_count == before and all(g.tape is None for g in raw)
            for g, want in zip(raw, graph):
                assert np.array_equal(g.data.view(np.int64), want.data.view(np.int64))

    def test_validation_improves_on_separable_tasks(self):
        wins = 0
        for seed in range(5):
            cfg_gen = ep.GenConfig(way=3, shots=1, queries=4, dim=6,
                                   train_tasks=4, val_tasks=3, test_tasks=4,
                                   spread=1.1, seed=90 + seed)
            ds = ep.gen_gaussian_tasks(cfg_gen)
            cfg = short_cfg(max_iters=300, update_period=50, seed=seed,
                            batch_size=2, encoder_widths=(10, 6))
            state = bl.init_state(ds, cfg, "meta-interp")
            _, acc0 = bl.evaluate_validation(state.lam, state.theta,
                                             ds.meta_val, cfg.metric)
            res = bl.meta_train(ds, cfg, "meta-interp", state=state)
            if res.best_val_acc > acc0:
                wins += 1
        assert wins >= 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        ds = small_dataset()
        cfg = short_cfg(inner_lr=1e12, theta_opt="sgd", max_iters=50,
                        update_period=10)
        with pytest.raises(bl.TrainingDiverged) as err:
            bl.meta_train(ds, cfg, "meta-interp")
        assert "iteration" in str(err.value)

    def test_non_finite_hypergradient_aborts(self, monkeypatch):
        ds = small_dataset()
        cfg = short_cfg(max_iters=10, update_period=5)
        real = bl.hypergrad

        def poisoned(*a, **k):
            g = real(*a, **k)
            g[0] = np.full_like(g[0], np.nan)
            return g

        monkeypatch.setattr(bl, "hypergrad", poisoned)
        with pytest.raises(bl.TrainingDiverged,
                           match="^non-finite hypergradient at iteration 5$"):
            bl.meta_train(ds, cfg, "meta-interp")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_lambda_update_aborts(self):
        ds = small_dataset()
        cfg = short_cfg(max_iters=10, update_period=5, hyper_lr=np.inf,
                        hyper_schedule="constant")
        with pytest.raises(bl.TrainingDiverged,
                           match="^non-finite set-function update at iteration 5$"):
            bl.meta_train(ds, cfg, "meta-interp")

    @pytest.mark.parametrize("set_kind", ["simple", "full"])
    def test_step_tape_freed_by_reference_counting(self, set_kind, monkeypatch):
        # an outer-update step (first- and second-order graphs) leaves no
        # cycle behind: even the parameter leaves every node descends from
        # go as soon as the step returns
        ds = small_dataset()
        cfg = short_cfg(max_iters=5, update_period=5, set_kind=set_kind,
                        set_hidden=8 if set_kind == "full" else None)
        state = bl.init_state(ds, cfg, "meta-interp")
        state.iteration = 4
        refs = []
        real = bl._params.bind

        def spy(params, tape):
            bound = real(params, tape)
            refs.extend(weakref.ref(leaf) for leaf in bl._params.leaves(bound))
            return bound

        monkeypatch.setattr(bl._params, "bind", spy)
        gc.disable()
        try:
            bl.train_step(state, ds, cfg, "meta-interp")
            assert refs
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_protonet_never_allocates_set_params(self):
        ds = small_dataset()
        state = bl.init_state(ds, short_cfg(), "protonet")
        assert isinstance(state.lam, sf.IdentitySet)
        assert bl._params.named_arrays(state.lam) == []

    def test_protonet_st_never_interpolates(self, monkeypatch):
        ds = small_dataset()

        def boom(*a, **k):
            raise AssertionError("add_mix called")

        monkeypatch.setattr(itp, "add_mix", boom)
        cfg = short_cfg(max_iters=12, update_period=6)
        bl.meta_train(ds, cfg, "protonet-st")

    def test_no_bilevel_never_calls_hypergrad(self, monkeypatch):
        ds = small_dataset()

        def boom(*a, **k):
            raise AssertionError("hypergrad called")

        monkeypatch.setattr(bl, "hypergrad", boom)
        cfg = short_cfg(max_iters=12, update_period=6)
        bl.meta_train(ds, cfg, "no-bilevel")

    def test_early_stopping_triggers(self):
        ds = small_dataset(spread=0.05)
        cfg = short_cfg(max_iters=2000, update_period=5, patience=3)
        res = bl.meta_train(ds, cfg, "protonet")
        assert res.stopped_early
        assert res.iteration < 2000


class TestPrunedGradients:
    def _inner(self, set_kind):
        ds = small_dataset()
        cfg = short_cfg(set_kind=set_kind, set_hidden=8 if set_kind == "full" else None,
                        interp=itp.InterpConfig(layer=1, cardinality=3))
        state = bl.init_state(ds, cfg, "meta-interp")
        rng = np.random.default_rng([3, 17])
        pairs = bl._sample_batch(ds, cfg, rng)
        tape = Tape()
        theta_live = bl._params.bind(state.theta, tape)
        lam_live = bl._params.bind(state.lam, tape)
        ltr = bl.inner_loss(lam_live, theta_live, pairs, cfg, "train", rng)
        return (tape, ltr, bl._params.leaves(theta_live),
                bl._params.leaves(lam_live))

    @pytest.mark.parametrize("set_kind", ["simple", "full"])
    def test_subset_bit_equal_to_slice_of_all(self, set_kind):
        tape, ltr, theta, lam = self._inner(set_kind)
        everything = ad.grad(ltr, theta + lam)
        for part, want in ((ad.grad(ltr, theta), everything[:len(theta)]),
                           (ad.grad(ltr, lam), everything[len(theta):])):
            assert [g.data.tobytes() for g in part] == [g.data.tobytes() for g in want]

    @pytest.mark.parametrize("set_kind", ["simple", "full"])
    def test_theta_only_create_graph_records_fewer_nodes(self, set_kind):
        tape, ltr, theta, lam = self._inner(set_kind)
        before = tape.op_count
        ad.grad(ltr, theta, create_graph=True)
        theta_only = tape.op_count - before
        before = tape.op_count
        ad.grad(ltr, theta + lam, create_graph=True)
        assert theta_only < tape.op_count - before


class TestCheckpoints:
    def test_roundtrip_exact(self, tmp_path, rng):
        ds = small_dataset()
        cfg = short_cfg(max_iters=10, update_period=5)
        state = bl.init_state(ds, cfg, "meta-interp")
        bl.meta_train(ds, cfg, "meta-interp", state=state)
        named = bl.state_to_named(state, cfg, "meta-interp")
        path = tmp_path / "state.ckpt"
        bl.save_checkpoint(path, named)
        loaded = bl.load_checkpoint(path)
        assert set(loaded) == set(named)
        for k in named:
            arr = np.asarray(named[k], dtype=np.float64)
            if arr.ndim < 2:
                arr = arr.reshape(1, -1)
            np.testing.assert_array_equal(loaded[k], arr)

    def test_writer_bytes_match_per_value_reference(self, tmp_path, rng):
        def reference(path, named):
            # one "%.17g" per value, the writer's original form
            lines = [bl.CKPT_HEADER]
            for name, arr in named.items():
                arr = np.asarray(arr, dtype=np.float64)
                arr = arr.reshape(1, -1) if arr.ndim < 2 else arr
                lines.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
                lines.extend(" ".join("%.17g" % v for v in row) for row in arr)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        named = {
            "mixed": np.array([[-1.5, 5e-324, 1.7976931348623157e308, 3.0],
                               [-0.0, 0.0, np.nan, np.inf],
                               [-np.inf, 1e-300, -2.2250738585072014e-308, 1e22]]),
            "random": rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-30, 30, (7, 5)),
            "integers": np.arange(-6.0, 6.0).reshape(3, 4),
            "scalar": np.float64(0.1),
            "vector": np.array([1 / 3, -2 / 3]),
            "column": np.array([[1e-17], [-1e17]]),
            "no_rows": np.zeros((0, 3)),
            "no_cols": np.zeros((2, 0)),
        }
        got, want = tmp_path / "got.ckpt", tmp_path / "want.ckpt"
        bl.save_checkpoint(got, named)
        reference(want, named)
        assert got.read_bytes() == want.read_bytes()

    GOOD = ["tensor a 2 2", "1 2", "3 4", "tensor b 1 1", "5"]

    @pytest.mark.parametrize("lines,message", [
        (["# meta-interp-ckpt v0", *GOOD], "expected header '# meta-interp-ckpt v1'"),
        ([*GOOD, "tensor c 1"], "malformed entry line 7: 'tensor c 1'"),
        ([*GOOD, "tensr c 1 1", "6"], "malformed entry line 7: 'tensr c 1 1'"),
        ([*GOOD, "tensor c 2 1", "6"], "tensor c is cut short after 1 of 2 rows"),
        # the row counts are checked row by row, also where the total is right
        (["tensor a 2 2", "1 2 3", "4"], "tensor a row 0 has 3 values, expected 2"),
        (["tensor a 2 2", "1 2", "3"], "tensor a row 1 has 1 values, expected 2"),
        (["tensor a 2 2", "1 2", "3 4 5"], "tensor a row 1 has 3 values, expected 2"),
        (["tensor a 2 2", "1 x", "3 y"], "could not convert string to float: 'x'"),
    ], ids=["header", "short-entry", "not-tensor", "cut-short", "ragged", "short-row",
            "long-row", "bad-number"])
    def test_reader_faults_keep_their_messages(self, tmp_path, lines, message):
        path = tmp_path / "bad.ckpt"
        if lines[0] != "# meta-interp-ckpt v0":
            lines = [bl.CKPT_HEADER, *lines]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            bl.load_checkpoint(path)
        assert str(e.value).endswith(message)

    def test_reader_reads_rows_in_bulk_bit_for_bit(self, tmp_path, rng):
        named = {"a": rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-300, 300, (5, 3)),
                 "b": np.array([[np.nan, -np.inf, -0.0, 5e-324]]), "c": np.zeros((0, 2)),
                 "d": np.zeros((2, 0))}
        path = tmp_path / "t.ckpt"
        bl.save_checkpoint(path, named)
        loaded = bl.load_checkpoint(path)
        for k, arr in named.items():
            assert loaded[k].shape == arr.shape and loaded[k].dtype == np.float64
            assert np.array_equal(loaded[k].view(np.int64), arr.view(np.int64)), k

    def test_model_rebuild_all_kinds(self, tmp_path, rng):
        ds = small_dataset()
        # set_hidden None is the full form's default width, N_HEADS * max(2, (d + 1) // 2)
        for kind, hidden, method in (("simple", None, "meta-interp"), ("full", 8, "meta-interp"),
                                     ("full", None, "meta-interp"),
                                     ("deepsets", None, "meta-interp"),
                                     ("simple", None, "protonet")):
            cfg = short_cfg(set_kind=kind, set_hidden=hidden)
            state = bl.init_state(ds, cfg, method)
            named = bl.model_to_named(state.theta, state.lam, cfg)
            path = tmp_path / f"{kind}-{hidden}-{method}.ckpt"
            bl.save_checkpoint(path, named)
            theta, lam, metric = bl.model_from_named(bl.load_checkpoint(path))
            assert metric == cfg.metric
            for (n, a), (m, b) in zip(_params.named_arrays(state.lam),
                                      _params.named_arrays(lam), strict=True):
                assert n == m
                np.testing.assert_array_equal(a, b)
            task = ds.meta_test[0]
            a = pn.task_accuracy(state.lam, state.theta, task)
            b = pn.task_accuracy(lam, theta, task)
            assert a == b

    def test_checkpoint_records_the_rate_the_set_function_holds(self):
        # a resume keeps the full form's stored rate whatever the config
        # says, so its next checkpoint must record that rate too
        ds = small_dataset()
        cfg = short_cfg(set_kind="full", set_hidden=8, max_iters=20, dropout_rate=0.1)
        state = bl.meta_train(ds, cfg, "meta-interp", stop_iteration=10)
        changed = short_cfg(set_kind="full", set_hidden=8, max_iters=20, dropout_rate=0.3)
        restored, method = bl.state_from_named(bl.state_to_named(state, cfg, "meta-interp"))
        bl.meta_train(ds, changed, method, state=restored)
        assert restored.lam.dropout_rate == 0.1
        named = bl.state_to_named(restored, changed, method)
        assert named["meta.dropout_rate"][0, 0] == 0.1
        # the kinds without dropout take no rate and record the full form's
        # default
        simple = short_cfg()
        state = bl.init_state(ds, simple, "meta-interp")
        assert bl.model_to_named(state.theta, state.lam, simple)["meta.dropout_rate"][0, 0] == 0.1

    def test_method_and_set_function_must_fit(self):
        # a method that learns λ needs a set function, and one that does
        # not needs the identity map
        ds = small_dataset()
        cfg = short_cfg()
        for trained, claimed in (("protonet", "protonet-st"), ("meta-interp", "mlti")):
            state = bl.init_state(ds, cfg, trained)
            state.best_theta, state.best_lam = state.theta, state.lam
            named = bl.state_to_named(state, cfg, claimed)
            with pytest.raises(ValueError, match="does not fit"):
                bl.state_from_named(named)

    def test_resume_matches_uninterrupted_tail(self, tmp_path):
        ds = small_dataset()
        cfg = short_cfg(max_iters=30, update_period=5)
        res_full = bl.meta_train(ds, cfg, "meta-interp")

        # interrupt at an evaluation boundary, checkpoint, resume
        state = bl.init_state(ds, cfg, "meta-interp")
        bl.meta_train(ds, cfg, "meta-interp", state=state, stop_iteration=15)
        named = bl.state_to_named(state, cfg, "meta-interp")
        path = tmp_path / "mid.ckpt"
        bl.save_checkpoint(path, named)

        restored, method = bl.state_from_named(bl.load_checkpoint(path))
        assert method == "meta-interp"
        res_tail = bl.meta_train(ds, cfg, method, state=restored)
        tail_rows = [r for r in res_tail.history if r["iter"] > 15]
        want_rows = [r for r in res_full.history if r["iter"] > 15]
        assert tail_rows == want_rows
