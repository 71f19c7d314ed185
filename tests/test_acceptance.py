"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Every tolerance is the one stated in the criteria; runtime limits
are asserted too.
"""

import time

import numpy as np
import pytest

from metainterp import autodiff as ad
from metainterp import bilevel as bl
from metainterp import cli
from metainterp import episodes as ep
from metainterp import interpolate as itp
from metainterp import protonet as pn
from metainterp import setfunc as sf
from metainterp import theory as th
from metainterp.autodiff import DiffValue, Tape

from oracles import plain_protonet_loss


def report(name, ok, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail}; {elapsed:.1f}s < {limit}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.1f}s exceeds {limit}s"


def test_c1_closed_form_set_function():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_single = worst_pair = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        p = sf.init_simple(d, rng)
        for name in ("b1q", "b1k", "b1v", "b2q", "b2k", "b2v"):
            setattr(p, name, rng.standard_normal((1, d)) * 0.3)
        h, hp = rng.standard_normal((1, d)), rng.standard_normal((1, d))
        M, b = sf.effective_affine(p)
        single = sf.simple_forward(p, h).data
        worst_single = max(worst_single, float(np.max(np.abs(single - (h @ M + b)))))
        alpha, *_ = sf.alpha_pair(p, h, hp)
        pair = sf.simple_forward(p, np.vstack([h, hp])).data
        want = (h + alpha * (hp - h)) @ M + b
        worst_pair = max(worst_pair, float(np.max(np.abs(pair - want))))
    ok = worst_single <= 1e-12 and worst_pair <= 1e-9
    report("C1 closed-form set function", ok,
           f"singleton {worst_single:.2e} <= 1e-12, pair {worst_pair:.2e} <= 1e-9",
           t0, 5.0)


def _c2_setup():
    rng = np.random.default_rng(5)
    gen = ep.GenConfig(way=3, shots=2, queries=3, dim=4, train_tasks=3,
                       val_tasks=2, test_tasks=2, spread=0.8, seed=3)
    ds = ep.gen_gaussian_tasks(gen)
    theta = pn.init_encoder([4, 5, 4], split=1, rng=rng)
    lam = sf.init_simple(5, rng)
    pairing = itp.pair_classes(3, np.random.default_rng(8))
    cfg = bl.TrainConfig(max_iters=1, batch_size=2, encoder_widths=(5, 4),
                         interp=itp.InterpConfig(layer=1), set_kind="simple",
                         patience=0)
    pairs = [(ds.meta_train[0], ds.meta_train[1], pairing),
             (ds.meta_train[2], ds.meta_train[0], pairing)]

    def build(lam_v, theta_v, which):
        if which == "singleton":
            return pn.loss_singleton(lam_v, theta_v, ds.meta_train[0], "eval")
        if which == "mix":
            return itp.loss_mix(lam_v, theta_v, ds.meta_train[0], ds.meta_train[1],
                                pairing, cfg.interp, "eval")
        return bl.inner_loss(lam_v, theta_v, pairs, cfg, "eval")

    return theta, lam, build


def _flat_params(theta, lam):
    from metainterp import _params

    return _params.named_arrays(theta), _params.named_arrays(lam)


def test_c2_gradient_integrity():
    from metainterp import _params

    t0 = time.perf_counter()
    theta, lam, build = _c2_setup()
    rng = np.random.default_rng(77)
    worst_grad = 0.0
    worst_hvp = 0.0

    for which in ("singleton", "mix", "inner"):
        tape = Tape()
        theta_live = _params.bind(theta, tape)
        lam_live = _params.bind(lam, tape)
        loss = build(lam_live, theta_live, which)
        leaves = _params.leaves(theta_live) + _params.leaves(lam_live)
        grads = ad.grad(loss, leaves, create_graph=True)

        arrays = [a for _, a in _params.named_arrays(theta)] + [
            a for _, a in _params.named_arrays(lam)
        ]

        def loss_at(arrs):
            it = iter(arrs)
            theta_v = _params._map_leaves(theta, lambda _a: next(it))
            lam_v = _params._map_leaves(lam, lambda _a: next(it))
            return build(lam_v, theta_v, which).item()

        # 20 random coordinates, central differences at 1e-5. The losses
        # are only almost-everywhere differentiable (leaky-relu kinks), so
        # a coordinate whose stencil straddles a kink is detected by a
        # two-step Richardson consistency check and redrawn.
        def fd_at(ti, idx, h):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[ti][idx] += h
            minus[ti][idx] -= h
            return (loss_at(plus) - loss_at(minus)) / (2 * h)

        checked = 0
        attempts = 0
        while checked < 20 and attempts < 60:
            attempts += 1
            ti = int(rng.integers(len(arrays)))
            flat = int(rng.integers(arrays[ti].size))
            idx = np.unravel_index(flat, arrays[ti].shape)
            fd = fd_at(ti, idx, 1e-5)
            fd2 = fd_at(ti, idx, 2e-5)
            if abs(fd - fd2) / max(abs(fd), abs(fd2), 1e-8) > 1e-6:
                continue  # kink inside the stencil
            an = grads[ti].data[idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            worst_grad = max(worst_grad, rel)
            checked += 1
        assert checked == 20, f"only {checked} smooth coordinates found"

        # HVP along a random direction vs finite differences of the gradient
        v = [rng.standard_normal(a.shape) for a in arrays]
        inner = None
        for g, vi in zip(grads, v):
            term = ad.sum_all(ad.mul(g, DiffValue.const(vi)))
            inner = term if inner is None else ad.add(inner, term)
        hvps = ad.grad(inner, leaves)

        def grad_at(arrs):
            tape = Tape()
            it = iter(arrs)
            theta_v = _params._map_leaves(theta, lambda _a: tape.param(next(it)))
            it2 = iter(arrs[len(list(_params.named_arrays(theta))):])
            # bind lambda separately from the same array list
            lam_v = _params._map_leaves(lam, lambda _a: tape.param(next(it2)))
            loss = build(lam_v, theta_v, which)
            leaves_v = _params.leaves(theta_v) + _params.leaves(lam_v)
            return [g.data for g in ad.grad(loss, leaves_v)]

        h = 1e-4
        plus = [a + h * vi for a, vi in zip(arrays, v)]
        minus = [a - h * vi for a, vi in zip(arrays, v)]
        gp = grad_at(plus)
        gm = grad_at(minus)
        for hv, p_, m_ in zip(hvps, gp, gm):
            fd = (p_ - m_) / (2 * h)
            denom = max(float(np.max(np.abs(fd))), float(np.max(np.abs(hv.data))), 1e-6)
            worst_hvp = max(worst_hvp, float(np.max(np.abs(hv.data - fd))) / denom)

    ok = worst_grad <= 1e-5 and worst_hvp <= 1e-4
    report("C2 gradient integrity", ok,
           f"grad rel {worst_grad:.2e} <= 1e-5, hvp rel {worst_hvp:.2e} <= 1e-4",
           t0, 60.0)


def test_c3_hypergradient_oracle():
    t0 = time.perf_counter()
    # scalar quadratic: exact closed-form value
    tape = Tape()
    theta = tape.param([[1.0]])
    lam = tape.param([[1.0]])
    diff = ad.sub(theta, lam)
    (dltr,) = ad.grad(ad.scale(ad.mul(diff, diff), 0.5), [theta], create_graph=True)
    g = bl.neumann_hypergrad([dltr], [theta], [lam], [np.array([[1.0]])],
                             [np.array([[0.0]])], alpha=0.5, q=10)
    scalar_err = abs(g[0][0, 0] - 0.99951171875)

    # random 3-parameter quadratics: q=50 against the exact implicit
    # gradient, and error monotone in q
    worst = 0.0
    monotone = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
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
            quad = ad.scale(ad.sum_all(ad.mul(theta, ad.matmul(theta, DiffValue.const(H)))), 0.5)
            cross = ad.sum_all(ad.mul(theta, ad.matmul(lam, DiffValue.const(C.T))))
            (d,) = ad.grad(ad.add(quad, cross), [theta], create_graph=True)
            g = bl.neumann_hypergrad([d], [theta], [lam],
                                     [(th0 - t).reshape(1, -1)],
                                     [np.zeros((1, 2))], alpha=alpha, q=q)
            return float(np.max(np.abs(g[0] - exact)))

        errs = [hg(q) for q in (0, 2, 5, 10, 25, 50)]
        monotone = monotone and all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
        worst = max(worst, errs[-1] / max(float(np.max(np.abs(exact))), 1e-8))

    ok = scalar_err <= 1e-12 and worst <= 1e-6 and monotone
    report("C3 hypergradient oracle", ok,
           f"scalar err {scalar_err:.2e} <= 1e-12, q50 rel {worst:.2e} <= 1e-6, "
           f"monotone {monotone}", t0, 30.0)


def test_c4_taylor_remainder_slopes():
    t0 = time.perf_counter()
    eps_grid = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    slopes1, slopes2 = [], []
    seed = 0
    while len(slopes1) < 5 and seed < 25:
        prob = th.default_thm1_problem(seed)
        seed += 1
        if th.is_degenerate(prob):
            continue
        slopes1.append(th.remainder_slope(prob, 1, eps_grid)[0])
        slopes2.append(th.remainder_slope(prob, 2, eps_grid)[0])
    ok = (
        len(slopes1) == 5
        and min(slopes1) >= 1.8
        and min(slopes2) >= 2.8
    )
    report("C4 Theorem-1 remainder", ok,
           f"J=1 slopes >= {min(slopes1):.2f} (need 1.8), "
           f"J=2 slopes >= {min(slopes2):.2f} (need 2.8)", t0, 60.0)


def test_c5_proposition_1():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for seed in range(5):
        case, pairings = th.build_mirrored(seed)
        res = th.prop1_check(case, pairings)
        worst_gap = max(worst_gap, res["gap"])
    c_ok = True
    for seed in range(100, 120):
        case, _ = th.build_mirrored(seed)
        assert np.all(case.z_values() > 0)
        c_ok = c_ok and case.curvature_coefficient() > 0.0
    ok = worst_gap <= 1e-9 and c_ok
    report("C5 Proposition 1", ok,
           f"gap {worst_gap:.2e} <= 1e-9, c > 0 in 20/20 draws", t0, 30.0)


def test_c6_proposition_2():
    t0 = time.perf_counter()
    worst_margin = np.inf
    all_ok = True
    for n in (4, 8, 12):
        for rank in (1, 2, 4):
            for radius in (1.0, 4.0):
                cfg = th.RademacherConfig(n=n, dim=4, rank=rank, radius=radius,
                                          trials=200, seed=0)
                out = th.rademacher_bound_check(cfg)
                all_ok = all_ok and out["passed"]
                worst_margin = min(worst_margin,
                                   out["bound"] + 3 * out["stderr"] - out["empirical"])
    report("C6 Proposition 2", all_ok,
           f"bound holds on all 18 grid cells, min margin {worst_margin:.3f}",
           t0, 120.0)


def test_c7_vanilla_protonet_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(50):
        gen = ep.GenConfig(way=int(rng.integers(2, 5)), shots=int(rng.integers(1, 4)),
                           queries=3, dim=4, train_tasks=1, val_tasks=1,
                           test_tasks=1, spread=0.9, seed=500 + i)
        task = ep.gen_gaussian_tasks(gen).meta_train[0]
        theta = pn.init_encoder([4, 6, 5], split=1, rng=rng)
        got = pn.loss_singleton(sf.IdentitySet(), theta, task, mode="eval").item()
        want = plain_protonet_loss(theta, task)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report("C7 vanilla reduction", ok, f"max dev {worst:.2e} <= 1e-12", t0, 30.0)


# criterion 8 configuration: a 5-task few-task regime where the plain
# prototypical network memorizes its training tasks (train episode
# accuracy ~1.0, large generalization gap) and the set function gets
# enough outer updates to train at desk scale
C8_GEN = dict(way=5, shots=1, queries=10, dim=10, train_tasks=5,
              val_tasks=6, test_tasks=12, spread=1.5, seed=123)
C8_TRAIN = dict(max_iters=2500, update_period=25, hyper_lr=3e-3,
                batch_size=4, encoder_widths=(32, 16), set_kind="simple",
                patience=0)


def _c8_run(seed, method):
    ds = ep.gen_gaussian_tasks(ep.GenConfig(**C8_GEN))
    cfg = bl.TrainConfig(seed=seed, interp=itp.InterpConfig(layer=1), **C8_TRAIN)
    res = bl.meta_train(ds, cfg, method)
    acc, _ = pn.accuracy(res.best_lam, res.best_theta, ds.meta_test,
                         episodes=500, seed=seed, metric=cfg.metric)
    return acc


def test_c8_end_to_end_directional():
    t0 = time.perf_counter()
    wins_vs_protonet = 0
    st_dominations = 0
    rows = []
    for seed in range(5):
        mi = _c8_run(seed, "meta-interp")
        pnv = _c8_run(seed, "protonet")
        st = _c8_run(seed, "protonet-st")
        rows.append((seed, mi, pnv, st))
        wins_vs_protonet += int(mi >= pnv)
        st_dominations += int(st > mi)
    for seed, mi, pnv, st in rows:
        print(f"  seed {seed}: meta-interp {mi:.3f}  protonet {pnv:.3f}  "
              f"protonet+st {st:.3f}")
    ok = wins_vs_protonet >= 4 and st_dominations <= 1
    report("C8 end-to-end directional", ok,
           f"meta-interp >= protonet in {wins_vs_protonet}/5 seeds (need 4), "
           f"protonet+st dominates in {st_dominations}/5 (allow 1)",
           t0, 900.0)


def test_c9_determinism_of_training_cli(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "way = 3\nshots = 1\nqueries = 3\ndim = 5\ntrain_tasks = 3\n"
        "val_tasks = 2\ntest_tasks = 3\nspread = 1.0\ngen_seed = 2\n"
        "max_iters = 60\nupdate_period = 20\nbatch_size = 2\n"
        "encoder_widths = 8,6\ninterp_layer = 1\nset_kind = simple\n"
        "patience = 0\neval_episodes = 50\n"
    )
    tasks = tmp_path / "tasks.txt"
    cli.main(["gen-tasks", "--config", str(cfg), "--out", str(tasks), "--seed", "2"])
    for out in ("a", "b"):
        rc = cli.main(["train", "--config", str(cfg), "--tasks", str(tasks),
                       "--out-dir", str(tmp_path / out), "--seed", "9"])
        assert rc == 0
    same = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    report("C9 determinism", same, "metrics.csv byte-identical across runs",
           t0, 120.0)


def test_c10_loss_observation_recorded():
    t0 = time.perf_counter()
    ds = ep.gen_gaussian_tasks(ep.GenConfig(way=3, shots=1, queries=3, dim=5,
                                            train_tasks=3, val_tasks=2,
                                            test_tasks=3, spread=1.0, seed=4))
    cfg = bl.TrainConfig(max_iters=60, update_period=20, batch_size=2, seed=0,
                         encoder_widths=(8, 6), interp=itp.InterpConfig(layer=1),
                         set_kind="simple", patience=0)
    res = bl.meta_train(ds, cfg, "meta-interp")
    recorded = all(
        {"iter", "train_loss", "val_loss", "val_acc", "work"} <= set(r)
        for r in res.history
    )
    # reported, not asserted: the augmented objective typically trains
    # higher than the plain one (the memorization-resistance signature)
    res_pn = bl.meta_train(ds, cfg, "protonet")
    print(
        f"  observation: final train loss meta-interp "
        f"{res.history[-1]['train_loss']:.3f} vs protonet "
        f"{res_pn.history[-1]['train_loss']:.3f} (recorded, non-gating)"
    )
    report("C10 loss-curve observation", recorded,
           "train/val losses recorded per evaluation in metrics and report",
           t0, 60.0)
