from dataclasses import dataclass

import numpy as np
import pytest

from metainterp import autodiff as ad
from metainterp import episodes as ep
from metainterp import interpolate as itp
from metainterp import protonet as pn
from metainterp import setfunc as sf

from conftest import fused_prototypes


@dataclass
class FirstElement:
    """Test-only set function: returns the first element unchanged."""


@sf.set_forward.register
def _(params: FirstElement, elems, masks=None, set_size=None):
    rows = ad._lift(elems)
    n = rows.shape[0] if set_size is None else set_size
    pick = np.zeros((rows.shape[0] // n, rows.shape[0]))
    pick[np.arange(len(pick)), np.arange(0, rows.shape[0], n)] = 1.0
    return ad.matmul(ad.DiffValue.const(pick), rows)


def identity_encoder(dim, layers=1, split=0):
    ls = [pn.LayerParams(np.eye(dim), np.zeros((1, dim))) for _ in range(layers)]
    return pn.EncoderParams(layers=ls, split=split)


def make_task(way, shots, queries, dim, seed, spread=0.5):
    cfg = ep.GenConfig(way=way, shots=shots, queries=queries, dim=dim,
                       train_tasks=1, val_tasks=1, test_tasks=1,
                       spread=spread, seed=seed)
    return ep.gen_gaussian_tasks(cfg).meta_train[0]


def id_pairing(way):
    ks = np.arange(1, way + 1)
    return itp.ClassPairing(ks.copy(), ks.copy())


class TestPairClasses:
    def test_way_one_is_identity(self):
        p = itp.pair_classes(1, np.random.default_rng(0))
        assert list(p.sigma1) == [1] and list(p.sigma2) == [1]

    def test_outputs_bijective(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = itp.pair_classes(5, rng)
            assert sorted(p.sigma1) == [1, 2, 3, 4, 5]
            assert sorted(p.sigma2) == [1, 2, 3, 4, 5]

    def test_all_36_ordered_pairs_reachable(self):
        # K=3: 6 permutations each side, 36 ordered pairs, ~1/36 frequency
        rng = np.random.default_rng(2)
        counts = {}
        n = 10_000
        for _ in range(n):
            p = itp.pair_classes(3, rng)
            key = (tuple(p.sigma1), tuple(p.sigma2))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 36
        for c in counts.values():
            assert abs(c / n - 1 / 36) <= 0.01

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            itp.ClassPairing(np.array([1, 1]), np.array([1, 2]))
        # out of 1..K, not one row, no row at all, or not of an integer
        # dtype (which used to be truncated into 1..K), in either permutation
        for bad in ([0, 1], [1, 3], [[1, 2]], 1, [1.5, 2], [1.0, 2.0],
                    np.array([2, 1], dtype=np.float32)):
            for args in ((bad, [1, 2]), ([2, 1], bad)):
                with pytest.raises(ValueError, match="not a permutation"):
                    itp.ClassPairing(*args)
        for args in (([True], [1]), ([1], [True])):
            with pytest.raises(ValueError, match="not a permutation"):
                itp.ClassPairing(*args)
        pairing = itp.ClassPairing(np.array([2, 1], dtype=np.uint8), [1, 2])
        assert pairing.sigma1.dtype == np.int64 and pairing.sigma1.tolist() == [2, 1]


def build_pairs(task1, task2, pairing, k):
    """Support pairs (task1 row, task2 row) of new class k, as the
    cardinality-2 fused sets of `_class_sets` index them."""
    a = np.flatnonzero(task1.ys == pairing.sigma1[k - 1])
    b = np.flatnonzero(task2.ys == pairing.sigma2[k - 1])
    sets = itp._class_sets(a, b, 1, 1, np.random.default_rng(0))
    return [(int(i), int(j)) for i, j in sets]


class TestBuildPairs:
    def test_one_shot_single_pair(self):
        t1 = make_task(2, 1, 1, 3, seed=1)
        t2 = make_task(2, 1, 1, 3, seed=2)
        pairs = build_pairs(t1, t2, id_pairing(2), 1)
        assert len(pairs) == 1

    def test_cross_product_count(self):
        t1 = make_task(2, 2, 1, 3, seed=3)
        t2 = make_task(2, 3, 1, 3, seed=4)
        pairs = build_pairs(t1, t2, id_pairing(2), 1)
        assert len(pairs) == 6
        assert len(set(pairs)) == 6

    def test_matches_double_loop_enumeration(self):
        t1 = make_task(3, 2, 1, 3, seed=5)
        t2 = make_task(3, 4, 1, 3, seed=6)
        pairing = itp.pair_classes(3, np.random.default_rng(7))
        for k in range(1, 4):
            want = []
            for i, ya in enumerate(t1.ys):
                if ya != pairing.sigma1[k - 1]:
                    continue
                for j, yb in enumerate(t2.ys):
                    if yb == pairing.sigma2[k - 1]:
                        want.append((i, j))
            assert build_pairs(t1, t2, pairing, k) == want

    def test_product_law_all_shot_combos(self):
        for s1 in range(1, 5):
            for s2 in range(1, 5):
                t1 = make_task(2, s1, 1, 3, seed=10 + s1)
                t2 = make_task(2, s2, 1, 3, seed=20 + s2)
                pairs = build_pairs(t1, t2, id_pairing(2), 2)
                assert len(pairs) == s1 * s2


class TestInterpolatedPrototypes:
    def test_mean_pool_identity_encoder_one_shot(self):
        t1 = make_task(2, 1, 1, 4, seed=8)
        t2 = make_task(2, 1, 1, 4, seed=9)
        theta = identity_encoder(4)
        lam = sf.DeepSetsParams(pre=[], post=[])
        cfg = itp.InterpConfig(strategy="support")
        protos = fused_prototypes(lam, theta, t1, t2, id_pairing(2), cfg)
        for k in (1, 2):
            x1 = t1.xs[t1.ys == k][0]
            x2 = t2.xs[t2.ys == k][0]
            np.testing.assert_allclose(protos[k - 1], (x1 + x2) / 2, atol=1e-12)

    def test_simple_setfunc_linear_upper_closed_form(self, rng):
        # independent oracle: mean over pairs of g(W(h1 + a(h2-h1)) + b)
        d, dim_out = 4, 3
        t1 = make_task(2, 2, 1, d, seed=12)
        t2 = make_task(2, 3, 1, d, seed=13)
        lam = sf.init_simple(d, rng)
        upper = pn.LayerParams(rng.standard_normal((d, dim_out)), rng.standard_normal((1, dim_out)))
        theta = pn.EncoderParams(layers=[upper], split=0)
        pairing = itp.pair_classes(2, np.random.default_rng(14))
        cfg = itp.InterpConfig(strategy="support")
        got = fused_prototypes(lam, theta, t1, t2, pairing, cfg)

        M, b = sf.effective_affine(lam)
        for k in (1, 2):
            acc = []
            for i, j in build_pairs(t1, t2, pairing, k):
                h1 = t1.xs[i].reshape(1, -1)
                h2 = t2.xs[j].reshape(1, -1)
                alpha, *_ = sf.alpha_pair(lam, h1, h2)
                fused = (h1 + alpha * (h2 - h1)) @ M + b
                acc.append(fused @ upper.w + upper.b)
            want = np.mean(acc, axis=0)
            assert np.max(np.abs(got[k - 1] - want)) <= 1e-9

    def test_self_interpolation_duplicate_pairs(self, rng):
        t1 = make_task(2, 2, 1, 4, seed=15)
        lam = sf.init_simple(4, rng)
        theta = identity_encoder(4, layers=2, split=1)
        cfg = itp.InterpConfig(strategy="support")
        got = fused_prototypes(lam, theta, t1, t1, id_pairing(2), cfg)
        # direct computation: mean over all (i, j) pairs of upper(phi({h_i, h_j}))
        for k in (1, 2):
            hs = [pn.encode_lower(theta, x.reshape(1, -1)).data for x in t1.xs[t1.ys == k]]
            acc = []
            for hi in hs:
                for hj in hs:
                    z = sf.simple_forward(lam, np.vstack([hi, hj])).data
                    acc.append(pn.encode_upper(theta, z).data)
            want = np.mean(acc, axis=0)
            np.testing.assert_allclose(got[k - 1], want[0], atol=1e-12)

    def test_swap_symmetry_of_prototype_construction(self, rng):
        t1 = make_task(2, 2, 2, 4, seed=16)
        t2 = make_task(2, 3, 2, 4, seed=17)
        lam = sf.init_simple(4, rng)
        theta = identity_encoder(4, layers=2, split=1)
        cfg = itp.InterpConfig(strategy="support")
        pairing = itp.pair_classes(2, np.random.default_rng(18))
        swapped = itp.ClassPairing(pairing.sigma2.copy(), pairing.sigma1.copy())
        a = fused_prototypes(lam, theta, t1, t2, pairing, cfg)
        b = fused_prototypes(lam, theta, t2, t1, swapped, cfg)
        np.testing.assert_allclose(a, b, atol=1e-12)


def per_set_prototypes(lam, theta, task1, task2, pairing, n, rng):
    """The per-set algorithm the batched pass replaces, in train mode: per
    class, draw every set's extra members, then per set its dropout masks,
    one set_forward and one upper-stack pass; the class mean of the lifted
    rows is the prototype."""
    def extras(anchor, count, size):
        if count <= 0:
            return []
        others = [i for i in range(size) if i != anchor]
        if len(others) >= count:
            return list(rng.choice(others, size=count, replace=False))
        return list(rng.integers(size, size=count))

    keep = 1.0 - lam.dropout_rate
    n1, n2 = (n + 1) // 2, n // 2
    protos = []
    for k in range(1, task1.way + 1):
        sup1 = task1.xs[task1.ys == pairing.sigma1[k - 1]]
        sup2 = task2.xs[task2.ys == pairing.sigma2[k - 1]]
        h1 = pn.encode_lower(theta, sup1)
        h2 = pn.encode_lower(theta, sup2)
        sets = []
        for i in range(len(sup1)):
            for j in range(len(sup2)):
                rows = [h1.data[i]] + [h1.data[e] for e in extras(i, n1 - 1, len(sup1))]
                rows += [h2.data[j]] + [h2.data[e] for e in extras(j, n2 - 1, len(sup2))]
                sets.append(rows)
        lifted = []
        for rows in sets:
            m2 = (rng.random((n, lam.hidden)) < keep).astype(np.float64)
            m3 = (rng.random((1, lam.hidden)) < keep).astype(np.float64)
            z = sf.full_forward(lam, np.vstack(rows), (m2, m3))
            lifted.append(pn.encode_upper(theta, z).data)
        protos.append(np.mean(lifted, axis=0))
    return np.vstack(protos)


def test_batched_prototypes_match_per_set_algorithm():
    rng = np.random.default_rng(41)
    t1 = make_task(3, 2, 2, 4, seed=42)
    t2 = make_task(3, 2, 2, 4, seed=43)
    theta = pn.init_encoder([4, 6, 5], split=1, rng=rng)
    lam = sf.init_full(6, 8, rng, dropout_rate=0.2)
    pairing = itp.pair_classes(3, np.random.default_rng(44))
    cfg = itp.InterpConfig(strategy="support", cardinality=3)
    got_rng, want_rng = np.random.default_rng(45), np.random.default_rng(45)
    got = fused_prototypes(lam, theta, t1, t2, pairing, cfg, "train", got_rng)
    want = per_set_prototypes(lam, theta, t1, t2, pairing, 3, want_rng)
    sf.make_masks(lam, len(t1.yq), want_rng, set_size=1)  # the episode's queries
    assert np.max(np.abs(got - want)) <= 1e-12
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestLossMix:
    def test_single_class_loss_zero(self, rng):
        t1 = make_task(1, 2, 3, 3, seed=19)
        t2 = make_task(1, 2, 3, 3, seed=20)
        lam = sf.init_simple(3, rng)
        theta = identity_encoder(3)
        loss = itp.loss_mix(lam, theta, t1, t2, id_pairing(1),
                            itp.InterpConfig(), mode="eval")
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_first_element_collapse_equals_singleton(self, rng):
        t1 = make_task(3, 2, 3, 4, seed=21)
        t2 = make_task(3, 2, 3, 4, seed=22)
        theta = pn.init_encoder([4, 5, 4], split=1, rng=rng)
        pairing = itp.pair_classes(3, np.random.default_rng(23))
        mixed = itp.loss_mix(FirstElement(), theta, t1, t2, pairing,
                             itp.InterpConfig(), mode="eval")
        single = pn.loss_singleton(FirstElement(), theta, t1, mode="eval")
        assert mixed.item() == pytest.approx(single.item(), abs=1e-12)

    def test_hand_built_two_way_one_shot(self):
        # identity encoder, mean-pool set function: everything scalar-checkable
        x11, x12 = np.array([0.0, 0.0]), np.array([4.0, 0.0])
        x21, x22 = np.array([0.0, 2.0]), np.array([4.0, 2.0])
        q = np.array([1.0, 0.0])
        t1 = ep.Task([x11, x12], [1, 2], [q], [1], way=2)
        t2 = ep.Task([x21, x22], [1, 2], [q * 0], [1], way=2)
        theta = identity_encoder(2)
        lam = sf.DeepSetsParams(pre=[], post=[])
        c1 = (x11 + x21) / 2
        c2 = (x12 + x22) / 2
        d1, d2 = np.sum((q - c1) ** 2), np.sum((q - c2) ** 2)
        want = -np.log(np.exp(-d1) / (np.exp(-d1) + np.exp(-d2)))
        got = itp.loss_mix(lam, theta, t1, t2, id_pairing(2),
                           itp.InterpConfig(), mode="eval")
        assert got.item() == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("strategy", itp.STRATEGIES)
    def test_all_strategies_finite_nonnegative(self, strategy, rng):
        t1 = make_task(3, 2, 3, 4, seed=24)
        t2 = make_task(3, 2, 3, 4, seed=25)
        lam = sf.init_simple(4, rng)
        theta = pn.init_encoder([4, 4, 3], split=1, rng=rng)
        cfg = itp.InterpConfig(strategy=strategy)
        loss = itp.loss_mix(lam, theta, t1, t2, itp.pair_classes(3, np.random.default_rng(26)),
                            cfg, mode="train", rng=np.random.default_rng(27))
        val = loss.item()
        assert np.isfinite(val) and val >= 0.0

    def test_cardinality_above_two_runs(self, rng):
        t1 = make_task(2, 3, 2, 4, seed=28)
        t2 = make_task(2, 3, 2, 4, seed=29)
        lam = sf.init_simple(4, rng)
        theta = identity_encoder(4)
        for n in (3, 4, 5):
            cfg = itp.InterpConfig(strategy="support", cardinality=n)
            loss = itp.loss_mix(lam, theta, t1, t2, id_pairing(2), cfg,
                                mode="eval", rng=np.random.default_rng(30))
            assert np.isfinite(loss.item())

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            itp.InterpConfig(strategy="swizzle")

    @pytest.mark.parametrize("strategy,cardinality", [
        ("query", 2), ("support_and_query", 2), ("support_noise", 2), ("support", 3)])
    def test_eval_draw_without_rng_raises(self, strategy, cardinality, rng):
        # query partners, noise rows and extra set members are drawn in eval
        # mode too; without a generator the loss is not built
        t1 = make_task(3, 2, 3, 4, seed=24)
        t2 = make_task(3, 2, 3, 4, seed=25)
        lam = sf.init_simple(4, rng)
        theta = pn.init_encoder([4, 4, 3], split=1, rng=rng)
        cfg = itp.InterpConfig(strategy=strategy, cardinality=cardinality)
        with pytest.raises(ValueError, match="no rng"):
            itp.loss_mix(lam, theta, t1, t2, id_pairing(3), cfg, mode="eval")

    @pytest.mark.parametrize("with_rng", [True, False], ids=["rng", "no-rng"])
    @pytest.mark.parametrize("term", ["query", "support_and_query", "mlti"])
    def test_paired_class_without_queries_raises(self, term, with_rng, rng):
        # task2 keeps no query of class 2, the partner class of task1's
        # class 2: every pool is checked before any partner is drawn, so
        # the class is named with or without a generator
        t1 = make_task(3, 2, 3, 4, seed=24)
        t2 = make_task(3, 2, 3, 4, seed=25)
        keep = t2.yq != 2
        t2 = ep.Task(t2.xs, t2.ys, t2.xq[keep], t2.yq[keep], t2.way)
        theta = pn.init_encoder([4, 4, 3], split=1, rng=rng)
        draws = np.random.default_rng(40) if with_rng else None
        with pytest.raises(ValueError, match="^task2 has no queries of class 2$"):
            if term == "mlti":
                mlti_loss(theta, t1, t2, id_pairing(3), (0.5, 0.0), draws)
            else:
                itp.loss_mix(sf.init_simple(4, rng), theta, t1, t2, id_pairing(3),
                             itp.InterpConfig(strategy=term), mode="eval", rng=draws)


def mlti_loss(theta, task1, task2, pairing, beta_params, rng):
    """The manifold-mixup loss of one pair: `add_mlti` in a batch of its own."""
    batch = pn.Batch(sf.IdentitySet(), theta, "eval", rng)
    itp.add_mlti(batch, task1, task2, pairing, beta_params)
    return batch.forward().loss()


class TestMltiBaseline:
    def test_mix_one_reduces_to_singleton(self, rng):
        t1 = make_task(2, 2, 3, 4, seed=31)
        t2 = make_task(2, 2, 3, 4, seed=32)
        theta = pn.init_encoder([4, 5, 4], split=1, rng=rng)
        pairing = itp.pair_classes(2, np.random.default_rng(33))
        got = mlti_loss(theta, t1, t2, pairing, (1.0, 0.0), np.random.default_rng(34))
        want = pn.loss_singleton(sf.IdentitySet(), theta, t1, mode="eval")
        assert got.item() == pytest.approx(want.item(), abs=1e-12)

    def test_half_mix_matches_mean_pool_query_support(self, rng):
        t1 = make_task(2, 2, 3, 4, seed=35)
        t2 = make_task(2, 2, 3, 4, seed=36)
        theta = pn.init_encoder([4, 5, 4], split=1, rng=rng)
        pairing = itp.pair_classes(2, np.random.default_rng(37))
        lam = sf.DeepSetsParams(pre=[], post=[])
        cfg = itp.InterpConfig(strategy="support_and_query")
        a = mlti_loss(theta, t1, t2, pairing, (0.5, 0.0), np.random.default_rng(38))
        b = itp.loss_mix(lam, theta, t1, t2, pairing, cfg, mode="eval",
                         rng=np.random.default_rng(38))
        assert a.item() == pytest.approx(b.item(), abs=1e-12)

    @pytest.mark.parametrize("beta_params", [(2.0, 2.0), (0.5, 0.0)])
    def test_draw_without_rng_raises(self, beta_params, rng):
        # the coefficient (unless pinned) and the query partners are draws
        t1 = make_task(2, 2, 3, 4, seed=31)
        t2 = make_task(2, 2, 3, 4, seed=32)
        theta = pn.init_encoder([4, 5, 4], split=1, rng=rng)
        with pytest.raises(ValueError, match="no rng"):
            mlti_loss(theta, t1, t2, id_pairing(2), beta_params, None)

    def test_beta_draws_in_unit_interval(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            lam = rng.beta(2.0, 2.0)
            assert 0.0 < lam < 1.0
