import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metainterp import _params
from metainterp import autodiff as ad
from metainterp import setfunc as sf


def random_simple(d, rng, zero_qk=False):
    p = sf.init_simple(d, rng)
    if zero_qk:
        zero_m, zero_r = np.zeros((d, d)), np.zeros((1, d))
        p.w1q = p.w1k = p.w2q = p.w2k = zero_m
        p.b1q = p.b1k = p.b2q = p.b2k = zero_r
        p.seed = zero_r
    else:
        for name in ("b1q", "b1k", "b1v", "b2q", "b2k", "b2v"):
            setattr(p, name, rng.standard_normal((1, d)) * 0.3)
    return p


class TestSimpleForm:
    def test_singleton_is_affine(self, rng):
        # stated closed form: singleton softmaxes collapse to weight one
        for _ in range(30):
            d = int(rng.integers(2, 9))
            p = random_simple(d, rng)
            h = rng.standard_normal((1, d))
            M, b = sf.effective_affine(p)
            got = sf.simple_forward(p, h).data
            assert np.max(np.abs(got - (h @ M + b))) <= 1e-12

    def test_pair_uniform_attention_with_zero_qk(self, rng):
        d = 5
        p = random_simple(d, rng, zero_qk=True)
        h, hp = rng.standard_normal((1, d)), rng.standard_normal((1, d))
        alpha, p1, p1t, p2 = sf.alpha_pair(p, h, hp)
        assert (alpha, p1, p1t, p2) == (0.5, 0.5, 0.5, 0.5)
        M, b = sf.effective_affine(p)
        got = sf.simple_forward(p, np.vstack([h, hp])).data
        np.testing.assert_allclose(got, (h + hp) / 2 @ M + b, atol=1e-12)

    def test_pair_closed_form_100_draws(self, rng):
        # direct attention forward vs W(h + a(h'-h)) + b
        for _ in range(100):
            d = int(rng.integers(2, 9))
            p = random_simple(d, rng)
            h, hp = rng.standard_normal((1, d)), rng.standard_normal((1, d))
            alpha, *_ = sf.alpha_pair(p, h, hp)
            M, b = sf.effective_affine(p)
            want = (h + alpha * (hp - h)) @ M + b
            got = sf.simple_forward(p, np.vstack([h, hp])).data
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_alpha_identical_elements(self, rng):
        d = 4
        p = random_simple(d, rng)
        h = rng.standard_normal((1, d))
        alpha, p1, p1t, p2 = sf.alpha_pair(p, h, h)
        assert p1 == pytest.approx(p1t, abs=1e-15)
        pbar = p2 * p1 + (1 - p2) * p1t
        assert alpha == pytest.approx(1 - pbar, abs=1e-12)

    def test_alpha_complements_pbar(self, rng):
        # recompute pbar from the raw softmax matrices independently
        for _ in range(25):
            d = int(rng.integers(2, 7))
            p = random_simple(d, rng)
            h, hp = rng.standard_normal((1, d)), rng.standard_normal((1, d))
            alpha, p1, p1t, p2 = sf.alpha_pair(p, h, hp)
            pbar = p2 * p1 + (1 - p2) * p1t
            assert abs((1 - alpha) - pbar) <= 1e-12
            assert 0.0 <= alpha <= 1.0
            for prob in (p1, p1t, p2):
                assert 0.0 < prob < 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5))
    def test_permutation_invariance_property(self, seed, n):
        rng = np.random.default_rng(seed)
        d = 4
        p = random_simple(d, rng)
        elems = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        a = sf.simple_forward(p, elems).data
        b = sf.simple_forward(p, elems[perm]).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_empty_set_rejected(self, rng):
        p = random_simple(3, rng)
        with pytest.raises(sf.CardinalityError):
            sf.simple_forward(p, np.zeros((0, 3)))

    def test_singleton_batch_matches_per_element(self, rng):
        d = 5
        p = random_simple(d, rng)
        H = rng.standard_normal((7, d))
        batch = sf.singleton_batch(p, H).data
        per = np.vstack([sf.simple_forward(p, H[i : i + 1]).data for i in range(7)])
        # same arithmetic, but BLAS vectorizes the batch differently
        np.testing.assert_allclose(batch, per, atol=1e-12)


class TestFullSetTransformer:
    def params(self, rng, d=6, dh=16, rate=0.1):
        return sf.init_full(d, dh, rng, dropout_rate=rate)

    def test_permutation_invariance(self, rng):
        p = self.params(rng)
        elems = rng.standard_normal((2, 6))
        a = sf.full_forward(p, elems).data
        b = sf.full_forward(p, elems[::-1]).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_eval_mode_deterministic(self, rng):
        p = self.params(rng)
        elems = rng.standard_normal((3, 6))
        a = sf.full_forward(p, elems).data
        b = sf.full_forward(p, elems).data
        np.testing.assert_array_equal(a, b)

    def test_mask_draws_give_distinct_outputs(self, rng):
        # 20 independent mask draws: at least 19 distinct outputs
        p = self.params(rng)
        elems = rng.standard_normal((2, 6))
        outs = set()
        for t in range(20):
            masks = sf.make_full_masks(p, 2, np.random.default_rng([3, t]))
            outs.add(sf.full_forward(p, elems, masks).data.tobytes())
        assert len(outs) >= 19

    def test_mask_shape_mismatch_rejected(self, rng):
        p = self.params(rng)
        elems = rng.standard_normal((2, 6))
        bad = (np.ones((1, p.hidden)), np.ones((1, p.hidden)))
        with pytest.raises(ad.ShapeError):
            sf.full_forward(p, elems, bad)

    def test_output_width_matches_input(self, rng):
        p = self.params(rng)
        out = sf.full_forward(p, rng.standard_normal((1, 6)))
        assert out.shape == (1, 6)

    def test_singleton_batch_matches_per_element(self, rng):
        p = self.params(rng)
        H = rng.standard_normal((4, 6))
        batch = sf.singleton_batch(p, H).data
        per = np.vstack([sf.full_forward(p, H[i : i + 1]).data for i in range(4)])
        np.testing.assert_allclose(batch, per, atol=1e-12)

    def test_singleton_batch_with_masks(self, rng):
        p = self.params(rng)
        H = rng.standard_normal((4, 6))
        m2, m3 = sf.make_masks(p, 4, np.random.default_rng(9), set_size=1)
        batch = sf.singleton_batch(p, H, (m2, m3)).data
        per = np.vstack(
            [
                sf.full_forward(p, H[i : i + 1], (m2[i : i + 1], m3[i : i + 1])).data
                for i in range(4)
            ]
        )
        np.testing.assert_allclose(batch, per, atol=1e-12)

    def test_hidden_width_must_split_into_heads(self, rng):
        with pytest.raises(ValueError):
            sf.init_full(6, 10, rng)
        with pytest.raises(ValueError, match="positive multiple"):
            sf.init_full(6, 0, rng)


class TestDeepSets:
    def test_identity_stacks_mean_pool(self, rng):
        p = sf.DeepSetsParams(pre=[], post=[])
        a, b = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
        out = sf.deepsets_forward(p, np.vstack([a, b])).data
        np.testing.assert_array_equal(out, (a + b) / 2)

    def test_permutation_invariance(self, rng):
        p = sf.init_deepsets(5, (7,), rng)
        elems = rng.standard_normal((4, 5))
        a = sf.deepsets_forward(p, elems).data
        b = sf.deepsets_forward(p, elems[[2, 0, 3, 1]]).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_duplicate_equals_singleton(self, rng):
        p = sf.init_deepsets(5, (7,), rng)
        h = rng.standard_normal((1, 5))
        a = sf.deepsets_forward(p, np.vstack([h, h])).data
        b = sf.deepsets_forward(p, h).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(sf.CardinalityError):
            sf.deepsets_forward(sf.DeepSetsParams([], []), np.zeros((0, 5)))


class TestKinds:
    def test_codes_in_checkpoint_order(self):
        assert list(sf.KINDS) == ["identity", "simple", "full", "deepsets"]

    @pytest.mark.parametrize("kind", list(sf.KINDS))
    def test_build_gives_its_kind(self, kind):
        rng = np.random.default_rng(0)
        p = sf.build(kind, 6, rng, hidden=8, dropout_rate=0.2)
        assert isinstance(p, sf.KINDS[kind]) and sf.kind_of(p) == kind
        if kind == "identity":  # draws nothing, so the init stream is unchanged
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_build_matches_the_kind_initializers(self):
        def arrays(p):
            return [a for _, a in _params.named_arrays(p)]

        def rng():
            return np.random.default_rng(5)

        for built, want in (
                (sf.build("simple", 6, rng()), sf.init_simple(6, rng())),
                (sf.build("full", 6, rng()), sf.init_full(6, None, rng())),
                (sf.build("deepsets", 6, rng()), sf.init_deepsets(6, (8,), rng()))):
            for a, b in zip(arrays(built), arrays(want), strict=True):
                np.testing.assert_array_equal(a, b)

    def test_unknown_kind_raises(self, rng):
        with pytest.raises(ValueError, match="unknown set kind"):
            sf.build("transformer", 6, rng)


class TestDispatch:
    def test_identity_singleton_only(self, rng):
        h = rng.standard_normal((1, 3))
        out = sf.set_forward(sf.IdentitySet(), h)
        np.testing.assert_array_equal(out.data, h)
        with pytest.raises(sf.CardinalityError):
            sf.set_forward(sf.IdentitySet(), np.vstack([h, h]))

    @pytest.mark.parametrize("kind", list(sf.KINDS))
    @pytest.mark.parametrize("set_size", [None, 1, 2])
    def test_no_rows_rejected_at_every_set_size(self, kind, set_size):
        lam = sf.build(kind, 4, np.random.default_rng(0), hidden=8)
        with pytest.raises(sf.CardinalityError):
            sf.set_forward(lam, np.zeros((0, 4)), set_size=set_size)

    def test_gradients_flow_through_simple(self, rng):
        from conftest import fd_grad, rel_err

        d = 4
        p = random_simple(d, rng)
        h, hp = rng.standard_normal((1, d)), rng.standard_normal((1, d))

        def loss_given(w1q):
            q = sf.SimpleSetParams(**{**p.__dict__, "w1q": w1q})
            return ad.sum_all(sf.simple_forward(q, np.vstack([h, hp]))).item()

        tape = ad.Tape()
        live = sf.SimpleSetParams(**{**p.__dict__, "w1q": tape.param(p.w1q)})
        out = ad.sum_all(sf.simple_forward(live, np.vstack([h, hp])))
        (g,) = ad.grad(out, [live.w1q])
        want = fd_grad(loss_given, p.w1q)
        assert rel_err(g.data, want) <= 1e-5


def _batched_case(kind, rng):
    d = 4
    if kind == "simple":
        return random_simple(d, rng)
    if kind == "full":
        return sf.init_full(d, 16, rng, dropout_rate=0.2)
    return sf.init_deepsets(d, (6,), rng)


_BATCH_CASES = [
    (kind, n, sets, masked)
    for kind in ("simple", "full", "deepsets")
    for n in range(1, 6)
    for sets in (1, 5, 12)
    for masked in ((False, True) if kind == "full" else (False,))
]


class TestBatchedSets:
    @pytest.mark.parametrize("kind,n,sets,masked", _BATCH_CASES)
    def test_matches_per_set_loop(self, kind, n, sets, masked, rng):
        # one pass over `sets` sets of n rows vs one set_forward per set:
        # outputs and first-order gradients (parameters and rows) agree
        params = _batched_case(kind, rng)
        x0 = rng.standard_normal((n * sets, 4))
        weights = ad.DiffValue.const(rng.standard_normal((sets, 4)))
        masks = sf.make_masks(params, n * sets, rng, set_size=n) if masked else None

        def run(batched):
            tape = ad.Tape()
            lam = _params.bind(params, tape)
            x = tape.param(x0)
            if batched:
                out = sf.set_forward(lam, x, masks, set_size=n)
            else:
                out = None
                for p in range(sets):
                    m = None if masks is None else (
                        masks[0][p * n:(p + 1) * n], masks[1][p:p + 1])
                    z = sf.set_forward(lam, ad.take_rows(x, np.arange(p * n, (p + 1) * n)), m)
                    out = z if out is None else ad.concat_rows(out, z)
            leaves = _params.leaves(lam) + [x]
            grads = ad.grad(ad.sum_all(ad.mul(out, weights)), leaves)
            return out.data, [g.data for g in grads]

        def dev(a, b):  # absolute below 1, relative above: summation order differs
            return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))

        got, got_grads = run(True)
        want, want_grads = run(False)
        assert got.shape == (sets, 4)
        assert dev(got, want) <= 1e-12
        for g, w in zip(got_grads, want_grads):
            assert dev(g, w) <= 1e-12

    def test_rows_must_split_into_sets(self, rng):
        p = random_simple(3, rng)
        with pytest.raises(sf.CardinalityError):
            sf.set_forward(p, rng.standard_normal((5, 3)), set_size=2)

    def test_set_masks_drawn_set_by_set(self, rng):
        # sets of 2+: each set's site-2 rows, then its site-3 row
        p = sf.init_full(4, 8, rng, dropout_rate=0.3)
        m2, m3 = sf.make_masks(p, 6, np.random.default_rng(4), set_size=3)
        ref = np.random.default_rng(4)
        for s in range(2):
            np.testing.assert_array_equal(m2[3 * s:3 * s + 3], ref.random((3, 8)) < 0.7)
            np.testing.assert_array_equal(m3[s:s + 1], ref.random((1, 8)) < 0.7)


def _attend_per_head(block, queries, keys_values, sets, one_key, packed_projections=False):
    """The head loop that the batched `_attend` replaced, built from
    primitives: each head's projections, attention weights and layer norm,
    the heads' outputs joined side by side. With packed_projections each
    head's Q, K and V are its columns of the packed affines."""
    outs, h = [], len(block.heads)
    for j, head in enumerate(block.heads):
        if packed_projections:
            w = block.packed

            def project(x, weight, bias):
                m = x.shape[0]
                return ad.take_rows(ad.heads_to_rows(ad.affine(x, weight, bias), h),
                                    np.arange(j * m, (j + 1) * m))

            q = project(queries, w.wq, w.bq)
            k = None if one_key else project(keys_values, w.wk, w.bk)
            v = project(keys_values, w.wv, w.bv)
        else:
            q = ad.affine(queries, head.wq, head.bq)
            k = None if one_key else ad.affine(keys_values, head.wk, head.bk)
            v = ad.affine(keys_values, head.wv, head.bv)
        if k is not None:
            # one head's attention, set by set
            v = ad.matmul(sf._weights(q, k, sets), v, sets)
        outs.append(ad.scale_shift(ad.normalize_rows(ad.add(q, v)), head.ln_gain, head.ln_bias))
    return ad.concat_cols(*outs)


class TestBatchedHeads:
    @pytest.mark.parametrize("n,sets,masked", [
        (n, sets, masked) for n in (1, 2, 3) for sets in (1, 5) for masked in (False, True)])
    def test_matches_per_head_loop(self, n, sets, masked, rng, monkeypatch):
        p = sf.init_full(10, 20, rng, dropout_rate=0.2)
        x0 = rng.standard_normal((n * sets, 10))
        weights = ad.DiffValue.const(rng.standard_normal((sets, 10)))
        masks = sf.make_masks(p, n * sets, rng, set_size=n) if masked else None
        batched_attend = sf._attend

        def run(attend):
            monkeypatch.setattr(sf, "_attend", attend)
            tape = ad.Tape()
            lam = _params.bind(p, tape)
            x = tape.param(x0)  # the encoder rows, through which θ's gradient flows
            out = sf.set_forward(lam, x, masks, set_size=n)
            grads = ad.grad(ad.sum_all(ad.mul(out, weights)), _params.leaves(lam) + [x])
            return out.data, [g.data for g in grads]

        got, got_grads = run(batched_attend)
        for packed in (True, False):
            want, want_grads = run(
                lambda *a: _attend_per_head(*a, packed_projections=packed))
            if packed:
                assert got.tobytes() == want.tobytes()
            else:
                # one (m, H k) projection may round unlike H (m, k) ones
                assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
            # the backward adds the heads' terms in another order
            scale = max(np.max(np.abs(w)) for w in want_grads)
            for g, w in zip(got_grads, want_grads):
                assert np.max(np.abs(g - w)) <= 1e-12 * scale

    def test_packed_once_per_block(self, rng):
        # the packed head tensors are built at the first forward of a bound
        # block and reused by the next; a new binding packs afresh
        p = sf.init_full(4, 8, rng)
        tape = ad.Tape()
        lam = _params.bind(p, tape)
        x = rng.standard_normal((3, 4))
        sf.set_forward(lam, x)
        first = tape.op_count
        sf.set_forward(lam, x)
        assert tape.op_count - first == first - 3 * 8 - len(_params.leaves(lam))
        packed = lam.block1.packed
        np.testing.assert_array_equal(
            packed.wq.data, np.hstack([hd.wq.data for hd in lam.block1.heads]))
        assert _params.bind(p, tape).block1.packed is not packed
