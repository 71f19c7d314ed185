import gc
import weakref

import numpy as np
import pytest

from metainterp import autodiff as ad
from metainterp.autodiff import DiffValue, Tape

from conftest import analytic_grad, fd_grad, rel_err


class TestForwardValues:
    def test_matmul_identity(self):
        out = ad.matmul([[1.0, 0.0], [0.0, 1.0]], [[2.0], [3.0]])
        np.testing.assert_array_equal(out.data, [[2.0], [3.0]])

    def test_matmul_row_times_col(self):
        out = ad.matmul([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_against_triple_loop(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = ad.matmul(a, b).data
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(
            ad.softmax_rows([[0.0, 0.0]]).data, [[0.5, 0.5]], atol=1e-15
        )

    def test_softmax_single_column(self):
        np.testing.assert_allclose(ad.softmax_rows([[7.3]]).data, [[1.0]], atol=0)

    def test_softmax_no_overflow(self):
        out = ad.softmax_rows([[1000.0, 1000.0]]).data
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.standard_normal((6, 5)) * 50
        s = ad.softmax_rows(x).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s >= 0)

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((4, 5))
        shifted = x + rng.standard_normal((4, 1))  # per-row constant
        np.testing.assert_allclose(
            ad.softmax_rows(x).data, ad.softmax_rows(shifted).data, atol=1e-12
        )

    def test_relu(self):
        np.testing.assert_array_equal(ad.relu([[-1.0, 2.0]]).data, [[0.0, 2.0]])

    def test_layer_norm_two_points(self):
        out = ad.layer_norm([[2.0, 4.0]], [[1.0, 1.0]], [[0.0, 0.0]])
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_dropout_inverted_scaling(self):
        out = ad.dropout([[1.0, 1.0, 1.0, 1.0]], 0.5, [[1.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(out.data, [[2.0, 0.0, 2.0, 0.0]])

    def test_dropout_mask_shape_checked(self):
        with pytest.raises(ad.ShapeError):
            ad.dropout([[1.0, 2.0]], 0.5, [[1.0]])

    def test_log_domain_error(self):
        with pytest.raises(ad.DomainError):
            ad.log([[1.0, -1.0]])

    def test_concat_slice_roundtrip(self, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 4))
        cat = ad.concat_cols(DiffValue.const(a), DiffValue.const(b))
        np.testing.assert_array_equal(ad.slice_cols(cat, 0, 2).data, a)
        np.testing.assert_array_equal(ad.slice_cols(cat, 2, 6).data, b)

    def test_scalar_helpers(self):
        assert ad.mean_all([[1.0, 2.0], [3.0, 4.0]]).item() == 2.5
        assert ad.sum_all([[1.0, 2.0]]).item() == 3.0


class TestGradients:
    def test_dx2_dx(self):
        tape = Tape()
        x = tape.param([[3.0]])
        (g,) = ad.grad(ad.mul(x, x), [x])
        np.testing.assert_array_equal(g.data, [[6.0]])

    CASES = [
        ("matmul_l", (2, 3), lambda x, c: ad.sum_all(ad.matmul(x, c[:6].reshape(3, 2)))),
        ("matmul_r", (3, 2), lambda x, c: ad.sum_all(ad.matmul(c[:6].reshape(2, 3), x))),
        ("add", (2, 3), lambda x, c: ad.sum_all(ad.mul(ad.add(x, c[:6].reshape(2, 3)), x))),
        ("add_rowvec", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.add(c[:6].reshape(2, 3), x)))),
        ("sub", (2, 3), lambda x, c: ad.sum_all(ad.mul(ad.sub(c[:6].reshape(2, 3), x), x))),
        ("mul", (2, 2), lambda x, c: ad.sum_all(ad.mul(x, ad.mul(x, c[:4].reshape(2, 2)))),),
        ("div", (2, 2), lambda x, c: ad.sum_all(ad.div(c[:4].reshape(2, 2), ad.add(ad.mul(x, x), ad.DiffValue.const(np.full((2, 2), 2.0)))))),
        ("scale", (2, 2), lambda x, c: ad.sum_all(ad.scale(ad.mul(x, x), -1.7))),
        ("neg", (2, 2), lambda x, c: ad.sum_all(ad.neg(ad.mul(x, x)))),
        ("exp", (2, 3), lambda x, c: ad.sum_all(ad.exp(x))),
        ("log", (2, 3), lambda x, c: ad.sum_all(ad.log(ad.add(ad.mul(x, x), ad.DiffValue.const(np.full((2, 3), 1.0)))))),
        ("powf", (2, 2), lambda x, c: ad.sum_all(ad.powf(ad.add(ad.mul(x, x), ad.DiffValue.const(np.full((2, 2), 1.0))), 1.5))),
        ("leaky", (2, 3), lambda x, c: ad.sum_all(ad.leaky_relu(x, 0.1))),
        ("row_sum", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.tile_cols(ad.row_sum(x), 2), x))),
        ("col_sum", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.tile_rows(ad.col_sum(x), 3), x))),
        ("transpose", (2, 3), lambda x, c: ad.sum_all(ad.matmul(ad.transpose(x), x))),
        ("concat", (2, 2), lambda x, c: ad.sum_all(ad.exp(ad.concat_cols(x, ad.mul(x, x))))),
        ("slice", (3, 3), lambda x, c: ad.sum_all(ad.mul(ad.slice_rows(x, 1, 3), c[:6].reshape(2, 3)))),
        ("softmax", (2, 4), lambda x, c: ad.sum_all(ad.mul(ad.softmax_rows(x), c[:8].reshape(2, 4)))),
        ("layer_norm", (2, 4), lambda x, c: ad.sum_all(ad.mul(ad.layer_norm(x, c[:4].reshape(1, 4), c[4:8].reshape(1, 4)), c[8:16].reshape(2, 4)))),
        ("dropout", (2, 4), lambda x, c: ad.sum_all(ad.dropout(ad.mul(x, x), 0.25, np.array([[1.0, 0, 1, 1], [0, 1, 1, 0]])))),
        ("log_softmax", (2, 4), lambda x, c: ad.sum_all(ad.mul(ad.log_softmax_rows(x), c[:8].reshape(2, 4)))),
        ("normalize_rows", (3, 4), lambda x, c: ad.sum_all(ad.mul(ad.normalize_rows(x), c[:12].reshape(3, 4)))),
        ("sq_dists_l", (2, 2), lambda x, c: ad.sum_all(ad.mul(ad.pairwise_sq_dists(x, c[:6].reshape(3, 2)), c[6:12].reshape(2, 3)))),
        ("sq_dists_r", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.pairwise_sq_dists(c[:4].reshape(2, 2), x), c[4:10].reshape(2, 3)))),
        ("sq_dists_self", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.pairwise_sq_dists(x, x), c[:9].reshape(3, 3)))),
        ("tile_rows", (1, 3), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.tile_rows(x, 2)), c[:6].reshape(2, 3)))),
        ("tile_cols", (2, 1), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.tile_cols(x, 3)), c[:6].reshape(2, 3)))),
        ("fill_like", (1, 1), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.fill_like(x, (2, 3))), c[:6].reshape(2, 3)))),
    ]

    @pytest.mark.parametrize("name,shape,build", CASES, ids=[c[0] for c in CASES])
    def test_primitive_gradcheck(self, name, shape, build, rng):
        # analytic vs central differences on random inputs, 1e-5 relative
        for trial in range(50):
            x0 = rng.standard_normal(shape) + 0.1  # nudge off relu kinks
            consts = rng.standard_normal(16)
            got = analytic_grad(lambda x: build(x, consts), x0)
            want = fd_grad(lambda x: build(DiffValue.const(x), consts).item(), x0)
            assert rel_err(got, want) <= 1e-5, f"{name} trial {trial}"

    def test_grad_unused_input_is_zero(self):
        tape = Tape()
        x = tape.param([[1.0]])
        y = tape.param([[2.0]])
        (gy,) = ad.grad(ad.mul(x, x), [y])
        np.testing.assert_array_equal(gy.data, [[0.0]])

    def test_grad_input_off_tape_raises(self):
        tape = Tape()
        other = Tape()
        x = tape.param([[1.0]])
        z = other.param([[1.0]])
        with pytest.raises(ad.GraphError):
            ad.grad(ad.mul(x, x), [z])

    def test_grad_outputs_shape_checked(self):
        tape = Tape()
        x = tape.param([[1.0, 2.0]])
        y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            ad.grad(y, [x])  # non-scalar without grad_outputs

    def test_vjp_with_grad_outputs(self, rng):
        a0 = rng.standard_normal((2, 3))
        v = rng.standard_normal((2, 3))
        tape = Tape()
        a = tape.param(a0)
        y = ad.exp(a)
        (g,) = ad.grad(y, [a], grad_outputs=DiffValue.const(v))
        np.testing.assert_allclose(g.data, np.exp(a0) * v, atol=1e-12)


class TestSecondOrder:
    def test_hvp_quadratic(self):
        # f(x) = 0.5 x^T A x with A = diag(2,4); Hessian is A
        tape = Tape()
        x = tape.param([[1.0, 1.0]])
        A = DiffValue.const([[2.0, 0.0], [0.0, 4.0]])
        f = ad.scale(ad.sum_all(ad.mul(x, ad.matmul(x, A))), 0.5)
        (gx,) = ad.grad(f, [x], create_graph=True)
        inner = ad.sum_all(ad.mul(gx, DiffValue.const([[1.0, 1.0]])))
        (hvp,) = ad.grad(inner, [x])
        np.testing.assert_allclose(hvp.data, [[2.0, 4.0]], atol=1e-12)

    def _hvp(self, build, x0, v):
        tape = Tape()
        x = tape.param(x0)
        (gx,) = ad.grad(build(x), [x], create_graph=True)
        inner = ad.sum_all(ad.mul(gx, DiffValue.const(v)))
        (hvp,) = ad.grad(inner, [x])
        return hvp.data

    @pytest.mark.parametrize(
        "case", ["exp_quad", "softmax", "layernorm", "log_softmax", "sq_dists"]
    )
    def test_hvp_matches_fd_of_gradient(self, case, rng):
        shape = (1, 4)
        c = rng.standard_normal((4, 4))

        if case == "exp_quad":
            def build(x):
                return ad.sum_all(ad.exp(ad.matmul(x, DiffValue.const(c))))
        elif case == "softmax":
            def build(x):
                return ad.sum_all(
                    ad.mul(ad.softmax_rows(x), DiffValue.const(c[:1, :]))
                )
        elif case == "log_softmax":
            def build(x):
                return ad.sum_all(
                    ad.mul(ad.log_softmax_rows(ad.mul(x, x)), DiffValue.const(c[:1, :]))
                )
        elif case == "sq_dists":
            # the prototype cross-entropy: log softmax of negative distances
            def build(x):
                d = ad.pairwise_sq_dists(x, DiffValue.const(c[:3, :]))
                return ad.sum_all(
                    ad.mul(ad.log_softmax_rows(ad.neg(d)), DiffValue.const(c[3:4, :3]))
                )
        else:
            def build(x):
                return ad.sum_all(
                    ad.mul(
                        ad.layer_norm(x, np.ones((1, 4)), np.zeros((1, 4))),
                        DiffValue.const(c[1:2, :]),
                    )
                )

        x0 = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        got = self._hvp(build, x0, v)

        # finite differences of the analytic gradient along v, step 1e-4
        h = 1e-4
        gp = analytic_grad(build, x0 + h * v)
        gm = analytic_grad(build, x0 - h * v)
        want = (gp - gm) / (2.0 * h)
        assert rel_err(got, want) <= 1e-4

    def test_third_order_chain(self):
        # f = x^4 -> f''' = 24 x; checks grad-of-grad-of-grad
        tape = Tape()
        x = tape.param([[2.0]])
        x2 = ad.mul(x, x)
        f = ad.mul(x2, x2)
        (g1,) = ad.grad(f, [x], create_graph=True)
        (g2,) = ad.grad(g1, [x], create_graph=True)
        (g3,) = ad.grad(g2, [x])
        np.testing.assert_allclose(g3.data, [[48.0]], atol=1e-10)


    def test_third_order_through_normalize_rows(self, rng):
        # the row-norm VJP's helper node is itself differentiable:
        # <d(H v . w)/dx, u> against a central difference of H v . w along u
        c, v, w, u, x0 = (rng.standard_normal((2, 4)) for _ in range(5))

        def hvp_dot_w(x0, create_graph=False):
            tape = Tape()
            x = tape.param(x0)
            f = ad.sum_all(ad.mul(ad.normalize_rows(x), DiffValue.const(c)))
            (g,) = ad.grad(f, [x], create_graph=True)
            (hv,) = ad.grad(ad.sum_all(ad.mul(g, DiffValue.const(v))), [x],
                            create_graph=create_graph)
            return x, ad.sum_all(ad.mul(hv, DiffValue.const(w)))

        x, s = hvp_dot_w(x0, create_graph=True)
        (third,) = ad.grad(s, [x])
        h = 1e-4
        want = (hvp_dot_w(x0 + h * u)[1].item() - hvp_dot_w(x0 - h * u)[1].item()) / (2 * h)
        got = float(np.sum(third.data * u))
        assert abs(got - want) <= 1e-4 * max(abs(want), 1.0)


class TestDeterminism:
    def test_bit_identical_replay(self, rng):
        x0 = rng.standard_normal((4, 4))
        w0 = rng.standard_normal((4, 4))

        def run():
            tape = Tape()
            x = tape.param(x0)
            w = tape.param(w0)
            y = ad.softmax_rows(ad.matmul(ad.leaky_relu(ad.matmul(x, w)), w))
            loss = ad.mean_all(ad.mul(y, y))
            gs = ad.grad(loss, [x, w])
            return loss.data.tobytes(), gs[0].data.tobytes(), gs[1].data.tobytes()

        assert run() == run()

    def test_tape_op_counter_advances(self):
        tape = Tape()
        x = tape.param([[1.0]])
        before = tape.op_count
        ad.mul(x, x)
        assert tape.op_count == before + 1

    FUSED = [
        ("tile_rows", (1, 4), lambda x: ad.tile_rows(x, 3)),
        ("tile_cols", (3, 1), lambda x: ad.tile_cols(x, 4)),
        ("fill_like", (1, 1), lambda x: ad.fill_like(x, (2, 3))),
        ("softmax_rows", (3, 4), ad.softmax_rows),
        ("log_softmax_rows", (3, 4), ad.log_softmax_rows),
        ("normalize_rows", (3, 4), ad.normalize_rows),
        ("pairwise_sq_dists", (3, 4), lambda x: ad.pairwise_sq_dists(x, x)),
    ]

    @pytest.mark.parametrize("name,shape,op", FUSED, ids=[f[0] for f in FUSED])
    def test_fused_op_records_one_node(self, name, shape, op, rng):
        tape = Tape()
        x = tape.param(rng.standard_normal(shape))
        before = tape.op_count
        out = op(x)
        assert out.tape is tape
        assert tape.op_count == before + 1

    def test_layer_norm_records_four_nodes(self, rng):
        # row normalization, gain tile, gain product, bias add
        tape = Tape()
        x = tape.param(rng.standard_normal((3, 4)))
        gain = tape.param(np.ones((1, 4)))
        bias = tape.param(np.zeros((1, 4)))
        before = tape.op_count
        ad.layer_norm(x, gain, bias)
        assert tape.op_count == before + 4


class TestLifetime:
    @pytest.mark.parametrize("op", ["exp", "div", "softmax_rows", "log_softmax_rows",
                                    "normalize_rows"])
    def test_self_referencing_vjp_freed_without_collector(self, op, rng):
        # a node whose VJP needs its own output must not form a cycle
        gc.disable()
        try:
            tape = Tape()
            x = tape.param(rng.standard_normal((2, 3)) + 3.0)
            if op == "div":
                out = ad.div(x, x)
            else:
                out = getattr(ad, op)(x)
            (g,) = ad.grad(ad.sum_all(ad.mul(out, out)), [x], create_graph=True)
            ref = weakref.ref(out)
            del out, g
            assert ref() is None
        finally:
            gc.enable()
