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

    def test_concat_slice_roundtrip(self, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 4))
        cat = ad.concat_cols(DiffValue.const(a), DiffValue.const(b))
        np.testing.assert_array_equal(ad.slice_cols(cat, 0, 2).data, a)
        np.testing.assert_array_equal(ad.slice_cols(cat, 2, 6).data, b)

    def test_concat_cols_many_parts(self, rng):
        parts = [rng.standard_normal((3, w)) for w in (2, 1, 4)]
        np.testing.assert_array_equal(ad.concat_cols(*parts).data, np.hstack(parts))

    def test_block_products_match_per_block(self, rng):
        # row block j of a with row block j of b, for h = 3 blocks
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((12, 5))
        c, d = rng.standard_normal((9, 4)), rng.standard_normal((6, 5))
        cases = [
            (ad.bmm(a, b, 3), [a[2 * j:2 * j + 2] @ b[4 * j:4 * j + 4] for j in range(3)]),
            (ad.bmm_nt(a, c, 3), [a[2 * j:2 * j + 2] @ c[3 * j:3 * j + 3].T for j in range(3)]),
            (ad.bmm_tn(a, d, 3), [a[2 * j:2 * j + 2].T @ d[2 * j:2 * j + 2] for j in range(3)]),
        ]
        for got, blocks in cases:
            np.testing.assert_array_equal(got.data, np.vstack(blocks))
        with pytest.raises(ad.ShapeError):
            ad.bmm(a, b, 4)  # 6 rows do not split into 4 blocks
        with pytest.raises(ad.ShapeError):
            ad.bmm_nt(a, b, 3)  # widths 4 and 5 differ

    def test_block_sq_dists_match_per_block(self, rng):
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
        got = ad.block_sq_dists(a, b, 3).data
        want = np.vstack([ad.pairwise_sq_dists(a[2 * j:2 * j + 2], b[3 * j:3 * j + 3]).data
                          for j in range(3)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        with pytest.raises(ad.ShapeError):
            ad.block_sq_dists(a, b, 4)

    def test_take_and_scatter_rows_are_adjoint(self, rng):
        # <take(x), y> = <x, scatter(y)>, with repeated and -1 indices
        index = np.array([2, -1, 0, 2, 3])
        x, y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        taken = ad.take_rows(x, index).data
        np.testing.assert_array_equal(taken, [x[2], np.zeros(3), x[0], x[2], x[3]])
        scattered = ad.scatter_rows(y, index, 4).data
        np.testing.assert_allclose(scattered, [y[2], np.zeros(3), y[0] + y[3], y[4]],
                                   rtol=0, atol=1e-15)
        assert abs(np.sum(taken * y) - np.sum(x * scattered)) <= 1e-12
        with pytest.raises(ad.ShapeError):
            ad.take_rows(x, [4])
        with pytest.raises(ad.ShapeError):
            ad.scatter_rows(y, [0, 1], 4)  # two indices for five rows

    def test_head_relayout_roundtrip(self, rng):
        x = rng.standard_normal((3, 8))
        rows = ad.heads_to_rows(x, 4).data
        np.testing.assert_array_equal(rows, np.vstack([x[:, 2 * j:2 * j + 2] for j in range(4)]))
        np.testing.assert_array_equal(ad.rows_to_heads(rows, 4).data, x)
        with pytest.raises(ad.ShapeError):
            ad.heads_to_rows(x, 3)

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
        ("powf", (2, 2), lambda x, c: ad.sum_all(ad.powf(ad.add(ad.mul(x, x), ad.DiffValue.const(np.full((2, 2), 1.0))), 1.5))),
        ("leaky", (2, 3), lambda x, c: ad.sum_all(ad.leaky_relu(x, 0.1))),
        ("row_sum", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.tile_cols(ad.row_sum(x), 2), x))),
        ("col_sum", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.tile_rows(ad.col_sum(x), 3), x))),
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
        ("matmul_nt_l", (2, 3), lambda x, c: ad.sum_all(ad.exp(ad.matmul_nt(x, c[:9].reshape(3, 3))))),
        ("matmul_nt_r", (3, 2), lambda x, c: ad.sum_all(ad.exp(ad.matmul_nt(c[:4].reshape(2, 2), x)))),
        ("matmul_nt_self", (2, 3), lambda x, c: ad.sum_all(ad.mul(ad.matmul_nt(x, x), c[:4].reshape(2, 2)))),
        ("matmul_tn_l", (3, 2), lambda x, c: ad.sum_all(ad.exp(ad.matmul_tn(x, c[:12].reshape(3, 4))))),
        ("matmul_tn_r", (3, 2), lambda x, c: ad.sum_all(ad.exp(ad.matmul_tn(c[:9].reshape(3, 3), x)))),
        ("matmul_tn_self", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.matmul_tn(x, x), c[:4].reshape(2, 2)))),
        ("affine_x_row", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.affine(x, c[:6].reshape(3, 2), c[6:8].reshape(1, 2))))),
        ("affine_x_rows", (3, 3), lambda x, c: ad.sum_all(ad.exp(ad.affine(x, c[:6].reshape(3, 2), c[6:8].reshape(1, 2))))),
        ("affine_w", (3, 2), lambda x, c: ad.sum_all(ad.exp(ad.affine(c[:6].reshape(2, 3), x, c[6:8].reshape(1, 2))))),
        ("affine_b_row", (1, 2), lambda x, c: ad.sum_all(ad.exp(ad.affine(c[:3].reshape(1, 3), c[3:9].reshape(3, 2), x)))),
        ("affine_b_rows", (1, 2), lambda x, c: ad.sum_all(ad.exp(ad.affine(c[:6].reshape(2, 3), c[6:12].reshape(3, 2), x)))),
        ("affine_self", (2, 2), lambda x, c: ad.sum_all(ad.exp(ad.affine(x, x, ad.slice_rows(x, 1, 2))))),
        ("scale_shift_y", (2, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(x, c[:3].reshape(1, 3), c[3:6].reshape(1, 3))))),
        ("scale_shift_gain", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(c[:6].reshape(2, 3), x, c[6:9].reshape(1, 3))))),
        ("scale_shift_bias", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(c[:6].reshape(2, 3), c[6:9].reshape(1, 3), x)))),
        ("scale_shift_row", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(ad.mul(x, x), x, x)))),
        ("scale_shift_no_bias", (2, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(x, ad.slice_rows(x, 0, 1))))),
        ("concat_3", (2, 2), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.concat_cols(x, c[:4].reshape(2, 2), ad.mul(x, x))), c[4:16].reshape(2, 6)))),
        ("bmm_l", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.bmm(x, c[:12].reshape(6, 2), 2)))),
        ("bmm_r", (6, 2), lambda x, c: ad.sum_all(ad.exp(ad.bmm(c[:12].reshape(4, 3), x, 2)))),
        ("bmm_self", (4, 2), lambda x, c: ad.sum_all(ad.mul(ad.bmm(x, x, 2), c[:8].reshape(4, 2)))),
        ("bmm_nt_l", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.bmm_nt(x, c[:12].reshape(4, 3), 2)))),
        ("bmm_nt_r", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.bmm_nt(c[:12].reshape(4, 3), x, 2)))),
        ("bmm_nt_self", (4, 3), lambda x, c: ad.sum_all(ad.mul(ad.bmm_nt(x, x, 2), c[:8].reshape(4, 2)))),
        ("bmm_tn_l", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.bmm_tn(x, c[:8].reshape(4, 2), 2)))),
        ("bmm_tn_r", (4, 2), lambda x, c: ad.sum_all(ad.exp(ad.bmm_tn(c[:12].reshape(4, 3), x, 2)))),
        ("bmm_tn_self", (4, 2), lambda x, c: ad.sum_all(ad.mul(ad.bmm_tn(x, x, 2), c[:8].reshape(4, 2)))),
        ("heads_to_rows", (2, 6), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.heads_to_rows(x, 3)), c[:12].reshape(6, 2)))),
        ("rows_to_heads", (6, 2), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.rows_to_heads(x, 3)), c[:12].reshape(2, 6)))),
        ("take_rows", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.take_rows(x, [2, -1, 0, 2])), c[:8].reshape(4, 2)))),
        ("scatter_rows", (4, 2), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.scatter_rows(x, [1, -1, 1, 0], 3)), c[:6].reshape(3, 2)))),
        ("take_scatter", (3, 2), lambda x, c: ad.sum_all(ad.exp(ad.scatter_rows(ad.mul(ad.take_rows(x, [0, 2, 2]), c[:6].reshape(3, 2)), [1, 0, 1], 2)))),
        ("block_sq_dists_l", (4, 2), lambda x, c: ad.sum_all(ad.mul(ad.block_sq_dists(x, c[:12].reshape(6, 2), 2), c[4:16].reshape(4, 3)))),
        ("block_sq_dists_r", (6, 2), lambda x, c: ad.sum_all(ad.mul(ad.block_sq_dists(c[:8].reshape(4, 2), x, 2), c[4:16].reshape(4, 3)))),
        ("block_sq_dists_both", (4, 2), lambda x, c: ad.sum_all(ad.mul(ad.block_sq_dists(x, ad.mul(x, c[:8].reshape(4, 2)), 2), c[8:16].reshape(4, 2)))),
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

    # block-batched ops over h = 2 row blocks, on operands that depend on x
    # (dep) or are constant (fix), each (n, 4)
    BLOCK_HVP = {
        "bmm_l": lambda dep, fix: ad.bmm(dep(4), fix(8), 2),
        "bmm_r": lambda dep, fix: ad.bmm(fix(4), dep(8), 2),
        "bmm_both": lambda dep, fix: ad.bmm(dep(4), dep(8), 2),
        "bmm_nt_l": lambda dep, fix: ad.bmm_nt(dep(4), fix(6), 2),
        "bmm_nt_r": lambda dep, fix: ad.bmm_nt(fix(4), dep(6), 2),
        "bmm_nt_both": lambda dep, fix: ad.bmm_nt(dep(4), dep(6), 2),
        "bmm_tn_l": lambda dep, fix: ad.bmm_tn(dep(4), fix(4), 2),
        "bmm_tn_r": lambda dep, fix: ad.bmm_tn(fix(4), dep(4), 2),
        "bmm_tn_both": lambda dep, fix: ad.bmm_tn(dep(4), ad.mul(dep(4), dep(4)), 2),
        "heads_to_rows": lambda dep, fix: ad.heads_to_rows(ad.mul(dep(3), dep(3)), 2),
        "rows_to_heads": lambda dep, fix: ad.rows_to_heads(ad.mul(dep(4), dep(4)), 2),
        "concat_3": lambda dep, fix: ad.concat_cols(dep(2), fix(2), ad.mul(dep(2), dep(2))),
        "take_rows": lambda dep, fix: ad.take_rows(ad.mul(dep(3), dep(3)), [2, -1, 0, 2]),
        "scatter_rows": lambda dep, fix: ad.scatter_rows(ad.mul(dep(4), dep(4)), [1, -1, 1, 0], 3),
        "block_sq_dists_l": lambda dep, fix: ad.block_sq_dists(dep(4), fix(6), 2),
        "block_sq_dists_r": lambda dep, fix: ad.block_sq_dists(fix(4), dep(6), 2),
        "block_sq_dists_both": lambda dep, fix: ad.block_sq_dists(dep(4), dep(6), 2),
    }

    @pytest.mark.parametrize(
        "case", ["exp_quad", "softmax", "layernorm", "log_softmax", "sq_dists",
                 "matmul_nt", "matmul_tn", "affine", "affine_rows", "scale_shift",
                 *BLOCK_HVP]
    )
    def test_hvp_matches_fd_of_gradient(self, case, rng):
        shape = (1, 4)
        c = rng.standard_normal((4, 4))
        C = DiffValue.const(c)

        if case in self.BLOCK_HVP:
            cs = rng.standard_normal((2, 8, 4))

            def build(x):
                out = self.BLOCK_HVP[case](
                    lambda n: ad.mul(ad.tile_rows(x, n), DiffValue.const(cs[0, :n])),
                    lambda n: DiffValue.const(cs[1, :n]))
                w = DiffValue.const(np.resize(cs, out.shape))
                return ad.sum_all(ad.mul(ad.exp(ad.scale(out, 0.3)), w))
        elif case == "matmul_nt":
            # both operands depend on x, so both halves of the VJP count
            def build(x):
                return ad.sum_all(ad.exp(ad.matmul_nt(x, ad.matmul(x, C))))
        elif case == "matmul_tn":
            def build(x):
                outer = ad.matmul_tn(x, ad.matmul(x, C))
                return ad.sum_all(ad.mul(ad.exp(ad.scale(outer, 0.3)), C))
        elif case == "affine":
            # one row: x (x^T x) + x
            def build(x):
                return ad.sum_all(ad.exp(ad.scale(ad.affine(x, ad.matmul_tn(x, x), x), 0.3)))
        elif case == "affine_rows":
            def build(x):
                rows = ad.mul(ad.tile_rows(x, 3), DiffValue.const(c[:3]))
                out = ad.affine(rows, ad.matmul_tn(x, x), x)
                return ad.sum_all(ad.mul(ad.exp(ad.scale(out, 0.3)), DiffValue.const(c[1:])))
        elif case == "scale_shift":
            def build(x):
                rows = ad.mul(ad.tile_rows(x, 3), DiffValue.const(c[:3]))
                out = ad.scale_shift(rows, x, ad.mul(x, x))
                return ad.sum_all(ad.mul(ad.exp(out), DiffValue.const(c[1:])))
        elif case == "exp_quad":
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


    def test_third_order_through_matmul_nt(self, rng):
        # <d(H v . w)/dx, u> against a central difference of H v . w along u,
        # through the transposed-operand matmuls of each VJP
        c, v, w, u, x0 = (rng.standard_normal((2, 3)) for _ in range(5))

        def hvp_dot_w(x0, create_graph=False):
            tape = Tape()
            x = tape.param(x0)
            f = ad.sum_all(ad.exp(ad.scale(ad.matmul_nt(x, ad.mul(x, DiffValue.const(c))), 0.5)))
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


    def test_third_order_through_row_gathers_and_block_dists(self, rng):
        # as above, through take_rows, scatter_rows and block_sq_dists,
        # whose VJPs are each other and the block-batched products
        c, v, w, u, x0 = (rng.standard_normal((4, 3)) for _ in range(5))

        def hvp_dot_w(x0, create_graph=False):
            tape = Tape()
            x = tape.param(x0)
            rows = ad.take_rows(x, [3, 0, -1, 0, 1, 2])
            protos = ad.scatter_rows(ad.mul(x, DiffValue.const(c)), [1, 0, 2, 1], 4)
            d = ad.block_sq_dists(rows, protos, 2)
            f = ad.sum_all(ad.exp(ad.scale(d, -0.2)))
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

    def test_third_order_through_bmm_nt(self, rng):
        # as above, through the block-batched products of each VJP
        c, v, w, u, x0 = (rng.standard_normal((4, 3)) for _ in range(5))

        def hvp_dot_w(x0, create_graph=False):
            tape = Tape()
            x = tape.param(x0)
            f = ad.sum_all(ad.exp(ad.scale(ad.bmm_nt(x, ad.mul(x, DiffValue.const(c)), 2), 0.5)))
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


class TestPrunedSweep:
    def _graph(self, rng):
        tape = Tape()
        x = tape.param(rng.standard_normal((3, 4)))
        w = tape.param(rng.standard_normal((4, 4)))
        b = tape.param(rng.standard_normal((1, 4)))
        gain = tape.param(rng.standard_normal((1, 4)))
        h = ad.layer_norm(ad.affine(x, w, b), gain, DiffValue.const(np.zeros((1, 4))))
        weights = DiffValue.const(rng.standard_normal((3, 3)))
        loss = ad.sum_all(ad.mul(ad.softmax_rows(ad.matmul_nt(h, ad.relu(h))), weights))
        return loss, [x, w, b, gain]

    def test_subset_matches_slice_of_all(self, rng):
        loss, ins = self._graph(rng)
        everything = ad.grad(loss, ins)
        for subset in ([0], [1, 3], [2], [3, 0]):
            part = ad.grad(loss, [ins[i] for i in subset])
            for i, g in zip(subset, part):
                assert g.data.tobytes() == everything[i].data.tobytes()

    def test_input_downstream_of_another(self, rng):
        # an intermediate node as input: its own gradient, and the sweep
        # continues through it to the leaf below
        tape = Tape()
        x = tape.param(rng.standard_normal((2, 3)))
        y = ad.exp(x)
        loss = ad.sum_all(ad.mul(y, y))
        gx, gy = ad.grad(loss, [x, y])
        np.testing.assert_allclose(gy.data, 2.0 * y.data, rtol=1e-15)
        np.testing.assert_allclose(gx.data, 2.0 * y.data * y.data, rtol=1e-15)


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
        ("matmul_nt", (3, 4), lambda x: ad.matmul_nt(x, x)),
        ("matmul_tn", (3, 4), lambda x: ad.matmul_tn(x, x)),
        ("affine", (3, 4), lambda x: ad.affine(x, np.ones((4, 2)), np.zeros((1, 2)))),
        ("scale_shift", (3, 4), lambda x: ad.scale_shift(x, np.ones((1, 4)), np.zeros((1, 4)))),
        ("bmm", (4, 2), lambda x: ad.bmm(x, x, 2)),
        ("bmm_nt", (4, 3), lambda x: ad.bmm_nt(x, x, 2)),
        ("bmm_tn", (4, 3), lambda x: ad.bmm_tn(x, x, 2)),
        ("heads_to_rows", (3, 4), lambda x: ad.heads_to_rows(x, 2)),
        ("rows_to_heads", (4, 3), lambda x: ad.rows_to_heads(x, 2)),
        ("concat_cols_3", (3, 4), lambda x: ad.concat_cols(x, x, np.ones((3, 2)))),
        ("take_rows", (3, 4), lambda x: ad.take_rows(x, [2, 0, -1, 2])),
        ("scatter_rows", (3, 4), lambda x: ad.scatter_rows(x, [1, 1, -1], 2)),
        ("block_sq_dists", (4, 3), lambda x: ad.block_sq_dists(x, x, 2)),
    ]

    @pytest.mark.parametrize("name,shape,op", FUSED, ids=[f[0] for f in FUSED])
    def test_fused_op_records_one_node(self, name, shape, op, rng):
        tape = Tape()
        x = tape.param(rng.standard_normal(shape))
        before = tape.op_count
        out = op(x)
        assert out.tape is tape
        assert tape.op_count == before + 1

    def test_layer_norm_records_two_nodes(self, rng):
        # row normalization, then one scale-shift by gain and bias
        tape = Tape()
        x = tape.param(rng.standard_normal((3, 4)))
        gain = tape.param(np.ones((1, 4)))
        bias = tape.param(np.zeros((1, 4)))
        before = tape.op_count
        ad.layer_norm(x, gain, bias)
        assert tape.op_count == before + 2


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
