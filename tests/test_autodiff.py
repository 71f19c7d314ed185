import gc
import weakref

import numpy as np
import pytest

from metainterp import autodiff as ad
from metainterp.autodiff import DiffValue, Tape

from conftest import analytic_grad, fd_grad, rel_err, traced_peak


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
        # ReLU is the leaky ReLU of slope 0
        np.testing.assert_array_equal(ad.leaky_relu([[-1.0, 2.0]], 0.0).data, [[0.0, 2.0]])

    def test_layer_norm_two_points(self):
        # layer norm is a row normalization, then a scale-shift by gain and bias
        out = ad.scale_shift(ad.normalize_rows([[2.0, 4.0]]), [[1.0, 1.0]], [[0.0, 0.0]])
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_dropout_inverted_scaling(self):
        out = ad.dropout([[1.0, 1.0, 1.0, 1.0]], 0.5, [[1.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(out.data, [[2.0, 0.0, 2.0, 0.0]])

    def test_dropout_mask_shape_checked(self):
        with pytest.raises(ad.ShapeError):
            ad.dropout([[1.0, 2.0]], 0.5, [[1.0]])

    def test_concat_slice_roundtrip(self, rng):
        # the parts come back as the row blocks of heads_to_rows
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2))
        rows = ad.heads_to_rows(ad.concat_cols(DiffValue.const(a), DiffValue.const(b)), 2)
        np.testing.assert_array_equal(ad.take_rows(rows, np.arange(3)).data, a)
        np.testing.assert_array_equal(ad.take_rows(rows, np.arange(3, 6)).data, b)

    def test_concat_cols_many_parts(self, rng):
        parts = [rng.standard_normal((3, 2)) for _ in range(3)]
        np.testing.assert_array_equal(ad.concat_cols(*parts).data, np.hstack(parts))

    def test_concat_cols_parts_must_share_a_shape(self):
        with pytest.raises(ad.ShapeError):
            ad.concat_cols(np.ones((3, 2)), np.ones((3, 4)))
        with pytest.raises(ad.ShapeError):
            ad.concat_cols(np.ones((3, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_elementwise_ops_do_not_broadcast(self, op):
        # a (1, n) row is added to every row only inside affine and scale_shift
        with pytest.raises(ad.ShapeError):
            getattr(ad, op)(np.ones((2, 3)), np.ones((1, 3)))
        with pytest.raises(ad.ShapeError):
            getattr(ad, op)(np.ones((1, 3)), np.ones((2, 3)))

    def test_block_products_match_per_block(self, rng):
        # row block j of a with row block j of b, for h = 3 blocks; one
        # block is the plain product, self-products included
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((12, 5))
        c, d = rng.standard_normal((9, 4)), rng.standard_normal((6, 5))
        cases = [
            (ad.matmul(a, b, 3), [a[2 * j:2 * j + 2] @ b[4 * j:4 * j + 4] for j in range(3)]),
            (ad.matmul_nt(a, c, 3), [a[2 * j:2 * j + 2] @ c[3 * j:3 * j + 3].T for j in range(3)]),
            (ad.matmul_tn(a, d, 3), [a[2 * j:2 * j + 2].T @ d[2 * j:2 * j + 2] for j in range(3)]),
            (ad.matmul(a, b[:4]), [a @ b[:4]]),
            (ad.matmul_nt(a, c), [a @ c.T]),
            (ad.matmul_tn(a, d), [a.T @ d]),
            (ad.matmul_nt(a, a), [a @ a.T]),
            (ad.matmul_tn(a, a), [a.T @ a]),
        ]
        for got, blocks in cases:
            np.testing.assert_array_equal(got.data, np.vstack(blocks))
        with pytest.raises(ad.ShapeError):
            ad.matmul(a, b, 4)  # 6 rows do not split into 4 blocks
        with pytest.raises(ad.ShapeError):
            ad.matmul_nt(a, b, 3)  # widths 4 and 5 differ

    def test_block_sq_dists_match_per_block(self, rng):
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
        got = ad.block_sq_dists(a, b, 3).data
        want = np.vstack([ad.block_sq_dists(a[2 * j:2 * j + 2], b[3 * j:3 * j + 3], 1).data
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

    @staticmethod
    def _row_wise_scatter(x, index, m):
        """The reference: rows added one index entry at a time into zeros."""
        out = np.zeros((m, x.shape[1]))
        kept = index >= 0
        np.add.at(out, index[kept], x[kept])
        return out

    @pytest.mark.parametrize("multiplicity", range(1, 7))
    def test_scatter_rows_bits_match_row_wise_add_at(self, multiplicity, rng):
        # targets 0, 2 and 5 take `multiplicity` rows each, in shuffled order,
        # of magnitudes spread over 16 decades, so that a change of summation
        # order shows in the bits; two rows are dropped (-1), every row bound
        # for 5 is -0.0, and rows 1, 3, 4 and 6 receive nothing
        index = rng.permutation(np.concatenate([np.repeat([0, 2, 5], multiplicity), [-1, -1]]))
        x = rng.standard_normal((len(index), 4)) * 10.0 ** rng.integers(-8, 9, (len(index), 1))
        x[index == 5] = -0.0
        want = self._row_wise_scatter(x, index, 7)
        got = ad.scatter_rows(x, index, 7).data
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

        # take_rows' VJP is the same scatter of the cotangent
        tape = Tape()
        leaf = tape.param(rng.standard_normal((7, 4)))
        (vjp,) = ad.grad(ad.take_rows(leaf, index), [leaf], grad_outputs=x)
        np.testing.assert_array_equal(vjp.data.view(np.int64), want.view(np.int64))

    def test_scatter_rows_of_an_empty_index(self):
        got = ad.scatter_rows(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4).data
        np.testing.assert_array_equal(got.view(np.int64), np.zeros((4, 3)).view(np.int64))
        tape = Tape()
        leaf = tape.param(np.ones((4, 3)))
        (vjp,) = ad.grad(ad.take_rows(leaf, []), [leaf], grad_outputs=np.zeros((0, 3)))
        np.testing.assert_array_equal(vjp.data.view(np.int64), np.zeros((4, 3)).view(np.int64))

    def test_head_relayout_roundtrip(self, rng):
        x = rng.standard_normal((3, 8))
        rows = ad.heads_to_rows(x, 4).data
        np.testing.assert_array_equal(rows, np.vstack([x[:, 2 * j:2 * j + 2] for j in range(4)]))
        np.testing.assert_array_equal(ad.rows_to_heads(rows, 4).data, x)
        with pytest.raises(ad.ShapeError):
            ad.heads_to_rows(x, 3)

    def test_scalar_helpers(self):
        assert ad.scale(ad.sum_all([[1.0, 2.0], [3.0, 4.0]]), 0.25).item() == 2.5
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
        ("sub", (2, 3), lambda x, c: ad.sum_all(ad.mul(ad.sub(c[:6].reshape(2, 3), x), x))),
        ("mul", (2, 2), lambda x, c: ad.sum_all(ad.mul(x, ad.mul(x, c[:4].reshape(2, 2)))),),
        ("div", (2, 2), lambda x, c: ad.sum_all(ad.div(c[:4].reshape(2, 2), ad.add(ad.mul(x, x), ad.DiffValue.const(np.full((2, 2), 2.0)))))),
        ("scale", (2, 2), lambda x, c: ad.sum_all(ad.scale(ad.mul(x, x), -1.7))),
        ("neg", (2, 2), lambda x, c: ad.sum_all(ad.scale(ad.mul(x, x), -1.0))),
        ("exp", (2, 3), lambda x, c: ad.sum_all(ad.exp(x))),
        ("powf", (2, 2), lambda x, c: ad.sum_all(ad.powf(ad.add(ad.mul(x, x), ad.DiffValue.const(np.full((2, 2), 1.0))), 1.5))),
        ("leaky", (2, 3), lambda x, c: ad.sum_all(ad.leaky_relu(x, 0.1))),
        ("row_sum", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.broadcast_to(ad.sum_to(x, (3, 1)), (3, 2)), x))),
        ("col_sum", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.broadcast_to(ad.sum_to(x, (1, 2)), (3, 2)), x))),
        ("concat", (2, 2), lambda x, c: ad.sum_all(ad.exp(ad.concat_cols(x, ad.mul(x, x))))),
        ("slice", (3, 3), lambda x, c: ad.sum_all(ad.mul(ad.take_rows(x, np.arange(1, 3)), c[:6].reshape(2, 3)))),
        ("concat_rows", (2, 3), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.concat_rows(x, ad.mul(x, x))), c[:12].reshape(4, 3)))),
        ("softmax", (2, 4), lambda x, c: ad.sum_all(ad.mul(ad.softmax_rows(x), c[:8].reshape(2, 4)))),
        ("layer_norm", (2, 4), lambda x, c: ad.sum_all(ad.mul(ad.scale_shift(ad.normalize_rows(x), c[:4].reshape(1, 4), c[4:8].reshape(1, 4)), c[8:16].reshape(2, 4)))),
        ("dropout", (2, 4), lambda x, c: ad.sum_all(ad.dropout(ad.mul(x, x), 0.25, np.array([[1.0, 0, 1, 1], [0, 1, 1, 0]])))),
        ("log_softmax", (2, 4), lambda x, c: ad.sum_all(ad.mul(ad.log_softmax_rows(x), c[:8].reshape(2, 4)))),
        ("normalize_rows", (3, 4), lambda x, c: ad.sum_all(ad.mul(ad.normalize_rows(x), c[:12].reshape(3, 4)))),
        ("sq_dists_l", (2, 2), lambda x, c: ad.sum_all(ad.mul(ad.block_sq_dists(x, c[:6].reshape(3, 2), 1), c[6:12].reshape(2, 3)))),
        ("sq_dists_r", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.block_sq_dists(c[:4].reshape(2, 2), x, 1), c[4:10].reshape(2, 3)))),
        ("sq_dists_self", (3, 2), lambda x, c: ad.sum_all(ad.mul(ad.block_sq_dists(x, x, 1), c[:9].reshape(3, 3)))),
        ("tile_rows", (1, 3), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.broadcast_to(x, (2, 3))), c[:6].reshape(2, 3)))),
        ("tile_cols", (2, 1), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.broadcast_to(x, (2, 3))), c[:6].reshape(2, 3)))),
        ("fill_like", (1, 1), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.broadcast_to(x, (2, 3))), c[:6].reshape(2, 3)))),
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
        ("affine_self", (2, 2), lambda x, c: ad.sum_all(ad.exp(ad.affine(x, x, ad.take_rows(x, [1]))))),
        ("scale_shift_y", (2, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(x, c[:3].reshape(1, 3), c[3:6].reshape(1, 3))))),
        ("scale_shift_gain", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(c[:6].reshape(2, 3), x, c[6:9].reshape(1, 3))))),
        ("scale_shift_bias", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(c[:6].reshape(2, 3), c[6:9].reshape(1, 3), x)))),
        ("scale_shift_row", (1, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(ad.mul(x, x), x, x)))),
        ("scale_shift_no_bias", (2, 3), lambda x, c: ad.sum_all(ad.exp(ad.scale_shift(x, ad.take_rows(x, [0]))))),
        ("concat_3", (2, 2), lambda x, c: ad.sum_all(ad.mul(ad.exp(ad.concat_cols(x, c[:4].reshape(2, 2), ad.mul(x, x))), c[4:16].reshape(2, 6)))),
        # the bmm cases are the products at two row blocks
        ("bmm_l", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.matmul(x, c[:12].reshape(6, 2), 2)))),
        ("bmm_r", (6, 2), lambda x, c: ad.sum_all(ad.exp(ad.matmul(c[:12].reshape(4, 3), x, 2)))),
        ("bmm_self", (4, 2), lambda x, c: ad.sum_all(ad.mul(ad.matmul(x, x, 2), c[:8].reshape(4, 2)))),
        ("bmm_nt_l", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.matmul_nt(x, c[:12].reshape(4, 3), 2)))),
        ("bmm_nt_r", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.matmul_nt(c[:12].reshape(4, 3), x, 2)))),
        ("bmm_nt_self", (4, 3), lambda x, c: ad.sum_all(ad.mul(ad.matmul_nt(x, x, 2), c[:8].reshape(4, 2)))),
        ("bmm_tn_l", (4, 3), lambda x, c: ad.sum_all(ad.exp(ad.matmul_tn(x, c[:8].reshape(4, 2), 2)))),
        ("bmm_tn_r", (4, 2), lambda x, c: ad.sum_all(ad.exp(ad.matmul_tn(c[:12].reshape(4, 3), x, 2)))),
        ("bmm_tn_self", (4, 2), lambda x, c: ad.sum_all(ad.mul(ad.matmul_tn(x, x, 2), c[:8].reshape(4, 2)))),
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


class TestBroadcastPair:
    # (operand shape, op): the three broadcasts to (3, 4), and the sums
    # back to each of their shapes, from (3, 4) and from a row or column
    PAIRS = {
        "broadcast_row": ((1, 4), lambda x: ad.broadcast_to(x, (3, 4))),
        "broadcast_col": ((3, 1), lambda x: ad.broadcast_to(x, (3, 4))),
        "broadcast_scalar": ((1, 1), lambda x: ad.broadcast_to(x, (3, 4))),
        "sum_to_row": ((3, 4), lambda x: ad.sum_to(x, (1, 4))),
        "sum_to_col": ((3, 4), lambda x: ad.sum_to(x, (3, 1))),
        "sum_to_scalar": ((3, 4), lambda x: ad.sum_to(x, (1, 1))),
        "col_to_scalar": ((3, 1), lambda x: ad.sum_to(x, (1, 1))),
        "row_to_scalar": ((1, 4), lambda x: ad.sum_to(x, (1, 1))),
    }

    @pytest.mark.parametrize("create_graph", [False, True], ids=["raw", "graph"])
    @pytest.mark.parametrize("name", PAIRS)
    def test_vjp_matches_finite_differences(self, name, create_graph, rng):
        shape, op = self.PAIRS[name]
        x0 = rng.standard_normal(shape)
        u = rng.standard_normal(op(x0).shape)
        tape = Tape()
        x = tape.param(x0)
        (got,) = ad.grad(op(x), [x], u, create_graph=create_graph)
        want = fd_grad(lambda v: float(np.sum(op(v).data * u)), x0)
        assert rel_err(got.data, want) <= 1e-8

    @pytest.mark.parametrize("op,shape,target", [
        ("broadcast_to", (2, 3), (4, 3)),
        ("broadcast_to", (1, 3), (2, 4)),
        ("broadcast_to", (2, 1), (3, 5)),
        ("broadcast_to", (1, 3), (-1, 3)),
        ("broadcast_to", (1, 3), (3,)),
        ("sum_to", (3, 4), (2, 1)),
        ("sum_to", (3, 4), (3, 2)),
        ("sum_to", (3, 4), (6, 4)),
        ("sum_to", (1, 4), (3, 4)),
        ("sum_to", (3, 4), (1, 1, 1)),
    ])
    def test_shapes_not_one_broadcast_apart(self, op, shape, target):
        with pytest.raises(ad.ShapeError):
            getattr(ad, op)(np.ones(shape), target)

    def test_bits_match_the_numpy_calls(self):
        # the sums and repeats as numpy's axis sums, total and repeats give
        # them, from every shape the pair meets
        rng = np.random.default_rng(11)
        for n in [*range(1, 70), 127, 128, 129, 1000, 4097]:
            col, row = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
            x = rng.standard_normal((3, n))
            pairs = [
                (ad.sum_to(x, (3, 1)), x.sum(axis=1, keepdims=True)),
                (ad.sum_to(x, (1, n)), x.sum(axis=0, keepdims=True)),
                (ad.sum_to(x, (1, 1)), x.sum().reshape(1, 1)),
                (ad.sum_to(col, (1, 1)), col.sum(axis=0, keepdims=True)),
                (ad.sum_to(row, (1, 1)), row.sum(axis=1, keepdims=True)),
                (ad.broadcast_to(row, (3, n)), np.repeat(row, 3, axis=0)),
                (ad.broadcast_to(col, (n, 3)), np.repeat(col, 3, axis=1)),
                (ad.broadcast_to(row[:, :1], (2, n)), np.full((2, n), row[0, 0])),
            ]
            for got, want in pairs:
                assert got.data.tobytes() == want.tobytes(), n

    def test_sum_to_its_own_shape_records_no_node(self, rng):
        tape = Tape()
        x = tape.param(rng.standard_normal((3, 4)))
        before = tape.op_count
        assert ad.sum_to(x, (3, 4)) is x
        assert tape.op_count == before
        assert ad.raw.sum_to(x.data, (3, 4)) is x.data


class TestBackends:
    def test_raw_namespace_mirrors_the_ops(self):
        # every op a VJP calls has a raw twin of the same name
        names = {n for n in vars(ad.raw) if not n.startswith("__")}
        assert names == {
            "matmul", "matmul_nt", "matmul_tn", "heads_to_rows", "rows_to_heads",
            "add", "sub", "mul", "div", "scale", "exp", "powf",
            "broadcast_to", "sum_to", "take_rows", "scatter_rows",
            "normalize_rows", "_inv_std_rows", "scale_shift"}
        for name in names:
            assert callable(getattr(ad, name)), name

    @pytest.mark.parametrize("name,shape,build", TestGradients.CASES,
                             ids=[c[0] for c in TestGradients.CASES])
    def test_raw_vjps_give_the_graph_bits(self, name, shape, build, rng):
        # the sweep without a graph against the recorded one: at first
        # order through the op's VJP, then through the gradient graph,
        # whose nodes are the ops the VJPs call
        tape = Tape()
        x = tape.param(rng.standard_normal(shape) + 0.1)
        out = build(x, rng.standard_normal(16))
        outs, cot = out, None
        for order in (1, 2, 3):
            (want,) = ad.grad(outs, [x], cot, create_graph=True)
            (got,) = ad.grad(outs, [x], cot)
            assert got.tape is None
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64)), order
            outs, cot = want, rng.standard_normal(shape)

    def test_raw_gradients_own_their_buffers(self, rng):
        # add's VJP and a one-row bias's pass their cotangent through: the
        # sweep without a graph still hands back no seed and no buffer twice
        tape = Tape()
        x, y = tape.param(rng.standard_normal((2, 3))), tape.param(rng.standard_normal((2, 3)))
        v = rng.standard_normal((2, 3))
        row, w = tape.param(rng.standard_normal((1, 3))), tape.param(rng.standard_normal((3, 4)))
        b, u = tape.param(rng.standard_normal((1, 4))), rng.standard_normal((1, 4))
        for outs, ins, seed in ((ad.add(x, y), [x, y], v), (ad.affine(row, w, b), [row, w, b], u)):
            want = [g.data.copy() for g in ad.grad(outs, ins, seed, create_graph=True)]
            before = seed.copy()
            got = [g.data for g in ad.grad(outs, ins, seed)]
            held = [seed, *got]
            assert not any(np.shares_memory(p, q)
                           for i, p in enumerate(held) for q in held[i + 1:])
            for g, bits in zip(got, want):
                assert np.array_equal(g, bits)
                g += 1.0
            assert np.array_equal(seed, before)


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

    # ops over h = 2 row blocks (the bmm cases are the products), and row
    # and column concatenations, on operands that depend on x (dep) or are
    # constant (fix), each (n, 4)
    BLOCK_HVP = {
        "bmm_l": lambda dep, fix: ad.matmul(dep(4), fix(8), 2),
        "bmm_r": lambda dep, fix: ad.matmul(fix(4), dep(8), 2),
        "bmm_both": lambda dep, fix: ad.matmul(dep(4), dep(8), 2),
        "bmm_nt_l": lambda dep, fix: ad.matmul_nt(dep(4), fix(6), 2),
        "bmm_nt_r": lambda dep, fix: ad.matmul_nt(fix(4), dep(6), 2),
        "bmm_nt_both": lambda dep, fix: ad.matmul_nt(dep(4), dep(6), 2),
        "bmm_tn_l": lambda dep, fix: ad.matmul_tn(dep(4), fix(4), 2),
        "bmm_tn_r": lambda dep, fix: ad.matmul_tn(fix(4), dep(4), 2),
        "bmm_tn_both": lambda dep, fix: ad.matmul_tn(dep(4), ad.mul(dep(4), dep(4)), 2),
        "heads_to_rows": lambda dep, fix: ad.heads_to_rows(ad.mul(dep(3), dep(3)), 2),
        "rows_to_heads": lambda dep, fix: ad.rows_to_heads(ad.mul(dep(4), dep(4)), 2),
        "concat_3": lambda dep, fix: ad.concat_cols(dep(2), fix(2), ad.mul(dep(2), dep(2))),
        "concat_rows": lambda dep, fix: ad.concat_rows(dep(2), ad.mul(dep(3), dep(3))),
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
                    lambda n: ad.mul(ad.broadcast_to(x, (n, 4)), DiffValue.const(cs[0, :n])),
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
                rows = ad.mul(ad.broadcast_to(x, (3, 4)), DiffValue.const(c[:3]))
                out = ad.affine(rows, ad.matmul_tn(x, x), x)
                return ad.sum_all(ad.mul(ad.exp(ad.scale(out, 0.3)), DiffValue.const(c[1:])))
        elif case == "scale_shift":
            def build(x):
                rows = ad.mul(ad.broadcast_to(x, (3, 4)), DiffValue.const(c[:3]))
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
                d = ad.block_sq_dists(x, DiffValue.const(c[:3, :]), 1)
                return ad.sum_all(
                    ad.mul(ad.log_softmax_rows(ad.scale(d, -1.0)), DiffValue.const(c[3:4, :3]))
                )
        else:
            def build(x):
                return ad.sum_all(
                    ad.mul(
                        ad.scale_shift(ad.normalize_rows(x), np.ones((1, 4)), np.zeros((1, 4))),
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
        # whose VJPs are each other and the products at two row blocks
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
        # as above, through the products at two row blocks of each VJP
        c, v, w, u, x0 = (rng.standard_normal((4, 3)) for _ in range(5))

        def hvp_dot_w(x0, create_graph=False):
            tape = Tape()
            x = tape.param(x0)
            f = ad.sum_all(ad.exp(ad.scale(ad.matmul_nt(x, ad.mul(x, DiffValue.const(c)), 2), 0.5)))
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
        h = ad.scale_shift(ad.normalize_rows(ad.affine(x, w, b)), gain,
                           DiffValue.const(np.zeros((1, 4))))
        weights = DiffValue.const(rng.standard_normal((3, 3)))
        loss = ad.sum_all(ad.mul(ad.softmax_rows(ad.matmul_nt(h, ad.leaky_relu(h, 0.0))), weights))
        return loss, [x, w, b, gain]

    def test_subset_matches_slice_of_all(self, rng):
        loss, ins = self._graph(rng)
        everything = ad.grad(loss, ins)
        for subset in ([0], [1, 3], [2], [3, 0]):
            part = ad.grad(loss, [ins[i] for i in subset])
            for i, g in zip(subset, part):
                assert g.data.tobytes() == everything[i].data.tobytes()

    def test_repeated_sweeps_match_fresh_graphs(self):
        # HVP sweeps over one gradient graph, each with new cotangents, give
        # the bits of sweeps that each run on a graph of their own
        def gradient_graph():
            loss, ins = self._graph(np.random.default_rng(5))
            return ad.grad(loss, ins[:2], create_graph=True), ins

        rng = np.random.default_rng(6)
        cotangents = [[DiffValue.const(rng.standard_normal(s)) for s in ((3, 4), (4, 4))]
                      for _ in range(3)]
        fresh = []
        for c in cotangents:
            grads, ins = gradient_graph()
            fresh.append([h.data.tobytes() for h in ad.grad(grads, ins[:2], c)])
        grads, ins = gradient_graph()
        again = [[h.data.tobytes() for h in ad.grad(grads, ins[:2], c)] for c in cotangents]
        assert again == fresh

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


class TestSweepMemory:
    SHAPE = (256, 256)  # 512 KiB a cotangent

    def _chain(self, n):
        tape = Tape()
        x = tape.param(np.random.default_rng(0).standard_normal(self.SHAPE))
        y = x
        for _ in range(n):
            y = ad.scale(y, 0.5)
        return x, ad.sum_all(y)

    @pytest.mark.parametrize("n", [8, 40])
    def test_raw_sweep_drops_each_cotangent_once_used(self, n):
        # a sweep down a chain holds a few arrays at a time, not one per
        # node: each node's cotangent goes once its VJP has run
        x, loss = self._chain(n)
        (g,), peak = traced_peak(lambda: ad.grad(loss, [x]))
        assert np.array_equal(g.data, np.full(self.SHAPE, 0.5 ** n))
        assert peak <= 4 * x.data.nbytes

    def test_requested_nodes_keep_their_cotangents(self):
        # an output and an intermediate node asked for beside their leaf
        # keep their cotangents, and the sweep still passes through them
        tape = Tape()
        x = tape.param(np.random.default_rng(1).standard_normal((3, 4)))
        mid = ad.scale(ad.exp(x), 2.0)
        loss = ad.sum_all(ad.mul(mid, mid))
        for create_graph in (False, True):
            gx, gmid, gloss = ad.grad(loss, [x, mid, loss], create_graph=create_graph)
            assert gloss.data.tobytes() == np.ones((1, 1)).tobytes()
            assert gmid.data.tobytes() == (2.0 * mid.data).tobytes()
            assert gx.data.tobytes() == ad.grad(loss, [x])[0].data.tobytes()


class TestDeterminism:
    def test_bit_identical_replay(self, rng):
        x0 = rng.standard_normal((4, 4))
        w0 = rng.standard_normal((4, 4))

        def run():
            tape = Tape()
            x = tape.param(x0)
            w = tape.param(w0)
            y = ad.softmax_rows(ad.matmul(ad.leaky_relu(ad.matmul(x, w)), w))
            loss = ad.scale(ad.sum_all(ad.mul(y, y)), 1.0 / 16)
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
        ("tile_rows", (1, 4), lambda x: ad.broadcast_to(x, (3, 4))),
        ("tile_cols", (3, 1), lambda x: ad.broadcast_to(x, (3, 4))),
        ("fill_like", (1, 1), lambda x: ad.broadcast_to(x, (2, 3))),
        ("row_sum", (3, 4), lambda x: ad.sum_to(x, (3, 1))),
        ("col_sum", (3, 4), lambda x: ad.sum_to(x, (1, 4))),
        ("sum_all", (3, 4), ad.sum_all),
        ("softmax_rows", (3, 4), ad.softmax_rows),
        ("log_softmax_rows", (3, 4), ad.log_softmax_rows),
        ("normalize_rows", (3, 4), ad.normalize_rows),
        ("pairwise_sq_dists", (3, 4), lambda x: ad.block_sq_dists(x, x, 1)),
        ("matmul_nt", (3, 4), lambda x: ad.matmul_nt(x, x)),
        ("matmul_tn", (3, 4), lambda x: ad.matmul_tn(x, x)),
        ("affine", (3, 4), lambda x: ad.affine(x, np.ones((4, 2)), np.zeros((1, 2)))),
        ("scale_shift", (3, 4), lambda x: ad.scale_shift(x, np.ones((1, 4)), np.zeros((1, 4)))),
        # the products at two row blocks
        ("bmm", (4, 2), lambda x: ad.matmul(x, x, 2)),
        ("bmm_nt", (4, 3), lambda x: ad.matmul_nt(x, x, 2)),
        ("bmm_tn", (4, 3), lambda x: ad.matmul_tn(x, x, 2)),
        ("heads_to_rows", (3, 4), lambda x: ad.heads_to_rows(x, 2)),
        ("rows_to_heads", (4, 3), lambda x: ad.rows_to_heads(x, 2)),
        ("concat_cols_3", (3, 4), lambda x: ad.concat_cols(x, x, np.ones((3, 4)))),
        ("take_rows", (3, 4), lambda x: ad.take_rows(x, [2, 0, -1, 2])),
        ("scatter_rows", (3, 4), lambda x: ad.scatter_rows(x, [1, 1, -1], 2)),
        ("block_sq_dists", (4, 3), lambda x: ad.block_sq_dists(x, x, 2)),
        # one product by the mask times 1 / (1 - rate)
        ("dropout", (2, 4), lambda x: ad.dropout(x, 0.25, np.array([[1.0, 0, 1, 1],
                                                                    [0, 1, 1, 0]]))),
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
        ad.scale_shift(ad.normalize_rows(x), gain, bias)
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
