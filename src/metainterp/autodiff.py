"""Reverse-mode automatic differentiation on dense float64 matrices.

Everything is a 2-D row-major matrix (scalars are 1x1, vectors are 1xn
rows). Values participating in differentiation are `DiffValue`s bound to a
`Tape`; plain arrays and unbound DiffValues act as constants. Backward
rules are written in terms of the same primitives, so gradients taken with
``create_graph=True`` are themselves differentiable — that is what enables
Hessian-vector products and grad-of-grad.

Elementwise ops (`add`, `sub`, `mul`, `div`) take operands of one shape.
The only broadcast inside an op is the (1, n) row that the fused `affine`
and `scale_shift` apply to every row; every other shape change is an
explicit op. The broadcasts `tile_rows`, `tile_cols` and `fill_like` are
primitives (`np.repeat` forward, a row, column or full sum backward), not
matmuls with a ones matrix.

Rows are picked and pooled by index, never by a product with a
selection matrix: `take_rows` gathers rows (an index of -1 gives a zero
row) and `scatter_rows` sums rows into place; each is the other's VJP.
`scatter_rows` sums element by element on the flat element index
(row index times width plus column, dropped rows left out) in one
`np.bincount`, which adds each target's entries in row order into zeros,
bit for bit as a row-wise `np.add.at` does, without its per-row cost.
`concat_rows`'s VJP gathers each part's rows, and so does `concat_cols`'s,
after `heads_to_rows` has stacked its equal parts' column blocks.

The hot composites are fused: `softmax_rows`, `log_softmax_rows`,
`normalize_rows` (a row to zero mean and unit variance), `block_sq_dists`
(squared distances within each row block), `affine` (x W + b) and
`scale_shift` (a row gain and bias; layer norm is
`scale_shift(normalize_rows(x), gain, bias)`) each record one tape node,
computing the forward in numpy and writing the VJP in primitives, so their
gradients stay differentiable.

The product trio `matmul` (a_j b_j), `matmul_nt` (a_j b_j^T) and
`matmul_tn` (a_j^T b_j) multiplies row block j of a by row block j of b
for all `blocks` row blocks in one node; with the default one block they
are the plain products. Their VJPs close over each other, so no transpose
is ever a node of its own. Set-wise attention runs its sets, and the heads
of each set, as row blocks of one matrix: `heads_to_rows` moves column
block j of an (m, h k) matrix to row block j of an (h m, k) one and
`rows_to_heads` moves it back; each is the other's VJP.

Every VJP is called as vjp(g, need, node), and `grad` passes the node
itself, so a VJP that needs its node's own output (`exp`, `div`,
softmax, log-softmax, row normalization) holds no reference to the node,
and a tape is freed by reference counting as soon as its last value goes.
`grad` sweeps only the nodes through which a requested input reaches the
outputs. need holds one flag per parent, and a VJP returns None for a
parent that is constant or unmarked, so gradients nobody asked for (the
set-function weights' in a backward for the encoder only, a dropout
mask's, a one-hot target's) are never built. The plan of such a sweep
(which nodes, with which marks) depends only on the outputs and inputs,
so the tape keeps it: the Neumann series' q sweeps over one gradient
graph, each with new cotangents, plan once.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class AutodiffError(Exception):
    pass


class ShapeError(AutodiffError):
    pass


class DomainError(AutodiffError):
    pass


class GraphError(AutodiffError):
    pass


def as_matrix(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 matrix; scalars 1x1, vectors 1xn."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeError(f"expected rank <= 2, got shape {a.shape}")
    return np.ascontiguousarray(a)


class Tape:
    """Ordered record of the operations producing DiffValues.

    Node order (the creation index) is a topological order of the graph,
    which backward replays in reverse. `op_count` is a deterministic work
    meter: it counts recorded primitives. While `recording` is False, ops
    on the tape's values produce constants. `grad` keeps each sweep plan
    it makes here, as node numbers and marks only, so the plans hold no
    value alive.
    """

    def __init__(self):
        self.op_count = 0
        self.recording = True
        self._plans = {}  # (output nodes, input nodes) -> grad's sweep plan

    def _index(self) -> int:
        self.op_count += 1
        return self.op_count - 1

    def param(self, data) -> "DiffValue":
        """Bind an array to this tape as a differentiable leaf."""
        return DiffValue(as_matrix(data).copy(), tape=self, idx=self._index())


class DiffValue:
    """A float64 matrix, optionally bound to a Tape node."""

    __slots__ = ("data", "tape", "_idx", "_parents", "_vjp", "__weakref__")

    def __init__(self, data, tape=None, idx=-1, parents=(), vjp=None):
        self.data: np.ndarray = data
        self.tape: Optional[Tape] = tape
        self._idx = idx
        self._parents: tuple = parents
        self._vjp: Optional[Callable] = vjp

    @classmethod
    def const(cls, data) -> "DiffValue":
        return cls(as_matrix(data))

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        tag = "const" if self.tape is None else f"node{self._idx}"
        return f"DiffValue({tag}, shape={self.data.shape})"


def _lift(x) -> DiffValue:
    return x if isinstance(x, DiffValue) else DiffValue.const(x)


def _owner_tape(parents) -> Optional[Tape]:
    tape = None
    for p in parents:
        if p.tape is None:
            continue
        if tape is None:
            tape = p.tape
        elif tape is not p.tape:
            raise GraphError("operands belong to different tapes")
    return tape


def _make(data, parents, vjp) -> DiffValue:
    """A node over parents, or a constant when nothing is recorded.

    vjp(g, need, node) maps the node's cotangent g to one gradient per
    parent, None where the parent's flag in need is False; `grad` passes
    the node itself, so a VJP that reads the node's output holds no
    reference to it."""
    tape = _owner_tape(parents)
    if tape is None or not tape.recording:
        return DiffValue(data)
    return DiffValue(data, tape=tape, idx=tape._index(), parents=parents, vjp=vjp)


# ---------------------------------------------------------------------------
# primitives


def _blocks(x: DiffValue, h: int, op: str) -> np.ndarray:
    """The (h, rows / h, cols) view of the h row blocks of x."""
    m, n = x.shape
    if h < 1 or m % h:
        raise ShapeError(f"{op}: {m} rows do not split into {h} blocks")
    return x.data.reshape(h, m // h, n)


def matmul(a, b, blocks: int = 1) -> DiffValue:
    """a_j b_j for the h = blocks row blocks j: (h m, k) x (h k, n) -> (h m, n)."""
    a, b = _lift(a), _lift(b)
    a3, b3 = _blocks(a, blocks, "matmul"), _blocks(b, blocks, "matmul")
    if a3.shape[2] != b3.shape[1]:
        raise ShapeError(f"matmul inner dims differ: {a3.shape} x {b3.shape}")
    out = np.matmul(a3, b3).reshape(-1, b3.shape[2])

    def vjp(g, need, node):
        return (matmul_nt(g, b, blocks) if need[0] else None,
                matmul_tn(a, g, blocks) if need[1] else None)

    return _make(out, (a, b), vjp)


def matmul_nt(a, b, blocks: int = 1) -> DiffValue:
    """a_j b_j^T for the h = blocks row blocks j: (h m, k) x (h n, k) -> (h m, n)."""
    a, b = _lift(a), _lift(b)
    a3, b3 = _blocks(a, blocks, "matmul_nt"), _blocks(b, blocks, "matmul_nt")
    if a3.shape[2] != b3.shape[2]:
        raise ShapeError(f"matmul_nt inner dims differ: {a3.shape} x {b3.shape}^T")
    out = np.matmul(a3, b3.transpose(0, 2, 1)).reshape(-1, b3.shape[1])

    def vjp(g, need, node):
        return (matmul(g, b, blocks) if need[0] else None,
                matmul_tn(g, a, blocks) if need[1] else None)

    return _make(out, (a, b), vjp)


def matmul_tn(a, b, blocks: int = 1) -> DiffValue:
    """a_j^T b_j for the h = blocks row blocks j: (h k, m) x (h k, n) -> (h m, n)."""
    a, b = _lift(a), _lift(b)
    a3, b3 = _blocks(a, blocks, "matmul_tn"), _blocks(b, blocks, "matmul_tn")
    if a3.shape[1] != b3.shape[1]:
        raise ShapeError(f"matmul_tn inner dims differ: {a3.shape}^T x {b3.shape}")
    out = np.matmul(a3.transpose(0, 2, 1), b3).reshape(-1, b3.shape[2])

    def vjp(g, need, node):
        return (matmul_nt(b, g, blocks) if need[0] else None,
                matmul(a, g, blocks) if need[1] else None)

    return _make(out, (a, b), vjp)


def heads_to_rows(x, h: int) -> DiffValue:
    """(m, h k) -> (h m, k): column block j becomes row block j."""
    x = _lift(x)
    m, n = x.shape
    if h < 1 or n % h:
        raise ShapeError(f"heads_to_rows: {n} columns do not split into {h} heads")
    out = np.ascontiguousarray(x.data.reshape(m, h, n // h).transpose(1, 0, 2))

    def vjp(g, need, node):
        return (rows_to_heads(g, h),)

    return _make(out.reshape(h * m, n // h), (x,), vjp)


def rows_to_heads(x, h: int) -> DiffValue:
    """(h m, k) -> (m, h k): row block j becomes column block j."""
    x = _lift(x)
    x3 = _blocks(x, h, "rows_to_heads")
    m, k = x3.shape[1:]
    out = np.ascontiguousarray(x3.transpose(1, 0, 2))

    def vjp(g, need, node):
        return (heads_to_rows(g, h),)

    return _make(out.reshape(m, h * k), (x,), vjp)


def _same_shape(a, b, op: str) -> tuple:
    """The two operands of an elementwise op, lifted; their shapes must be
    equal."""
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ {a.shape} vs {b.shape}")
    return a, b


def add(a, b) -> DiffValue:
    a, b = _same_shape(a, b, "add")

    def vjp(g, need, node):
        return g, g

    return _make(a.data + b.data, (a, b), vjp)


def sub(a, b) -> DiffValue:
    a, b = _same_shape(a, b, "sub")

    def vjp(g, need, node):
        return g, scale(g, -1.0) if need[1] else None

    return _make(a.data - b.data, (a, b), vjp)


def mul(a, b) -> DiffValue:
    a, b = _same_shape(a, b, "mul")

    def vjp(g, need, node):
        return (mul(g, b) if need[0] else None,
                mul(g, a) if need[1] else None)

    return _make(a.data * b.data, (a, b), vjp)


def div(a, b) -> DiffValue:
    a, b = _same_shape(a, b, "div")

    def vjp(g, need, res):
        return (div(g, b) if need[0] else None,
                scale(mul(g, div(res, b)), -1.0) if need[1] else None)

    return _make(a.data / b.data, (a, b), vjp)


def scale(a, c: float) -> DiffValue:
    a = _lift(a)
    c = float(c)
    out = a.data * c

    def vjp(g, need, node):
        return (scale(g, c),)

    return _make(out, (a,), vjp)


def exp(a) -> DiffValue:
    a = _lift(a)
    out = np.exp(a.data)

    def vjp(g, need, res):
        return (mul(g, res),)

    return _make(out, (a,), vjp)


def powf(a, p: float) -> DiffValue:
    a = _lift(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0.0):
        raise DomainError("powf: negative base with non-integer exponent")
    out = a.data ** p

    def vjp(g, need, node):
        return (mul(g, scale(powf(a, p - 1.0), p)),)

    return _make(out, (a,), vjp)


def leaky_relu(a, slope: float = 0.01) -> DiffValue:
    a = _lift(a)
    slope = float(slope)
    out = np.where(a.data > 0.0, a.data, slope * a.data)
    mask = DiffValue(np.where(a.data > 0.0, 1.0, slope))

    def vjp(g, need, node):
        return (mul(g, mask),)

    return _make(out, (a,), vjp)


def sum_all(a) -> DiffValue:
    a = _lift(a)
    out = a.data.sum().reshape(1, 1)
    m, n = a.shape

    def vjp(g, need, node):
        return (fill_like(g, (m, n)),)

    return _make(out, (a,), vjp)


def row_sum(a) -> DiffValue:
    a = _lift(a)
    out = a.data.sum(axis=1, keepdims=True)
    n = a.shape[1]

    def vjp(g, need, node):
        return (tile_cols(g, n),)

    return _make(out, (a,), vjp)


def col_sum(a) -> DiffValue:
    a = _lift(a)
    out = a.data.sum(axis=0, keepdims=True)
    m = a.shape[0]

    def vjp(g, need, node):
        return (tile_rows(g, m),)

    return _make(out, (a,), vjp)


def tile_rows(row, m: int) -> DiffValue:
    """(1,n) -> (m,n) by repetition."""
    row = _lift(row)
    if row.shape[0] != 1:
        raise ShapeError(f"tile_rows expects a row vector, got {row.shape}")
    out = np.repeat(row.data, m, axis=0)

    def vjp(g, need, node):
        return (col_sum(g),)

    return _make(out, (row,), vjp)


def tile_cols(col, n: int) -> DiffValue:
    """(m,1) -> (m,n) by repetition."""
    col = _lift(col)
    if col.shape[1] != 1:
        raise ShapeError(f"tile_cols expects a column vector, got {col.shape}")
    out = np.repeat(col.data, n, axis=1)

    def vjp(g, need, node):
        return (row_sum(g),)

    return _make(out, (col,), vjp)


def fill_like(scalar, shape) -> DiffValue:
    """(1,1) -> arbitrary (m,n) by repetition."""
    scalar = _lift(scalar)
    if scalar.shape != (1, 1):
        raise ShapeError(f"fill_like expects 1x1, got {scalar.shape}")
    out = np.full(shape, scalar.data[0, 0])

    def vjp(g, need, node):
        return (sum_all(g),)

    return _make(out, (scalar,), vjp)


def concat_rows(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: widths differ {a.shape} vs {b.shape}")
    out = np.ascontiguousarray(np.concatenate([a.data, b.data], axis=0))
    ma = a.shape[0]

    def vjp(g, need, node):
        return (take_rows(g, np.arange(ma)) if need[0] else None,
                take_rows(g, np.arange(ma, out.shape[0])) if need[1] else None)

    return _make(out, (a, b), vjp)


def concat_cols(*parts) -> DiffValue:
    """The parts, all of one shape, side by side in one node. The VJP moves
    column block j of g to row block j and gathers each part's rows."""
    parts = tuple(_lift(p) for p in parts)
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    if len({p.shape for p in parts}) > 1:
        raise ShapeError(f"concat_cols: shapes differ {[p.shape for p in parts]}")
    out = np.ascontiguousarray(np.concatenate([p.data for p in parts], axis=1))
    h, m = len(parts), parts[0].shape[0]

    def vjp(g, need, node):
        rows = heads_to_rows(g, h)
        return tuple(take_rows(rows, np.arange(j * m, (j + 1) * m)) if n else None
                     for j, n in enumerate(need))

    return _make(out, parts, vjp)


def _row_index(index, m: int) -> np.ndarray:
    """A row index of `take_rows` or `scatter_rows` as a flat int array:
    row numbers in 0..m-1, or -1 for a zero row (take) or a dropped row
    (scatter)."""
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    if index.size and (index.min() < -1 or index.max() >= m):
        raise ShapeError(f"row index outside -1..{m - 1}")
    return index


def take_rows(x, index) -> DiffValue:
    """The rows x[index] in one node; an index of -1 gives a zero row."""
    x = _lift(x)
    m = x.shape[0]
    index = _row_index(index, m)
    out = x.data[index]
    out[index < 0] = 0.0

    def vjp(g, need, node):
        return (scatter_rows(g, index, m),)

    return _make(out, (x,), vjp)


def scatter_rows(x, index, m: int) -> DiffValue:
    """(m, n) row sums: row i of x is added to row index[i]; a row whose
    index is -1 is dropped. The adjoint of `take_rows`."""
    x = _lift(x)
    index = _row_index(index, m)
    if len(index) != x.shape[0]:
        raise ShapeError(f"scatter_rows: {len(index)} indices for {x.shape[0]} rows")
    d = x.shape[1]
    rows, data = index, x.data
    if index.size and index.min() < 0:
        kept = index >= 0
        rows, data = index[kept], data[kept]
    flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
    out = np.bincount(flat, data.reshape(-1), minlength=m * d).reshape(m, d)

    def vjp(g, need, node):
        return (take_rows(g, index),)

    return _make(out, (x,), vjp)


# ---------------------------------------------------------------------------
# fused primitives: one node each, VJPs written in the primitives above


def softmax_rows(a) -> DiffValue:
    """Row-wise softmax with max-subtraction for stability.

    Softmax is exactly shift-invariant, so subtracting the row max changes
    no value and no derivative.
    """
    a = _lift(a)
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)
    n = a.shape[1]

    def vjp(g, need, s):
        return (mul(s, sub(g, tile_cols(row_sum(mul(g, s)), n))),)

    return _make(out, (a,), vjp)


def log_softmax_rows(a) -> DiffValue:
    """Row-wise log softmax, stabilized like softmax_rows."""
    a = _lift(a)
    z = a.data - a.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = a.shape[1]

    def vjp(g, need, logp):
        return (sub(g, mul(exp(logp), tile_cols(row_sum(g), n))),)

    return _make(out, (a,), vjp)


def normalize_rows(x, eps: float = 1e-12) -> DiffValue:
    """Each row to zero mean and unit variance: (x - mean) / sqrt(var + eps)."""
    x = _lift(x)
    n = x.shape[1]
    xc = x.data - x.data.sum(axis=1, keepdims=True) * (1.0 / n)
    inv = ((xc * xc).sum(axis=1, keepdims=True) * (1.0 / n) + eps) ** -0.5

    def vjp(g, need, y):
        # inv * (g - mean(g) - y * mean(g * y)), row by row
        mean_g = tile_cols(scale(row_sum(g), 1.0 / n), n)
        mean_gy = tile_cols(scale(row_sum(mul(g, y)), 1.0 / n), n)
        inner = sub(sub(g, mean_g), mul(y, mean_gy))
        return (mul(tile_cols(_inv_std_rows(x, eps, inv), n), inner),)

    return _make(xc * inv, (x,), vjp)


def _inv_std_rows(x, eps: float, inv: np.ndarray) -> DiffValue:
    """(m,1) node 1 / sqrt(var + eps) of the rows of x, whose value inv the
    caller has computed; it carries the x-dependence of normalize_rows's
    VJP."""
    n = x.shape[1]

    def vjp(g, need, r):
        # d r / dx = -r^2 / n * normalize_rows(x)
        coef = scale(mul(g, mul(r, r)), -1.0 / n)
        return (mul(normalize_rows(x, eps), tile_cols(coef, n)),)

    return _make(inv, (x,), vjp)


def block_sq_dists(a, b, h: int) -> DiffValue:
    """Squared Euclidean distances within each of the h row blocks: block j
    of a (h m, D) against block j of b (h k, D) gives block j of the
    (h m, k) result, |a_i|^2 + |b_l|^2 - 2 a_i . b_l."""
    a, b = _lift(a), _lift(b)
    a3, b3 = _blocks(a, h, "block_sq_dists"), _blocks(b, h, "block_sq_dists")
    if a3.shape[2] != b3.shape[2]:
        raise ShapeError(f"block_sq_dists: widths differ {a.shape} vs {b.shape}")
    aa = (a3 * a3).sum(axis=2, keepdims=True)
    bb = (b3 * b3).sum(axis=2)[:, None, :]
    out = ((aa + bb) - np.matmul(a3, b3.transpose(0, 2, 1)) * 2.0).reshape(-1, b3.shape[1])
    d = a.shape[1]

    def vjp(g, need, node):
        # per block: 2 (rowsum(g) a - g b) and 2 (colsum(g)^T b - g^T a)
        ga = gb = None
        if need[0]:
            ga = scale(sub(mul(tile_cols(row_sum(g), d), a), matmul(g, b, h)), 2.0)
        if need[1]:
            col = matmul_tn(g, np.ones((g.shape[0], 1)), h)  # blocks' colsum(g)^T
            gb = scale(sub(mul(tile_cols(col, d), b), matmul_tn(g, a, h)), 2.0)
        return ga, gb

    return _make(out, (a, b), vjp)


def affine(x, w, b) -> DiffValue:
    """x w + b with the (1, n) row b added to every row."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine inner dims differ: {x.shape} x {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"affine bias must be (1, {w.shape[1]}), got {b.shape}")
    out = x.data @ w.data + b.data

    def vjp(g, need, node):
        return (matmul_nt(g, w) if need[0] else None,
                matmul_tn(x, g) if need[1] else None,
                _row_total(g) if need[2] else None)

    return _make(out, (x, w, b), vjp)


def scale_shift(y, gain, bias=None) -> DiffValue:
    """y * gain + bias with the (1, n) rows gain and bias applied to every
    row of y; without bias, y * gain."""
    y, gain = _lift(y), _lift(gain)
    n = y.shape[1]
    if gain.shape != (1, n):
        raise ShapeError(f"scale_shift gain must be (1, {n}), got {gain.shape}")
    out = y.data * gain.data
    parents = (y, gain)
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (1, n):
            raise ShapeError(f"scale_shift bias must be (1, {n}), got {bias.shape}")
        out = out + bias.data
        parents = (y, gain, bias)

    def vjp(g, need, node):
        gy = scale_shift(g, gain) if need[0] else None
        g_gain = _row_total(mul(g, y)) if need[1] else None
        if bias is None:
            return gy, g_gain
        return gy, g_gain, _row_total(g) if need[2] else None

    return _make(out, parents, vjp)


def _row_total(g) -> DiffValue:
    """The gradient of a (1, n) row broadcast over the rows of g."""
    return g if g.shape[0] == 1 else col_sum(g)


# ---------------------------------------------------------------------------
# composite (differentiable through the primitives above)


def dropout(x, rate: float, mask) -> DiffValue:
    """Inverted dropout with a caller-supplied binary mask."""
    x = _lift(x)
    mask = _lift(mask)
    if not (0.0 <= rate < 1.0):
        raise DomainError(f"dropout rate {rate} outside [0, 1)")
    if mask.shape != x.shape:
        raise ShapeError(f"dropout mask {mask.shape} != input {x.shape}")
    if mask.tape is not None:
        raise GraphError("dropout mask must be a constant")
    return mul(x, DiffValue.const(mask.data * (1.0 / (1.0 - rate))))


# ---------------------------------------------------------------------------
# reverse pass


def _sweep_plan(outs, ins) -> tuple:
    """The (node number, parent marks) pairs of a sweep from outs down to
    ins, in reverse creation (topological) order: of the nodes reachable
    from outs, those through which an input reaches them, each with one
    flag per parent saying whether the parent is such a node or an input.
    The sweep visits only these and asks each VJP only for its marked
    parents."""
    tape = outs[0].tape
    reachable: dict[int, DiffValue] = {}
    stack = list(outs)
    while stack:
        node = stack.pop()
        if node._idx in reachable:
            continue
        reachable[node._idx] = node
        for p in node._parents:
            if p.tape is tape and p._idx not in reachable:
                stack.append(p)

    marked = {i._idx for i in ins}
    plan = []
    for idx in sorted(reachable):
        need = tuple([p._idx in marked for p in reachable[idx]._parents])
        if True in need:
            marked.add(idx)
            plan.append((idx, need))
    return tuple(reversed(plan))


def grad(
    outputs,
    inputs: Sequence[DiffValue],
    grad_outputs=None,
    create_graph: bool = False,
) -> list[DiffValue]:
    """Vector-Jacobian products of outputs w.r.t. inputs.

    Without grad_outputs every output must be scalar (cotangent 1). With
    create_graph the returned values are differentiable, enabling
    Hessian-vector products. Inputs that do not influence the outputs get
    zero gradients. Only the nodes between the inputs and the outputs are
    swept, so the result does not depend on which other inputs are asked
    for, and asking for fewer builds less. The tape keeps the sweep plan,
    so a later call with the same outputs and inputs (the Neumann series'
    HVPs, each with new grad_outputs) reuses it.
    """
    single = isinstance(outputs, DiffValue)
    outs = [outputs] if single else list(outputs)
    ins = list(inputs)
    if grad_outputs is None:
        for o in outs:
            if o.shape != (1, 1):
                raise ShapeError("grad of non-scalar output needs grad_outputs")
        seeds = [DiffValue(np.ones((1, 1), dtype=np.float64)) for _ in outs]
    else:
        gos = [grad_outputs] if isinstance(grad_outputs, DiffValue) or not isinstance(
            grad_outputs, (list, tuple)
        ) else list(grad_outputs)
        if len(gos) != len(outs):
            raise ShapeError("grad_outputs count must match outputs")
        seeds = [_lift(g) for g in gos]
        for o, s in zip(outs, seeds):
            if s.shape != o.shape:
                raise ShapeError(f"grad_outputs shape {s.shape} != output {o.shape}")

    tape = None
    for o in outs:
        if o.tape is not None:
            tape = o.tape
            break
    if tape is None:
        # outputs are constants: gradient is identically zero
        return [DiffValue(np.zeros(i.shape, dtype=np.float64)) for i in ins]
    for i in ins:
        if i.tape is not tape:
            raise GraphError("input not on the tape of the differentiated output")

    on_tape = [o for o in outs if o.tape is tape]
    key = (tuple([o._idx for o in on_tape]), tuple([i._idx for i in ins]))
    plan = tape._plans.get(key)
    if plan is None:
        plan = tape._plans[key] = _sweep_plan(on_tape, ins)

    adjoint: dict[int, DiffValue] = {}
    nodes = {o._idx: o for o in on_tape}  # the swept nodes, met on the way down
    for o, s in zip(outs, seeds):
        if o.tape is not tape:
            continue
        if o._idx in adjoint:
            adjoint[o._idx] = add(adjoint[o._idx], s)
        else:
            adjoint[o._idx] = s

    was_recording, tape.recording = tape.recording, create_graph
    try:
        for idx, need in plan:
            g = adjoint.get(idx)
            if g is None:
                continue
            node = nodes[idx]
            parent_grads = node._vjp(g, need, node)
            for p, n, pg in zip(node._parents, need, parent_grads):
                if not n:
                    continue
                prev = adjoint.get(p._idx)
                adjoint[p._idx] = pg if prev is None else add(prev, pg)
                nodes[p._idx] = p
    finally:
        tape.recording = was_recording

    result = []
    for i in ins:
        g = adjoint.get(i._idx)
        if g is None:
            g = DiffValue(np.zeros(i.shape, dtype=np.float64))
        result.append(g)
    return result
