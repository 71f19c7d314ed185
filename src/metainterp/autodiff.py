"""Reverse-mode automatic differentiation on dense float64 matrices.

Everything is a 2-D row-major matrix (scalars are 1x1, vectors are 1xn
rows). Values participating in differentiation are `DiffValue`s bound to a
`Tape`; plain arrays and unbound DiffValues act as constants.

Two backends, one VJP per op (the design of HIPS Autograd; Maclaurin,
Duvenaud and Adams 2015). Each primitive's numpy arithmetic is written
once, as the function of the same name on ndarrays in the `raw`
namespace. The differentiable op checks its operands, computes its
forward through that raw twin and records a node. The node's VJP is
written once, against the ops namespace that `grad` hands it:
- with ``create_graph=True`` that is this module, so the VJP records
  nodes and the gradient is itself differentiable, which is what enables
  Hessian-vector products and grad-of-grad;
- otherwise it is `raw`: the seeds, cotangents and sums of the sweep are
  plain ndarrays, wrapped as constant DiffValues once at the end, and no
  op of the sweep builds a DiffValue, a closure or a tape entry.
Both backends run the same numpy expressions, so their gradients are
equal bit for bit.

One broadcast rule serves every op. The elementwise ops (`add`, `sub`,
`mul`, `div`) take a second operand b of the first's (m, n) shape, or a
(1, n) row, an (m, 1) column or a (1, 1) scalar of it (a Python float is
(1, 1)), which numpy repeats without a copy; a first operand smaller than
the second is a `ShapeError`. The fused `affine` and `scale_shift` apply
their (1, n) rows the same way. The gradient of any such operand b is
`sum_to(g, b.shape)`, which sums g back to b's shape, so no VJP repeats a
value by hand and a scaling is `mul(x, c)`. `sum_to`'s adjoint,
`broadcast_to`, repeats a row, column or scalar to (m, n) as an array of
its own, for the values that need one: `sum_to`'s VJP, `setfunc`'s seed
tilings and `theory.second_order_mix`. `sum_all` is `sum_to(x, (1, 1))`.

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
gradients stay differentiable. Row normalization's VJP is itself one such
node, `normalize_rows_vjp`, whose own VJP is written in primitives, so a
gradient graph keeps one (m, n) array per layer norm, not one per mean,
broadcast, difference and product of that VJP.

The product trio `matmul` (a_j b_j), `matmul_nt` (a_j b_j^T) and
`matmul_tn` (a_j^T b_j) multiplies row block j of a by row block j of b
for all `blocks` row blocks in one node; with the default one block they
are the plain products. Their VJPs close over each other, so no transpose
is ever a node of its own. Set-wise attention runs its sets, and the heads
of each set, as row blocks of one matrix: `heads_to_rows` moves column
block j of an (m, h k) matrix to row block j of an (h m, k) one and
`rows_to_heads` moves it back; each is the other's VJP.

Every VJP is called as vjp(ops, g, need, y, *parents), with the node's
output y and its parents in the sweep's backend (DiffValues, or their
arrays), so a VJP that needs its node's own output (`exp`, `div`,
softmax, log-softmax, row normalization) holds no reference to the node,
and a tape is freed by reference counting as soon as its last value goes.
`grad` sweeps only the nodes through which a requested input reaches the
outputs. need holds one flag per parent, and a VJP returns None for a
parent that is constant or unmarked, so gradients nobody asked for (the
set-function weights' in a backward for the encoder only, a dropout
mask's, a one-hot target's) are never built. A sweep drops each node's
cotangent once its VJP has run, keeping only the requested inputs', so
a sweep without a graph holds a few cotangents at a time, not one per
swept node.
"""

from __future__ import annotations

import sys
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
    meter: it counts recorded primitives; a sweep without a graph records
    none.
    """

    def __init__(self):
        self.op_count = 0

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
    """A node over parents, or a constant when no parent is on a tape.

    vjp(ops, g, need, y, *parents) maps the node's cotangent g to one
    gradient per parent, None where the parent's flag in need is False;
    `grad` passes the node's output y and its parents in the backend of
    ops, so a VJP that reads the node's output holds no reference to it."""
    tape = _owner_tape(parents)
    if tape is None:
        return DiffValue(data)
    return DiffValue(data, tape=tape, idx=tape._index(), parents=parents, vjp=vjp)


# ---------------------------------------------------------------------------
# the raw backend: each primitive's arithmetic on ndarrays


def _split(x: np.ndarray, h: int) -> np.ndarray:
    """The (h, rows / h, cols) view of the h row blocks of x."""
    return x.reshape(h, x.shape[0] // h, x.shape[1])


def _centered(x: np.ndarray, eps: float) -> tuple:
    """The rows of x less their means, and the (m, 1) 1 / sqrt(var + eps)."""
    n = x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) * (1.0 / n)
    return xc, ((xc * xc).sum(axis=1, keepdims=True) * (1.0 / n) + eps) ** -0.5


class raw:
    """The primitives on ndarrays, under the names and signatures of the
    differentiable ops: their forwards, and the ops of a sweep without a
    graph. They check nothing; the differentiable ops check their
    operands, and a VJP passes only operands those checks admitted."""

    @staticmethod
    def matmul(a, b, blocks=1):
        b3 = _split(b, blocks)
        return np.matmul(_split(a, blocks), b3).reshape(-1, b3.shape[2])

    @staticmethod
    def matmul_nt(a, b, blocks=1):
        b3 = _split(b, blocks)
        return np.matmul(_split(a, blocks), b3.transpose(0, 2, 1)).reshape(-1, b3.shape[1])

    @staticmethod
    def matmul_tn(a, b, blocks=1):
        b3 = _split(b, blocks)
        return np.matmul(_split(a, blocks).transpose(0, 2, 1), b3).reshape(-1, b3.shape[2])

    @staticmethod
    def heads_to_rows(x, h):
        m, n = x.shape
        return np.ascontiguousarray(x.reshape(m, h, n // h).transpose(1, 0, 2)).reshape(h * m, n // h)

    @staticmethod
    def rows_to_heads(x, h):
        x3 = _split(x, h)
        m, k = x3.shape[1:]
        return np.ascontiguousarray(x3.transpose(1, 0, 2)).reshape(m, h * k)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def exp(a):
        return np.exp(a)

    @staticmethod
    def powf(a, p):
        return a ** p

    @staticmethod
    def broadcast_to(x, shape):
        out = np.empty(shape)
        out[...] = x
        return out

    @staticmethod
    def sum_to(x, shape):
        if x.shape == shape:
            return x
        if shape == (1, 1):
            return x.sum().reshape(1, 1)
        return x.sum(axis=1 if shape[1] == 1 else 0, keepdims=True)

    @staticmethod
    def take_rows(x, index):
        out = x[index]
        out[index < 0] = 0.0
        return out

    @staticmethod
    def scatter_rows(x, index, m):
        d = x.shape[1]
        rows, data = index, x
        if index.size and index.min() < 0:
            kept = index >= 0
            rows, data = index[kept], data[kept]
        flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
        return np.bincount(flat, data.reshape(-1), minlength=m * d).reshape(m, d)

    @staticmethod
    def normalize_rows(x, eps=1e-12):
        xc, inv = _centered(x, eps)
        return xc * inv

    @staticmethod
    def normalize_rows_vjp(g, y, x, eps, inv):
        n = g.shape[1]
        mean_g = g.sum(axis=1, keepdims=True) * (1.0 / n)
        mean_gy = (g * y).sum(axis=1, keepdims=True) * (1.0 / n)
        return inv * ((g - mean_g) - y * mean_gy)

    @staticmethod
    def _inv_std_rows(x, eps, inv):
        return inv

    @staticmethod
    def scale_shift(y, gain, bias=None):
        out = y * gain
        return out if bias is None else out + bias


# ---------------------------------------------------------------------------
# primitives


def _blocks(x: DiffValue, h: int, op: str) -> np.ndarray:
    """The (h, rows / h, cols) view of the h row blocks of x."""
    m, n = x.shape
    if h < 1 or m % h:
        raise ShapeError(f"{op}: {m} rows do not split into {h} blocks")
    return _split(x.data, h)


def matmul(a, b, blocks: int = 1) -> DiffValue:
    """a_j b_j for the h = blocks row blocks j: (h m, k) x (h k, n) -> (h m, n)."""
    a, b = _lift(a), _lift(b)
    a3, b3 = _blocks(a, blocks, "matmul"), _blocks(b, blocks, "matmul")
    if a3.shape[2] != b3.shape[1]:
        raise ShapeError(f"matmul inner dims differ: {a3.shape} x {b3.shape}")

    def vjp(ops, g, need, y, a, b):
        return (ops.matmul_nt(g, b, blocks) if need[0] else None,
                ops.matmul_tn(a, g, blocks) if need[1] else None)

    return _make(raw.matmul(a.data, b.data, blocks), (a, b), vjp)


def matmul_nt(a, b, blocks: int = 1) -> DiffValue:
    """a_j b_j^T for the h = blocks row blocks j: (h m, k) x (h n, k) -> (h m, n)."""
    a, b = _lift(a), _lift(b)
    a3, b3 = _blocks(a, blocks, "matmul_nt"), _blocks(b, blocks, "matmul_nt")
    if a3.shape[2] != b3.shape[2]:
        raise ShapeError(f"matmul_nt inner dims differ: {a3.shape} x {b3.shape}^T")

    def vjp(ops, g, need, y, a, b):
        return (ops.matmul(g, b, blocks) if need[0] else None,
                ops.matmul_tn(g, a, blocks) if need[1] else None)

    return _make(raw.matmul_nt(a.data, b.data, blocks), (a, b), vjp)


def matmul_tn(a, b, blocks: int = 1) -> DiffValue:
    """a_j^T b_j for the h = blocks row blocks j: (h k, m) x (h k, n) -> (h m, n)."""
    a, b = _lift(a), _lift(b)
    a3, b3 = _blocks(a, blocks, "matmul_tn"), _blocks(b, blocks, "matmul_tn")
    if a3.shape[1] != b3.shape[1]:
        raise ShapeError(f"matmul_tn inner dims differ: {a3.shape}^T x {b3.shape}")

    def vjp(ops, g, need, y, a, b):
        return (ops.matmul_nt(b, g, blocks) if need[0] else None,
                ops.matmul(a, g, blocks) if need[1] else None)

    return _make(raw.matmul_tn(a.data, b.data, blocks), (a, b), vjp)


def heads_to_rows(x, h: int) -> DiffValue:
    """(m, h k) -> (h m, k): column block j becomes row block j."""
    x = _lift(x)
    n = x.shape[1]
    if h < 1 or n % h:
        raise ShapeError(f"heads_to_rows: {n} columns do not split into {h} heads")

    def vjp(ops, g, need, y, x):
        return (ops.rows_to_heads(g, h),)

    return _make(raw.heads_to_rows(x.data, h), (x,), vjp)


def rows_to_heads(x, h: int) -> DiffValue:
    """(h m, k) -> (m, h k): row block j becomes column block j."""
    x = _lift(x)
    _blocks(x, h, "rows_to_heads")

    def vjp(ops, g, need, y, x):
        return (ops.heads_to_rows(g, h),)

    return _make(raw.rows_to_heads(x.data, h), (x,), vjp)


def _one_broadcast(small, big, op: str) -> None:
    """small repeats to big: it is big, a row or column of it, or (1, 1)."""
    if len(big) != 2 or min(big) < 0 or small not in (big, (1, big[1]), (big[0], 1), (1, 1)):
        raise ShapeError(f"{op}: {small} and {big} are not one broadcast apart")


def _operands(a, b, op: str) -> tuple:
    """The two operands of an elementwise op, lifted: b is a's shape, or a
    row, column or (1, 1) scalar of it, which repeats to a's shape."""
    a, b = _lift(a), _lift(b)
    _one_broadcast(b.shape, a.shape, op)
    return a, b


def _add_vjp(ops, g, need, y, a, b):
    return g, ops.sum_to(g, b.shape) if need[1] else None


def add(a, b) -> DiffValue:
    a, b = _operands(a, b, "add")
    return _make(raw.add(a.data, b.data), (a, b), _add_vjp)


def _sub_vjp(ops, g, need, y, a, b):
    return g, ops.sum_to(ops.mul(g, -1.0), b.shape) if need[1] else None


def sub(a, b) -> DiffValue:
    a, b = _operands(a, b, "sub")
    return _make(raw.sub(a.data, b.data), (a, b), _sub_vjp)


def _mul_vjp(ops, g, need, y, a, b):
    return (ops.mul(g, b) if need[0] else None,
            ops.sum_to(ops.mul(g, a), b.shape) if need[1] else None)


def mul(a, b) -> DiffValue:
    a, b = _operands(a, b, "mul")
    return _make(raw.mul(a.data, b.data), (a, b), _mul_vjp)


def _div_vjp(ops, g, need, res, a, b):
    return (ops.div(g, b) if need[0] else None,
            ops.sum_to(ops.mul(ops.mul(g, ops.div(res, b)), -1.0), b.shape) if need[1] else None)


def div(a, b) -> DiffValue:
    a, b = _operands(a, b, "div")
    return _make(raw.div(a.data, b.data), (a, b), _div_vjp)


def _exp_vjp(ops, g, need, res, a):
    return (ops.mul(g, res),)


def exp(a) -> DiffValue:
    a = _lift(a)
    return _make(raw.exp(a.data), (a,), _exp_vjp)


def powf(a, p: float) -> DiffValue:
    a = _lift(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0.0):
        raise DomainError("powf: negative base with non-integer exponent")

    def vjp(ops, g, need, y, a):
        return (ops.mul(g, ops.mul(ops.powf(a, p - 1.0), p)),)

    return _make(raw.powf(a.data, p), (a,), vjp)


def leaky_relu(a, slope: float = 0.01) -> DiffValue:
    a = _lift(a)
    slope = float(slope)
    out = np.where(a.data > 0.0, a.data, slope * a.data)
    mask = np.where(a.data > 0.0, 1.0, slope)

    def vjp(ops, g, need, y, a):
        return (ops.mul(g, mask),)

    return _make(out, (a,), vjp)


def _broadcast_to_vjp(ops, g, need, y, x):
    return (ops.sum_to(g, x.shape),)


def broadcast_to(x, shape) -> DiffValue:
    """x repeated to shape (m, n): a (1, n) row down the rows, an (m, 1)
    column across the columns, a (1, 1) scalar everywhere."""
    x, shape = _lift(x), tuple(shape)
    _one_broadcast(x.shape, shape, "broadcast_to")
    return _make(raw.broadcast_to(x.data, shape), (x,), _broadcast_to_vjp)


def _sum_to_vjp(ops, g, need, y, x):
    return (ops.broadcast_to(g, x.shape),)


def sum_to(x, shape) -> DiffValue:
    """x summed over each side where shape is 1: to (m, 1), (1, n) or
    (1, 1); x itself, with no node, when it has that shape already."""
    x, shape = _lift(x), tuple(shape)
    _one_broadcast(shape, x.shape, "sum_to")
    if x.shape == shape:
        return x
    return _make(raw.sum_to(x.data, shape), (x,), _sum_to_vjp)


def _concat_rows_vjp(ops, g, need, y, a, b):
    ma = a.shape[0]
    return (ops.take_rows(g, np.arange(ma)) if need[0] else None,
            ops.take_rows(g, np.arange(ma, y.shape[0])) if need[1] else None)


def concat_rows(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: widths differ {a.shape} vs {b.shape}")
    out = np.ascontiguousarray(np.concatenate([a.data, b.data], axis=0))
    return _make(out, (a, b), _concat_rows_vjp)


def _concat_cols_vjp(ops, g, need, y, *parts):
    h, m = len(parts), parts[0].shape[0]
    rows = ops.heads_to_rows(g, h)
    return tuple(ops.take_rows(rows, np.arange(j * m, (j + 1) * m)) if n else None
                 for j, n in enumerate(need))


def concat_cols(*parts) -> DiffValue:
    """The parts, all of one shape, side by side in one node. The VJP moves
    column block j of g to row block j and gathers each part's rows."""
    parts = tuple(_lift(p) for p in parts)
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    if len({p.shape for p in parts}) > 1:
        raise ShapeError(f"concat_cols: shapes differ {[p.shape for p in parts]}")
    out = np.ascontiguousarray(np.concatenate([p.data for p in parts], axis=1))
    return _make(out, parts, _concat_cols_vjp)


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
    index = _row_index(index, x.shape[0])

    def vjp(ops, g, need, y, x):
        return (ops.scatter_rows(g, index, x.shape[0]),)

    return _make(raw.take_rows(x.data, index), (x,), vjp)


def scatter_rows(x, index, m: int) -> DiffValue:
    """(m, n) row sums: row i of x is added to row index[i]; a row whose
    index is -1 is dropped. The adjoint of `take_rows`."""
    x = _lift(x)
    index = _row_index(index, m)
    if len(index) != x.shape[0]:
        raise ShapeError(f"scatter_rows: {len(index)} indices for {x.shape[0]} rows")

    def vjp(ops, g, need, y, x):
        return (ops.take_rows(g, index),)

    return _make(raw.scatter_rows(x.data, index, m), (x,), vjp)


# ---------------------------------------------------------------------------
# fused primitives: one node each, VJPs written in the primitives above


def _softmax_rows_vjp(ops, g, need, s, a):
    total = ops.sum_to(ops.mul(g, s), (a.shape[0], 1))
    return (ops.mul(s, ops.sub(g, total)),)


def softmax_rows(a) -> DiffValue:
    """Row-wise softmax with max-subtraction for stability.

    Softmax is exactly shift-invariant, so subtracting the row max changes
    no value and no derivative.
    """
    a = _lift(a)
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    return _make(e / e.sum(axis=1, keepdims=True), (a,), _softmax_rows_vjp)


def _log_softmax_rows_vjp(ops, g, need, logp, a):
    total = ops.sum_to(g, (a.shape[0], 1))
    return (ops.sub(g, ops.mul(ops.exp(logp), total)),)


def log_softmax_rows(a) -> DiffValue:
    """Row-wise log softmax, stabilized like softmax_rows."""
    a = _lift(a)
    z = a.data - a.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return _make(out, (a,), _log_softmax_rows_vjp)


def normalize_rows(x, eps: float = 1e-12) -> DiffValue:
    """Each row to zero mean and unit variance: (x - mean) / sqrt(var + eps).
    Its VJP is the one node `normalize_rows_vjp`."""
    x = _lift(x)
    xc, inv = _centered(x.data, eps)

    def vjp(ops, g, need, y, x):
        return (ops.normalize_rows_vjp(g, y, x, eps, inv),)

    return _make(xc * inv, (x,), vjp)


def normalize_rows_vjp(g, y, x, eps: float, inv: np.ndarray) -> DiffValue:
    """The VJP of y = normalize_rows(x, eps) at cotangent g in one node:
    inv * ((g - mean(g)) - y * mean(g * y)), row by row, where inv is the
    (m, 1) 1 / sqrt(var + eps) of x's rows that the caller has computed.
    Its own VJP is written in primitives, so it stays differentiable; x
    enters through inv alone, and y must be normalize_rows(x)."""
    g, y, x = _lift(g), _lift(y), _lift(x)
    if not g.shape == y.shape == x.shape:
        raise ShapeError(f"normalize_rows_vjp: shapes differ {g.shape}, {y.shape}, {x.shape}")

    def vjp(ops, h, need, out, g, y, x):
        m, n = x.shape
        gg = gy = gx = None
        if need[0]:  # the row-normalization Jacobian is symmetric
            gg = ops.normalize_rows_vjp(h, y, x, eps, inv)
        if need[1] or need[2]:
            r = ops._inv_std_rows(x, eps, inv)
        if need[1]:  # -r (mean(g y) h + mean(h y) g)
            mean_gy = ops.mul(ops.sum_to(ops.mul(g, y), (m, 1)), 1.0 / n)
            mean_hy = ops.mul(ops.sum_to(ops.mul(h, y), (m, 1)), 1.0 / n)
            both = ops.add(ops.mul(h, mean_gy), ops.mul(g, mean_hy))
            gy = ops.mul(ops.mul(both, r), -1.0)
        if need[2]:  # through r alone: -(r / n) rowsum(h out) y
            coef = ops.mul(ops.mul(ops.sum_to(ops.mul(h, out), (m, 1)), r), -1.0 / n)
            gx = ops.mul(y, coef)
        return gg, gy, gx

    return _make(raw.normalize_rows_vjp(g.data, y.data, x.data, eps, inv), (g, y, x), vjp)


def _inv_std_rows(x, eps: float, inv: np.ndarray) -> DiffValue:
    """(m,1) node 1 / sqrt(var + eps) of the rows of x, whose value inv the
    caller has computed; it carries the x-dependence of the VJP of
    `normalize_rows_vjp`."""

    def vjp(ops, g, need, r, x):
        # d r / dx = -r^2 / n * normalize_rows(x)
        coef = ops.mul(ops.mul(g, ops.mul(r, r)), -1.0 / x.shape[1])
        return (ops.mul(ops.normalize_rows(x, eps), coef),)

    return _make(raw._inv_std_rows(x.data, eps, inv), (x,), vjp)


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

    def vjp(ops, g, need, y, a, b):
        # per block: 2 (rowsum(g) a - g b) and 2 (colsum(g)^T b - g^T a)
        ga = gb = None
        if need[0]:
            row = ops.sum_to(g, (g.shape[0], 1))
            ga = ops.mul(ops.sub(ops.mul(a, row), ops.matmul(g, b, h)), 2.0)
        if need[1]:
            col = ops.matmul_tn(g, np.ones((g.shape[0], 1)), h)  # blocks' colsum(g)^T
            gb = ops.mul(ops.sub(ops.mul(b, col), ops.matmul_tn(g, a, h)), 2.0)
        return ga, gb

    return _make(out, (a, b), vjp)


def _affine_vjp(ops, g, need, y, x, w, b):
    return (ops.matmul_nt(g, w) if need[0] else None,
            ops.matmul_tn(x, g) if need[1] else None,
            ops.sum_to(g, b.shape) if need[2] else None)


def affine(x, w, b) -> DiffValue:
    """x w + b with the (1, n) row b added to every row."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine inner dims differ: {x.shape} x {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"affine bias must be (1, {w.shape[1]}), got {b.shape}")
    return _make(x.data @ w.data + b.data, (x, w, b), _affine_vjp)


def _scale_shift_vjp(ops, g, need, out, y, gain, bias=None):
    gy = ops.scale_shift(g, gain) if need[0] else None
    g_gain = ops.sum_to(ops.mul(g, y), gain.shape) if need[1] else None
    if bias is None:
        return gy, g_gain
    return gy, g_gain, ops.sum_to(g, bias.shape) if need[2] else None


def scale_shift(y, gain, bias=None) -> DiffValue:
    """y * gain + bias with the (1, n) rows gain and bias applied to every
    row of y; without bias, y * gain."""
    y, gain = _lift(y), _lift(gain)
    n = y.shape[1]
    if gain.shape != (1, n):
        raise ShapeError(f"scale_shift gain must be (1, {n}), got {gain.shape}")
    if bias is None:
        return _make(raw.scale_shift(y.data, gain.data), (y, gain), _scale_shift_vjp)
    bias = _lift(bias)
    if bias.shape != (1, n):
        raise ShapeError(f"scale_shift bias must be (1, {n}), got {bias.shape}")
    return _make(raw.scale_shift(y.data, gain.data, bias.data), (y, gain, bias),
                 _scale_shift_vjp)


# ---------------------------------------------------------------------------
# composite (differentiable through the primitives above)


def sum_all(a) -> DiffValue:
    """The sum of a's entries, as a (1, 1) matrix."""
    return sum_to(a, (1, 1))


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


def affine_stack(x, layers, slope: float = 0.01, activate_last: bool = True) -> DiffValue:
    """`affine` then `leaky_relu` for each (w, b) pair of layers, the last
    pair affine-only unless activate_last; no pairs give x lifted."""
    x = _lift(x)
    for i, (w, b) in enumerate(layers, start=1):
        x = affine(x, w, b)
        if activate_last or i < len(layers):
            x = leaky_relu(x, slope)
    return x


# ---------------------------------------------------------------------------
# reverse pass

_graph_ops = sys.modules[__name__]  # the differentiable backend: this module's ops


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
    Hessian-vector products; they are graph values (at times a seed, or
    one value twice) and must not be written in place. Without it the
    sweep runs on the raw backend and returns constants of the same bits,
    each in a buffer that no other result and no seed holds. Inputs that
    do not influence the outputs get zero gradients. Only the nodes
    between the inputs and the outputs are swept, so the result does not
    depend on which other inputs are asked for, and asking for fewer
    builds less. Each node's cotangent is dropped once its VJP has run;
    an input's is kept for the result, even when the input is an
    intermediate node the sweep passes through to a leaf below.
    """
    outs = [outputs] if isinstance(outputs, DiffValue) else list(outputs)
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

    tape = next((o.tape for o in outs if o.tape is not None), None)
    if tape is None:
        # outputs are constants: gradient is identically zero
        return [DiffValue(np.zeros(i.shape, dtype=np.float64)) for i in ins]
    for i in ins:
        if i.tape is not tape:
            raise GraphError("input not on the tape of the differentiated output")

    on_tape = [o for o in outs if o.tape is tape]
    ops = _graph_ops if create_graph else raw
    adjoint: dict = {}  # node number -> cotangent, in the backend of ops
    nodes = {o._idx: o for o in on_tape}  # the swept nodes, met on the way down
    for o, s in zip(outs, seeds):
        if o.tape is not tape:
            continue
        s = s if create_graph else s.data
        prev = adjoint.get(o._idx)
        adjoint[o._idx] = s if prev is None else ops.add(prev, s)

    keep = {i._idx for i in ins}  # cotangents the result needs; the rest go once used
    for idx, need in _sweep_plan(on_tape, ins):
        g = adjoint.get(idx) if idx in keep else adjoint.pop(idx, None)
        if g is None:
            continue
        node = nodes.pop(idx)
        if create_graph:
            parent_grads = node._vjp(ops, g, need, node, *node._parents)
        else:
            parent_grads = node._vjp(ops, g, need, node.data, *[p.data for p in node._parents])
        for p, n, pg in zip(node._parents, need, parent_grads):
            if not n:
                continue
            prev = adjoint.get(p._idx)
            adjoint[p._idx] = pg if prev is None else ops.add(prev, pg)
            nodes[p._idx] = p

    result = []
    for i in ins:
        g = adjoint.get(i._idx)
        if g is None:
            g = DiffValue(np.zeros(i.shape, dtype=np.float64))
        elif not create_graph:  # a raw cotangent may be a seed or another result
            g = DiffValue(g.copy())
        result.append(g)
    return result
