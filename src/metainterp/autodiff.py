"""Reverse-mode automatic differentiation on dense float64 matrices.

Everything is a 2-D row-major matrix (scalars are 1x1, vectors are 1xn
rows). Values participating in differentiation are `DiffValue`s bound to a
`Tape`; plain arrays and unbound DiffValues act as constants. Backward
rules are written in terms of the same primitives, so gradients taken with
``create_graph=True`` are themselves differentiable — that is what enables
Hessian-vector products and grad-of-grad.

Broadcasting is deliberately restricted to row-vector bias addition; every
other shape change is an explicit op. The broadcasts `tile_rows`,
`tile_cols` and `fill_like` are primitives (`np.repeat` forward, a row,
column or full sum backward), not matmuls with a ones matrix.

The hot composites are fused: `softmax_rows`, `log_softmax_rows`,
`normalize_rows` (the row normalization inside `layer_norm`) and
`pairwise_sq_dists` each record one tape node, computing the forward in
numpy and writing the VJP in primitives, so their gradients stay
differentiable. A VJP that needs its node's own output (`exp`, `div`,
softmax, log-softmax, row normalization) refers to the node only weakly,
so a tape is freed by reference counting as soon as its last value goes.
"""

from __future__ import annotations

import threading
import weakref
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


_state = threading.local()


def _recording() -> bool:
    return getattr(_state, "recording", True)


class pause_recording:
    """Context manager: ops executed inside produce constants."""

    def __enter__(self):
        self._prev = _recording()
        _state.recording = False
        return self

    def __exit__(self, *exc):
        _state.recording = self._prev
        return False


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
    meter: it counts recorded primitives.
    """

    def __init__(self):
        self._next = 0
        self.op_count = 0

    def _index(self) -> int:
        i = self._next
        self._next += 1
        self.op_count += 1
        return i

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

    # light operator sugar; module functions are the real surface
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


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
    if not _recording():
        return DiffValue(data)
    tape = _owner_tape(parents)
    if tape is None:
        return DiffValue(data)
    return DiffValue(data, tape=tape, idx=tape._index(), parents=parents, vjp=vjp)


def _make_with_output(data, parents, vjp) -> DiffValue:
    """`_make` for a VJP that also takes the node itself: vjp(g, out).

    The node holds itself through a weak reference, not a cycle; `grad`
    keeps every node it differentiates alive while it runs."""
    res = _make(data, parents, None)
    if res.tape is not None:
        ref = weakref.ref(res)
        res._vjp = lambda g: vjp(g, ref())
    return res


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return matmul(g, transpose(b)), matmul(transpose(a), g)

    return _make(out, (a, b), vjp)


def transpose(a) -> DiffValue:
    a = _lift(a)
    out = np.ascontiguousarray(a.data.T)

    def vjp(g):
        return (transpose(g),)

    return _make(out, (a,), vjp)


def _binary_shapes(a, b, op):
    """Same-shape elementwise, or (m,n) op (1,n) row-vector broadcast."""
    if a.shape == b.shape:
        return "same"
    if b.shape == (1, a.shape[1]) and a.shape[0] > 1:
        return "rowvec"
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    mode = _binary_shapes(a, b, "add")
    if mode == "same":
        out = a.data + b.data

        def vjp(g):
            return g, g

    else:
        out = a.data + b.data

        def vjp(g):
            return g, col_sum(g)

    return _make(out, (a, b), vjp)


def sub(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    mode = _binary_shapes(a, b, "sub")
    if mode == "same":
        out = a.data - b.data

        def vjp(g):
            return g, neg(g)

    else:
        out = a.data - b.data

        def vjp(g):
            return g, neg(col_sum(g))

    return _make(out, (a, b), vjp)


def mul(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ {a.shape} vs {b.shape}")
    out = a.data * b.data

    def vjp(g):
        return mul(g, b), mul(g, a)

    return _make(out, (a, b), vjp)


def div(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise ShapeError(f"div: shapes differ {a.shape} vs {b.shape}")
    out = a.data / b.data

    def vjp(g, res):
        return div(g, b), neg(mul(g, div(res, b)))

    return _make_with_output(out, (a, b), vjp)


def scale(a, c: float) -> DiffValue:
    a = _lift(a)
    c = float(c)
    out = a.data * c

    def vjp(g):
        return (scale(g, c),)

    return _make(out, (a,), vjp)


def neg(a) -> DiffValue:
    a = _lift(a)
    out = -a.data

    def vjp(g):
        return (neg(g),)

    return _make(out, (a,), vjp)


def exp(a) -> DiffValue:
    a = _lift(a)
    out = np.exp(a.data)

    def vjp(g, res):
        return (mul(g, res),)

    return _make_with_output(out, (a,), vjp)


def log(a) -> DiffValue:
    a = _lift(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: nonpositive entry")
    out = np.log(a.data)

    def vjp(g):
        return (div(g, a),)

    return _make(out, (a,), vjp)


def powf(a, p: float) -> DiffValue:
    a = _lift(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0.0):
        raise DomainError("powf: negative base with non-integer exponent")
    out = a.data ** p

    def vjp(g):
        return (mul(g, scale(powf(a, p - 1.0), p)),)

    return _make(out, (a,), vjp)


def relu(a) -> DiffValue:
    a = _lift(a)
    out = np.maximum(a.data, 0.0)
    mask = DiffValue((a.data > 0.0).astype(np.float64))

    def vjp(g):
        return (mul(g, mask),)

    return _make(out, (a,), vjp)


def leaky_relu(a, slope: float = 0.01) -> DiffValue:
    a = _lift(a)
    slope = float(slope)
    out = np.where(a.data > 0.0, a.data, slope * a.data)
    mask = DiffValue(np.where(a.data > 0.0, 1.0, slope))

    def vjp(g):
        return (mul(g, mask),)

    return _make(out, (a,), vjp)


def sum_all(a) -> DiffValue:
    a = _lift(a)
    out = a.data.sum().reshape(1, 1)
    m, n = a.shape

    def vjp(g):
        return (fill_like(g, (m, n)),)

    return _make(out, (a,), vjp)


def row_sum(a) -> DiffValue:
    a = _lift(a)
    out = a.data.sum(axis=1, keepdims=True)
    n = a.shape[1]

    def vjp(g):
        return (tile_cols(g, n),)

    return _make(out, (a,), vjp)


def col_sum(a) -> DiffValue:
    a = _lift(a)
    out = a.data.sum(axis=0, keepdims=True)
    m = a.shape[0]

    def vjp(g):
        return (tile_rows(g, m),)

    return _make(out, (a,), vjp)


def tile_rows(row, m: int) -> DiffValue:
    """(1,n) -> (m,n) by repetition."""
    row = _lift(row)
    if row.shape[0] != 1:
        raise ShapeError(f"tile_rows expects a row vector, got {row.shape}")
    out = np.repeat(row.data, m, axis=0)

    def vjp(g):
        return (col_sum(g),)

    return _make(out, (row,), vjp)


def tile_cols(col, n: int) -> DiffValue:
    """(m,1) -> (m,n) by repetition."""
    col = _lift(col)
    if col.shape[1] != 1:
        raise ShapeError(f"tile_cols expects a column vector, got {col.shape}")
    out = np.repeat(col.data, n, axis=1)

    def vjp(g):
        return (row_sum(g),)

    return _make(out, (col,), vjp)


def fill_like(scalar, shape) -> DiffValue:
    """(1,1) -> arbitrary (m,n) by repetition."""
    scalar = _lift(scalar)
    if scalar.shape != (1, 1):
        raise ShapeError(f"fill_like expects 1x1, got {scalar.shape}")
    out = np.full(shape, scalar.data[0, 0])

    def vjp(g):
        return (sum_all(g),)

    return _make(out, (scalar,), vjp)


def concat_rows(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: widths differ {a.shape} vs {b.shape}")
    out = np.ascontiguousarray(np.concatenate([a.data, b.data], axis=0))
    ma = a.shape[0]

    def vjp(g):
        return slice_rows(g, 0, ma), slice_rows(g, ma, out.shape[0])

    return _make(out, (a, b), vjp)


def concat_cols(a, b) -> DiffValue:
    a, b = _lift(a), _lift(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: heights differ {a.shape} vs {b.shape}")
    out = np.ascontiguousarray(np.concatenate([a.data, b.data], axis=1))
    na = a.shape[1]

    def vjp(g):
        return slice_cols(g, 0, na), slice_cols(g, na, out.shape[1])

    return _make(out, (a, b), vjp)


def slice_rows(a, i0: int, i1: int) -> DiffValue:
    a = _lift(a)
    m = a.shape[0]
    if not (0 <= i0 <= i1 <= m):
        raise ShapeError(f"slice_rows: [{i0}:{i1}] out of range for {a.shape}")
    out = np.ascontiguousarray(a.data[i0:i1, :])

    def vjp(g):
        return (pad_rows(g, i0, m),)

    return _make(out, (a,), vjp)


def slice_cols(a, j0: int, j1: int) -> DiffValue:
    a = _lift(a)
    n = a.shape[1]
    if not (0 <= j0 <= j1 <= n):
        raise ShapeError(f"slice_cols: [{j0}:{j1}] out of range for {a.shape}")
    out = np.ascontiguousarray(a.data[:, j0:j1])

    def vjp(g):
        return (pad_cols(g, j0, n),)

    return _make(out, (a,), vjp)


def pad_rows(a, i0: int, m_total: int) -> DiffValue:
    """Embed a into rows [i0, i0+m) of an m_total-row zero matrix."""
    a = _lift(a)
    m, n = a.shape
    if i0 < 0 or i0 + m > m_total:
        raise ShapeError("pad_rows: block out of range")
    out = np.zeros((m_total, n), dtype=np.float64)
    out[i0 : i0 + m, :] = a.data

    def vjp(g):
        return (slice_rows(g, i0, i0 + m),)

    return _make(out, (a,), vjp)


def pad_cols(a, j0: int, n_total: int) -> DiffValue:
    a = _lift(a)
    m, n = a.shape
    if j0 < 0 or j0 + n > n_total:
        raise ShapeError("pad_cols: block out of range")
    out = np.zeros((m, n_total), dtype=np.float64)
    out[:, j0 : j0 + n] = a.data

    def vjp(g):
        return (slice_cols(g, j0, j0 + n),)

    return _make(out, (a,), vjp)


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

    def vjp(g, s):
        return (mul(s, sub(g, tile_cols(row_sum(mul(g, s)), n))),)

    return _make_with_output(out, (a,), vjp)


def log_softmax_rows(a) -> DiffValue:
    """Row-wise log softmax, stabilized like softmax_rows."""
    a = _lift(a)
    z = a.data - a.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = a.shape[1]

    def vjp(g, logp):
        return (sub(g, mul(exp(logp), tile_cols(row_sum(g), n))),)

    return _make_with_output(out, (a,), vjp)


def normalize_rows(x, eps: float = 1e-12) -> DiffValue:
    """Each row to zero mean and unit variance: (x - mean) / sqrt(var + eps)."""
    x = _lift(x)
    n = x.shape[1]
    xc = x.data - x.data.sum(axis=1, keepdims=True) * (1.0 / n)
    inv = ((xc * xc).sum(axis=1, keepdims=True) * (1.0 / n) + eps) ** -0.5

    def vjp(g, y):
        # inv * (g - mean(g) - y * mean(g * y)), row by row
        mean_g = tile_cols(scale(row_sum(g), 1.0 / n), n)
        mean_gy = tile_cols(scale(row_sum(mul(g, y)), 1.0 / n), n)
        inner = sub(sub(g, mean_g), mul(y, mean_gy))
        return (mul(tile_cols(_inv_std_rows(x, eps, inv), n), inner),)

    return _make_with_output(xc * inv, (x,), vjp)


def _inv_std_rows(x, eps: float, inv: np.ndarray) -> DiffValue:
    """(m,1) node 1 / sqrt(var + eps) of the rows of x, whose value inv the
    caller has computed; it carries the x-dependence of normalize_rows's
    VJP."""
    n = x.shape[1]

    def vjp(g, r):
        # d r / dx = -r^2 / n * normalize_rows(x)
        coef = scale(mul(g, mul(r, r)), -1.0 / n)
        return (mul(normalize_rows(x, eps), tile_cols(coef, n)),)

    return _make_with_output(inv, (x,), vjp)


def pairwise_sq_dists(a, b) -> DiffValue:
    """(N, K) squared Euclidean distances between the rows of a (N, D) and
    of b (K, D): |a_i|^2 + |b_j|^2 - 2 a_i . b_j."""
    a, b = _lift(a), _lift(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_sq_dists: widths differ {a.shape} vs {b.shape}")
    aa = (a.data * a.data).sum(axis=1, keepdims=True)
    bb = (b.data * b.data).sum(axis=1, keepdims=True).T
    out = (aa + bb) - (a.data @ np.ascontiguousarray(b.data.T)) * 2.0
    d = a.shape[1]

    def vjp(g):
        # 2 (rowsum(g) a - g b) and 2 (colsum(g)^T b - g^T a)
        ga = sub(mul(tile_cols(row_sum(g), d), a), matmul(g, b))
        gb = sub(mul(tile_cols(transpose(col_sum(g)), d), b), matmul(transpose(g), a))
        return scale(ga, 2.0), scale(gb, 2.0)

    return _make(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# composites (differentiable through the primitives above)


def mean_all(a) -> DiffValue:
    a = _lift(a)
    return scale(sum_all(a), 1.0 / a.data.size)


def layer_norm(x, gain, bias, eps: float = 1e-12) -> DiffValue:
    """Normalize each row to zero mean / unit variance, then gain and bias.

    gain and bias are (1,n) rows applied across every row of x.
    """
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    m, n = x.shape
    if gain.shape != (1, n) or bias.shape != (1, n):
        raise ShapeError("layer_norm: gain/bias must be (1, n) rows")
    return add(mul(normalize_rows(x, eps), tile_rows(gain, m)), bias)


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
    return scale(mul(x, mask), 1.0 / (1.0 - rate))


# ---------------------------------------------------------------------------
# reverse pass


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
    zero gradients.
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

    # reachable subgraph, then reverse sweep in creation order
    reachable: dict[int, DiffValue] = {}
    stack = [o for o in outs if o.tape is tape]
    while stack:
        node = stack.pop()
        if node._idx in reachable:
            continue
        reachable[node._idx] = node
        for p in node._parents:
            if p.tape is tape and p._idx not in reachable:
                stack.append(p)

    adjoint: dict[int, DiffValue] = {}
    for o, s in zip(outs, seeds):
        if o.tape is not tape:
            continue
        if o._idx in adjoint:
            adjoint[o._idx] = add(adjoint[o._idx], s)
        else:
            adjoint[o._idx] = s

    ctx = pause_recording() if not create_graph else _null_ctx()
    with ctx:
        for idx in sorted(reachable, reverse=True):
            node = reachable[idx]
            g = adjoint.get(idx)
            if g is None or node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or p.tape is not tape:
                    continue
                if p._idx in adjoint:
                    adjoint[p._idx] = add(adjoint[p._idx], pg)
                else:
                    adjoint[p._idx] = pg

    result = []
    for i in ins:
        g = adjoint.get(i._idx)
        if g is None:
            g = DiffValue(np.zeros(i.shape, dtype=np.float64))
        result.append(g)
    return result


class _null_ctx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
