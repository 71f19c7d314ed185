"""Permutation-invariant set functions used to fuse hidden representations.

Three families, plus the identity map of the methods that learn no set
function. `KINDS` names the four in checkpoint-code order, and `build` is
the one builder of each:

* `SimpleSetParams` — the two-layer single-head attention form whose pair
  output has the closed form W(h + a(h' - h)) + b; this is the variant the
  theory checks run against.
* `FullSetTransformerParams` — the 4-head attention encoder/pooling stack
  with layer norm, skip connections and two dropout sites.
* `DeepSetsParams` — affine stacks around a mean pool.

Every forward is batched over sets. It takes an (N, d) matrix (a
`DiffValue` or an ndarray) cut into P = N / set_size sets of `set_size`
consecutive rows (by default all N rows form one set, which must not be
empty) and returns the (P, d) matrix of the P set outputs in one pass.
Attention runs set by set: the sets are the row blocks of the products
(`matmul_nt` for the scores, `matmul` for the weighting, each with one
block per set), so a set's scores are (n, n), or (1, n) for the pooling
query, and no score ever crosses two sets. At set_size 1 every attention
weight is exactly 1, so the scores are skipped and a singleton costs what
its closed form costs. Vectors are carried as rows throughout; the classic
column-convention output is the transpose of ours.

The full form runs all heads of an attention block in one set of nodes:
the heads' weights sit side by side, so one affine gives every head's
projection, and the heads are then stacked as row blocks, (m, H k) ->
(H m, k), so that head j of set p is block j P + p of the products,
and one row normalization covers every head.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property, singledispatch
from typing import Optional

import numpy as np

from . import autodiff as ad
from ._params import _leaf_array
from .autodiff import DiffValue


class CardinalityError(ValueError):
    pass


def _split(n_rows: int, set_size: Optional[int]):
    """(set size n, number of sets P >= 1); set_size None: one set of all rows."""
    n = n_rows if set_size is None else int(set_size)
    if not 0 < n <= n_rows or n_rows % n:
        raise CardinalityError(f"{n_rows} rows do not split into sets of {n}")
    return n, n_rows // n


def _weights(q, k, blocks: int) -> DiffValue:
    """Attention weights softmax(q_j k_j^T / sqrt(width)), row by row, for
    each of the `blocks` row blocks j of q and k: every set (and, for the
    full form, every head of every set) is one block, so attention never
    crosses a set."""
    scores = ad.mul(ad.matmul_nt(q, k, blocks), 1.0 / math.sqrt(q.shape[1]))
    return ad.softmax_rows(scores)


# ---------------------------------------------------------------------------
# simplified two-layer attention form


@dataclass
class SimpleSetParams:
    """Single-head, two-attention-layer set function on width d.

    Weight naming: w1* / b1* are the first (self-attention) layer, w2* /
    b2* the pooling layer queried by the learnable seed row.
    """

    w1q: np.ndarray
    w1k: np.ndarray
    w1v: np.ndarray
    w2q: np.ndarray
    w2k: np.ndarray
    w2v: np.ndarray
    b1q: np.ndarray
    b1k: np.ndarray
    b1v: np.ndarray
    b2q: np.ndarray
    b2k: np.ndarray
    b2v: np.ndarray
    seed: np.ndarray  # (1, d) pooling query


def init_simple(d: int, rng: np.random.Generator) -> SimpleSetParams:
    """Random init; value path starts near the identity so the singleton
    pass begins close to an identity feature map."""
    s = 0.5 / math.sqrt(d)

    def mat():
        return rng.standard_normal((d, d)) * s

    def row():
        return np.zeros((1, d))

    eye = np.eye(d)
    return SimpleSetParams(
        w1q=mat(), w1k=mat(), w1v=eye + 0.1 * mat(),
        w2q=mat(), w2k=mat(), w2v=eye + 0.1 * mat(),
        b1q=row(), b1k=row(), b1v=row(),
        b2q=row(), b2k=row(), b2v=row(),
        seed=rng.standard_normal((1, d)) * s,
    )


def effective_affine(p: SimpleSetParams):
    """Row-convention affine (M, b) with singleton output h @ M + b.

    M is the transpose of the column-convention combined value matrix; b
    likewise. Recomputed from the fields, never stored.
    """
    w1v, w2v = _leaf_array(p.w1v), _leaf_array(p.w2v)
    return w1v @ w2v, _leaf_array(p.b1v) @ w2v + _leaf_array(p.b2v)


def simple_forward(p: SimpleSetParams, x, set_size: Optional[int] = None) -> DiffValue:
    """Two attention applications: self-attention over the set, then
    pooling attention queried by the seed row. A singleton reduces to the
    value path h W1v W2v plus biases."""
    h1 = ad._lift(x)
    n, sets = _split(h1.shape[0], set_size)
    if n == 1:  # both attention weights are 1
        v1 = ad.affine(h1, p.w1v, p.b1v)
        return ad.affine(v1, p.w2v, p.b2v)

    q1 = ad.affine(h1, p.w1q, p.b1q)
    k1 = ad.affine(h1, p.w1k, p.b1k)
    v1 = ad.affine(h1, p.w1v, p.b1v)
    h2 = ad.matmul(_weights(q1, k1, sets), v1, sets)

    # one seed query per set: 1-row blocks against the set's n-row blocks
    q2 = ad.affine(ad.broadcast_to(p.seed, (sets, p.seed.shape[1])), p.w2q, p.b2q)
    k2 = ad.affine(h2, p.w2k, p.b2k)
    v2 = ad.affine(h2, p.w2v, p.b2v)
    return ad.matmul(_weights(q2, k2, sets), v2, sets)


def alpha_pair(p: SimpleSetParams, h, h_prime):
    """Attention probabilities and the induced pair coefficient.

    Returns (alpha, p1, p1_tilde, p2) where p1/p1_tilde are the first
    column of the 2x2 self-attention softmax, p2 the first entry of the
    pooling softmax, and alpha = p2(1-p1) + (1-p2)(1-p1_tilde).
    """
    H = np.vstack([np.asarray(_leaf_array(x), dtype=np.float64).reshape(1, -1)
                   for x in (h, h_prime)])
    d = H.shape[1]

    def soft(z):
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    q1 = H @ _leaf_array(p.w1q) + _leaf_array(p.b1q)
    k1 = H @ _leaf_array(p.w1k) + _leaf_array(p.b1k)
    s1 = soft(q1 @ k1.T / math.sqrt(d))
    h2 = s1 @ (H @ _leaf_array(p.w1v) + _leaf_array(p.b1v))
    q2 = _leaf_array(p.seed) @ _leaf_array(p.w2q) + _leaf_array(p.b2q)
    k2 = h2 @ _leaf_array(p.w2k) + _leaf_array(p.b2k)
    s2 = soft(q2 @ k2.T / math.sqrt(d))
    p1, p1t, p2 = s1[0, 0], s1[1, 0], s2[0, 0]
    alpha = p2 * (1.0 - p1) + (1.0 - p2) * (1.0 - p1t)
    return alpha, p1, p1t, p2


# ---------------------------------------------------------------------------
# full 4-head set transformer


N_HEADS = 4
DROPOUT_RATE = 0.1  # the default rate of the full form's two dropout sites


@dataclass
class AttnHead:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    ln_gain: np.ndarray
    ln_bias: np.ndarray


@dataclass
class AttnBlock:
    heads: list
    w: np.ndarray        # (d_h, d_h) post-attention affine
    b: np.ndarray        # (1, d_h)
    ln_gain: np.ndarray  # (1, d_h)
    ln_bias: np.ndarray

    @cached_property
    def packed(self) -> AttnHead:
        """Every head tensor of the block with the heads side by side, head
        j in column block j: one `concat_cols` node each, built once per
        block. Binding makes new blocks and no leaf changes in place, so
        the cache never outlives its leaves."""
        return AttnHead(*(ad.concat_cols(*(getattr(hd, f.name) for hd in self.heads))
                          for f in dataclasses.fields(AttnHead)))


@dataclass
class FullSetTransformerParams:
    """Two self-attention encoder blocks, one attention-pooling block with a
    learnable seed, and an output affine back to the element width."""

    block1: AttnBlock
    block2: AttnBlock
    block3: AttnBlock  # pooling block; query built from `seed`
    seed: np.ndarray   # (1, d_h)
    w4: np.ndarray     # (d_h, d)
    b4: np.ndarray     # (1, d)
    dropout_rate: float = DROPOUT_RATE

    @property
    def hidden(self) -> int:
        return _leaf_array(self.w4).shape[0]


def _init_head(d_in: int, d_k: int, rng) -> AttnHead:
    s = 1.0 / math.sqrt(d_in)
    return AttnHead(
        wq=rng.standard_normal((d_in, d_k)) * s,
        wk=rng.standard_normal((d_in, d_k)) * s,
        wv=rng.standard_normal((d_in, d_k)) * s,
        bq=np.zeros((1, d_k)),
        bk=np.zeros((1, d_k)),
        bv=np.zeros((1, d_k)),
        ln_gain=np.ones((1, d_k)),
        ln_bias=np.zeros((1, d_k)),
    )


def _init_block(d_in: int, d_h: int, rng) -> AttnBlock:
    d_k = d_h // N_HEADS
    return AttnBlock(
        heads=[_init_head(d_in, d_k, rng) for _ in range(N_HEADS)],
        w=rng.standard_normal((d_h, d_h)) / math.sqrt(d_h),
        b=np.zeros((1, d_h)),
        ln_gain=np.ones((1, d_h)),
        ln_bias=np.zeros((1, d_h)),
    )


def check_hidden(d_h: int) -> None:
    """The full form's hidden width splits into N_HEADS heads of width >= 1."""
    if not (d_h > 0 and d_h % N_HEADS == 0):
        raise ValueError(f"hidden width {d_h} is not a positive multiple of {N_HEADS}")


def init_full(d: int, d_h: Optional[int], rng: np.random.Generator,
              dropout_rate: Optional[float] = None) -> FullSetTransformerParams:
    if d_h is None:
        d_h = N_HEADS * max(2, (d + 1) // 2)
    check_hidden(d_h)
    return FullSetTransformerParams(
        block1=_init_block(d, d_h, rng),
        block2=_init_block(d_h, d_h, rng),
        block3=_init_block(d_h, d_h, rng),
        seed=rng.standard_normal((1, d_h)) / math.sqrt(d_h),
        w4=rng.standard_normal((d_h, d)) / math.sqrt(d_h),
        b4=np.zeros((1, d)),
        dropout_rate=DROPOUT_RATE if dropout_rate is None else dropout_rate,
    )


def _attend(block: AttnBlock, queries, keys_values, sets: int, one_key: bool) -> DiffValue:
    """Multi-head attention with per-head layer norm on Q + softmax(QK/s)V,
    the heads' outputs side by side.

    The queries and keys_values rows hold `sets` sets each, as consecutive
    equal row blocks. The heads run as row blocks of one matrix, so head j
    of set p is block j * sets + p of the products. With
    one_key (every query's set is the single matching row of keys_values)
    the weights are 1 and V is used as it is."""
    w, h = block.packed, len(block.heads)
    q = ad.affine(queries, w.wq, w.bq)
    v = ad.affine(keys_values, w.wv, w.bv)
    if one_key:
        a = ad.heads_to_rows(ad.add(q, v), h)
    else:
        q = ad.heads_to_rows(q, h)
        k = ad.heads_to_rows(ad.affine(keys_values, w.wk, w.bk), h)
        v = ad.matmul(_weights(q, k, h * sets), ad.heads_to_rows(v, h), h * sets)
        a = ad.add(q, v)
    return ad.scale_shift(ad.rows_to_heads(ad.normalize_rows(a), h), w.ln_gain, w.ln_bias)


def _block_mix(block: AttnBlock, o, first_block: bool) -> DiffValue:
    ff = ad.leaky_relu(ad.affine(o, block.w, block.b), 0.0)
    if first_block:
        # encoder block 1: norm the attention output, then add the ff branch
        return ad.add(ad.scale_shift(ad.normalize_rows(o), block.ln_gain, block.ln_bias), ff)
    return ad.scale_shift(ad.normalize_rows(ad.add(o, ff)), block.ln_gain, block.ln_bias)


def make_full_masks(p: FullSetTransformerParams, n_rows: int, rng: np.random.Generator,
                    set_size: Optional[int] = None):
    """Binary keep-masks for the two dropout sites of one forward pass over
    n_rows rows in sets of set_size: (n_rows, d_h) for site 2 and
    (sets, d_h) for site 3.

    Sets of two or more are drawn set by set, each set's site-2 rows then
    its site-3 row; singletons draw every site-2 row, then every site-3 row.
    """
    n, sets = _split(n_rows, set_size)
    keep = 1.0 - p.dropout_rate
    d_h = p.hidden
    if n == 1:
        draws = rng.random((2, sets, d_h)) < keep
        m2, m3 = draws[0], draws[1]
    else:
        draws = rng.random((sets, n + 1, d_h)) < keep
        m2, m3 = draws[:, :n].reshape(n_rows, d_h), draws[:, n]
    return m2.astype(np.float64), m3.astype(np.float64)


def full_forward(p: FullSetTransformerParams, x, masks=None,
                 set_size: Optional[int] = None) -> DiffValue:
    """Encoder blocks, attention pooling from the seed, output affine.

    masks is the (site-2, site-3) pair from `make_full_masks`; omit it for
    the deterministic eval path.
    """
    x = ad._lift(x)
    n, sets = _split(x.shape[0], set_size)
    one = n == 1
    g1 = _block_mix(p.block1, _attend(p.block1, x, x, sets, one), first_block=True)
    h2 = _block_mix(p.block2, _attend(p.block2, g1, g1, sets, one), first_block=False)
    if masks is not None:
        m2, m3 = masks
        h2 = ad.dropout(h2, p.dropout_rate, m2)
    seeds = ad.broadcast_to(p.seed, (sets, p.seed.shape[1]))  # one pooling query per set
    pooled = _attend(p.block3, seeds, h2, sets, one)
    h3 = _block_mix(p.block3, pooled, first_block=False)
    if masks is not None:
        h3 = ad.dropout(h3, p.dropout_rate, m3)
    return ad.affine(h3, p.w4, p.b4)


# ---------------------------------------------------------------------------
# deep sets


@dataclass
class DeepSetsParams:
    """Affine stacks around a mean pool; empty stacks mean identity."""

    pre: list = field(default_factory=list)   # list of (w, b)
    post: list = field(default_factory=list)  # list of (w, b); last is affine-only


def init_deepsets(d: int, widths, rng: np.random.Generator) -> DeepSetsParams:
    dims = [d, *widths]

    def affine(din, dout):
        return [rng.standard_normal((din, dout)) * math.sqrt(1.0 / din), np.zeros((1, dout))]

    pre = [affine(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    post_dims = [dims[-1], *reversed(widths[:-1]), d] if widths else [d, d]
    post = [affine(post_dims[i], post_dims[i + 1]) for i in range(len(post_dims) - 1)]
    return DeepSetsParams(pre=pre, post=post)


def deepsets_forward(p: DeepSetsParams, x, set_size: Optional[int] = None) -> DiffValue:
    x = ad._lift(x)
    n, sets = _split(x.shape[0], set_size)
    x = ad.affine_stack(x, p.pre)
    if n > 1:  # the mean of each set's n consecutive rows
        x = ad.mul(ad.scatter_rows(x, np.repeat(np.arange(sets), n), sets), 1.0 / n)
    return ad.affine_stack(x, p.post, activate_last=False)


# ---------------------------------------------------------------------------
# identity (vanilla baseline; singleton passes only)


@dataclass
class IdentitySet:
    """Placeholder for the identity feature map of the vanilla baseline."""


# kind name -> parameter class; the order is the checkpoint's set-kind code
KINDS = {"identity": IdentitySet, "simple": SimpleSetParams,
         "full": FullSetTransformerParams, "deepsets": DeepSetsParams}


def kind_of(params) -> str:
    return list(KINDS)[list(KINDS.values()).index(type(params))]


def build(kind: str, d: int, rng: np.random.Generator, hidden: Optional[int] = None,
          dropout_rate: Optional[float] = None):
    """A new set function of `kind` on width d; hidden and dropout_rate are
    the full form's, None its defaults. The identity draws nothing from rng."""
    if kind == "simple":
        return init_simple(d, rng)
    if kind == "full":
        return init_full(d, hidden, rng, dropout_rate)
    if kind == "deepsets":
        return init_deepsets(d, (max(8, d),), rng)
    if kind == "identity":
        return IdentitySet()
    raise ValueError(f"unknown set kind {kind!r}")


# ---------------------------------------------------------------------------
# dispatch surface used by the loss paths


@singledispatch
def set_forward(params, x, masks=None, set_size=None) -> DiffValue:
    """Apply the set function to every set of `set_size` consecutive rows of
    the (N, d) matrix x (default: all rows are one set); returns one row
    per set.

    masks is the dropout pair from `make_masks` for the same rows and sets,
    or None for the deterministic eval path.
    """
    raise TypeError(f"unknown set function parameters: {type(params).__name__}")


@set_forward.register
def _(params: SimpleSetParams, x, masks=None, set_size=None):
    return simple_forward(params, x, set_size)


@set_forward.register
def _(params: FullSetTransformerParams, x, masks=None, set_size=None):
    return full_forward(params, x, masks, set_size)


@set_forward.register
def _(params: DeepSetsParams, x, masks=None, set_size=None):
    return deepsets_forward(params, x, set_size)


@set_forward.register
def _(params: IdentitySet, x, masks=None, set_size=None):
    x = ad._lift(x)
    if _split(x.shape[0], set_size)[0] != 1:
        raise CardinalityError("identity set function only accepts singletons")
    return x


def singleton_batch(params, rows, masks=None) -> DiffValue:
    """Every row of `rows` as its own singleton set."""
    return set_forward(params, rows, masks, set_size=1)


def make_masks(params, n_rows: int, rng: np.random.Generator,
               set_size: Optional[int] = None):
    """Dropout masks for one set_forward call over n_rows rows in sets of
    set_size, or None for mask-free kinds."""
    if isinstance(params, FullSetTransformerParams):
        return make_full_masks(params, n_rows, rng, set_size)
    return None
