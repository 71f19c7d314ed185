"""Reference forms that the batched program replaced, kept to test it.

* The per-pair training loss: every task pair builds graphs of its own,
  the singleton loss embeds supports and queries in two passes, rows are
  picked by products with dense selection matrices and each loss term is
  a cross-entropy of its own.
* The masked set functions: all sets of a call attend in one (N, N)
  score matrix, and a constant -1e30 on the scores between two sets
  keeps attention inside each set.
* The row normalization whose VJP records 13 nodes: every mean, its
  broadcast, each difference and each product is a node of its own.
* The optimizer step and the Neumann series written per tensor, as loops
  over a parameter set's leaves, where the program runs on one vector.

The first two draw from the random stream exactly as the program does.
"""

import math

import numpy as np

from metainterp import autodiff as ad
from metainterp import bilevel as bl
from metainterp import setfunc as sf
from metainterp.autodiff import DiffValue
from metainterp.interpolate import _extra_members
from metainterp.protonet import MissingClassError, encode_lower, encode_upper

# ---------------------------------------------------------------------------
# the per-pair training loss


def prototypes_from_matrix(embeddings, labels, way):
    embeddings = ad._lift(embeddings)
    pick = np.zeros((way, embeddings.shape[0]))
    for i, y in enumerate(labels):
        pick[y - 1, i] = 1.0
    counts = pick.sum(axis=1)
    for k in range(way):
        if counts[k] == 0:
            raise MissingClassError(k + 1)
    pick /= counts[:, None]
    return ad.matmul(DiffValue.const(pick), embeddings)


def pairwise_dists(queries, protos, metric):
    d2 = ad.block_sq_dists(queries, protos, 1)
    if metric == "sqeuclidean":
        return d2
    return ad.powf(ad.add(d2, DiffValue(np.full(d2.shape, 1e-12))), 0.5)


def cross_entropy(dists, labels):
    n, way = dists.shape
    logp = ad.log_softmax_rows(ad.mul(dists, -1.0))
    onehot = np.zeros((n, way))
    for i, y in enumerate(labels):
        onehot[i, y - 1] = 1.0
    picked = ad.sum_all(ad.mul(logp, DiffValue.const(onehot)))
    return ad.mul(ad.mul(picked, 1.0 / n), -1.0)


def embed_batch(lam, theta, x, mode, rng):
    h = encode_lower(theta, x)
    masks = sf.make_masks(lam, h.shape[0], rng, set_size=1) if mode == "train" else None
    return encode_upper(theta, sf.set_forward(lam, h, masks, set_size=1))


def loss_singleton(lam, theta, task, mode, rng, metric):
    es = embed_batch(lam, theta, task.xs, mode, rng)
    eq = embed_batch(lam, theta, task.xq, mode, rng)
    protos = prototypes_from_matrix(es, task.ys, task.way)
    return cross_entropy(pairwise_dists(eq, protos, metric), task.yq)


def _gather(h, index, fill=None):
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    pick = np.zeros((len(index), h.shape[0]))
    used = np.flatnonzero(index >= 0)
    pick[used, index[used]] = 1.0
    out = ad.matmul(DiffValue.const(pick), h)
    return out if fill is None else ad.add(out, DiffValue.const(fill))


def class_sets(a, b, n1, n2, rng):
    return [[a[i], *a[_extra_members(i, n1 - 1, len(a), rng)],
             b[j], *b[_extra_members(j, n2 - 1, len(b), rng)]]
            for i in range(len(a)) for j in range(len(b))]


def interpolated_prototypes(lam, theta, task1, task2, pairing, cfg, mode, rng):
    n = cfg.cardinality
    noise_only = cfg.strategy == "support_noise"
    xs1, ys1, xs2, ys2 = task1.xs, task1.ys, task2.xs, task2.ys
    h = encode_lower(theta, xs1 if noise_only else np.vstack([xs1, xs2]))
    d = h.shape[1]
    index, noise, classes, masks = [], [], [], []
    for k in range(1, task1.way + 1):
        a = np.flatnonzero(ys1 == pairing.sigma1[k - 1])
        if noise_only:
            sets = np.column_stack([a, np.full((len(a), n - 1), -1)]).tolist()
            fill = np.zeros((len(a), n, d))
            fill[:, 1:] = rng.normal(cfg.noise_mean, cfg.noise_std, size=(len(a), n - 1, d))
            noise.append(fill.reshape(-1, d))
        else:
            b = len(xs1) + np.flatnonzero(ys2 == pairing.sigma2[k - 1])
            sets = class_sets(a, b, (n + 1) // 2, n // 2, rng)
        index += sets
        classes += [k] * len(sets)
        if mode == "train":
            masks.append(sf.make_masks(lam, len(sets) * n, rng, set_size=n))
    x = _gather(h, index, np.vstack(noise) if noise else None)
    masks = tuple(map(np.vstack, zip(*masks))) if masks and masks[0] else None
    z = sf.set_forward(lam, x, masks, set_size=n)
    return prototypes_from_matrix(encode_upper(theta, z), classes, task1.way)


def query_partners(task1, task2, pairing, rng):
    label_to_k = {int(pairing.sigma1[k - 1]): k for k in range(1, task1.way + 1)}
    partners, ks = [], []
    for y in task1.yq:
        k = label_to_k[int(y)]
        pool = np.flatnonzero(task2.yq == pairing.sigma2[k - 1])
        partners.append(int(pool[int(rng.integers(len(pool)))]))
        ks.append(k)
    return partners, ks


def loss_mix(lam, theta, task1, task2, pairing, cfg, mode, rng, metric):
    way = task1.way
    if cfg.strategy in ("support", "support_noise", "support_and_query"):
        protos = interpolated_prototypes(lam, theta, task1, task2, pairing, cfg, mode, rng)
        plain = False
    else:
        protos = prototypes_from_matrix(embed_batch(lam, theta, task1.xs, mode, rng),
                                        task1.ys, way)
        plain = True
    if cfg.strategy in ("query", "support_and_query"):
        partners, ks = query_partners(task1, task2, pairing, rng)
        nq = len(task1.yq)
        h = encode_lower(theta, np.vstack([task1.xq, task2.xq]))
        index = np.column_stack([np.arange(nq), nq + np.asarray(partners)])
        masks = sf.make_masks(lam, index.size, rng, set_size=2) if mode == "train" else None
        rows = encode_upper(theta, sf.set_forward(lam, _gather(h, index), masks, set_size=2))
        targets = [int(pairing.sigma1[k - 1]) for k in ks] if plain else ks
    else:
        rows = embed_batch(lam, theta, task1.xq, mode, rng)
        label_to_k = {int(pairing.sigma1[k - 1]): k for k in range(1, way + 1)}
        targets = [label_to_k[int(y)] for y in task1.yq]
    return cross_entropy(pairwise_dists(rows, protos, metric), targets)


def mlti_loss(theta, task1, task2, pairing, beta_params, rng, metric):
    beta_a, beta_b = beta_params
    lam_mix = float(beta_a) if beta_b <= 0 else float(rng.beta(beta_a, beta_b))
    partners, ks = query_partners(task1, task2, pairing, rng)
    xs1, xs2, xq1 = task1.xs, task2.xs, task1.xq
    h = encode_lower(theta, np.vstack([xs1, xs2, xq1, task2.xq]))
    sup_pairs, classes = [], []
    for k in range(1, task1.way + 1):
        a = np.flatnonzero(task1.ys == pairing.sigma1[k - 1])
        b = len(xs1) + np.flatnonzero(task2.ys == pairing.sigma2[k - 1])
        pairs = class_sets(a, b, 1, 1, rng)
        sup_pairs += pairs
        classes += [k] * len(pairs)
    q0 = len(xs1) + len(xs2)
    query_pairs = np.column_stack([q0 + np.arange(len(xq1)),
                                   q0 + len(xq1) + np.asarray(partners)])
    pairs = np.vstack([np.asarray(sup_pairs, dtype=np.int64), query_pairs])
    mix = np.zeros((len(pairs), h.shape[0]))
    mix[np.arange(len(pairs)), pairs[:, 0]] = lam_mix
    mix[np.arange(len(pairs)), pairs[:, 1]] = 1.0 - lam_mix
    e = encode_upper(theta, ad.matmul(DiffValue.const(mix), h))
    n_sup = len(classes)
    protos = prototypes_from_matrix(ad.take_rows(e, np.arange(n_sup)), classes, task1.way)
    rows = ad.take_rows(e, np.arange(n_sup, len(pairs)))
    return cross_entropy(pairwise_dists(rows, protos, metric), ks)


def inner_loss(lam, theta, pairs, cfg, mode="train", rng=None, method="meta-interp"):
    """The mean over pairs of the mean of the method's loss terms, one
    graph per pair and term."""
    if mode == "train" and rng is None:
        raise ValueError("a train-mode loss needs an rng")
    total = None
    for task1, task2, pairing in pairs:
        parts = []
        for name in bl.METHODS[method][0]:
            if name == "single":
                parts.append(loss_singleton(lam, theta, task1, mode, rng, cfg.metric))
            elif name == "mix":
                parts.append(loss_mix(lam, theta, task1, task2, pairing, cfg.interp,
                                      mode, rng, cfg.metric))
            else:
                parts.append(mlti_loss(theta, task1, task2, pairing, cfg.mlti_beta,
                                       rng, cfg.metric))
        term = parts[0] if len(parts) == 1 else ad.mul(ad.add(*parts), 0.5)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / len(pairs))


# ---------------------------------------------------------------------------
# the masked set functions

_OFF = -1e30  # additive score mask: exp underflows to exactly 0


def _set_masks(n, sets, heads=1):
    if n == 1 or sets == 1:
        return None, None
    member = np.kron(np.eye(sets), np.ones((1, n)))
    within = np.where(member.T @ member > 0.0, 0.0, _OFF)
    pool = np.where(member > 0.0, 0.0, _OFF)
    return DiffValue(np.tile(within, (heads, 1))), DiffValue(np.tile(pool, (heads, 1)))


def _weights(q, k, mask, heads=1):
    qk = ad.matmul_nt(q, k, heads)
    scores = ad.mul(qk, 1.0 / math.sqrt(q.shape[1]))
    if mask is not None:
        scores = ad.add(scores, mask)
    return ad.softmax_rows(scores)


def _simple(p, x, n, sets):
    if n == 1:
        return ad.affine(ad.affine(x, p.w1v, p.b1v), p.w2v, p.b2v)
    within, pool = _set_masks(n, sets)
    q1, k1, v1 = (ad.affine(x, w, b) for w, b in
                  ((p.w1q, p.b1q), (p.w1k, p.b1k), (p.w1v, p.b1v)))
    h2 = ad.matmul(_weights(q1, k1, within), v1)
    q2 = ad.affine(ad.broadcast_to(p.seed, (sets, p.seed.shape[1])), p.w2q, p.b2q)
    k2 = ad.affine(h2, p.w2k, p.b2k)
    v2 = ad.affine(h2, p.w2v, p.b2v)
    return ad.matmul(_weights(q2, k2, pool), v2)


def _attend(block, queries, keys_values, mask, one_key):
    w, h = block.packed, len(block.heads)
    q = ad.affine(queries, w.wq, w.bq)
    v = ad.affine(keys_values, w.wv, w.bv)
    if one_key:
        a = ad.heads_to_rows(ad.add(q, v), h)
    else:
        q = ad.heads_to_rows(q, h)
        k = ad.heads_to_rows(ad.affine(keys_values, w.wk, w.bk), h)
        v = ad.matmul(_weights(q, k, mask, h), ad.heads_to_rows(v, h), h)
        a = ad.add(q, v)
    return ad.scale_shift(ad.rows_to_heads(ad.normalize_rows(a), h), w.ln_gain, w.ln_bias)


def _full(p, x, masks, n, sets):
    within, pool = _set_masks(n, sets, sf.N_HEADS)
    one = n == 1
    g1 = sf._block_mix(p.block1, _attend(p.block1, x, x, within, one), first_block=True)
    h2 = sf._block_mix(p.block2, _attend(p.block2, g1, g1, within, one), first_block=False)
    if masks is not None:
        h2 = ad.dropout(h2, p.dropout_rate, masks[0])
    seeds = ad.broadcast_to(p.seed, (sets, p.seed.shape[1]))
    pooled = _attend(p.block3, seeds, h2, pool, one)
    h3 = sf._block_mix(p.block3, pooled, first_block=False)
    if masks is not None:
        h3 = ad.dropout(h3, p.dropout_rate, masks[1])
    return ad.affine(h3, p.w4, p.b4)


def _deepsets(p, x, n, sets):
    x = ad.affine_stack(x, p.pre)
    if n > 1:
        member = DiffValue(np.kron(np.eye(sets), np.ones((1, n))))
        x = ad.mul(ad.matmul(member, x), 1.0 / n)
    return ad.affine_stack(x, p.post, activate_last=False)


def masked_set_forward(p, x, masks=None, set_size=None):
    """`setfunc.set_forward` with every set of the call in one masked
    attention."""
    x = ad._lift(x)
    n = x.shape[0] if set_size is None else set_size
    sets = x.shape[0] // n
    if isinstance(p, sf.SimpleSetParams):
        return _simple(p, x, n, sets)
    if isinstance(p, sf.FullSetTransformerParams):
        return _full(p, x, masks, n, sets)
    return _deepsets(p, x, n, sets)


# ---------------------------------------------------------------------------
# the row normalization with its VJP written out in primitives


def normalize_rows(x, eps=1e-12):
    """`autodiff.normalize_rows` with the VJP it had before
    `normalize_rows_vjp` fused it into one node."""
    x = ad._lift(x)
    xc, inv = ad._centered(x.data, eps)

    def vjp(ops, g, need, y, x):
        # inv * (g - mean(g) - y * mean(g * y)), row by row
        m, n = x.shape
        mean_g = ops.broadcast_to(ops.mul(ops.sum_to(g, (m, 1)), 1.0 / n), (m, n))
        mean_gy = ops.broadcast_to(ops.mul(ops.sum_to(ops.mul(g, y), (m, 1)), 1.0 / n), (m, n))
        inner = ops.sub(ops.sub(g, mean_g), ops.mul(y, mean_gy))
        return (ops.mul(ops.broadcast_to(ops._inv_std_rows(x, eps, inv), (m, n)), inner),)

    return ad._make(xc * inv, (x,), vjp)


# ---------------------------------------------------------------------------
# the optimizer step and the Neumann series, tensor by tensor


def opt_step(kind, moments, t, arrays, grads, lr):
    """`bilevel.opt_step` as a loop over tensors: SGD, or adaptive moments
    (beta1=0.9, beta2=0.999, eps=1e-8) at step t, with moments = (m, v) two
    lists of per-tensor arrays that the step replaces in place."""
    if kind == "sgd":
        return [a - lr * g for a, g in zip(arrays, grads)]
    b1, b2, eps = 0.9, 0.999, 1e-8
    m, v = moments
    out = []
    for i, (a, g) in enumerate(zip(arrays, grads)):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        mhat = m[i] / (1 - b1 ** t)
        vhat = v[i] / (1 - b2 ** t)
        out.append(a - lr * mhat / (np.sqrt(vhat) + eps))
    return out


def neumann_hypergrad(dltr_dtheta, theta_leaves, lam_leaves, dlv_dtheta, dlv_dlam, alpha, q):
    """`bilevel.neumann_hypergrad` with v1 and p held as lists of per-leaf
    arrays, seeded one DiffValue per leaf."""
    v1 = [np.array(v, dtype=np.float64) for v in dlv_dtheta]
    p = [v.copy() for v in v1]
    for _ in range(q):
        hvp = ad.grad(dltr_dtheta, theta_leaves,
                      grad_outputs=[DiffValue.const(v) for v in v1])
        v1 = [v - alpha * h.data for v, h in zip(v1, hvp)]
        for i in range(len(p)):
            p[i] = p[i] + v1[i]
    v2 = ad.grad(dltr_dtheta, lam_leaves,
                 grad_outputs=[DiffValue.const(alpha * pi) for pi in p])
    return [gl - g2.data for gl, g2 in zip(dlv_dlam, v2)]
