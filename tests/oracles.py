"""Independent numpy oracles used by multiple test modules.

These intentionally avoid the package's autodiff / batched code paths:
plain loops and numpy only.
"""

import numpy as np


def plain_protonet_loss(theta, task, metric="sqeuclidean"):
    """Vanilla prototypical-network episode loss, coded from scratch."""

    def encode(x):
        h = x.astype(np.float64)
        n = len(theta.layers)
        for i, layer in enumerate(theta.layers):
            h = h @ layer.w + layer.b[0]
            if i < n - 1:
                h = np.where(h > 0, h, theta.slope * h)
        return h

    protos = {}
    for k in range(1, task.way + 1):
        members = [encode(x) for x, y in zip(task.xs, task.ys.tolist()) if y == k]
        protos[k] = np.mean(members, axis=0)

    total = 0.0
    for x, label in zip(task.xq, task.yq.tolist()):
        e = encode(x)
        d = np.array(
            [np.sum((e - protos[k]) ** 2) for k in range(1, task.way + 1)]
        )
        if metric == "euclidean":
            d = np.sqrt(d + 1e-12)
        logits = -d
        logits -= logits.max()
        logp = logits - np.log(np.sum(np.exp(logits)))
        total -= logp[label - 1]
    return total / len(task.yq)
