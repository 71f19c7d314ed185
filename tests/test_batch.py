"""The batched episode graph against the per-pair and masked reference
forms of `reference`: one graph per training step must give the same
loss, the same θ and λ gradients and the same random stream."""

import numpy as np
import pytest

import reference
from metainterp import _params
from metainterp import autodiff as ad
from metainterp import bilevel as bl
from metainterp import episodes as ep
from metainterp import interpolate as itp
from metainterp import protonet as pn
from metainterp import setfunc as sf
from metainterp.autodiff import Tape

from conftest import fused_prototypes


def uneven_dataset(seed=7):
    """Three-way tasks with two shots; some tasks lose their last query, so
    episodes of one batch have different query counts."""
    cfg = ep.GenConfig(way=3, shots=2, queries=3, dim=5, train_tasks=3, val_tasks=3,
                       test_tasks=1, spread=1.0, seed=seed)
    ds = ep.gen_gaussian_tasks(cfg)
    for split in (ds.meta_train, ds.meta_val):
        t = split[1]
        split[1] = ep.Task(t.xs, t.ys, t.xq[:-1], t.yq[:-1], t.way)
    return ds


def unequal_shots_dataset(seed=8):
    """Three-way tasks whose classes have 3, 1 and 2 support rows, the
    counts turning from task to task, with the support rows shuffled, so
    the two tasks of a pair differ in their class sizes and no task lists
    its support rows by class."""
    cfg = ep.GenConfig(way=3, shots=3, queries=3, dim=5, train_tasks=3, val_tasks=3,
                       test_tasks=1, spread=1.0, seed=seed)
    ds = ep.gen_gaussian_tasks(cfg)
    for split in (ds.meta_train, ds.meta_val):
        for i, t in enumerate(split):
            counts = np.roll([3, 1, 2], i)
            rows = np.concatenate([np.flatnonzero(t.ys == c)[:counts[c - 1]] for c in (1, 2, 3)])
            rows = np.random.default_rng(i).permutation(rows)
            split[i] = ep.Task(t.xs[rows], t.ys[rows], t.xq, t.yq, t.way)
    return ds


def unequal_queries_dataset(seed=13):
    """Three-way tasks whose classes have 3, 1 and 2 query rows, the counts
    turning from task to task, with the query rows shuffled, so query
    partners are drawn from pools of one row and of several, and no task
    lists its query rows by class."""
    cfg = ep.GenConfig(way=3, shots=2, queries=3, dim=5, train_tasks=3, val_tasks=3,
                       test_tasks=1, spread=1.0, seed=seed)
    ds = ep.gen_gaussian_tasks(cfg)
    for split in (ds.meta_train, ds.meta_val):
        for i, t in enumerate(split):
            counts = np.roll([3, 1, 2], i)
            rows = np.concatenate([np.flatnonzero(t.yq == c)[:counts[c - 1]] for c in (1, 2, 3)])
            rows = np.random.default_rng(i).permutation(rows)
            split[i] = ep.Task(t.xs, t.ys, t.xq[rows], t.yq[rows], t.way)
    return ds


DATASETS = {"uneven": uneven_dataset, "unequal_shots": unequal_shots_dataset,
            "unequal_queries": unequal_queries_dataset}


def config(set_kind, strategy, cardinality, metric="sqeuclidean"):
    return bl.TrainConfig(batch_size=4, seed=5, encoder_widths=(8, 6), set_kind=set_kind,
                          set_hidden=8 if set_kind == "full" else None,
                          dropout_rate=0.3 if set_kind == "full" else None,
                          metric=metric, interp=itp.InterpConfig(
                              strategy=strategy, layer=1, cardinality=cardinality))


def largest_gap(got, want):
    """Largest deviation over all tensors, relative to the largest entry of
    any of them (a structurally zero gradient holds only rounding noise)."""
    scale = max(float(np.max(np.abs(w))) for w in want)
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) / scale


def loss_and_grads(loss_fn, state, pairs, cfg, mode, method, seed):
    rng = None if seed is None else np.random.default_rng(seed)
    tape = Tape()
    theta = _params.bind(state.theta, tape)
    lam = _params.bind(state.lam, tape)
    loss = loss_fn(lam, theta, pairs, cfg, mode, rng, method)
    leaves = _params.leaves(theta) + _params.leaves(lam)
    grads = [g.data for g in ad.grad(loss, leaves)]
    return loss.item(), grads, None if rng is None else rng.bit_generator.state


def _case(method, kind, strategy, card, mode, metric="sqeuclidean", data="uneven"):
    tag = "" if data == "uneven" else f"-{data}"
    return pytest.param(method, kind, strategy, card, mode, metric, data,
                        id=f"{method}-{kind}-{strategy}-{card}-{mode}-{metric}{tag}")


KINDS = ("simple", "full", "deepsets")
MODES = ("train", "eval")
CASES = [_case(method, kind, strategy, card, mode)
         for method in bl.METHODS
         for kind in KINDS
         for strategy in itp.STRATEGIES
         for card in (2, 3)
         for mode in MODES]
CASES += [_case(method, kind, "support_and_query", 2, "train", "euclidean")
          for method in bl.METHODS for kind in ("simple", "full")]
# classes of unequal support counts, which the class tables hold unpadded;
# the manifold-mixup baseline pairs supports from the same tables
CASES += [_case("meta-interp", kind, strategy, card, mode, data="unequal_shots")
          for kind in KINDS for strategy in itp.STRATEGIES for card in (2, 3)
          for mode in MODES]
CASES += [_case("mlti", "simple", "support", 2, mode, data="unequal_shots") for mode in MODES]
# the largest sets: extra members drawn with and without repeats
CASES += [_case("meta-interp", kind, strategy, card, mode, data=data)
          for data in ("uneven", "unequal_shots") for kind in KINDS for strategy in itp.STRATEGIES
          for card in (4, 5) for mode in MODES]
# classes of unequal query counts: every query partner drawn in one call,
# from pools of one row and of several
CASES += [_case("meta-interp", kind, strategy, 2, mode, data="unequal_queries")
          for kind in KINDS for strategy in ("query", "support_and_query") for mode in MODES]
CASES += [_case("mlti", "simple", "support", 2, mode, data="unequal_queries") for mode in MODES]


@pytest.mark.parametrize("method,kind,strategy,card,mode,metric,data", CASES)
def test_batched_loss_matches_per_pair(method, kind, strategy, card, mode, metric, data):
    ds = DATASETS[data]()
    cfg = config(kind, strategy, card, metric)
    state = bl.init_state(ds, cfg, method)
    pairs = bl._sample_batch(ds, cfg, np.random.default_rng(11))
    got = loss_and_grads(bl.inner_loss, state, pairs, cfg, mode, method, 12)
    want = loss_and_grads(reference.inner_loss, state, pairs, cfg, mode, method, 12)
    assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
    assert largest_gap(got[1], want[1]) <= 1e-12
    assert got[2] == want[2]


@pytest.mark.parametrize("strategy", itp.STRATEGIES)
def test_train_mode_without_rng_matches_per_pair(strategy):
    # training draws dropout masks, fused-set members, query partners and
    # the MLTI coefficient from the step's generator: without one, neither
    # a train-mode batch nor any method's inner loss is built, batched or
    # per pair
    ds = uneven_dataset()
    cfg = config("full", strategy, 3)
    pairs = bl._sample_batch(ds, cfg, np.random.default_rng(11))
    for method in bl.METHODS:
        state = bl.init_state(ds, cfg, method)
        with pytest.raises(ValueError, match="needs an rng"):
            pn.Batch(state.lam, state.theta, "train")
        for inner_loss in (bl.inner_loss, reference.inner_loss):
            with pytest.raises(ValueError, match="needs an rng"):
                inner_loss(state.lam, state.theta, pairs, cfg, "train", method=method)


@pytest.mark.parametrize("kind", ["simple", "full", "deepsets"])
def test_validation_matches_per_task(kind):
    ds = uneven_dataset(seed=9)
    state = bl.init_state(ds, config(kind, "support", 2), "meta-interp")
    loss, acc = bl.evaluate_validation(state.lam, state.theta, ds.meta_val, "sqeuclidean")
    losses = [reference.loss_singleton(state.lam, state.theta, t, "eval", None,
                                       "sqeuclidean").item() for t in ds.meta_val]
    accs = [pn.task_accuracy(state.lam, state.theta, t) for t in ds.meta_val]
    assert abs(loss - np.mean(losses)) <= 1e-12 * np.mean(losses)
    assert acc == np.mean(accs)


def test_accuracy_batch_matches_per_task():
    # meta-test accuracy in one batched pass against one pass per task
    ds = uneven_dataset(seed=12)
    state = bl.init_state(ds, config("full", "support", 2), "meta-interp")
    tasks = ds.meta_train + ds.meta_val
    per_task = [pn.task_accuracy(state.lam, state.theta, t) for t in tasks]
    got = pn.accuracy(state.lam, state.theta, tasks, episodes=200, seed=[3, 4])
    rng_draws = [np.random.default_rng([s, 0x5EED]).integers(len(tasks), size=200)
                 for s in (3, 4)]
    assert [mean for mean, _ in got] == [float(np.mean(np.asarray(per_task)[d]))
                                         for d in rng_draws]


def test_repeated_validation_tasks_embed_once():
    # a task drawn twice is one set of lower-stack rows and one of singletons
    ds = uneven_dataset(seed=10)
    state = bl.init_state(ds, config("simple", "support", 2), "meta-interp")
    once, twice = pn.Batch(state.lam, state.theta), pn.Batch(state.lam, state.theta)
    once.add_singleton(ds.meta_val[0])
    for _ in range(2):
        twice.add_singleton(ds.meta_val[0], 0.5)
    a, b = once.forward().loss().item(), twice.forward().loss().item()
    assert abs(a - b) <= 1e-15 * a
    assert sum(len(x) for x in twice._inputs) == sum(len(x) for x in once._inputs)
    assert twice._groups[1].count == once._groups[1].count


def test_interpolated_prototypes_match_per_pair():
    ds = uneven_dataset(seed=11)
    cfg = config("full", "support", 3)
    state = bl.init_state(ds, cfg, "meta-interp")
    t1, t2 = ds.meta_train[0], ds.meta_train[1]
    pairing = itp.pair_classes(3, np.random.default_rng(1))
    got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
    got = fused_prototypes(state.lam, state.theta, t1, t2, pairing, cfg.interp, "train",
                           got_rng)
    want = reference.interpolated_prototypes(state.lam, state.theta, t1, t2, pairing,
                                             cfg.interp, "train", want_rng).data
    sf.make_masks(state.lam, len(t1.yq), want_rng, set_size=1)  # the episode's queries
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_episode_without_queries_rejected():
    ds = uneven_dataset()
    state = bl.init_state(ds, config("simple", "support", 2), "meta-interp")
    batch, task = pn.Batch(state.lam, state.theta), ds.meta_train[0]
    protos = batch.singletons(batch.rows(task, "s"))
    with pytest.raises(ValueError, match="at least one query"):
        batch.episode((1, np.zeros(0, dtype=np.int64)), [], protos, task.ys, task.way)


def test_step_records_one_set_forward_per_set_size(monkeypatch):
    ds = uneven_dataset()
    cfg = config("full", "support_and_query", 3)
    state = bl.init_state(ds, cfg, "meta-interp")
    sizes = []
    real = sf.set_forward

    def spy(params, elems, masks=None, set_size=None):
        sizes.append(set_size)
        return real(params, elems, masks, set_size)

    monkeypatch.setattr(sf, "set_forward", spy)
    pairs = bl._sample_batch(ds, cfg, np.random.default_rng(3))
    bl.inner_loss(state.lam, state.theta, pairs, cfg, "train", np.random.default_rng(4))
    assert sizes == [1, 2, 3]


# ---------------------------------------------------------------------------
# per-set block attention against the masked form


def _set_params(kind, rng):
    if kind == "simple":
        p = sf.init_simple(4, rng)
        for name in ("b1q", "b1k", "b2q", "b2k"):
            setattr(p, name, rng.standard_normal((1, 4)) * 0.3)
        return p
    if kind == "full":
        return sf.init_full(4, 8, rng, dropout_rate=0.25)
    return sf.init_deepsets(4, (6,), rng)


BLOCK_CASES = [(kind, n, sets, masked)
               for kind in ("simple", "full", "deepsets")
               for n in (1, 2, 3)
               for sets in (1, 6)
               for masked in ((False, True) if kind == "full" else (False,))]


@pytest.mark.parametrize("kind,n,sets,masked", BLOCK_CASES)
def test_block_attention_matches_masked(kind, n, sets, masked, rng):
    params = _set_params(kind, rng)
    x0 = rng.standard_normal((n * sets, 4))
    weights = ad.DiffValue.const(rng.standard_normal((sets, 4)))
    masks = sf.make_masks(params, n * sets, rng, set_size=n) if masked else None

    def run(forward):
        tape = Tape()
        lam = _params.bind(params, tape)
        x = tape.param(x0)
        out = forward(lam, x, masks, set_size=n)
        grads = ad.grad(ad.sum_all(ad.mul(out, weights)), _params.leaves(lam) + [x])
        return out.data, [g.data for g in grads]

    got, got_grads = run(sf.set_forward)
    want, want_grads = run(reference.masked_set_forward)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert largest_gap(got_grads, want_grads) <= 1e-12
