"""The names the benchmark harness (`perfbench/`) reads from the package.

The harness wraps functions by name, calls some by position and reads
task rows through `Task.support`; renaming or reordering any of them
breaks only the benchmark's traced and checked runs. These checks read
`perfbench/` and change nothing there.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import metainterp
import metainterp.cli  # noqa: F401  (imports every layer, as the harness does)
from metainterp import _params
from metainterp import bilevel as bl
from metainterp import episodes as ep
from metainterp import interpolate as itp
from metainterp import protonet as pn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    """`perfbench/spans.py`'s TRACED tuple, read from its source."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for mod_name, fn_name in traced:
        assert callable(getattr(getattr(metainterp, mod_name), fn_name)), (mod_name, fn_name)


def test_positional_parameters_the_checks_pass():
    # checks.hypergradient reads hypergrad's generator as rest[5] after
    # (theta, lam_live, theta_leaves); checks.val_loss calls loss_singleton
    # with (lam, theta, task, "eval", None, metric)
    hyper = list(inspect.signature(bl.hypergrad).parameters.values())
    assert hyper[8].name == "rng" and "Generator" in str(hyper[8].annotation)
    single = list(inspect.signature(pn.loss_singleton).parameters)
    assert single[:6] == ["lam", "theta", "task", "mode", "rng", "metric"]


def test_task_rows_have_features_and_label():
    task = ep.Task(np.eye(2), [1, 2], np.ones((1, 2)), [2], way=2)
    first = task.support[0]
    assert np.array_equal(first.features, [1.0, 0.0]) and first.label == 1


@pytest.mark.parametrize("set_kind", ["simple", "full"])
def test_hypergrad_gives_one_array_per_lam_tensor(set_kind, monkeypatch):
    # checks.hypergradient copies the bound λ it sees with _params.values
    # and pairs hypergrad's result by position with the lam. tensors of
    # model_to_named
    ds = ep.gen_gaussian_tasks(ep.GenConfig(way=3, shots=1, queries=3, dim=5, train_tasks=4,
                                            val_tasks=2, test_tasks=2, seed=1))
    cfg = bl.TrainConfig(max_iters=2, update_period=2, batch_size=2, encoder_widths=(8, 6),
                         interp=itp.InterpConfig(layer=1), set_kind=set_kind, patience=0)
    state = bl.init_state(ds, cfg, "meta-interp")
    seen = {}
    original = bl.hypergrad

    def record(theta, lam_live, *rest):
        seen["lam"] = _params.values(lam_live)
        seen["g"] = original(theta, lam_live, *rest)
        return seen["g"]

    monkeypatch.setattr(bl, "hypergrad", record)
    for _ in range(cfg.update_period):
        bl.train_step(state, ds, cfg, "meta-interp")
    assert all(isinstance(x, np.ndarray) for x in _params.leaves(seen["lam"]))
    named = bl.model_to_named(state.theta, seen["lam"], cfg)
    lam_shapes = [a.shape for k, a in named.items() if k.startswith("lam.")]
    assert isinstance(seen["g"], list)
    assert [np.shape(g) for g in seen["g"]] == lam_shapes
