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

import metainterp
import metainterp.cli  # noqa: F401  (imports every layer, as the harness does)
from metainterp import bilevel as bl
from metainterp import episodes as ep
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
