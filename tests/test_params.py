"""A parameter container as one float64 vector: `_params.flatten` lays the
leaves out in `named_leaves` order and `unflatten` rebuilds the container
as views of a vector."""

import numpy as np
import pytest

from metainterp import _params
from metainterp import protonet as pn
from metainterp import setfunc as sf
from metainterp.autodiff import DiffValue, Tape


@pytest.mark.parametrize("kind", ["simple", "full", "deepsets", "identity"])
def test_round_trip_in_named_arrays_order(kind, rng):
    lam = sf.build(kind, 6, rng)
    named = _params.named_arrays(lam)
    vec = _params.flatten(lam)
    assert vec.dtype == np.float64 and vec.shape == (sum(a.size for _, a in named),)
    assert vec.tobytes() == b"".join(a.tobytes() for _, a in named)
    back = _params.unflatten(lam, vec)
    assert type(back) is type(lam)
    for (name, a), (name_back, b) in zip(named, _params.named_arrays(back), strict=True):
        assert name_back == name and b.shape == a.shape
        assert np.shares_memory(b, vec) and b.tobytes() == a.tobytes()


def test_unflatten_gives_views_of_the_vector(rng):
    theta = pn.init_encoder([5, 4, 3], 1, rng)
    vec = _params.flatten(theta)
    back = _params.unflatten(theta, vec)
    vec[-1] = 7.0
    assert back.layers[-1].b[0, -1] == 7.0
    assert back.split == theta.split and back.slope == theta.slope
    assert not np.shares_memory(vec, theta.layers[-1].b)  # flatten copies


def test_lists_of_diffvalues_and_arrays(rng):
    theta = pn.init_encoder([5, 4, 3], 1, rng)
    leaves = _params.leaves(_params.bind(theta, Tape()))
    assert all(isinstance(x, DiffValue) for x in leaves)
    vec = _params.flatten(leaves)
    assert vec.tobytes() == _params.flatten(theta).tobytes()
    views = _params.unflatten(leaves, 2.0 * vec)
    assert isinstance(views, list) and len(views) == len(leaves)
    for v, x in zip(views, leaves):
        assert isinstance(v, np.ndarray) and v.shape == x.shape
        assert v.tobytes() == (2.0 * x.data).tobytes()
    assert _params.flatten([]).shape == (0,)


def test_values_and_from_named_arrays_copy_into_one_vector(rng):
    lam = sf.build("simple", 4, rng)
    for copy in (_params.values(lam), _params.from_named_arrays(
            lam, dict(_params.named_arrays(lam, "lam")), "lam")):
        leaves = _params.leaves(copy)
        assert leaves[0].base is not None and all(x.base is leaves[0].base for x in leaves)
        assert not any(np.shares_memory(x, y) for x, y in zip(leaves, _params.leaves(lam)))
        assert _params.flatten(copy).tobytes() == _params.flatten(lam).tobytes()
