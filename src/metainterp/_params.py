"""Helpers for dataclass parameter containers.

Containers hold float64 numpy leaves (or DiffValues after binding).
`named_leaves` walks a container in a stable order — the order
checkpoints and optimizer slots rely on — and `named_arrays` and `leaves`
flatten it along that walk.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autodiff import DiffValue, Tape


def _is_leaf(x) -> bool:
    return isinstance(x, (np.ndarray, DiffValue))


def _leaf_array(x) -> np.ndarray:
    return x.data if isinstance(x, DiffValue) else x


def named_leaves(obj, prefix: str = ""):
    """Walk nested dataclasses/lists, yielding ordered (name, leaf) pairs."""
    if _is_leaf(obj):
        yield prefix or "param", obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            key = f"{prefix}.{f.name}" if prefix else f.name
            yield from named_leaves(getattr(obj, f.name), key)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from named_leaves(v, f"{prefix}[{i}]")
    # scalars/str/None carry no tensors


def named_arrays(obj, prefix: str = "") -> list:
    """Flatten nested dataclasses/lists into ordered (name, ndarray) pairs."""
    return [(name, _leaf_array(x)) for name, x in named_leaves(obj, prefix)]


def _map_leaves(obj, fn):
    if _is_leaf(obj):
        return fn(obj)
    if dataclasses.is_dataclass(obj):
        kwargs = {
            f.name: _map_leaves(getattr(obj, f.name), fn)
            for f in dataclasses.fields(obj)
        }
        return type(obj)(**kwargs)
    if isinstance(obj, list):
        return [_map_leaves(v, fn) for v in obj]
    if isinstance(obj, tuple):
        return tuple(_map_leaves(v, fn) for v in obj)
    return obj


def bind(obj, tape: Tape):
    """Copy of obj with every array leaf bound to tape as a trainable leaf."""
    return _map_leaves(obj, lambda x: tape.param(_leaf_array(x)))


def values(obj):
    """Copy of obj with every DiffValue leaf replaced by its array."""
    return _map_leaves(obj, lambda x: _leaf_array(x).copy())


def leaves(obj) -> list:
    """Ordered leaf list (DiffValues or arrays, as stored)."""
    return [x for _, x in named_leaves(obj)]


def from_named_arrays(template, named: dict, prefix: str = ""):
    """A copy of template whose leaf called n by `named_arrays(template,
    prefix)` is named[n], which must have that leaf's shape."""
    pairs = named_arrays(template, prefix)
    missing = [n for n, _ in pairs if n not in named]
    if missing:
        raise ValueError(f"missing tensors: {missing[:3]}{'...' if len(missing) > 3 else ''}")
    for n, a in pairs:
        if np.shape(named[n]) != a.shape:
            raise ValueError(f"checkpoint tensor {n} has shape {np.shape(named[n])}, expected {a.shape}")
    it = iter(pairs)
    return _map_leaves(template, lambda _x: np.array(named[next(it)[0]], dtype=np.float64))
