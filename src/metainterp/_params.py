"""Helpers for dataclass parameter containers.

Containers hold float64 numpy leaves (or DiffValues after binding).
`named_arrays` flattens a container to (name, array) pairs in a stable
order — the order checkpoints and optimizer slots rely on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autodiff import DiffValue, Tape


def _is_leaf(x) -> bool:
    return isinstance(x, (np.ndarray, DiffValue))


def _leaf_array(x) -> np.ndarray:
    return x.data if isinstance(x, DiffValue) else x


def named_arrays(obj, prefix: str = "") -> list:
    """Flatten nested dataclasses/lists into ordered (name, ndarray) pairs."""
    out = []
    if _is_leaf(obj):
        out.append((prefix or "param", _leaf_array(obj)))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            key = f"{prefix}.{f.name}" if prefix else f.name
            out.extend(named_arrays(v, key))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.extend(named_arrays(v, f"{prefix}[{i}]"))
    # scalars/str/None carry no tensors
    return out


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
    out = []
    if _is_leaf(obj):
        out.append(obj)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            out.extend(leaves(getattr(obj, f.name)))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            out.extend(leaves(v))
    return out


def from_named_arrays(template, pairs: dict):
    """Rebuild a container shaped like template from {name: array}."""
    names = [n for n, _ in named_arrays(template)]
    missing = [n for n in names if n not in pairs]
    if missing:
        raise ValueError(f"missing tensors: {missing[:3]}{'...' if len(missing) > 3 else ''}")
    it = iter(names)
    return _map_leaves(template, lambda _x: np.array(pairs[next(it)], dtype=np.float64))
