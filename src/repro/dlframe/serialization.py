"""Weight-file save/load — the Tables 4/5 "Weight file" column, made real.

The paper reports weight-file sizes for every trained network (e.g. 66.8 MB
for ResNet18 under Alpha).  This module serialises a model's parameters
(and BatchNorm running statistics) to a single ``.npz`` file and restores
them, so the column can be produced by actually writing the file — and so
trained models survive the process.

Parameters are keyed by their path through the module tree
(``stages.3.conv1.weight``-style), which also gives a stable state-dict API
for interoperability tests.
"""

from __future__ import annotations

import io
import pathlib

import numpy as np

from .layers import Module, Parameter

__all__ = ["state_dict", "load_state_dict", "save_weights", "load_weights", "weight_file_bytes"]


def _walk(module: Module, prefix: str = ""):
    """Yield ``(path, owner, name, leaf)`` for every Parameter and BN running
    buffer; a buffer is ``owner``'s attribute ``name``."""
    for name, value in vars(module).items():
        path = f"{prefix}{name}"
        if isinstance(value, Parameter):
            yield path, module, name, value
        elif isinstance(value, np.ndarray) and name.startswith("running_"):
            yield path, module, name, value
        elif isinstance(value, Module):
            yield from _walk(value, f"{path}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, Module):
                    yield from _walk(item, f"{path}.{i}.")
                elif isinstance(item, Parameter):
                    yield f"{path}.{i}", module, name, item


def state_dict(model: Module) -> dict[str, np.ndarray]:
    """Flat mapping from parameter path to array (copies, detached)."""
    out: dict[str, np.ndarray] = {}
    for path, _, _, leaf in _walk(model):
        arr = leaf.data if isinstance(leaf, Parameter) else leaf
        if path in out:
            raise ValueError(f"duplicate parameter path {path!r}")
        out[path] = np.array(arr, copy=True)
    return out


def load_state_dict(model: Module, state: dict[str, np.ndarray]) -> None:
    """Restore parameters (and BN buffers) by assigning new arrays.

    Every key and shape is checked before anything is replaced, so a bad
    state raises and leaves the model as it was.  Each leaf then gets a
    fresh copy of its array, cast to the leaf's dtype.

    Raises
    ------
    KeyError
        If the state is missing a parameter the model has.
    ValueError
        On shape mismatches or unconsumed extra keys.
    """
    remaining = dict(state)
    updates = []
    for path, owner, name, leaf in _walk(model):
        if path not in remaining:
            raise KeyError(f"state dict missing {path!r}")
        arr = np.asarray(remaining.pop(path))
        target = leaf.data if isinstance(leaf, Parameter) else leaf
        if arr.shape != target.shape:
            raise ValueError(
                f"shape mismatch for {path!r}: state {arr.shape} vs model {target.shape}"
            )
        updates.append((owner, name, leaf, np.array(arr, dtype=target.dtype)))
    if remaining:
        raise ValueError(f"state dict has unknown keys: {sorted(remaining)[:5]}")
    for owner, name, leaf, arr in updates:
        if isinstance(leaf, Parameter):
            leaf.data = arr
        else:
            setattr(owner, name, arr)


def save_weights(model: Module, path: str | pathlib.Path) -> int:
    """Write the model's weights to ``path`` (.npz); returns bytes written."""
    path = pathlib.Path(path)
    np.savez(path, **state_dict(model))
    # np.savez appends .npz if absent.
    real = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    return real.stat().st_size


def load_weights(model: Module, path: str | pathlib.Path) -> None:
    """Restore a model from a ``save_weights`` file."""
    with np.load(path) as data:
        load_state_dict(model, {k: data[k] for k in data.files})


def weight_file_bytes(model: Module) -> int:
    """Size of the serialised weight file without touching the filesystem."""
    buf = io.BytesIO()
    np.savez(buf, **state_dict(model))
    return buf.getbuffer().nbytes
