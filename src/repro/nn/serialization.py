"""Model parameter (de)serialisation to ``.npz`` files."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.nn.layers import Module

PathLike = Union[str, Path]


def state_dict(model: Module) -> Dict[str, np.ndarray]:
    """Collect parameters and buffers keyed by their attribute path."""
    state: Dict[str, np.ndarray] = {}
    for name, parameter in model.named_parameters():
        state[f"param:{name}"] = np.array(parameter.data, copy=True)
    for name, buffer in model.named_buffers():
        state[f"buffer:{name}"] = np.array(buffer, copy=True)
    return state


def load_state_dict(model: Module, state: Dict[str, np.ndarray]) -> None:
    """Load a state dict produced by :func:`state_dict` into ``model``.

    Raises :class:`KeyError`, before changing anything, if ``state`` lacks
    any of the model's parameters or buffers: a partial checkpoint would
    otherwise leave those at their fresh initialisation.
    """
    parameters = dict(model.named_parameters())
    expected = [f"param:{name}" for name in parameters]
    expected += [f"buffer:{name}" for name, _ in model.named_buffers()]
    missing = [key for key in expected if key not in state]
    if missing:
        raise KeyError(f"State dict lacks {', '.join(missing)}")
    for key, value in state.items():
        kind, _, name = key.partition(":")
        if kind == "param":
            if name not in parameters:
                raise KeyError(f"Unknown parameter in state dict: {name}")
            target = parameters[name]
            if target.data.shape != value.shape:
                raise ValueError(
                    f"Shape mismatch for parameter {name}: "
                    f"model {target.data.shape} vs saved {value.shape}"
                )
            target.data = np.array(value, copy=True)
        elif kind == "buffer":
            _assign_buffer(model, name, value)
        else:  # pragma: no cover - defensive
            raise ValueError(f"Malformed state dict key: {key}")


def _assign_buffer(model: Module, dotted: str, value: np.ndarray) -> None:
    """Walk ``a.b.0.c``-style buffer paths structurally and assign ``value``.

    Name parts resolve by attribute lookup; digit parts index whatever the
    previous part resolved to — a plain list/tuple of submodules (the common
    case: ``Selector.dilated``-style containers) or any indexable ``Module``
    (``Sequential``, or ModuleList-style containers whose state dicts use the
    framework convention of indexing the container itself).  The attribute is
    always resolved by name *before* indexing; nothing assumes the container
    hides its children under a ``layers`` attribute.
    """
    parts = dotted.split(".")
    target = model
    for part in parts[:-1]:
        if part.isdigit():
            try:
                target = target[int(part)]
            except TypeError:
                raise KeyError(
                    f"Buffer path '{dotted}' indexes '{part}' into a "
                    f"non-indexable {type(target).__name__}"
                ) from None
        else:
            target = getattr(target, part)
    setattr(target, parts[-1], np.array(value, copy=True))


def save_arrays(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to the ``.npz`` file ``path`` atomically.

    They go to a temporary file beside ``path``, renamed over it once
    complete, so a crash mid-write leaves any previous file intact.
    """
    temporary = path.with_name(path.name + ".tmp")
    try:
        # Through a handle: np.savez appends ".npz" to a path that lacks it.
        with open(temporary, "wb") as handle:
            np.savez(handle, **arrays)
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_model(model: Module, path: PathLike) -> Path:
    """Save model parameters/buffers to an ``.npz`` file and return the path."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    save_arrays(path, state_dict(model))
    return path


def load_model(model: Module, path: PathLike) -> Module:
    """Load parameters saved by :func:`save_model` into ``model`` in place."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as archive:
        load_state_dict(model, {key: archive[key] for key in archive.files})
    return model
