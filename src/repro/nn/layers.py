"""Neural-network layers used by the NEC models and baselines."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Module:
    """Base class for all layers and models.

    Sub-modules and parameters assigned as attributes are discovered
    automatically, mirroring the convention of mainstream frameworks.
    """

    # -- parameter / buffer discovery ----------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable parameters of this module and its children."""
        params: List[Tensor] = []
        seen: set[int] = set()
        for _, tensor in self.named_parameters():
            if id(tensor) not in seen:
                seen.add(id(tensor))
                params.append(tensor)
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{index}")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{index}", item

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Non-trainable arrays a module lists in ``_buffers`` (e.g. a fixed projection)."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Module):
                yield from value.named_buffers(full)
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_buffers(f"{full}.{index}")
        for name in getattr(self, "_buffers", ()):  # type: ignore[attr-defined]
            full = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            yield full, getattr(self, name)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- forward ---------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))


class CastCache:
    """Inference arrays derived from parameters, cast once per dtype.

    Keyed on the parameter arrays themselves (held here and compared with
    ``is``): the optimisers rebind ``.data`` on every step, so a stale cast
    can never be served after training, and a freed array's reused ``id``
    can never pass for the old one.  The sources and their casts are one
    entry, swapped in a single assignment, so a thread never pairs new
    sources with old casts.
    """

    def __init__(self) -> None:
        self._entry: Tuple[tuple, Dict[np.dtype, tuple]] = ((), {})

    def get(
        self,
        sources: Tuple[Optional[np.ndarray], ...],
        dtype: np.dtype,
        derive: Callable[..., Tuple[Optional[np.ndarray], ...]],
    ) -> Tuple[Optional[np.ndarray], ...]:
        """``derive(*sources)`` cast to ``dtype``; ``None`` entries stay ``None``."""
        cached, casts = self._entry
        if len(cached) != len(sources) or any(a is not b for a, b in zip(cached, sources)):
            casts = {}
            self._entry = (sources, casts)
        dtype = np.dtype(dtype)
        cast = casts.get(dtype)
        if cast is None:
            cast = casts[dtype] = tuple(
                None if array is None else array.astype(dtype, copy=False)
                for array in derive(*sources)
            )
        return cast


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape: Tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Dense(Module):
    """Fully connected layer ``y = x W + b`` applied to the last axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _kaiming_uniform(rng, in_features, (in_features, out_features)),
            requires_grad=True,
            name="weight",
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True, name="bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Compose layers in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
