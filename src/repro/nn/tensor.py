"""Reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it.  Calling :meth:`Tensor.backward` on a scalar result propagates
gradients back to every tensor created with ``requires_grad=True`` and frees
the graph as it goes: one backward per graph.

The operation set is intentionally small: it is exactly what the NEC Selector,
the d-vector encoder and the VoiceFilter baseline need (element-wise
arithmetic, matmul, reductions, reshaping, concatenation, slicing and the
usual activations).  Convolution is its own autograd node,
:meth:`repro.nn.conv.Conv2d.forward`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return _GRAD_ENABLED


def _freed_backward(grad: np.ndarray) -> None:
    """The backward function of a node whose graph an earlier pass freed."""
    raise RuntimeError("backward() through a graph an earlier backward() freed")


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    # The autograd substrate is float64 by construction: float32 is only ever
    # a dtype of the gradient-free inference kernels, never of training.
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy array with reverse-mode autograd support."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add a gradient that may alias another array: a first one is copied.

        For pass-through backward functions, whose ``grad`` is the child's
        gradient or a view of it (reshape, transpose, slices, an add whose
        operand was not broadcast).
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for a fresh float64 array the caller gives up.

        Binds ``grad`` without the defensive copy: every backward function
        that computes a new array (a product, a reduction, the convolution's
        batched gradients) hands it over here.  Safe because nothing mutates
        a ``.grad`` array in place (the optimiser only reads).
        """
        if not self.requires_grad:
            return
        self.grad = grad if self.grad is None else self.grad + grad

    def _accumulate_unbroadcast(self, grad: np.ndarray) -> None:
        """Add ``grad`` summed down to this tensor's shape; copied only if passed through."""
        reduced = _unbroadcast(grad, self.shape)
        if np.may_share_memory(reduced, grad):
            self._accumulate(reduced)
        else:
            self._accumulate_owned(reduced)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_unbroadcast(grad)
            other._accumulate_unbroadcast(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(_unbroadcast(grad * other.data, self.shape))
            other._accumulate_owned(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(_unbroadcast(grad / other.data, self.shape))
            other._accumulate_owned(
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate_owned(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate_owned(_unbroadcast(grad_other, other.shape))

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(g, self.shape)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis=axis)
                expanded = np.broadcast_to(g, self.shape)
            self._accumulate_owned(expanded.astype(np.float64))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = math.prod(self.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is None:
                mask = (self.data == out_data).astype(np.float64)
                mask /= mask.sum()
                self._accumulate_owned(mask * g)
            else:
                expanded_out = out_data if keepdims else np.expand_dims(out_data, axis=axis)
                g_expanded = g if keepdims else np.expand_dims(g, axis=axis)
                mask = (self.data == expanded_out).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                self._accumulate_owned(mask * g_expanded)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate_owned(full)

        return self._make(out_data, (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad the tensor; ``pad_width`` follows ``numpy.pad`` semantics."""
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + dim)
            for (before, _after), dim in zip(pad_width, self.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Activations / elementwise functions
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * mask)

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self, eps: float = 1e-12) -> "Tensor":
        out_data = np.log(self.data + eps)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad / (self.data + eps))

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * sign)

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * mask)

        return self._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    # ------------------------------------------------------------------
    # Structural ops
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

        requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(np.squeeze(piece, axis=axis))

        requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor, freeing the graph as it goes.

        One backward per graph: once an interior node (one an operation
        produced) has passed its gradient on, its ``grad`` is set to ``None``,
        its parents are dropped and its backward function is replaced by one
        that raises, so each gradient and each activation a closure holds is
        released as soon as the pass has spent it.  Only leaves (parameters
        and tensors made with ``requires_grad=True``) keep their ``grad``.  A
        second ``backward()`` that reaches a freed node raises
        ``RuntimeError``; build the graph again instead.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            # A copy: the root binds its gradient, and a leaf root keeps it.
            grad = np.array(grad, dtype=np.float64, copy=True)

        ordering: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen_on_stack = {id(node)}
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and id(parent) not in seen_on_stack:
                        stack.append((parent, iter(parent._parents)))
                        seen_on_stack.add(id(parent))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    visited.add(id(current))
                    ordering.append(current)

        visit(self)

        self.grad = grad if self.grad is None else self.grad + grad
        while ordering:
            node = ordering.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _freed_backward

