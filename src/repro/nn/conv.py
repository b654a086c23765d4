"""2-D convolution with dilation: one tap-wise kernel for training and inference.

Every pass zero-pads each channel once into a flat ``(C, Hp*Wp + slack)``
buffer, gathers the ``kw`` horizontal taps into ``(C*kw, Hp*Wp)`` columns, and
runs ``kh`` GEMMs at row offsets into those columns for the vertical taps
(:func:`_tap_gemm`).  :meth:`Conv2d.infer` is the gradient-free pass; its
gather, :func:`strided_im2col`, writes into thread-local buffers.
:meth:`Conv2d.forward` is the autograd pass: it gathers one example at a time
into two reused buffers and keeps nothing for backward beyond the graph's own
arrays.  Backward re-gathers the input for the weight gradient, and runs the
input gradient through the same kernel: the output gradient convolved with
the flipped, channel-swapped weights.  Both passes are stride 1 and both are
pinned against the tap-sum reference ``conv2d_reference`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

# Unused here: perfbench/spans.py resolves ``repro.nn.conv.fft_conv2d`` by name.
from repro.nn.fftconv import fft_conv2d  # noqa: F401
from repro.nn.layers import Module
from repro.nn.precision import DTypePolicy, active_policy
from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]

#: Thread-local store of reusable (padded, column) buffer pairs, keyed by the
#: full gather signature.  Fresh multi-megabyte allocations dominate the
#: inference gather (page faults on every call); reusing warm buffers cuts the
#: column gather several-fold without changing a bit — the copy is the same,
#: only the destination memory is recycled.  Thread-local because the serving
#: tick thread and callers on other threads share the layer objects.  The
#: Selector runs at most ``ROWS_PER_PASS`` rows per pass, which bounds every
#: key's row count.
_im2col_buffers = threading.local()

#: Cap on cached shape signatures per thread before the store is dropped;
#: inference runs at a handful of fixed geometries, so this is only a guard
#: against unbounded growth under pathological shape churn.
_IM2COL_CACHE_MAX_KEYS = 32


def _im2col_buffer_store() -> Dict:
    store = getattr(_im2col_buffers, "cache", None)
    if store is None:
        store = {}
        _im2col_buffers.cache = store
    return store


def clear_im2col_buffer_cache() -> None:
    """Drop this thread's reusable im2col buffers (mainly for tests)."""
    _im2col_buffers.cache = {}


def im2col_buffer_cache_info() -> Dict[str, int]:
    """Entry count of this thread's im2col buffer cache."""
    return {"entries": len(_im2col_buffer_store())}


def conv_output_size(
    height: int,
    width: int,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> Tuple[int, int]:
    """Spatial output size of a stride-1 2-D convolution."""
    kh, kw = kernel_size
    out_h = height + 2 * padding[0] - (kh - 1) * dilation[0]
    out_w = width + 2 * padding[1] - (kw - 1) * dilation[1]
    return out_h, out_w


def _checked_output_size(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int]:
    """:func:`conv_output_size` of ``x``'s planes, refusing an empty output."""
    h, w = x.shape[2:]
    out_h, out_w = conv_output_size(h, w, kernel_size, dilation, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"Convolution output would be empty: input {h}x{w}, "
            f"kernel {kernel_size[0]}x{kernel_size[1]}, dilation {dilation}, "
            f"padding {padding}"
        )
    return out_h, out_w


def _gather_buffers(
    shape: Tuple[int, ...],
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
    dtype: np.dtype = np.float64,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The flat padded buffer and the column buffer (``None`` for ``kw == 1``).

    The pad border and the slack after the last row are zeroed here and never
    written again: each gather only overwrites the interior.
    """
    n, c, h, w = shape
    kw, dil_w = kernel_size[1], dilation[1]
    plane = (h + 2 * padding[0]) * (w + 2 * padding[1])
    flat = np.zeros((n, c, plane + (kw - 1) * dil_w), dtype=dtype)
    columns = None if kw == 1 else np.empty((n, c, kw, plane), dtype=dtype)
    return flat, columns


def _gather(
    x: np.ndarray,
    flat: np.ndarray,
    columns: Optional[np.ndarray],
    padding: Tuple[int, int],
    dil_w: int,
) -> np.ndarray:
    """Pad ``x`` into ``flat``, then gather its ``kw`` horizontal taps into ``columns``."""
    n, c, h, w = x.shape
    pad_h, pad_w = padding
    height, width = h + 2 * pad_h, w + 2 * pad_w
    plane = height * width
    padded = flat[:, :, :plane].reshape(n, c, height, width)
    padded[:, :, pad_h : pad_h + h, pad_w : pad_w + w] = x
    if columns is None:
        return flat
    for kx in range(columns.shape[2]):
        shift = kx * dil_w
        columns[:, :, kx] = flat[:, :, shift : shift + plane]
    return columns.reshape(n, -1, plane)


def _tap_gemm(
    cols: np.ndarray,
    slabs: np.ndarray,
    step: int,
    span: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The one GEMM loop: ``sum_ky slabs[ky] @ cols[..., ky*step : ky*step + span]``."""
    out = np.matmul(slabs[0], cols[..., :span], out=out)
    for ky in range(1, len(slabs)):
        out += slabs[ky] @ cols[..., ky * step : ky * step + span]
    return out


def _crop(
    acc: np.ndarray,
    out_h: int,
    out_w: int,
    bias_column: Optional[np.ndarray],
    relu: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Drop the wrap columns of every output row; add the bias, then the ReLU."""
    view = acc.reshape(*acc.shape[:-1], out_h, -1)[..., :out_w]
    if out is None:
        out = np.empty(view.shape, dtype=acc.dtype)
    if bias_column is None:
        np.copyto(out, view)
    else:
        np.add(view, bias_column, out=out)
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _slabs(weight: np.ndarray) -> np.ndarray:
    """``(O, C, kh, kw)`` weights as ``kh`` slabs ``(O, C*kw)`` in gather row order."""
    out_c, in_c, kh, kw = weight.shape
    return weight.transpose(2, 0, 1, 3).reshape(kh, out_c, in_c * kw)


def strided_im2col(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Horizontal-tap gather of a ``(N, C, H, W)`` array, shape ``(N, C*kw, Hp*Wp)``.

    ``Hp, Wp`` is the zero-padded size.  Row ``c*kw + kx`` is channel ``c`` of
    the padded image, flattened row-major, shifted left by ``kx * dil_w``
    elements: ``cols[n, c*kw + kx, p] = flat[n, c, p + kx*dil_w]``.  The
    vertical taps need no copy of their own — tap ``ky`` of an output row is
    the same matrix read ``ky * dil_h * Wp`` columns further on, which is how
    :func:`_tap_gemm` consumes it.  Columns ``out_w..Wp-1`` of each padded
    row read across a row boundary (or into the zero slack after the last
    row) and are cropped by the caller.

    For ``kw == 1`` the result is a view of the padded buffer, no gather at
    all.  The padded and gathered buffers come from a thread-local store
    instead of a fresh allocation.  Inference-only: no autograd graph is
    recorded, and the returned array aliases the per-thread buffers — it is
    valid until the next same-shape call on the same thread (the inference
    engine consumes it immediately in the following GEMMs).
    """
    _checked_output_size(x, kernel_size, dilation, padding)
    store = _im2col_buffer_store()
    key = (x.shape, kernel_size, dilation, padding, x.dtype.str)
    buffers = store.get(key)
    if buffers is None:
        if len(store) >= _IM2COL_CACHE_MAX_KEYS:
            store.clear()
        store[key] = buffers = _gather_buffers(
            x.shape, kernel_size, dilation, padding, x.dtype
        )
    return _gather(x, *buffers, padding, dilation[1])


def _example_columns(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
) -> Iterator[np.ndarray]:
    """Each example's ``(C*kw, Hp*Wp)`` tap gather, in turn, through two reused buffers.

    The autograd pass gathers one example at a time: the working set is one
    example's columns instead of the whole minibatch's, and the buffers stay
    warm across examples instead of page-faulting in fresh for every layer.
    Each yielded array is overwritten by the next one.
    """
    buffers = _gather_buffers((1, *x.shape[1:]), kernel_size, dilation, padding)
    for example in x:
        yield _gather(example[None], *buffers, padding, dilation[1])[0]


def _tap_conv(
    x: np.ndarray,
    slabs: np.ndarray,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
    bias_column: Optional[np.ndarray] = None,
    relu: bool = False,
) -> np.ndarray:
    """The kernel over a minibatch, one example at a time.

    The autograd pass runs it twice: forward on the input, and backward on the
    output gradient for the input gradient.  Each example's accumulator is
    cropped into the output while it is still in cache.
    """
    out_h, out_w = _checked_output_size(x, kernel_size, dilation, padding)
    row = x.shape[3] + 2 * padding[1]
    span = out_h * row
    acc = np.empty((slabs.shape[1], span))
    out = np.empty((x.shape[0], slabs.shape[1], out_h, out_w))
    for n, cols in enumerate(_example_columns(x, kernel_size, dilation, padding)):
        _tap_gemm(cols, slabs, dilation[0] * row, span, out=acc)
        _crop(acc, out_h, out_w, bias_column, relu, out=out[n])
    return out


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


class Conv2d(Module):
    """Stride-1 2-D convolution over ``(N, C, H, W)`` inputs.

    Supports per-axis kernel sizes, dilation and zero padding — everything the
    NEC Selector architecture (flat 1x7 / 7x1 filters, dilated 5x5 filters)
    requires.  ``padding='same'`` keeps the spatial size.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        padding: Union[str, IntPair] = 0,
        dilation: IntPair = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.dilation = _pair(dilation)
        if padding == "same":
            kh_eff = (self.kernel_size[0] - 1) * self.dilation[0] + 1
            kw_eff = (self.kernel_size[1] - 1) * self.dilation[1] + 1
            if kh_eff % 2 == 0 or kw_eff % 2 == 0:
                raise ValueError("padding='same' requires odd effective kernel size")
            self.padding = (kh_eff // 2, kw_eff // 2)
        else:
            self.padding = _pair(padding)  # type: ignore[arg-type]

        kh, kw = self.kernel_size
        fan_in = in_channels * kh * kw
        bound = np.sqrt(6.0 / max(fan_in, 1))
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(out_channels, in_channels, kh, kw)),
            requires_grad=True,
            name="weight",
        )
        self.bias = (
            Tensor(np.zeros(out_channels), requires_grad=True, name="bias")
            if bias
            else None
        )
        # Per-policy cache of the inference weight slabs, keyed on the
        # parameter arrays themselves (held here and compared with ``is``):
        # the optimisers rebind ``.data`` on every step, so a stale cast can
        # never be served after training, and a freed array's reused ``id``
        # can never pass for the old one.
        self._infer_weights_source: Optional[tuple] = None
        self._infer_weights: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None

    def output_size(self, height: int, width: int) -> Tuple[int, int]:
        return conv_output_size(height, width, self.kernel_size, self.dilation, self.padding)

    def forward(self, x: Tensor, activation: Optional[str] = None) -> Tensor:
        """Autograd pass of the tap-wise kernel; ``activation="relu"`` fuses the ReLU.

        Nothing beyond the graph's own arrays is kept for backward: the
        weight gradient re-gathers each example's columns from ``x`` and
        accumulates ``kh`` GEMMs, ``G_n @ cols_n[..., ky*dil_h*Wp : ... + span]ᵀ``,
        with ``G_n`` the example's output gradient widened to the padded row
        (its wrap columns zero).  The input gradient is the same kernel run
        on the output gradient with the weights flipped and channel-swapped,
        at padding ``k_eff - 1 - pad``, and is skipped when ``x`` needs none.
        The result equals the tap-sum convolution to GEMM round-off.
        """
        if activation not in (None, "relu"):
            raise ValueError(f"unsupported activation: {activation!r}")
        if x.ndim != 4:
            raise ValueError("Conv2d expects (N, C, H, W) input")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"weight expects {self.in_channels} input channels, got {x.shape[1]}"
            )
        weight, bias = self.weight, self.bias
        kernel, dilation, padding = self.kernel_size, self.dilation, self.padding
        w_data = weight.data
        relu = activation == "relu"
        out_data = _tap_conv(
            x.data, _slabs(w_data), kernel, dilation, padding,
            None if bias is None else bias.data.reshape(-1, 1, 1), relu,
        )

        def backward(grad: np.ndarray) -> None:
            if relu:
                # Strictly-positive outputs pass gradient (same mask as a
                # separate ``.relu()`` node over the pre-activation).
                grad = grad * (out_data > 0.0)
            out_c, out_h, out_w = grad.shape[1:]
            if x.requires_grad:
                # A negative full padding (``pad > k_eff - 1``) is a crop.
                full = [(k - 1) * d - p for k, d, p in zip(kernel, dilation, padding)]
                crop_h, crop_w = (max(-q, 0) for q in full)
                x._accumulate_owned(_tap_conv(
                    grad[:, :, crop_h : out_h - crop_h, crop_w : out_w - crop_w],
                    _slabs(w_data[:, :, ::-1, ::-1].swapaxes(0, 1)),
                    kernel, dilation, (max(full[0], 0), max(full[1], 0)),
                ))
            if weight.requires_grad:
                row = x.shape[3] + 2 * padding[1]
                step, span = dilation[0] * row, out_h * row
                wide = np.zeros((out_c, out_h, row))
                dw = np.zeros((kernel[0], out_c, self.in_channels * kernel[1]))
                columns = _example_columns(x.data, kernel, dilation, padding)
                for n, cols in enumerate(columns):
                    wide[..., :out_w] = grad[n]
                    g = wide.reshape(out_c, span)
                    for ky in range(kernel[0]):
                        dw[ky] += g @ cols[:, ky * step : ky * step + span].T
                weight._accumulate_owned(np.ascontiguousarray(
                    dw.reshape(kernel[0], out_c, self.in_channels, kernel[1]).transpose(1, 2, 0, 3)
                ))
            if bias is not None and bias.requires_grad:
                bias._accumulate_owned(grad.sum(axis=(0, 2, 3)))

        parents = (x, weight) if bias is None else (x, weight, bias)
        return x._make(out_data, parents, backward)

    def _inference_weights(
        self, policy: DTypePolicy
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The ``(kh, O, C*kw)`` weight slabs and the ``(O, 1, 1)`` bias, policy-cast."""
        bias = self.bias.data if self.bias is not None else None
        source = self._infer_weights_source
        if (
            source is None
            or source[0] != policy.name
            or source[1] is not self.weight.data
            or source[2] is not bias
        ):
            slabs = policy.real(_slabs(self.weight.data))
            bias_column = (
                policy.real(bias.reshape(self.out_channels, 1, 1)) if bias is not None else None
            )
            self._infer_weights_source = (policy.name, self.weight.data, bias)
            self._infer_weights = (slabs, bias_column)
        return self._infer_weights  # type: ignore[return-value]

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward pass on a ``(N, C, H, W)`` numpy array.

        The tap-wise kernel on thread-local buffers: :func:`strided_im2col`
        gathers the ``kw`` horizontal taps of the zero-padded input into
        ``cols`` of shape ``(N, C*kw, Hp*Wp)``, then ``kh`` GEMMs accumulate
        ``slab[ky] @ cols[..., ky*dil_h*Wp : ky*dil_h*Wp + out_h*Wp]`` — the
        vertical taps are column offsets into the same matrix.  The last
        ``Wp - out_w`` columns of every output row are cropped and the bias
        added in the same pass.  Under a reduced-precision policy
        (:mod:`repro.nn.precision`) the whole pass runs in the policy's real
        dtype, with the weight slabs cast once and cached per policy.  This is
        the building block of the batched inference engine.
        """
        if x.ndim != 4:
            raise ValueError("Conv2d expects (N, C, H, W) input")
        policy = active_policy()
        x = policy.real(x)
        out_h, out_w = self.output_size(*x.shape[2:])
        cols = strided_im2col(x, self.kernel_size, self.dilation, self.padding)
        slabs, bias_column = self._inference_weights(policy)
        row = x.shape[3] + 2 * self.padding[1]
        acc = _tap_gemm(cols, slabs, self.dilation[0] * row, out_h * row)
        return _crop(acc, out_h, out_w, bias_column)
