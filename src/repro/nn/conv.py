"""2-D convolution with dilation: one training path and one inference path.

:meth:`Conv2d.forward` is the autograd convolution, computed by the
frequency-domain kernel :func:`repro.nn.fftconv.fft_conv2d`.
:meth:`Conv2d.infer` is the gradient-free convolution, the tap-wise kernel:
:func:`strided_im2col` gathers only the ``kw`` horizontal taps and ``kh``
GEMMs at row offsets into that matrix cover the vertical ones.  Both are
stride 1 and both are pinned against the tap-sum reference
``conv2d_reference`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.nn.fftconv import fft_conv2d
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
    :meth:`Conv2d.infer` consumes it.  Columns ``out_w..Wp-1`` of each padded
    row read across a row boundary (or into the zero slack after the last
    row) and are cropped by the caller.

    For ``kw == 1`` the result is a view of the padded buffer, no gather at
    all.  The padded and gathered buffers come from a thread-local store
    instead of a fresh allocation.  Inference-only: no autograd graph is
    recorded, and the returned array aliases the per-thread buffers — it is
    valid until the next same-shape call on the same thread (the inference
    engine consumes it immediately in the following GEMMs).
    """
    n, c, h, w = x.shape
    kh, kw = kernel_size
    dil_h, dil_w = dilation
    pad_h, pad_w = padding
    out_h, out_w = conv_output_size(h, w, kernel_size, dilation, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"Convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, dilation {dilation}, padding {padding}"
        )
    height, width = h + 2 * pad_h, w + 2 * pad_w
    plane = height * width
    store = _im2col_buffer_store()
    key = (x.shape, kernel_size, dilation, padding, x.dtype.str)
    buffers = store.get(key)
    if buffers is None:
        if len(store) >= _IM2COL_CACHE_MAX_KEYS:
            store.clear()
        # The pad border and the slack after the last row are written once
        # here and never touched again: every later call only overwrites the
        # interior with the new input.
        flat = np.zeros((n, c, plane + (kw - 1) * dil_w), dtype=x.dtype)
        columns = None if kw == 1 else np.empty((n, c, kw, plane), dtype=x.dtype)
        store[key] = buffers = (flat, columns)
    flat, columns = buffers
    padded = flat[:, :, :plane].reshape(n, c, height, width)
    padded[:, :, pad_h : pad_h + h, pad_w : pad_w + w] = x
    if columns is None:
        return flat.reshape(n, c, plane)
    for kx in range(kw):
        shift = kx * dil_w
        columns[:, :, kx] = flat[:, :, shift : shift + plane]
    return columns.reshape(n, c * kw, plane)


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
        """Autograd forward pass through :func:`repro.nn.fftconv.fft_conv2d`.

        ``activation="relu"`` fuses the ReLU into the same graph node.  The
        result equals the direct tap-sum convolution to FFT round-off (~1e-13
        relative); the frequency domain avoids the ``C*kh*kw``-fold column
        matrix that would make a stacked minibatch graph memory-bound.
        """
        return fft_conv2d(
            x,
            self.weight,
            self.bias,
            padding=self.padding,
            dilation=self.dilation,
            activation=activation,
        )

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
            kh, kw = self.kernel_size
            # Slab ky is W[:, :, ky, :] flattened in the gather's (c, kx) row order.
            slabs = policy.real(
                self.weight.data.transpose(2, 0, 1, 3).reshape(
                    kh, self.out_channels, self.in_channels * kw
                )
            )
            bias_column = (
                policy.real(bias.reshape(self.out_channels, 1, 1)) if bias is not None else None
            )
            self._infer_weights_source = (policy.name, self.weight.data, bias)
            self._infer_weights = (slabs, bias_column)
        return self._infer_weights  # type: ignore[return-value]

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward pass on a ``(N, C, H, W)`` numpy array.

        The tap-wise kernel: :func:`strided_im2col` gathers the ``kw``
        horizontal taps of the zero-padded input into ``cols`` of shape
        ``(N, C*kw, Hp*Wp)``, then ``kh`` GEMMs accumulate
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
        n, _, h, w = x.shape
        out_h, out_w = self.output_size(h, w)
        cols = strided_im2col(x, self.kernel_size, self.dilation, self.padding)
        slabs, bias_column = self._inference_weights(policy)
        row = w + 2 * self.padding[1]
        span = out_h * row
        step = self.dilation[0] * row
        acc = slabs[0] @ cols[:, :, :span]
        for ky in range(1, len(slabs)):
            acc += slabs[ky] @ cols[:, :, ky * step : ky * step + span]
        out = acc.reshape(n, self.out_channels, out_h, row)[..., :out_w]
        if bias_column is not None:
            out = out + bias_column
        return np.ascontiguousarray(out)
