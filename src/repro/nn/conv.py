"""2-D convolution with dilation: one tap-wise kernel for training and inference.

Every pass zero-pads each channel into a flat ``(C, Hp*Wp + slack)`` buffer
and gathers the ``kw`` horizontal taps into ``(C*kw, Hp*Wp)`` columns.  One
GEMM of the stacked weights, ``(kh*O, C*kw) @ (C*kw, Hp*Wp)``, then gives
every vertical tap's partial sums over the plane, and ``kh`` shifted adds
sum them into the output: tap ``ky`` is the GEMM's ``ky``-th block of ``O``
rows, and its input row ``r`` feeds output row ``r + top − ky*dil_h``.  A
GEMM stacks only as many taps as keep its result within the gather
(:func:`_taps_per_gemm`): every 5×5 layer is one GEMM, the 7×1 layer one per
tap.

:meth:`Conv2d.infer` is the gradient-free pass, and it runs in row blocks.
A block's GEMM covers only the block's new input rows: no zero pad row and
no row of an earlier block goes through it again.  Each tap's rows are
added into the output rows they feed, in ascending tap order after the
bias, and an output row is final (and gets the ReLU) once every input row
it reads has arrived; the unfinished rows' partial sums carry to the next
block in a :class:`PartialRows`.  So a pass sends every input row through
the GEMM exactly once however it is blocked, and two passes on the same
block grid issue the same GEMMs and give the same bits.  A whole plane is
the one-block case.  The gather, :func:`strided_im2col`, and the GEMM's
result live in a per-thread workspace that every block height shares.

:meth:`Conv2d.forward` is the autograd pass: it gathers one zero-padded
example at a time into reused buffers, runs the stacked GEMM over the whole
padded plane (:func:`_stacked_conv`), and keeps nothing for backward beyond
the graph's own arrays.  Backward re-gathers the input
for the weight gradient, the stacked GEMM turned round, and runs the input
gradient through the same kernel: the output gradient convolved with the
flipped, channel-swapped weights.  Both passes are stride 1 and both are
pinned against the tap-sum reference ``conv2d_reference`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

# Unused here: perfbench/spans.py resolves ``repro.nn.conv.fft_conv2d`` by name.
from repro.nn.fftconv import fft_conv2d  # noqa: F401
from repro.nn.layers import CastCache, Module
from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]
#: ``(pad_h, pad_w)``, where ``pad_h`` may be a ``(top, bottom)`` pair.
Padding = Tuple[Union[int, Tuple[int, int]], int]

#: Thread-local workspace of the gradient-free pass: the padded, column and
#: accumulator (GEMM result) buffers, keyed on the gather signature without
#: the block height, ``(N, C, W, kw, dil_w, side, dtype)``.  Each buffer grows
#: to the largest request its key has seen, so every block of the Selector's
#: grid and a whole plane share one set.  Fresh multi-megabyte allocations page-fault
#: on every call; reusing warm buffers changes no bit, only the destination
#: memory.  Thread-local because the serving tick thread and callers on other
#: threads share the layer objects.  The Selector runs at most
#: ``ROWS_PER_PASS`` rows per pass, which bounds every key's ``N``.
_workspace = threading.local()

#: Cap on the bytes of one thread's workspace.  A buffer that would take the
#: total past it first drops every other key's buffers, so a thread holds at
#: most the cap or one key's set, whichever is larger.  The Selector's blocked
#: pass at ``NECConfig.default()`` holds 11.9 MB in float32, in 3 entries.
_WORKSPACE_MAX_BYTES = 256 << 20


def _workspace_store() -> Dict[Hashable, Dict[str, np.ndarray]]:
    store = getattr(_workspace, "store", None)
    if store is None:
        store = _workspace.store = {}
    return store


def clear_im2col_buffer_cache() -> None:
    """Drop this thread's convolution workspace (mainly for tests)."""
    _workspace.store = {}


def im2col_buffer_cache_info() -> Dict[str, int]:
    """Entry count and total bytes of this thread's convolution workspace."""
    store = _workspace_store()
    return {"entries": len(store), "bytes": _held_bytes(store)}


def _held_bytes(store: Dict[Hashable, Dict[str, np.ndarray]]) -> int:
    return sum(buffer.nbytes for entry in store.values() for buffer in entry.values())


def _workspace_key(
    x: np.ndarray, kernel_size: Tuple[int, int], dilation: Tuple[int, int], padding: Padding
) -> Hashable:
    num, channels, _, width = x.shape
    return (num, channels, width, kernel_size[1], dilation[1], padding[1], x.dtype.str)


def _grown(
    buffers: Dict[str, np.ndarray], name: str, shape: Tuple[int, ...], dtype=np.float64
) -> np.ndarray:
    """A ``shape`` view of ``buffers[name]``, replaced by a larger one if too small."""
    size = math.prod(shape)
    buffer = buffers.get(name)
    if buffer is None or buffer.size < size:
        buffers.pop(name, None)
        buffer = buffers[name] = np.empty(size, dtype=dtype)
    return buffer[:size].reshape(shape)


def _workspace_buffer(
    key: Hashable, name: str, shape: Tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """A ``shape`` view of workspace buffer ``name`` under ``key``, grown if too small."""
    store = _workspace_store()
    entry = store.setdefault(key, {})
    held = entry.get(name)
    grow = math.prod(shape) * np.dtype(dtype).itemsize - (0 if held is None else held.nbytes)
    if grow > 0 and _held_bytes(store) + grow > _WORKSPACE_MAX_BYTES:
        store.clear()
        store[key] = entry
    return _grown(entry, name, shape, dtype)


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


def _sides(padding: Padding) -> Tuple[int, int, int]:
    """``(top, bottom, side)`` of a ``(pad_h, pad_w)`` padding.

    ``pad_h`` is one count for both ends of the height axis or a
    ``(top, bottom)`` pair: the Selector's row blocks pad only one end.
    """
    rows, side = padding
    top, bottom = rows if isinstance(rows, tuple) else (rows, rows)
    return top, bottom, side


def _checked_output_size(
    size: Tuple[int, int],
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Padding,
) -> Tuple[int, int]:
    """The stride-1 output size of ``(H, W)`` planes, refusing an empty output."""
    h, w = size
    top, bottom, side = _sides(padding)
    out_h = h + top + bottom - (kernel_size[0] - 1) * dilation[0]
    out_w = w + 2 * side - (kernel_size[1] - 1) * dilation[1]
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"Convolution output would be empty: input {h}x{w}, "
            f"kernel {kernel_size[0]}x{kernel_size[1]}, dilation {dilation}, "
            f"padding {padding}"
        )
    return out_h, out_w


def _gather(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Padding,
    allocate: Callable[[str, Tuple[int, ...]], np.ndarray],
) -> np.ndarray:
    """Pad ``x`` into a flat buffer, then gather its ``kw`` horizontal taps.

    ``allocate(name, shape)`` supplies the flat ``"padded"`` buffer and the
    ``"columns"`` buffer (none for ``kw == 1``, where the padded buffer is
    the result).  Their previous contents are never read: the pad border and
    the slack after the last row are zeroed on every call, because the
    plane's layout moves with the block height.
    """
    n, c, h, w = x.shape
    kw, dil_w = kernel_size[1], dilation[1]
    top, bottom, side = _sides(padding)
    height, width = h + top + bottom, w + 2 * side
    plane = height * width
    flat = allocate("padded", (n, c, plane + (kw - 1) * dil_w))
    padded = flat[:, :, :plane].reshape(n, c, height, width)
    padded[:, :, :top] = 0.0
    padded[:, :, top + h :] = 0.0
    padded[:, :, top : top + h, :side] = 0.0
    padded[:, :, top : top + h, side + w :] = 0.0
    padded[:, :, top : top + h, side : side + w] = x
    flat[:, :, plane:] = 0.0
    if kw == 1:
        return flat
    columns = allocate("columns", (n, c, kw, plane))
    for kx in range(kw):
        shift = kx * dil_w
        columns[:, :, kx] = flat[:, :, shift : shift + plane]
    return columns.reshape(n, -1, plane)


def _taps_per_gemm(stacked: np.ndarray, out_c: int) -> int:
    """Vertical taps one GEMM stacks: all ``kh``, unless ``kh*O`` rows outgrow ``C*kw``.

    Capping the stacked rows at the columns matrix's row count keeps the
    accumulator no larger than the gather it is computed from.  Every 5×5
    layer of the Selector stacks all five taps, one GEMM per layer; the 7×1
    layer, with ``C*kw = O``, runs one GEMM per tap over just the rows that
    tap reads, where stacking would make its accumulator 7× its input.
    """
    return max(1, min(stacked.shape[0], stacked.shape[1]) // out_c)


def _accumulator_size(stacked: np.ndarray, out_c: int, out_h: int, width: int, dil_h: int) -> int:
    """Elements of one example's accumulator for :func:`_stacked_conv`."""
    taps = _taps_per_gemm(stacked, out_c)
    return taps * out_c * ((taps - 1) * dil_h + out_h) * width


def _stacked_conv(
    cols: np.ndarray,
    stacked: np.ndarray,
    width: int,
    dil_h: int,
    bias_column: Optional[np.ndarray],
    relu: bool,
    out: np.ndarray,
    acc: np.ndarray,
) -> np.ndarray:
    """The training kernel from gathered columns: stacked GEMMs, then ``kh`` shifted adds.

    ``cols`` is ``(..., C*kw, Hp*Wp)`` with ``Wp = width`` and ``stacked`` the
    ``(kh*O, C*kw)`` weights.  One GEMM covers :func:`_taps_per_gemm`
    vertical taps, over the plane rows they read, into the flat ``acc``
    (:func:`_accumulator_size` elements per leading index).  Tap ``ky`` is
    its block of ``O`` rows, and plane row ``y + ky*dil_h`` adds into row
    ``y`` of ``out``, ``(..., O, out_h, out_w)``, bias first and the ReLU
    last.
    """
    out_c, out_h, out_w = out.shape[-3:]
    lead = cols.shape[:-2]
    group = _taps_per_gemm(stacked, out_c)
    for first in range(0, stacked.shape[0] // out_c, group):
        weights = stacked[first * out_c : (first + group) * out_c]
        taps = weights.shape[0] // out_c
        rows = (taps - 1) * dil_h + out_h
        part = acc[: math.prod(lead) * weights.shape[0] * rows * width]
        part = part.reshape(*lead, weights.shape[0], rows * width)
        start = first * dil_h * width
        np.matmul(weights, cols[..., start : start + rows * width], out=part)
        part = part.reshape(*lead, taps, out_c, rows, width)
        for j in range(taps):
            tap = part[..., j, :, j * dil_h : j * dil_h + out_h, :out_w]
            if first + j:
                out += tap
            elif bias_column is None:
                np.copyto(out, tap)
            else:
                np.add(tap, bias_column, out=out)
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _stacked(weight: np.ndarray) -> np.ndarray:
    """``(O, C, kh, kw)`` weights as the ``(kh*O, C*kw)`` matrix of the stacked GEMM.

    Row ``ky*O + o`` holds output channel ``o``'s tap row ``ky``, in gather
    row order ``c*kw + kx``.
    """
    out_c, in_c, kh, kw = weight.shape
    return weight.transpose(2, 0, 1, 3).reshape(kh * out_c, in_c * kw)


def _inference_weights(
    weight: np.ndarray, bias: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The stacked ``(kh*O, C*kw)`` weights and the ``(O, 1, 1)`` bias column."""
    return _stacked(weight), None if bias is None else bias.reshape(-1, 1, 1)


def strided_im2col(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
    padding: Padding = (0, 0),
) -> np.ndarray:
    """Horizontal-tap gather of a ``(N, C, H, W)`` array, shape ``(N, C*kw, Hp*Wp)``.

    ``Hp, Wp`` is the zero-padded size; ``padding[0]`` may be a
    ``(top, bottom)`` pair.  Row ``c*kw + kx`` is channel ``c`` of
    the padded image, flattened row-major, shifted left by ``kx * dil_w``
    elements: ``cols[n, c*kw + kx, p] = flat[n, c, p + kx*dil_w]``.  The
    vertical taps need no copy of their own — tap ``ky`` of an output row is
    the same matrix read ``ky * dil_h * Wp`` columns further on, which is how
    :func:`_stacked_conv` reads the stacked GEMM's result.  Columns
    ``out_w..Wp-1`` of each padded row read across a row boundary (or into
    the zero slack after the last row) and are cropped there.

    For ``kw == 1`` the result is a view of the padded buffer, no gather at
    all.  Both buffers come from this thread's workspace, shared by every
    height of the same ``(N, C, W)`` signature.  Inference-only: no autograd
    graph is recorded, and the returned array aliases the workspace — it is
    valid until the next call of the same signature on the same thread (the
    inference engine consumes it immediately in the following GEMM).  A
    block of any height gathers (:meth:`Conv2d.infer` pads no row); only a
    width that leaves the horizontal taps no output column raises.
    """
    side = padding[1]
    if x.shape[3] + 2 * side - (kernel_size[1] - 1) * dilation[1] <= 0:
        raise ValueError(
            f"Convolution output would be empty: width {x.shape[3]}, "
            f"kernel width {kernel_size[1]}, dilation {dilation}, padding {padding}"
        )
    key = _workspace_key(x, kernel_size, dilation, padding)
    return _gather(
        x, kernel_size, dilation, padding,
        lambda name, shape: _workspace_buffer(key, name, shape, x.dtype),
    )


def _example_columns(
    examples: Iterable[np.ndarray],
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
    buffers: Dict[str, np.ndarray],
) -> Iterator[np.ndarray]:
    """Each ``(C, H, W)`` example's ``(C*kw, Hp*Wp)`` tap gather, in turn, through ``buffers``.

    The autograd pass gathers one example at a time: the working set is one
    example's columns instead of the whole minibatch's, and the buffers stay
    warm across examples instead of page-faulting in fresh for every layer.
    Each yielded array is overwritten by the next one.
    """
    for example in examples:
        yield _gather(
            example[None], kernel_size, dilation, padding,
            lambda name, shape: _grown(buffers, name, shape),
        )[0]


def _tap_conv(
    examples: Iterable[np.ndarray],
    out: np.ndarray,
    stacked: np.ndarray,
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
    buffers: Dict[str, np.ndarray],
    bias_column: Optional[np.ndarray] = None,
    relu: bool = False,
) -> np.ndarray:
    """The kernel over a minibatch of ``(C, H, W)`` examples, one at a time, into ``out``.

    The autograd pass runs it twice: forward on the input, and backward on the
    output gradient for the input gradient, whose examples it masks one at a
    time.  Every example's stacked GEMM reuses one accumulator, and the gather
    and accumulator come from ``buffers``, which backward hands on to the
    weight gradient.
    """
    width = out.shape[3] + (kernel_size[1] - 1) * dilation[1]
    size = _accumulator_size(stacked, out.shape[1], out.shape[2], width, dilation[0])
    acc = _grown(buffers, "accumulator", (size,))
    for n, cols in enumerate(_example_columns(examples, kernel_size, dilation, padding, buffers)):
        _stacked_conv(cols, stacked, width, dilation[0], bias_column, relu, out[n], acc)
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
        self._infer_weights = CastCache()  # stacked weights and bias column, per dtype

    def output_size(self, height: int, width: int) -> Tuple[int, int]:
        return conv_output_size(height, width, self.kernel_size, self.dilation, self.padding)

    def forward(self, x: Tensor, activation: Optional[str] = None) -> Tensor:
        """Autograd pass of the tap-wise kernel; ``activation="relu"`` fuses the ReLU.

        Nothing beyond the graph's own arrays is kept for backward, which
        works one example at a time: it masks the example's output gradient
        ``G_n`` with the ReLU into a reused buffer, and never holds a masked
        copy of the whole minibatch.  The weight gradient is the stacked GEMM
        turned round: for each GEMM's group of taps, tap ``j``'s copy of
        ``G_n`` is written ``j*dil_h`` plane rows down a zeroed matrix, which
        one GEMM multiplies by the re-gathered columns of ``x``, transposed.
        The input gradient is the same kernel run on ``G_n`` with the weights
        flipped and channel-swapped, at padding ``k_eff - 1 - pad``, and is
        skipped when ``x`` needs none.  The result equals the tap-sum
        convolution to GEMM round-off.
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
        (kh, kw), dilation, padding = self.kernel_size, self.dilation, self.padding
        w_data = weight.data
        relu = activation == "relu"
        out_h, out_w = _checked_output_size(x.shape[2:], (kh, kw), dilation, padding)
        stacked = _stacked(w_data)
        out_data = _tap_conv(
            x.data, np.empty((x.shape[0], self.out_channels, out_h, out_w)),
            stacked, (kh, kw), dilation, padding, {},
            None if bias is None else bias.data.reshape(-1, 1, 1), relu,
        )

        def backward(grad: np.ndarray) -> None:
            def examples(rows: slice = slice(None), cols: slice = slice(None)):
                # Strictly-positive outputs pass gradient (same mask as a
                # separate ``.relu()`` node over the pre-activation).
                for g, o in zip(grad[:, :, rows, cols], out_data[:, :, rows, cols]):
                    if relu:
                        g = np.multiply(
                            g, np.greater(o, 0.0, out=_grown(buffers, "mask", o.shape, bool)),
                            out=_grown(buffers, "gradient", g.shape),
                        )
                    yield g

            buffers: Dict[str, np.ndarray] = {}  # the input gradient's, then the weight's
            if x.requires_grad:
                # A negative full padding (``pad > k_eff - 1``) is a crop.
                full = [(k - 1) * d - p for k, d, p in zip((kh, kw), dilation, padding)]
                crop_h, crop_w = (max(-q, 0) for q in full)
                x._accumulate_owned(_tap_conv(
                    examples(slice(crop_h, out_h - crop_h), slice(crop_w, out_w - crop_w)),
                    np.empty(x.shape), _stacked(w_data[:, :, ::-1, ::-1].swapaxes(0, 1)),
                    (kh, kw), dilation, (max(full[0], 0), max(full[1], 0)), buffers,
                ))
            if weight.requires_grad:
                # Tap ``first + j``'s copy of ``G_n`` sits ``j*dil_h`` rows down
                # ``spread``; the rest of it, wrap columns included, stays zero
                # for every example of a group shape.
                width = x.shape[3] + 2 * padding[1]
                out_c, dil_h = self.out_channels, dilation[0]
                group = _taps_per_gemm(stacked, out_c)
                dw = np.zeros(stacked.shape)
                zeroed = None
                columns = _example_columns(x.data, (kh, kw), dilation, padding, buffers)
                for g, cols in zip(examples(), columns):
                    for first in range(0, kh, group):
                        taps = min(group, kh - first)
                        rows = (taps - 1) * dil_h + out_h
                        spread = _grown(buffers, "accumulator", (taps, out_c, rows, width))
                        if zeroed != spread.shape:
                            spread[...] = 0.0
                            zeroed = spread.shape
                        for j in range(taps):
                            spread[j, :, j * dil_h : j * dil_h + out_h, :out_w] = g
                        start = first * dil_h * width
                        read = cols[:, start : start + rows * width]
                        dw[first * out_c : (first + taps) * out_c] += (
                            spread.reshape(taps * out_c, -1) @ read.T
                        )
                weight._accumulate_owned(np.ascontiguousarray(
                    dw.reshape(kh, self.out_channels, self.in_channels, kw).transpose(1, 2, 0, 3)
                ))
            if bias is not None and bias.requires_grad:
                bias._accumulate_owned(
                    sum((g.sum(axis=(1, 2)) for g in examples()), np.zeros(self.out_channels))
                )

        parents = (x, weight) if bias is None else (x, weight, bias)
        return x._make(out_data, parents, backward)

    def infer(
        self,
        x: np.ndarray,
        activation: Optional[str] = None,
        partial: Optional["PartialRows"] = None,
        last: bool = True,
    ):
        """Gradient-free forward pass on a ``(N, C, H, W)`` numpy array, in row blocks.

        :func:`strided_im2col` gathers the ``kw`` horizontal taps of the
        block's input rows, width-padded only, into ``cols`` of shape
        ``(N, C*kw, H*Wp)``; one GEMM of the stacked ``(kh*O, C*kw)``
        weights (one per :func:`_taps_per_gemm` group) gives every vertical
        tap's partial sums, and each tap's rows are added into the output
        rows they feed, in ascending tap order after the bias.  Output row
        ``y`` reads input rows up to ``y + reach`` (``reach = (kh−1)·dil_h −
        pad_h``, the bottom padding of a ``same`` layer), so it is final,
        and gets the ReLU with ``activation="relu"``, once they have all
        arrived, or in the ``last`` block, where the rows past the plane are
        the zero padding.  The pass computes in the dtype of ``x`` (float32
        stays float32, anything else is float64), with the weights cast once
        per dtype and cached.

        Without ``partial``, ``x`` is a whole plane, and the output array is
        returned.  A row-blocked pass starts from ``PartialRows()`` and
        passes each block's returned carry to the next: it returns
        ``(rows, carry)``, the output rows this block finished and the
        partial sums of those it touched but did not.  The carry is new, so
        a block that raises leaves the one passed in as it was.  The GEMMs
        depend only on the block heights, so passes blocked alike give the
        same bits.
        """
        if activation not in (None, "relu"):
            raise ValueError(f"unsupported activation: {activation!r}")
        if x.ndim != 4:
            raise ValueError("Conv2d expects (N, C, H, W) input")
        if partial is None and not last:
            raise ValueError("a block before the last must start from a PartialRows")
        x = x.astype(np.result_type(x, np.float32), copy=False)
        rows, carry = self._infer_rows(
            x, activation == "relu", PartialRows() if partial is None else partial, last
        )
        return rows if partial is None else (rows, carry)

    def _infer_rows(
        self, x: np.ndarray, relu: bool, partial: "PartialRows", last: bool
    ) -> Tuple[np.ndarray, "PartialRows"]:
        """One block of :meth:`infer`: the rows it finishes and the next carry."""
        (kh, kw), (dil_h, dil_w) = self.kernel_size, self.dilation
        top, side = self.padding
        out_c = self.out_channels
        reach = (kh - 1) * dil_h - top
        num, _, height, in_w = x.shape
        seen = partial.seen + height
        width = in_w + 2 * side
        # Output rows [done, end): the carried unfinished ones, then those this
        # block touches first; in the last block, the plane's remaining rows.
        done = max(partial.seen - reach, 0)
        end, out_w = seen + top, width - (kw - 1) * dil_w
        if last:
            end, out_w = _checked_output_size(
                (seen, in_w), self.kernel_size, self.dilation, self.padding
            )
        count = end - done
        acc = np.empty((num, out_c, count, width), dtype=x.dtype)
        kept = 0 if partial.sums is None else min(partial.sums.shape[2], count)
        if kept:
            acc[:, :, :kept] = partial.sums[:, :, :kept]
        bias = None if self.bias is None else self.bias.data
        stacked, bias_column = self._infer_weights.get(
            (self.weight.data, bias), x.dtype, _inference_weights
        )
        # Tap 0 reads each new row's first arrived input row, so it starts the
        # rows from the carried ones on: it adds the bias as it writes them.
        # Only rows it does not reach (the top padding's) start at the bias.
        first_tap = kept if partial.seen else min(top, count)
        if height == 0:
            first_tap = count
        acc[:, :, kept:first_tap] = 0.0 if bias_column is None else bias_column
        if height:
            cols = strided_im2col(x, self.kernel_size, self.dilation, (0, side))
            group = _taps_per_gemm(stacked, out_c)
            plane = height * width
            result = _workspace_buffer(
                _workspace_key(x, self.kernel_size, self.dilation, self.padding),
                "accumulator", (num * group * out_c * plane,), x.dtype,
            )
            for first in range(0, kh, group):
                weights = stacked[first * out_c : (first + group) * out_c]
                taps = weights.shape[0] // out_c
                part = result[: num * weights.shape[0] * plane]
                part = part.reshape(num, weights.shape[0], plane)
                np.matmul(weights, cols, out=part)
                part = part.reshape(num, taps, out_c, height, width)
                for j in range(taps):
                    # This block's input row i feeds accumulator row i + offset.
                    offset = partial.seen + top - (first + j) * dil_h - done
                    low, high = max(-offset, 0), min(count - offset, height)
                    if high <= low:
                        continue
                    # Whole plane rows, wrap columns too, so the adds are
                    # contiguous; the returned rows drop those columns.
                    rows, tap = acc[:, :, low + offset : high + offset], part[:, j, :, low:high]
                    if first + j:
                        rows += tap
                    elif bias_column is None:
                        np.copyto(rows, tap)
                    else:
                        np.add(tap, bias_column, out=rows)
        final = count if last else max(seen - reach, 0) - done
        rows = acc[:, :, :final]
        if relu:
            np.maximum(rows, 0.0, out=rows)
        carry = PartialRows(seen, None if last else acc[:, :, final:].copy())
        return rows[..., :out_w], carry


@dataclass(frozen=True)
class PartialRows:
    """A row-blocked :meth:`Conv2d.infer` part-way through its input plane.

    ``seen`` counts the input rows run so far.  ``sums`` holds, as
    ``(N, O, rows, Wp)``, the partial sums of the output rows those inputs
    touched but did not finish: rows ``[max(seen − reach, 0), seen +
    pad_h)``, bias and every tap that read an arrived row added in, no
    ReLU.  That is ``pad_h + reach`` rows once ``seen`` passes ``reach``:
    the two vertical paddings of a ``same`` layer.  Columns past the output
    width hold sums of reads across a row boundary and are never returned.
    """

    seen: int = 0
    sums: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        return 0 if self.sums is None else self.sums.nbytes
