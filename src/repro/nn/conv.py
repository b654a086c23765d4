"""2-D convolution with dilation: one row kernel for training and inference.

Every pass zero-pads each channel at the sides only into a flat ``(C, H*Wp
+ slack)`` buffer and gathers the ``kw`` horizontal taps into ``(C*kw,
H*Wp)`` columns.  One GEMM of the stacked weights, ``(kh*O, C*kw) @ (C*kw,
H*Wp)``, then gives every vertical tap's partial sums over the input rows,
and :func:`_conv_rows` adds them into the output rows they feed: tap ``ky``
is the GEMM's ``ky``-th block of ``O`` rows, and its input row ``r`` feeds
output row ``r + top − ky*dil_h`` (:func:`_tap_rows`).  No pass pads a
row: the output rows no input row of a tap reaches get nothing from it.  A
GEMM stacks only as many taps as keep its result within the gather
(:func:`_taps_per_gemm`): every 5×5 layer is one GEMM, the 7×1 layer one
per tap.

The kernel runs a plane in row blocks.  Each tap's rows are added into the
output rows they feed, in ascending tap order after the bias, and an output
row is final (and gets the ReLU) once every input row it reads has arrived;
the unfinished rows' partial sums carry to the next block in a
:class:`PartialRows`.  So a pass sends every input row through the GEMM
exactly once however it is blocked, and two passes on the same block grid
issue the same GEMMs and give the same bits.  A whole plane is the
one-block case.

:meth:`Conv2d.infer` is the gradient-free pass: a whole plane or one row
block, gathered by :func:`strided_im2col` into a per-thread workspace that
every block height shares.  :meth:`Conv2d.forward` is the autograd pass: it
runs each example as one whole-plane block through buffers reused for the
call, so in float64 it gives the bits of ``infer``.  Backward runs the
input gradient through the same kernel (the output gradient convolved with
the flipped, channel-swapped weights) and the weight gradient as the
stacked GEMM turned round.  Both passes are stride 1 and both are pinned
against the tap-sum reference ``conv2d_reference`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple, Union

import numpy as np

# Unused here: perfbench/spans.py resolves ``repro.nn.conv.fft_conv2d`` by name.
from repro.nn.fftconv import fft_conv2d  # noqa: F401
from repro.nn.layers import CastCache, Module
from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]
Allocate = Callable[[str, Tuple[int, ...]], np.ndarray]

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
#: The autograd pass keeps its buffers per call instead, not here.
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
    x: np.ndarray, kernel_size: Tuple[int, int], dilation: Tuple[int, int], pad_w: int
) -> Hashable:
    num, channels, _, width = x.shape
    return (num, channels, width, kernel_size[1], dilation[1], pad_w, x.dtype.str)


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
    """Spatial output size of a stride-1 2-D convolution, refusing an empty output."""
    out_h = height + 2 * padding[0] - (kernel_size[0] - 1) * dilation[0]
    out_w = width + 2 * padding[1] - (kernel_size[1] - 1) * dilation[1]
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"Convolution output would be empty: input {height}x{width}, "
            f"kernel {kernel_size[0]}x{kernel_size[1]}, dilation {dilation}, "
            f"padding {padding}"
        )
    return out_h, out_w


def _gather(
    x: np.ndarray, kernel_w: int, dil_w: int, pad_w: int, allocate: Allocate
) -> np.ndarray:
    """Pad ``x`` at the sides into a flat buffer, then gather its ``kw`` horizontal taps.

    ``allocate(name, shape)`` supplies the flat ``"padded"`` buffer and the
    ``"columns"`` buffer (none for ``kw == 1``, where the padded buffer is
    the result).  Their previous contents are never read: the side columns
    and the slack after the last row are zeroed on every call, because the
    plane's layout moves with the block height.
    """
    n, c, h, w = x.shape
    width = w + 2 * pad_w
    plane = h * width
    flat = allocate("padded", (n, c, plane + (kernel_w - 1) * dil_w))
    padded = flat[:, :, :plane].reshape(n, c, h, width)
    padded[..., :pad_w] = 0.0
    padded[..., pad_w + w :] = 0.0
    padded[..., pad_w : pad_w + w] = x
    flat[:, :, plane:] = 0.0
    if kernel_w == 1:
        return flat
    columns = allocate("columns", (n, c, kernel_w, plane))
    for kx in range(kernel_w):
        shift = kx * dil_w
        columns[:, :, kx] = flat[:, :, shift : shift + plane]
    return columns.reshape(n, -1, plane)


def _taps_per_gemm(stacked: np.ndarray, out_c: int) -> int:
    """Vertical taps one GEMM stacks: all ``kh``, unless ``kh*O`` rows outgrow ``C*kw``.

    Capping the stacked rows at the columns matrix's row count keeps the
    accumulator no larger than the gather it is computed from.  Every 5×5
    layer of the Selector stacks all five taps, one GEMM per layer; the 7×1
    layer, with ``C*kw = O``, runs one GEMM per tap, where stacking would
    make its accumulator 7× its input.
    """
    return max(1, min(stacked.shape[0], stacked.shape[1]) // out_c)


def _tap_rows(
    ky: int, dil_h: int, top: int, seen: int, first: int, height: int, count: int
) -> Tuple[int, int, int]:
    """Which input rows of a block tap ``ky`` adds into which output rows.

    Input row ``r`` of tap ``ky`` feeds output row ``r + top − ky*dil_h``.
    The block's input rows are plane rows ``seen ..`` on, ``height`` of
    them, and the output rows at hand are ``[first, first + count)``.
    Returns ``(offset, low, high)``: the block's input rows ``[low, high)``
    feed rows ``[low + offset, high + offset)`` of those, none when
    ``high <= low``.
    """
    offset = seen + top - ky * dil_h - first
    return offset, max(-offset, 0), min(count - offset, height)


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


def _conv_rows(
    cols: Optional[np.ndarray],
    shape: Tuple[int, int, int, int],
    stacked: np.ndarray,
    bias_column: Optional[np.ndarray],
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
    allocate: Allocate,
    partial: PartialRows = PartialRows(),
    last: bool = True,
    relu: bool = False,
) -> Tuple[np.ndarray, PartialRows]:
    """The convolution kernel: one row block, from its gathered columns.

    ``cols`` is the ``(N, C*kw, h*Wp)`` gather of a ``shape = (N, C, h, W)``
    block (``None`` when ``h`` is 0), ``stacked`` the ``(kh*O, C*kw)``
    weights and ``bias_column`` the ``(O, 1, 1)`` bias; ``allocate(name,
    shape)`` supplies the GEMM's ``"accumulator"``.  Output row ``y`` reads
    input rows up to ``y + reach`` (``reach = (kh−1)·dil_h − pad_h``), so it
    is final once they have all arrived, or in the ``last`` block, where the
    rows past the plane are the zero padding.  Returns ``(rows, carry)``:
    the ``(N, O, rows, out_w)`` output rows this block finished (a view
    that drops the wrap columns), with the ReLU if ``relu``, and the next
    block's :class:`PartialRows`.  A whole plane is one block from
    ``PartialRows()`` with ``last``.
    """
    (kh, kw), (dil_h, dil_w), (top, side) = kernel_size, dilation, padding
    num, _, height, in_w = shape
    out_c = stacked.shape[0] // kh
    reach = (kh - 1) * dil_h - top
    seen = partial.seen + height
    width = in_w + 2 * side
    # Output rows [done, end): the carried unfinished ones, then those this
    # block touches first; in the last block, the plane's remaining rows.
    # Earlier blocks returned the rows before ``done``; the first block
    # returns from row 0, also rows that read only the top padding.
    done =max(partial.seen - reach, 0) if partial.seen else 0
    end, out_w = seen + top, width - (kw - 1) * dil_w
    if last:
        end, out_w = conv_output_size(seen, in_w, kernel_size, dilation, padding)
    count = end - done
    acc = np.empty((num, out_c, count, width), dtype=stacked.dtype)
    kept = 0 if partial.sums is None else min(partial.sums.shape[2], count)
    if kept:
        acc[:, :, :kept] = partial.sums[:, :, :kept]
    # Tap 0 reads each new row's first arrived input row, so it starts the
    # rows from the carried ones on: it adds the bias as it writes them.
    # Only rows it does not reach (the padding's) start at the bias.
    offset, low, high = _tap_rows(0, dil_h, top, partial.seen, done, height, count)
    start = 0.0 if bias_column is None else bias_column
    acc[:, :, kept : low + offset] = start
    acc[:, :, max(high, low) + offset :] = start
    if cols is not None:
        group = _taps_per_gemm(stacked, out_c)
        plane = height * width
        result = allocate("accumulator", (num * group * out_c * plane,))
        for first in range(0, kh, group):
            weights = stacked[first * out_c : (first + group) * out_c]
            taps = weights.shape[0] // out_c
            part = result[: num * weights.shape[0] * plane]
            part = part.reshape(num, weights.shape[0], plane)
            np.matmul(weights, cols, out=part)
            part = part.reshape(num, taps, out_c, height, width)
            for j in range(taps):
                offset, low, high = _tap_rows(
                    first + j, dil_h, top, partial.seen, done, height, count
                )
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
    pad_w: int = 0,
) -> np.ndarray:
    """Horizontal-tap gather of a ``(N, C, H, W)`` array, shape ``(N, C*kw, H*Wp)``.

    ``Wp = W + 2*pad_w`` is the width zero-padded at both sides; no row is
    padded.  Row ``c*kw + kx`` is channel ``c`` of the padded image,
    flattened row-major, shifted left by ``kx * dil_w`` elements:
    ``cols[n, c*kw + kx, p] = flat[n, c, p + kx*dil_w]``.  The vertical taps
    need no copy of their own — tap ``ky`` is a block of the stacked GEMM's
    result, whose rows :func:`_conv_rows` adds ``ky * dil_h`` output rows
    higher.  Columns ``out_w..Wp-1`` of each row read across a row boundary
    (or into the zero slack after the last row) and are cropped there.

    For ``kw == 1`` the result is a view of the padded buffer, no gather at
    all.  Both buffers come from this thread's workspace, shared by every
    height of the same ``(N, C, W)`` signature.  Inference-only: no autograd
    graph is recorded, and the returned array aliases the workspace — it is
    valid until the next call of the same signature on the same thread (the
    inference engine consumes it immediately in the following GEMM).  A
    block of any height gathers; only a width that leaves the horizontal
    taps no output column raises.
    """
    # Width only: a row block may be shorter than the kernel.
    conv_output_size(1, x.shape[3], (1, kernel_size[1]), (1, dilation[1]), (0, pad_w))
    key = _workspace_key(x, kernel_size, dilation, pad_w)
    return _gather(
        x, kernel_size[1], dilation[1], pad_w,
        lambda name, shape: _workspace_buffer(key, name, shape, x.dtype),
    )


def _example_conv(
    examples: Iterable[np.ndarray],
    out: np.ndarray,
    stacked: np.ndarray,
    bias_column: Optional[np.ndarray],
    kernel_size: Tuple[int, int],
    dilation: Tuple[int, int],
    padding: Tuple[int, int],
    relu: bool,
    buffers: Dict[str, np.ndarray],
) -> np.ndarray:
    """:func:`_conv_rows` over a minibatch of ``(C, H, W)`` examples, one at a time, into ``out``.

    Each example is one whole-plane block.  The autograd pass runs it twice:
    forward on the input, and backward on the output gradient for the input
    gradient, whose examples it masks one at a time.  Going one example at a
    time keeps the working set at one example's columns instead of the whole
    minibatch's; the gather and the accumulator come from ``buffers``, which
    stay warm across examples and which backward hands on to the weight
    gradient.
    """
    allocate = functools.partial(_grown, buffers)
    for n, example in enumerate(examples):
        block = example[None]
        cols = _gather(block, kernel_size[1], dilation[1], padding[1], allocate)
        rows, _ = _conv_rows(
            cols, block.shape, stacked, bias_column, kernel_size, dilation, padding,
            allocate, relu=relu,
        )
        out[n] = rows[0]
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
        """Autograd pass of the row kernel; ``activation="relu"`` fuses the ReLU.

        Each example runs through :func:`_conv_rows` as one whole-plane
        block, the computation :meth:`infer` runs on a whole float64 plane.
        Nothing beyond the graph's own arrays is kept for backward, which
        works one example at a time: it masks the example's output gradient
        ``G_n`` with the ReLU into a reused buffer, and never holds a masked
        copy of the whole minibatch.  The input gradient is the same kernel
        run on ``G_n`` with the weights flipped and channel-swapped, at
        padding ``k_eff - 1 - pad``, and is skipped when ``x`` needs none.
        The weight gradient is the stacked GEMM turned round: for each GEMM's
        group of taps, tap ``ky``'s rows of ``G_n`` are written at the input
        rows they read (:func:`_tap_rows`) into a matrix that one GEMM
        multiplies by the re-gathered columns of ``x``, transposed.  The
        result equals the tap-sum convolution to GEMM round-off.
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
        out_h, out_w = self.output_size(*x.shape[2:])
        stacked = _stacked(w_data)
        out_data = _example_conv(
            x.data, np.empty((x.shape[0], self.out_channels, out_h, out_w)), stacked,
            None if bias is None else bias.data.reshape(-1, 1, 1),
            (kh, kw), dilation, padding, relu, {},
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
                x._accumulate_owned(_example_conv(
                    examples(slice(crop_h, out_h - crop_h), slice(crop_w, out_w - crop_w)),
                    np.empty(x.shape), _stacked(w_data[:, :, ::-1, ::-1].swapaxes(0, 1)),
                    None, (kh, kw), dilation, (max(full[0], 0), max(full[1], 0)), False,
                    buffers,
                ))
            if weight.requires_grad:
                # Tap ``first + j``'s rows of ``G_n`` sit in ``spread[j]`` at
                # the input rows they read; the rest of it, wrap columns
                # included, is zero.
                height, width = x.shape[2], x.shape[3] + 2 * padding[1]
                out_c = self.out_channels
                group = _taps_per_gemm(stacked, out_c)
                dw = np.zeros(stacked.shape)
                allocate = functools.partial(_grown, buffers)
                for g, example in zip(examples(), x.data):
                    cols = _gather(example[None], kw, dilation[1], padding[1], allocate)[0]
                    for first in range(0, kh, group):
                        taps = min(group, kh - first)
                        spread = _grown(buffers, "accumulator", (taps, out_c, height, width))
                        for j in range(taps):
                            offset, low, high = _tap_rows(
                                first + j, dilation[0], padding[0], 0, 0, height, out_h
                            )
                            high = max(high, low)
                            spread[j, :, :low] = 0.0
                            spread[j, :, high:] = 0.0
                            spread[j, :, low:high, out_w:] = 0.0
                            spread[j, :, low:high, :out_w] = g[:, low + offset : high + offset]
                        dw[first * out_c : (first + taps) * out_c] += (
                            spread.reshape(taps * out_c, -1) @ cols.T
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
        partial: Optional[PartialRows] = None,
        last: bool = True,
    ):
        """Gradient-free forward pass on a ``(N, C, H, W)`` numpy array, in row blocks.

        :func:`strided_im2col` gathers the ``kw`` horizontal taps of the
        block's input rows, width-padded only, into this thread's workspace,
        and :func:`_conv_rows` runs the block: one GEMM of the stacked
        weights (one per :func:`_taps_per_gemm` group), each tap's rows added
        into the output rows they feed, in ascending tap order after the
        bias, and the ReLU with ``activation="relu"`` on the rows the block
        finishes.  The pass computes in the dtype of ``x`` (float32 stays
        float32, anything else is float64), with the weights cast once per
        dtype and cached.

        Without ``partial``, ``x`` is a whole plane, and the output array is
        returned.  A row-blocked pass starts from ``PartialRows()`` and
        passes each block's returned carry to the next: it returns
        ``(rows, carry)``, the output rows this block finished and the
        partial sums of those it touched but did not; the ``last`` block
        finishes the plane.  The carry is new, so a block that raises leaves
        the one passed in as it was.  The GEMMs depend only on the block
        heights, so passes blocked alike give the same bits.
        """
        if activation not in (None, "relu"):
            raise ValueError(f"unsupported activation: {activation!r}")
        if x.ndim != 4:
            raise ValueError("Conv2d expects (N, C, H, W) input")
        if partial is None and not last:
            raise ValueError("a block before the last must start from a PartialRows")
        x = x.astype(np.result_type(x, np.float32), copy=False)
        side = self.padding[1]
        bias = None if self.bias is None else self.bias.data
        stacked, bias_column = self._infer_weights.get(
            (self.weight.data, bias), x.dtype, _inference_weights
        )
        cols = strided_im2col(x, self.kernel_size, self.dilation, side) if x.shape[2] else None
        key = _workspace_key(x, self.kernel_size, self.dilation, side)
        rows, carry = _conv_rows(
            cols, x.shape, stacked, bias_column, self.kernel_size, self.dilation, self.padding,
            lambda name, shape: _workspace_buffer(key, name, shape, x.dtype),
            PartialRows() if partial is None else partial, last, activation == "relu",
        )
        return rows if partial is None else (rows, carry)
