"""Frequency-domain batched convolution, no longer on any training or inference path.

``Conv2d.forward`` runs the tap-wise kernel in :mod:`repro.nn.conv`.  This
module stays only because the benchmark's tracer (``perfbench/spans.py``)
resolves ``repro.nn.conv.fft_conv2d`` by name; it goes with the next change
to the benchmark.

A direct convolution written as one GEMM materialises a ``C*kh*kw``-row
column matrix — a 25x memory inflation for the Selector's 5x5 kernels.
Stacked into an ``(N, 1, T, F)`` minibatch those columns grow to tens of
megabytes per layer and every pass streams hundreds of megabytes through a
single core.

:func:`fft_conv2d` removes the inflation entirely: a valid cross-correlation
is a pointwise product in the frequency domain (correlation theorem), so the
whole minibatch convolves through three FFT stacks and one tiny complex
contraction, touching ``O(N*C*H*W)`` memory instead of ``O(N*C*kh*kw*H*W)``.
The backward pass reuses the forward spectra: with ``X`` and ``K`` the input
and kernel spectra and ``G`` the spectrum of the incoming gradient,

``Y = sum_c X[n,c] * conj(K[o,c])``        (valid correlation, forward)
``dXp = sum_o G[n,o] * K[o,c]``            (full convolution, input grad)
``dK  = sum_n X[n,c] * conj(G[n,o])``      (valid correlation, weight grad)

each inverse-transformed and sliced to the valid region.  Everything runs in
float64; FFT round-off at these sizes is ~1e-13 relative, far inside the
gates that ``tests/test_training_batch.py`` sets against the tap-sum
reference ``conv2d_reference`` in ``tests/oracles.py`` (1e-11 forward, 1e-9
gradients).

The kernel is stride 1, like every ``Conv2d``; dilation is handled by
zero-upsampling the kernel before the transform and slicing the weight
gradient back out at the dilated offsets.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# numpy's pocketfft, not scipy's: importing scipy.fft would load scipy (and
# its own OpenBLAS) into every process that imports repro.nn.
from numpy.fft import irfftn as _irfftn, rfftn as _rfftn

from repro.nn.tensor import Tensor

__all__ = ["fft_conv2d", "next_fast_len"]


def next_fast_len(n: int) -> int:
    """The smallest 7-smooth integer ``>= n`` (a fast pocketfft size)."""
    if n <= 1:
        return 1
    best = 1 << (int(n - 1).bit_length())  # next power of two always works
    f7 = 1
    while f7 < best:
        f5 = f7
        while f5 < best:
            f3 = f5
            while f3 < best:
                f2 = f3
                while f2 < n:
                    f2 *= 2
                if f2 < best:
                    best = f2
                f3 *= 3
            f5 *= 5
        f7 *= 7
    return best


def _embed_padded(
    data: np.ndarray, pad_h: int, pad_w: int, out_h: int, out_w: int
) -> np.ndarray:
    """``data`` centred in a zero margin, without a full-array memset.

    ``np.zeros`` hands back fresh kernel zero pages, so every byte of a
    multi-megabyte pad buffer pays a page fault on first touch even though
    only the thin margins actually need to be zero.  ``np.empty`` recycles
    the allocator's warm pages; zeroing just the margins then costs only the
    margin traffic.
    """
    num, channels, height, width = data.shape
    out = np.empty((num, channels, out_h, out_w))
    if pad_h:
        out[:, :, :pad_h] = 0.0
        out[:, :, pad_h + height :] = 0.0
    if pad_w:
        out[:, :, pad_h : pad_h + height, :pad_w] = 0.0
        out[:, :, pad_h : pad_h + height, pad_w + width :] = 0.0
    out[:, :, pad_h : pad_h + height, pad_w : pad_w + width] = data
    return out


def fft_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
    activation: Optional[str] = None,
) -> Tensor:
    """Batched 2-D valid cross-correlation of ``x`` with ``weight`` via FFT.

    ``x`` is ``(N, C, H, W)``, ``weight`` is ``(out_c, C, kh, kw)``; returns a
    ``(N, out_c, out_h, out_w)`` autograd :class:`Tensor` with the bias add —
    and, when ``activation="relu"``, the ReLU — fused into the node.  Matches
    the direct convolution (and its ReLU) to FFT round-off (~1e-13
    relative).  Kernels flat along one axis (``1 x kw`` /
    ``kh x 1``) bypass the FFT for a zero-copy sliding-window einsum, which
    keeps the Selector's frequency/time filters as cheap direct passes.
    Fusing the ReLU saves one
    multi-megabyte activation allocation per layer forward and one gradient
    copy per layer backward — the batched step is memory-bound, so these
    count.
    """
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported activation: {activation!r}")
    if x.ndim != 4:
        raise ValueError("fft_conv2d expects (N, C, H, W) input")
    num_examples, channels, height, width = x.shape
    out_channels, w_channels, kernel_h, kernel_w = weight.shape
    if w_channels != channels:
        raise ValueError(
            f"weight expects {w_channels} input channels, got {channels}"
        )
    dil_h, dil_w = dilation
    pad_h, pad_w = padding
    kh_eff = (kernel_h - 1) * dil_h + 1
    kw_eff = (kernel_w - 1) * dil_w + 1
    padded_h = height + 2 * pad_h
    padded_w = width + 2 * pad_w
    out_h = padded_h - kh_eff + 1
    out_w = padded_w - kw_eff + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"Convolution output would be empty: input {height}x{width}, "
            f"kernel {kernel_h}x{kernel_w}, dilation {dilation}, padding {padding}"
        )

    padded = _embed_padded(x.data, pad_h, pad_w, padded_h, padded_w)

    # Kernels flat along one axis (the Selector's 1x7 frequency and 7x1 time
    # filters) skip the frequency domain entirely: a zero-copy sliding-window
    # view over the padded input turns the correlation into one small einsum
    # per pass.  That beats the FFT round-trip (~40% forward, ~15% backward
    # measured at batch 8) and reproduces the direct convolution's exact
    # zeros, so no round-off flushing is needed on this path.
    if kernel_h == 1 or kernel_w == 1:
        return _flat_windowed_conv(
            x, weight, bias, padded, activation,
            axis=2 if kernel_w == 1 else 3,
            pad_h=pad_h, pad_w=pad_w, height=height, width=width,
            dilation=dil_h if kernel_w == 1 else dil_w,
        )

    # Zero-upsample the kernel at the dilated taps (no-op for dilation 1).
    if dil_h == 1 and dil_w == 1:
        kernel = weight.data
    else:
        kernel = np.zeros((out_channels, channels, kh_eff, kw_eff))
        kernel[:, :, ::dil_h, ::dil_w] = weight.data

    axes = (2, 3)
    sizes = (next_fast_len(padded_h), next_fast_len(padded_w))

    x_hat = _rfftn(padded, s=sizes, axes=axes)
    k_hat = _rfftn(kernel, s=sizes, axes=axes)

    # Correlation needs conj(K); conjugate in place (k_hat is freshly owned)
    # instead of materialising a second multi-megabyte spectrum.  The backward
    # closure conjugates it back when it needs the plain K.
    np.conjugate(k_hat, out=k_hat)
    y_hat = np.einsum("nchw,ochw->nohw", x_hat, k_hat)
    out_full = _irfftn(y_hat, s=sizes, axes=axes)
    # A strided view into the full inverse transform; every op below writes
    # in place, so the valid region is never copied out.
    out_data = out_full[:, :, :out_h, :out_w]
    # Flush FFT round-off back to the exact zeros the direct convolution
    # produces.  ReLU-sparse inputs make all-zero receptive fields common, and
    # the direct path yields *exactly* 0.0 there; the frequency-domain path
    # yields +-1e-16 noise instead, which would flip downstream ReLU masks at
    # random and break gradient equivalence with the direct reference by far
    # more than round-off.  The threshold sits ~100x above the FFT error floor
    # and ~11 decades below the activation scale, so genuine activations are
    # never touched.
    magnitude = np.abs(out_data)
    scale = magnitude.max()
    if scale > 0.0:
        out_data[magnitude < 1e-11 * scale] = 0.0
    del magnitude
    if bias is not None:
        out_data += bias.data.reshape(1, out_channels, 1, 1)
    if activation == "relu":
        np.maximum(out_data, 0.0, out=out_data)

    def backward(grad: np.ndarray) -> None:
        if activation == "relu":
            # Strictly-positive outputs pass gradient (same mask as a
            # separate ``.relu()`` node over the pre-activation).
            grad = grad * (out_data > 0.0)
        g_hat = _rfftn(grad, s=sizes, axes=axes)
        if x.requires_grad:
            # k_hat was left conjugated by the forward pass; restore K.
            np.conjugate(k_hat, out=k_hat)
            dx_hat = np.einsum("nohw,ochw->nchw", g_hat, k_hat)
            dx_full = _irfftn(dx_hat, s=sizes, axes=axes)
            x._accumulate_owned(
                dx_full[:, :, pad_h : pad_h + height, pad_w : pad_w + width]
            )
        if weight.requires_grad:
            # g_hat is owned and no longer needed unconjugated: flip in place.
            np.conjugate(g_hat, out=g_hat)
            dk_hat = np.einsum("nchw,nohw->ochw", x_hat, g_hat)
            dk_full = _irfftn(dk_hat, s=sizes, axes=axes)
            weight._accumulate_owned(
                np.ascontiguousarray(dk_full[:, :, :kh_eff:dil_h, :kw_eff:dil_w])
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate_owned(grad.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return x._make(out_data, parents, backward)


def _flat_windowed_conv(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    padded: np.ndarray,
    activation: Optional[str],
    *,
    axis: int,
    pad_h: int,
    pad_w: int,
    height: int,
    width: int,
    dilation: int,
) -> Tensor:
    """Flat-kernel (``1 x k`` / ``k x 1``) correlation via sliding windows.

    ``sliding_window_view`` appends the window axis last regardless of which
    spatial axis it slides over, so one einsum spec (``nchwk``) covers both
    orientations; ``[..., ::dilation]`` selects the dilated taps from each
    window without materialising anything.  The input gradient is the full
    convolution — the same windows over an edge-padded gradient contracted
    with the tap-reversed kernel — and the weight gradient reuses the
    forward's window view, so the only fresh allocations are the einsum
    outputs themselves.
    """
    out_channels = weight.shape[0]
    taps = weight.shape[2] * weight.shape[3]
    k_eff = (taps - 1) * dilation + 1
    kernel = weight.data.reshape(out_channels, weight.shape[1], taps)

    x_win = sliding_window_view(padded, k_eff, axis=axis)[..., ::dilation]
    out_data = np.einsum("nchwk,ock->nohw", x_win, kernel)
    if bias is not None:
        out_data += bias.data.reshape(1, out_channels, 1, 1)
    if activation == "relu":
        np.maximum(out_data, 0.0, out=out_data)

    def backward(grad: np.ndarray) -> None:
        if activation == "relu":
            grad = grad * (out_data > 0.0)
        if x.requires_grad:
            edge = k_eff - 1
            g_pad = _embed_padded(
                grad,
                edge if axis == 2 else 0,
                edge if axis == 3 else 0,
                grad.shape[2] + (2 * edge if axis == 2 else 0),
                grad.shape[3] + (2 * edge if axis == 3 else 0),
            )
            g_win = sliding_window_view(g_pad, k_eff, axis=axis)[..., ::dilation]
            dx_padded = np.einsum("nohwk,ock->nchw", g_win, kernel[:, :, ::-1])
            x._accumulate_owned(
                dx_padded[:, :, pad_h : pad_h + height, pad_w : pad_w + width]
            )
        if weight.requires_grad:
            dk = np.einsum("nchwk,nohw->ock", x_win, grad)
            weight._accumulate_owned(dk.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate_owned(grad.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return x._make(out_data, parents, backward)
