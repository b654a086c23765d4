"""A small reverse-mode autograd / neural-network framework built on numpy.

The paper trains its Encoder / Selector models with a standard deep-learning
stack.  No such stack is available in this offline environment, so this
package provides the substrate: a :class:`~repro.nn.tensor.Tensor` with
reverse-mode automatic differentiation, the layers the NEC Selector, the
``NeuralEncoder`` and the VoiceFilter baseline build (dense, ReLU, 2-D
convolution with dilation, LSTM), the encoder's cross-entropy loss, the Adam
optimiser and model (de)serialisation.

A convolution runs one kernel, the tap-wise row kernel: each channel is
zero-padded at the sides, the ``kw`` horizontal taps are gathered, one GEMM
of the stacked ``(kh*O, C*kw)`` weights covers the vertical taps (one GEMM
per tap where the stack would outgrow the gather), and ``kh`` shifted adds
sum the taps into the output rows they feed.  :meth:`Conv2d.forward` is its
autograd pass, one whole-plane block per example, and :meth:`Conv2d.infer`
its gradient-free pass, a plane or a row block (gathering through
:func:`strided_im2col` into a per-thread workspace).  The frequency-domain :func:`fft_conv2d` is
not on either path; it remains exported until the benchmark's tracer stops
looking it up.

The public surface mirrors the subset of a conventional framework that the
reproduction needs; everything is pure numpy and deterministic given a seed.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import Module, Dense, ReLU, Sequential
from repro.nn.conv import (
    Conv2d,
    strided_im2col,
    clear_im2col_buffer_cache,
    im2col_buffer_cache_info,
)
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.losses import cross_entropy_loss
from repro.nn.optim import Adam, Optimizer
from repro.nn.serialization import save_model, load_model, state_dict, load_state_dict
from repro.nn.fftconv import fft_conv2d, next_fast_len

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Dense",
    "ReLU",
    "Sequential",
    "Conv2d",
    "strided_im2col",
    "fft_conv2d",
    "next_fast_len",
    "clear_im2col_buffer_cache",
    "im2col_buffer_cache_info",
    "LSTM",
    "LSTMCell",
    "cross_entropy_loss",
    "Adam",
    "Optimizer",
    "save_model",
    "load_model",
    "state_dict",
    "load_state_dict",
]
