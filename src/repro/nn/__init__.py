"""A small reverse-mode autograd / neural-network framework built on numpy.

The paper trains its Encoder / Selector models with a standard deep-learning
stack.  No such stack is available in this offline environment, so this
package provides the substrate: a :class:`~repro.nn.tensor.Tensor` with
reverse-mode automatic differentiation, the layers the NEC Selector, the
``NeuralEncoder`` and the VoiceFilter baseline build (dense, ReLU, 2-D
convolution with dilation, LSTM), the encoder's cross-entropy loss, the Adam
optimiser and model (de)serialisation.

A convolution runs one kernel, the tap-wise one: each channel is
zero-padded once, the ``kw`` horizontal taps are gathered, and ``kh`` GEMMs
at row offsets into them cover the vertical taps.  :meth:`Conv2d.forward` is
its autograd pass and :meth:`Conv2d.infer` its gradient-free pass (gathering
through :func:`strided_im2col`).  The frequency-domain :func:`fft_conv2d` is
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
from repro.nn.grad_check import (
    numerical_gradient,
    check_gradients,
    check_batched_gradients,
)

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
    "numerical_gradient",
    "check_gradients",
    "check_batched_gradients",
]
