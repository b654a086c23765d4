"""The NEC Selector network (paper Fig. 7).

The Selector takes the mixed magnitude spectrogram and the target speaker's
d-vector and produces the shadow spectrogram.  The architecture follows the
paper:

1. a flat ``1 x 7`` convolution over the frequency axis (each filter spans
   ~93 Hz at the paper geometry — enough for one formant bandwidth);
2. a ``7 x 1`` convolution over the time axis (~115 ms — phoneme scale);
3. a stack of ``5 x 5`` convolutions with time-axis dilation growing from 1 to
   8, extending the receptive field to ~610 ms (a few words);
4. a final convolution down to two channels, giving a ``(T, 2F)`` feature map;
5. the d-vector concatenated to every time frame;
6. two fully connected layers producing the ``(T, F)`` output.

Two output heads are supported.  ``output_mode='mask'`` (default) applies a
sigmoid and interprets the output as the fraction of each mixed time-frequency
bin attributed to the target speaker — the shadow spectrogram is then
``-(mask * S_mixed)``, exactly the quantity that drives the recorded
spectrogram towards the background (Eq. 6).  ``output_mode='spectrogram'``
reproduces the paper's literal description: an unconstrained linear output
used directly as the (signed) shadow spectrogram.  The ablation benchmark
compares both.

The network has one training pass and one inference pass over stacked
``(N, F, T)`` segments: :meth:`Selector.forward` builds the autograd graph
(convolutions through :meth:`Conv2d.forward`) and
:meth:`Selector.forward_batch` runs gradient-free (convolutions through
:meth:`Conv2d.infer`).  Both are pinned against the one-segment autograd
oracle ``selector_reference`` in ``tests/oracles.py``.

:class:`StreamBatch` is the inference queue of the streaming and serving
paths: each request is one stream's ``(F, T)`` segment, and a tick runs the
queued requests in submit order, one Selector pass each.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import NECConfig
from repro.nn import Conv2d, Dense, Module, Tensor
from repro.nn.layers import CastCache

#: Most segments one gradient-free Selector pass stacks.  At the deployment
#: geometry (``NECConfig.default()``) stacking 2 to 16 rows saved no time per
#: segment over one row, while peak RSS grew by about 50 MB per row
#: (docs/architecture.md, "Rows per pass").
ROWS_PER_PASS = 1


class Selector(Module):
    """CNN + FC selector producing a shadow spectrogram from (S_mixed, d-vector)."""

    def __init__(self, config: NECConfig, seed: int = 0) -> None:
        super().__init__()
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        channels = config.selector_channels
        kernel = config.selector_kernel

        # 1-2: the flat frequency filter and the time filter.
        self.conv_freq = Conv2d(1, channels, (1, 7), padding=(0, 3), rng=rng)
        self.conv_time = Conv2d(channels, channels, (7, 1), padding=(3, 0), rng=rng)

        # 3: dilated 5x5 stack (dilation grows along the time axis only).
        self.dilated = [
            Conv2d(
                channels,
                channels,
                (kernel, kernel),
                padding=((kernel - 1) // 2 * dilation, (kernel - 1) // 2),
                dilation=(dilation, 1),
                rng=rng,
            )
            for dilation in config.selector_dilations
        ]

        # 4: reduce to two channels -> (T, 2F).
        self.conv_out = Conv2d(channels, 2, (kernel, kernel), padding="same", rng=rng)

        # 6: fully connected head over [2F features + d-vector] per frame.
        fc_in = 2 * config.frequency_bins + config.embedding_dim
        self.fc1 = Dense(fc_in, config.fc_hidden, rng=rng)
        self.fc2 = Dense(config.fc_hidden, config.frequency_bins, rng=rng)
        self._head_weights = CastCache()  # the inference head's weights, per dtype

    # ------------------------------------------------------------------
    def num_conv_layers(self) -> int:
        return 3 + len(self.dilated)

    def forward(self, spectrograms, d_vectors) -> Tensor:
        """Autograd Selector output for a stacked ``(N, F, T)`` minibatch.

        The training-side twin of :meth:`forward_batch`: the same stacked
        layout and per-row independence, but every operation goes through the
        :class:`~repro.nn.tensor.Tensor` graph so one backward pass yields the
        *sum over the batch* of the per-example gradients (so a mean-reduced
        batch loss yields the mean gradient — the minibatch SGD contract,
        pinned by ``check_batched_gradients`` in the test suite).

        ``spectrograms``: ``(N, F, T)`` array or Tensor of mixed magnitude
        spectrograms (paper Eq. 2).  ``d_vectors``: one shared
        ``(embedding_dim,)`` embedding or per-example ``(N, embedding_dim)``
        rows.  Returns the raw head output of shape ``(N, T, F)`` — a sigmoid
        mask in ``mask`` mode, an unconstrained spectrogram in
        ``spectrogram`` mode.  The convolutions run through the tap-wise
        autograd kernel (:meth:`Conv2d.forward`), so row ``n`` of the result
        (and its gradient contribution) equals the tap-sum convolution graph
        of one segment to round-off, pinned at 1e-11 forward and 1e-9 on
        gradients by the tests.
        """
        if not isinstance(spectrograms, Tensor):
            spectrograms = Tensor(np.asarray(spectrograms, dtype=np.float64))
        if spectrograms.ndim != 3:
            raise ValueError("Selector.forward expects a (N, F, T) batch of spectrograms")
        num_examples, freq_bins, frames = spectrograms.shape
        if freq_bins != self.config.frequency_bins:
            raise ValueError(
                f"expected {self.config.frequency_bins} frequency bins, got {freq_bins}"
            )
        vectors = np.asarray(
            d_vectors.data if isinstance(d_vectors, Tensor) else d_vectors,
            dtype=np.float64,
        )
        if vectors.ndim == 1:
            vectors = np.broadcast_to(vectors.reshape(1, -1), (num_examples, vectors.size))
        if vectors.ndim != 2 or vectors.shape[0] != num_examples:
            raise ValueError(
                f"d_vectors must be (dim,) or ({num_examples}, dim), "
                f"got shape {vectors.shape}"
            )

        # Compress the dynamic range; magnitudes span several orders of magnitude.
        compressed = (spectrograms + 1e-6).log()
        # (N, F, T) -> (N, 1, T, F): time as "height", frequency as "width".
        image = compressed.transpose(0, 2, 1).reshape(num_examples, 1, frames, freq_bins)

        # Tap-wise convolutions with the ReLU fused into each node.
        hidden = self.conv_freq(image, activation="relu")
        hidden = self.conv_time(hidden, activation="relu")
        for layer in self.dilated:
            hidden = layer(hidden, activation="relu")
        features = self.conv_out(hidden, activation="relu")  # (N, 2, T, F)

        # (N, 2, T, F) -> (N, T, 2F)
        features = features.transpose(0, 2, 1, 3).reshape(
            num_examples, frames, 2 * freq_bins
        )

        # Concatenate each example's d-vector to every one of its frames; the
        # embeddings are inputs, not parameters, so the tile is a constant.
        tiled = Tensor(np.broadcast_to(
            vectors[:, None, :], (num_examples, frames, vectors.shape[1])
        ).copy())
        fused = Tensor.concatenate([features, tiled], axis=2)

        # Dense applies to the last axis, so the (N, T, in) @ (in, out) matmul
        # broadcasts into N per-example GEMMs.
        hidden = self.fc1(fused).relu()
        output = self.fc2(hidden)
        if self.config.output_mode == "mask":
            output = output.sigmoid()
        return output  # (N, T, F)

    def forward_batch(
        self, spectrograms: np.ndarray, d_vector: np.ndarray
    ) -> np.ndarray:
        """Selector output for a batch of segments, without autograd.

        ``spectrograms``: ``(N, F, T)`` stacked magnitude spectrograms.
        ``d_vector``: either one ``(embedding_dim,)`` reference embedding
        shared by the batch (all segments of one protected speaker's clip) or
        a ``(N, embedding_dim)`` matrix of per-segment embeddings.
        Returns the raw head output of shape ``(N, T, F)``.

        The batch runs in passes of at most :data:`ROWS_PER_PASS` rows, so
        the working set of every gradient-free pass (and every shape the
        convolution's gather-buffer cache keeps) is bounded by
        construction, whatever ``N`` a caller stacks.  Rows are independent:
        each row is the same whichever rows share its pass.  The numerical
        constants match :meth:`forward`, and the convolutions run through
        :meth:`Conv2d.infer`; in float64 each row is within 1e-12 relative
        of the one-segment autograd oracle (pinned by the test suite).  The
        pass computes in the dtype of ``spectrograms`` (float32 stays
        float32, anything else is float64); the float32 gates are in
        ``tests/test_precision.py``.
        """
        batch = np.asarray(spectrograms)
        batch = batch.astype(np.result_type(batch, np.float32), copy=False)
        if batch.ndim != 3:
            raise ValueError("forward_batch expects a (N, F, T) batch of spectrograms")
        d_vector = np.asarray(d_vector, dtype=batch.dtype)
        num_segments, freq_bins, frames = batch.shape
        if freq_bins != self.config.frequency_bins:
            raise ValueError(
                f"expected {self.config.frequency_bins} frequency bins, got {freq_bins}"
            )
        if d_vector.ndim == 2 and d_vector.shape[0] != num_segments:
            raise ValueError(
                f"per-segment d_vectors must be ({num_segments}, dim), "
                f"got shape {d_vector.shape}"
            )
        if d_vector.ndim not in (1, 2):
            raise ValueError("d_vector must be (dim,) or (N, dim)")
        if num_segments == 0:
            return np.zeros((0, frames, freq_bins), dtype=batch.dtype)
        passes = []
        for start in range(0, num_segments, ROWS_PER_PASS):
            rows = slice(start, start + ROWS_PER_PASS)
            vectors = d_vector if d_vector.ndim == 1 else d_vector[rows]
            passes.append(self._forward_rows(batch[rows], vectors))
        return np.concatenate(passes, axis=0)

    def _head(self, fc1_weight, fc1_bias, fc2_weight, fc2_bias):
        """``fc1``'s weight split into its feature rows and its d-vector rows."""
        features = 2 * self.config.frequency_bins
        return fc1_weight[:features], fc1_weight[features:], fc1_bias, fc2_weight, fc2_bias

    def _forward_rows(self, batch: np.ndarray, d_vector: np.ndarray) -> np.ndarray:
        """One gradient-free pass over at most :data:`ROWS_PER_PASS` rows."""
        num_segments, freq_bins, frames = batch.shape

        # Same dynamic-range compression as forward(): Tensor.log adds its own
        # 1e-12 epsilon on top of the 1e-6 offset.
        compressed = np.log(batch + 1e-6 + 1e-12)
        # (N, F, T) -> (N, 1, T, F): time as "height", frequency as "width".
        image = compressed.transpose(0, 2, 1).reshape(num_segments, 1, frames, freq_bins)

        hidden = self.conv_freq.infer(image, activation="relu")
        hidden = self.conv_time.infer(hidden, activation="relu")
        for layer in self.dilated:
            hidden = layer.infer(hidden, activation="relu")
        features = self.conv_out.infer(hidden, activation="relu")  # (N, 2, T, F)

        # (N, 2, T, F) -> (N, T, 2F)
        features = features.transpose(0, 2, 1, 3).reshape(
            num_segments, frames, 2 * freq_bins
        )

        # [features, d] @ W1 = features @ W1[:2F] + d @ W1[2F:]: the d-vector
        # term is one row per segment, added to every frame by broadcasting.
        feature_weight, vector_weight, fc1_bias, fc2_weight, fc2_bias = self._head_weights.get(
            (self.fc1.weight.data, self.fc1.bias.data, self.fc2.weight.data, self.fc2.bias.data),
            batch.dtype,
            self._head,
        )
        vector_term = d_vector @ vector_weight + fc1_bias  # (H,) or (N, H)
        if vector_term.ndim == 2:
            vector_term = vector_term[:, None, :]
        # The (N, T, in) @ (in, out) matmuls broadcast into N per-segment GEMMs.
        hidden = features @ feature_weight
        hidden += vector_term
        np.maximum(hidden, 0.0, out=hidden)
        output = hidden @ fc2_weight
        output += fc2_bias
        if self.config.output_mode == "mask":
            output = 1.0 / (1.0 + np.exp(-np.clip(output, -60.0, 60.0)))
        return output  # (N, T, F)

    # ------------------------------------------------------------------
    def shadow_spectrogram_batch(
        self, spectrograms: np.ndarray, d_vector: np.ndarray
    ) -> np.ndarray:
        """Signed shadow spectrograms ``S_shadow`` for a ``(N, F, T)`` batch.

        In ``mask`` mode the head output ``M`` (in [0, 1]) estimates the target
        speaker's share of each bin, so ``S_shadow = -(M * S_mixed)``; adding it
        to the mixed spectrogram leaves ``(1 - M) * S_mixed ~= S_bk``.  In
        ``spectrogram`` mode the head output is used directly.  ``d_vector``
        may be one shared ``(dim,)`` embedding or per-segment ``(N, dim)``
        rows (see :meth:`forward_batch`, also for the dtype rule).  One
        segment is ``shadow_spectrogram_batch(spectrogram[None], d_vector)[0]``.
        """
        mixed = np.asarray(spectrograms)
        output = self.forward_batch(mixed, d_vector).transpose(0, 2, 1)  # (N, F, T)
        if self.config.output_mode == "mask":
            return -(output * mixed)
        return output


@dataclass
class StreamRequest:
    """One stream's segment awaiting inference inside a :class:`StreamBatch`.

    ``mixed_spectrogram`` is the segment's ``(F, T)`` magnitude spectrogram;
    once a tick has run the request, ``shadow_spectrogram`` holds its signed
    ``(F, T)`` shadow.
    """

    mixed_spectrogram: np.ndarray   # (F, T)
    d_vector: np.ndarray            # (embedding_dim,)
    shadow_spectrogram: Optional[np.ndarray] = None  # (F, T) once ticked

    @property
    def done(self) -> bool:
        return self.shadow_spectrogram is not None


class StreamBatch:
    """The queue of Selector inference shared by many streams.

    Concurrent streaming protectors each complete segments at their own
    pace and :meth:`submit` them here, one segment per request, each request
    carrying its speaker's d-vector; :meth:`tick` then runs every queued
    request in submit order, one Selector pass per request, and marks each
    request done as soon as its shadow exists.  A request's shadow is
    exactly what a dedicated per-stream pass produces, whichever streams and
    speakers share the tick (pinned by the test suite).  Requests are not
    stacked into one pass: at the deployment geometry stacking saves no time
    per segment and multiplies the convolution working set.

    The queue owns retries: a tick whose pass raises puts the failed request
    and every request behind it back at the head of the queue, ahead of any
    later submit, and re-raises; the next tick runs them in order.

    :meth:`submit` and the pending-queue handoff in :meth:`tick` are
    thread-safe, so producer threads (streaming sessions) may submit while a
    dedicated ticker thread drives inference — the shape of the serving event
    loop (:mod:`repro.serving`).  :meth:`close` retires the batch: later
    submits raise.
    """

    def __init__(self, selector: Selector) -> None:
        self.selector = selector
        self._pending: List[StreamRequest] = []
        self._lock = threading.Lock()
        self._closed = False
        self.ticks = 0
        self.segments_coalesced = 0
        self.empty_ticks = 0
        self.max_batch_size = 0

    @property
    def pending_requests(self) -> int:
        """Queued segments awaiting a tick."""
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, mixed_spectrogram: np.ndarray, d_vector: np.ndarray) -> StreamRequest:
        """Queue one stream's ``(F, T)`` segment spectrogram for the next tick.

        Shapes are checked here: a malformed request would fail every tick
        and, requeued at the head, hold up every request behind it.
        """
        mixed, d_vector = np.asarray(mixed_spectrogram), np.asarray(d_vector)
        bins, dim = self.selector.config.frequency_bins, self.selector.config.embedding_dim
        if mixed.ndim != 2 or mixed.shape[0] != bins or d_vector.shape != (dim,):
            raise ValueError(
                f"submit expects a ({bins}, T) spectrogram and a ({dim},) d-vector, "
                f"got {mixed.shape} and {d_vector.shape}"
            )
        if self._closed:
            raise RuntimeError("StreamBatch is closed")
        request = StreamRequest(mixed_spectrogram=mixed, d_vector=d_vector)
        with self._lock:
            self._pending.append(request)
        return request

    def close(self) -> None:
        """Refuse further submits.

        Idempotent; ticking an already-drained closed batch is a no-op, but
        submitting to one raises.
        """
        self._closed = True

    def tick(self) -> int:
        """Run every pending request in submit order; returns the segments run."""
        with self._lock:
            pending, self._pending = self._pending, []
        for position, request in enumerate(pending):
            try:
                request.shadow_spectrogram = self.selector.shadow_spectrogram_batch(
                    request.mixed_spectrogram[None], request.d_vector
                )[0]
            except BaseException:
                with self._lock:
                    self._pending[:0] = pending[position:]
                raise
        self.ticks += 1
        if not pending:
            self.empty_ticks += 1
        self.segments_coalesced += len(pending)
        self.max_batch_size = max(self.max_batch_size, len(pending))
        return len(pending)
