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
oracle ``selector_reference`` in ``tests/oracles.py``.  The gradient-free
pass is one primitive, :meth:`Selector.row_block`, run twice on a rolling
:class:`PassState`: a head block over frames ``[0, S)`` and a tail block
over ``[S, T)``, ``S = T − L`` and ``L`` the stack's look-ahead.  The head
block needs only the first ``S`` frames, so the streaming path runs it
before the segment ends.

:class:`StreamBatch` is the inference queue of the streaming and serving
paths: each request is one stream's segment, queued as a head block and a
tail block, and a tick runs the queued blocks in submit order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

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
        self._fc_cache = CastCache()  # the inference FC head's weights, per dtype

    # ------------------------------------------------------------------
    def _convs(self) -> List[Conv2d]:
        """The convolutions in forward order."""
        return [self.conv_freq, self.conv_time, *self.dilated, self.conv_out]

    def num_conv_layers(self) -> int:
        return len(self._convs())

    def forward(self, spectrograms, d_vectors) -> Tensor:
        """Autograd Selector output for a stacked ``(N, F, T)`` minibatch.

        The training-side twin of :meth:`forward_batch`: the same stacked
        layout and per-row independence, but every operation goes through the
        :class:`~repro.nn.tensor.Tensor` graph so one backward pass yields the
        *sum over the batch* of the per-example gradients (so a mean-reduced
        batch loss yields the mean gradient — the minibatch SGD contract,
        pinned by ``check_batched_gradients`` in ``tests/oracles.py``).

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

    # ------------------------------------------------------------------
    @property
    def lookahead_frames(self) -> int:
        """``L``: how many frames after output frame ``t`` its value reads.

        Every convolution keeps the time axis and zero-pads it by ``pad_h``
        at both ends, so its output row ``t`` reads input rows up to
        ``t + pad_h``; ``L`` is the sum over the stack: 19 frames (190 ms)
        at ``NECConfig.default()``, 11 at ``tiny()``.  The FC head is per
        frame and adds none.
        """
        return sum(layer.padding[0] for layer in self._convs())

    def head_frames(self, frames: int) -> int:
        """``S = T − L``: the frames the head block of a ``T``-frame pass reads."""
        return max(frames - self.lookahead_frames, 0)

    def _cast(self, spectrograms: np.ndarray) -> np.ndarray:
        """``(N, F, T)`` spectrograms in the pass's dtype: float32 stays, else float64."""
        batch = np.asarray(spectrograms)
        batch = batch.astype(np.result_type(batch, np.float32), copy=False)
        if batch.ndim != 3:
            raise ValueError("the Selector expects a (N, F, T) batch of spectrograms")
        if batch.shape[1] != self.config.frequency_bins:
            raise ValueError(
                f"expected {self.config.frequency_bins} frequency bins, got {batch.shape[1]}"
            )
        return batch

    def forward_batch(
        self,
        spectrograms: np.ndarray,
        d_vector: np.ndarray,
        head: Optional["PassState"] = None,
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
        each row is the same whichever rows share its pass.  Every pass runs
        :meth:`row_block` twice, split at frame ``S = T − L``
        (:meth:`head_frames`): the head block over frames ``[0, S)``, then the
        tail block over ``[S, T)``.  A caller that already ran the head block
        of a one-pass batch passes its :class:`PassState` as ``head``, and
        only the tail block runs here; the streaming path does so to run the
        head while the segment is still being spoken.  Both ways issue the
        same convolutions on the same shapes, so they give the same bits.

        The numerical constants match :meth:`forward`, and the convolutions
        run through :meth:`Conv2d.infer`; in float64 each row is within
        1e-12 relative of the one-segment autograd oracle (pinned by the
        test suite).  The pass computes in the dtype of ``spectrograms``
        (float32 stays float32, anything else is float64), or in ``head``'s;
        the float32 gates are in ``tests/test_precision.py``.
        """
        batch = self._cast(spectrograms)
        d_vector = np.asarray(d_vector, dtype=batch.dtype)
        num_segments, freq_bins, frames = batch.shape
        if d_vector.ndim == 2 and d_vector.shape[0] != num_segments:
            raise ValueError(
                f"per-segment d_vectors must be ({num_segments}, dim), "
                f"got shape {d_vector.shape}"
            )
        if d_vector.ndim not in (1, 2):
            raise ValueError("d_vector must be (dim,) or (N, dim)")
        split = self.head_frames(frames)
        if head is not None and (head.frames != split or num_segments > ROWS_PER_PASS):
            raise ValueError(f"a head state covers the first {split} frames of one pass")
        if num_segments == 0:
            return np.zeros((0, frames, freq_bins), dtype=batch.dtype)
        passes = []
        for start in range(0, num_segments, ROWS_PER_PASS):
            rows = slice(start, start + ROWS_PER_PASS)
            state = head
            if state is None:
                vectors = d_vector if d_vector.ndim == 1 else d_vector[rows]
                state = self.open_pass(vectors, batch.dtype)
                for _ in self.row_block(state, batch[rows, :, :split]):
                    pass
            for _ in self.row_block(state, batch[rows, :, split:], last=True):
                pass
            passes.append(state.output)
        output = np.concatenate(passes, axis=0)
        if self.config.output_mode == "mask":
            output = 1.0 / (1.0 + np.exp(-np.clip(output, -60.0, 60.0)))
        return output

    def _split_fc1(self, fc1_weight, fc1_bias, fc2_weight, fc2_bias):
        """``fc1``'s weight split into its feature rows and its d-vector rows."""
        features = 2 * self.config.frequency_bins
        return fc1_weight[:features], fc1_weight[features:], fc1_bias, fc2_weight, fc2_bias

    def _fc_weights(self, dtype: np.dtype):
        return self._fc_cache.get(
            (self.fc1.weight.data, self.fc1.bias.data, self.fc2.weight.data, self.fc2.bias.data),
            dtype,
            self._split_fc1,
        )

    def open_pass(self, d_vector: np.ndarray, dtype) -> "PassState":
        """A :class:`PassState` before any frame, for :meth:`row_block`.

        ``d_vector``: one ``(embedding_dim,)`` embedding or ``(N, dim)``
        rows, read here only: ``fc1``'s d-vector term is computed once and
        added to every frame.  The pass computes in ``dtype``'s float type
        (float32 stays, anything else is float64).
        """
        dtype = np.result_type(dtype, np.float32)
        weights = self._fc_weights(dtype)
        vector_term = np.asarray(d_vector, dtype=dtype) @ weights[1] + weights[2]
        if vector_term.ndim == 2:
            vector_term = vector_term[:, None, :]
        return PassState(vector_term=vector_term)

    def row_block(
        self, state: "PassState", spectrograms: np.ndarray, last: bool = False
    ) -> Iterator[None]:
        """Run the next frames of a pass through the conv stack and the FC head.

        ``spectrograms``: ``(N, F, t)``, at most :data:`ROWS_PER_PASS` rows,
        the ``t`` frames after the ``state.frames`` already run.  A
        generator: it yields after each convolution, so a scheduler can run
        other work between the layers (:class:`StreamBatch` runs a closing
        segment's tail block there).  ``state`` advances when the block
        ends, so a block that raises leaves it as it was, to be run again.

        A conv layer with vertical padding ``p`` that has seen ``n`` input
        rows, ``done`` of its output rows computed, pads the top by
        ``max(p − done, 0)`` and computes output rows up to ``n − p``, or up
        to ``n`` in the ``last`` block, which alone pads the bottom.  It
        keeps its input rows from ``max(new_done − p, 0)`` on, the rows the
        next block reads, in ``state.halos``.  The FC head's pre-sigmoid
        rows collect in ``state.output``.  Only the split ``S = T − L``
        gives the bits of a whole pass (:meth:`forward_batch`): GEMMs over
        other row slices round differently.
        """
        batch = self._cast(spectrograms).astype(state.vector_term.dtype, copy=False)
        if batch.shape[0] > ROWS_PER_PASS or (
            state.output is not None and state.output.shape[0] != batch.shape[0]
        ):
            raise ValueError(f"a pass runs at most {ROWS_PER_PASS} rows, the same in every block")
        # (N, F, t) -> the (N, 1, t, F) log image, time as the conv "height".  The
        # log runs in place on a fresh contiguous block, and the offsets match
        # forward(), where Tensor.log adds its own 1e-12 on top of the 1e-6.
        hidden = batch.transpose(0, 2, 1).copy()
        hidden += 1e-6
        hidden += 1e-12
        np.log(hidden, out=hidden)
        hidden = hidden[:, None]
        seen = state.frames  # the layer's input rows before this block
        halos = []
        for index, layer in enumerate(self._convs()):
            pad = layer.padding[0]
            done = max(seen - pad, 0)
            seen += hidden.shape[2]
            new_done = seen if last else max(seen - pad, 0)
            if state.halos and state.halos[index].shape[2]:
                hidden = np.concatenate((state.halos[index], hidden), axis=2)
            if not last:
                keep = seen - max(new_done - pad, 0)
                halos.append(hidden[:, :, hidden.shape[2] - keep :].copy())
            if new_done > done:
                hidden = layer.infer(
                    hidden, activation="relu", pad_rows=(max(pad - done, 0), pad if last else 0)
                )
            else:
                num, _, _, width = hidden.shape
                hidden = np.zeros((num, layer.out_channels, 0, width), dtype=batch.dtype)
            seen = done  # the next layer's input rows before this block
            yield None
        # The FC head: [features, d] @ W1 = features @ W1[:2F] + d @ W1[2F:], the
        # d-vector term added to every frame by broadcasting; the (N, t, in) @
        # (in, out) matmuls broadcast into N per-segment GEMMs.
        feature_weight, _, _, fc2_weight, fc2_bias = self._fc_weights(batch.dtype)
        num, channels, rows, width = hidden.shape
        features = hidden.transpose(0, 2, 1, 3).reshape(num, rows, channels * width)
        hidden = features @ feature_weight
        hidden += state.vector_term
        np.maximum(hidden, 0.0, out=hidden)
        output = hidden @ fc2_weight
        output += fc2_bias
        if state.output is not None:
            output = np.concatenate((state.output, output), axis=1)
        state.frames, state.halos, state.output = state.frames + batch.shape[2], halos, output

    # ------------------------------------------------------------------
    def shadow_spectrogram_batch(
        self,
        spectrograms: np.ndarray,
        d_vector: np.ndarray,
        head: Optional["PassState"] = None,
    ) -> np.ndarray:
        """Signed shadow spectrograms ``S_shadow`` for a ``(N, F, T)`` batch.

        In ``mask`` mode the head output ``M`` (in [0, 1]) estimates the target
        speaker's share of each bin, so ``S_shadow = -(M * S_mixed)``; adding it
        to the mixed spectrogram leaves ``(1 - M) * S_mixed ~= S_bk``.  In
        ``spectrogram`` mode the head output is used directly.  ``d_vector``
        may be one shared ``(dim,)`` embedding or per-segment ``(N, dim)``
        rows, and ``head`` is a pass whose head block has run (see
        :meth:`forward_batch`, also for the dtype rule).  One segment is
        ``shadow_spectrogram_batch(spectrogram[None], d_vector)[0]``.
        """
        mixed = np.asarray(spectrograms)
        output = self.forward_batch(mixed, d_vector, head).transpose(0, 2, 1)  # (N, F, T)
        if self.config.output_mode == "mask":
            return -(output * mixed)
        return output


@dataclass
class PassState:
    """One gradient-free pass part-way through its segment, for :meth:`Selector.row_block`.

    Made by :meth:`Selector.open_pass`.  ``frames`` counts the input frames
    run so far.  ``halos[l]`` holds the rows of conv layer ``l``'s input
    that the next block reads: its last ``2·pad_l`` rows at most (none for
    the first layer).  ``output`` holds the FC head's pre-sigmoid rows so
    far, and ``vector_term`` the d-vector's FC term, so later blocks read
    no d-vector.  After the head block at ``NECConfig.default()`` in
    float32 it takes 0.43 MB (:attr:`nbytes`).
    """

    vector_term: np.ndarray                   # (H,) or (N, 1, H)
    frames: int = 0
    halos: List[np.ndarray] = field(default_factory=list)
    output: Optional[np.ndarray] = None       # (N, rows so far, F), pre-sigmoid

    @property
    def nbytes(self) -> int:
        arrays = (*self.halos, self.vector_term, self.output)
        return int(sum(array.nbytes for array in arrays if array is not None))


@dataclass
class StreamRequest:
    """One stream's segment inside a :class:`StreamBatch`, run as two row blocks.

    The head block runs :meth:`Selector.row_block` on ``head_spectrogram``,
    the segment's first ``S`` frames, with ``d_vector``; it can run while
    the segment is still being spoken, and leaves its :class:`PassState` in
    ``state``.  The tail block needs ``mixed_spectrogram``, the whole
    ``(F, T)`` segment; once it has run, ``shadow_spectrogram`` holds the
    signed ``(F, T)`` shadow.  Each block drops the input it no longer needs.
    """

    head_spectrogram: Optional[np.ndarray]           # (F, S) until the head block ran
    d_vector: np.ndarray                             # (embedding_dim,)
    mixed_spectrogram: Optional[np.ndarray] = None   # (F, T) once the segment closed
    state: Optional[PassState] = None                # between the two blocks
    shadow_spectrogram: Optional[np.ndarray] = None  # (F, T) once ticked
    #: A head block that yielded to a tail, resumed by the next tick.
    steps: Optional[Iterator[None]] = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.shadow_spectrogram is not None

    @property
    def tail_ready(self) -> bool:
        """True once the head block has run, so the tail block can run."""
        return self.state is not None


class StreamBatch:
    """The queue of Selector inference shared by many streams.

    Concurrent streaming protectors each complete segments at their own
    pace.  A segment is one :class:`StreamRequest` carrying its speaker's
    d-vector, and runs as two queued stages: :meth:`submit_head` queues the
    head block as soon as the segment's first ``S`` frames exist, and
    :meth:`submit` queues the tail block when the segment closes (both, if
    the head was not submitted early).  :meth:`tick` runs every queued stage,
    tails whose head has run first and the rest in submit order, and marks
    each request done as soon as its shadow exists.  A head runs one
    convolution at a time and yields to a tail that becomes runnable
    meanwhile: the next tick runs that tail, then the rest of the head.  So
    a closing segment waits for at most one head layer, not a whole head
    block, and a stream's head never delays another stream's shadow by
    more.  A request's shadow is exactly what a dedicated per-stream pass
    produces, whichever streams and speakers share the tick and whenever
    its head ran (pinned by the test suite).  Requests are not stacked into
    one pass: at the deployment geometry stacking saves no time per segment
    and multiplies the convolution working set.

    The queue owns retries: a tick whose stage raises puts the failed stage
    and every stage behind it back at the head of the queue, ahead of any
    later submit, and re-raises; the next tick runs them in order, so a
    failed head still runs before its own tail.

    The batch is also where a serving process synchronises: producer
    threads (streaming sessions) submit while one ticker thread drives
    inference (:mod:`repro.serving`).  The queue's lock is a condition, and
    :meth:`wait_for` blocks on it.  A submit notifies under the lock that
    queues its stages, so a ticker waiting for work never misses one; a tick
    notifies as each request's shadow comes to exist, so a waiter for one
    stream need not wait for the rest of the tick; :meth:`notify` wakes
    waiters for any other change (a ticker that stopped or failed).
    :meth:`close` retires the batch: later submits raise.
    """

    def __init__(self, selector: Selector) -> None:
        self.selector = selector
        #: Queued stages: ``(request, tail)``, ``tail`` False for a head stage.
        self._pending: List[Tuple[StreamRequest, bool]] = []
        self._cond = threading.Condition()
        self._closed = False
        self.ticks = 0
        self.segments_coalesced = 0
        self.empty_ticks = 0
        self.max_batch_size = 0

    @property
    def pending_requests(self) -> int:
        """Queued segments: those with a stage awaiting a tick."""
        with self._cond:
            return len({id(request) for request, _ in self._pending})

    @property
    def closed(self) -> bool:
        return self._closed

    def _checked(self, spectrogram, d_vector, head: bool):
        """Check shapes up front: a malformed request would fail every tick
        and, requeued at the head, hold up every request behind it."""
        spectrogram, d_vector = np.asarray(spectrogram), np.asarray(d_vector)
        config = self.selector.config
        bins, frames = config.frequency_bins, config.num_frames
        if head:
            frames = self.selector.head_frames(frames)
        if spectrogram.shape != (bins, frames) or d_vector.shape != (config.embedding_dim,):
            raise ValueError(
                f"expected a ({bins}, {frames}) spectrogram and a "
                f"({config.embedding_dim},) d-vector, got {spectrogram.shape} "
                f"and {d_vector.shape}"
            )
        if self._closed:
            raise RuntimeError("StreamBatch is closed")
        return spectrogram, d_vector

    def submit_head(self, head_spectrogram: np.ndarray, d_vector: np.ndarray) -> StreamRequest:
        """Queue a segment's head stage: its first ``S`` frames, ``(F, S)``.

        ``S = selector.head_frames(T)``.  The segment's d-vector is read
        here, once; pass the returned request to :meth:`submit` when the
        segment closes.
        """
        head_spectrogram, d_vector = self._checked(head_spectrogram, d_vector, head=True)
        request = StreamRequest(head_spectrogram=head_spectrogram, d_vector=d_vector)
        with self._cond:
            self._pending.append((request, False))
            self._cond.notify_all()
        return request

    def submit(
        self,
        mixed_spectrogram: np.ndarray,
        d_vector: Optional[np.ndarray] = None,
        request: Optional[StreamRequest] = None,
    ) -> StreamRequest:
        """Queue a closed segment's ``(F, T)`` spectrogram for the next tick.

        ``request`` is the segment's request from :meth:`submit_head`, whose
        d-vector the tail uses.  Without it, the head stage (with
        ``d_vector``) is queued here too, just ahead of the tail.
        """
        vector = request.d_vector if request is not None else d_vector
        mixed, vector = self._checked(mixed_spectrogram, vector, head=False)
        stages = [(request, True)]
        if request is None:
            split = self.selector.head_frames(mixed.shape[1])
            request = StreamRequest(head_spectrogram=mixed[:, :split], d_vector=vector)
            stages = [(request, False), (request, True)]
        request.mixed_spectrogram = mixed
        with self._cond:
            self._pending.extend((request, tail) for _, tail in stages)
            self._cond.notify_all()
        return request

    def close(self) -> None:
        """Refuse further submits.

        Idempotent; ticking an already-drained closed batch is a no-op, but
        submitting to one raises.
        """
        self._closed = True

    def wait_for(self, predicate: Callable[[], bool], timeout: Optional[float] = None) -> bool:
        """Block until ``predicate()`` holds; False if ``timeout`` passes first.

        ``predicate`` runs under the queue's lock, at once and again after
        every submit, every finished request and every :meth:`notify`.
        """
        with self._cond:
            return self._cond.wait_for(predicate, timeout)

    def notify(self) -> None:
        """Wake every :meth:`wait_for` to re-check its predicate."""
        with self._cond:
            self._cond.notify_all()

    def _tail_waiting(self) -> bool:
        with self._cond:
            return any(tail and request.tail_ready for request, tail in self._pending)

    def _run(self, request: StreamRequest, tail: bool) -> bool:
        """One block of one request; False if a head yielded to a waiting tail."""
        if request.steps is None:
            request.steps = self._block(request, tail)
        try:
            for _ in request.steps:  # only a head block yields
                if self._tail_waiting():
                    return False
        except BaseException:
            request.steps = None  # a retry starts the block again
            raise
        request.steps = None
        return True

    def _block(self, request: StreamRequest, tail: bool) -> Iterator[None]:
        if tail:  # inside forward_batch, like every closing block
            request.shadow_spectrogram = self.selector.shadow_spectrogram_batch(
                request.mixed_spectrogram[None], request.d_vector, request.state
            )[0]
            request.state = None
            return
        head = request.head_spectrogram[None]
        state = self.selector.open_pass(request.d_vector, head.dtype)
        yield from self.selector.row_block(state, head)
        request.state, request.head_spectrogram = state, None

    def tick(self) -> int:
        """Run the pending stages; returns the segments finished.

        Tails whose head has run go first, then every other stage in submit
        order.  The tick ends early when a head yields to a tail submitted
        during it; the yielded head and every stage behind it stay queued,
        ahead of later submits.  Waiters are notified as each request's
        shadow comes to exist, before the next stage runs.
        """
        with self._cond:
            queued, self._pending = self._pending, []
        # sorted() is stable: submit order holds within each group.
        pending = sorted(queued, key=lambda stage: not (stage[1] and stage[0].tail_ready))
        finished = 0
        for position, (request, tail) in enumerate(pending):
            try:
                complete = self._run(request, tail)
            except BaseException:
                with self._cond:
                    self._pending[:0] = pending[position:]
                raise
            if not complete:
                with self._cond:
                    self._pending[:0] = pending[position:]
                break
            if tail:
                finished += 1
                self.notify()
        self.ticks += 1
        if not pending:
            self.empty_ticks += 1
        self.segments_coalesced += finished
        self.max_batch_size = max(self.max_batch_size, finished)
        return finished
