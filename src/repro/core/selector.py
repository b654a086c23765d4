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
pass is one primitive, :meth:`Selector.row_block`, run on a rolling
:class:`PassState` over one fixed grid of three blocks
(:meth:`Selector.block_bounds`): frames ``[0, T−L)``, ``[T−L, T−⌈L/2⌉)``
and ``[T−⌈L/2⌉, T)``, ``L`` the stack's look-ahead.  Each convolution
carries partial sums between blocks (:class:`~repro.nn.conv.PartialRows`),
so every input row goes through the GEMM once however the pass is blocked,
and every path blocks alike, so they all give the same bits.  Only the
last block needs the segment's last frames, so the streaming path runs the
first two while the segment is still being spoken.

:class:`StreamBatch` is the inference queue of the streaming and serving
paths: each request is one stream's segment, queued as the grid's blocks,
and a tick runs the queued blocks, closing blocks that are ready first.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import NECConfig
from repro.nn import Conv2d, Dense, Module, Tensor
from repro.nn.conv import PartialRows
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

    def block_bounds(self, frames: int) -> Tuple[int, ...]:
        """The end frames of a ``T``-frame pass's blocks: ``T−L``, ``T−⌈L/2⌉`` and ``T``.

        Every gradient-free pass runs on this grid: ``(80, 89, 99)`` at
        ``NECConfig.default()``.  The first block ends ``L`` frames (190 ms
        at ``default()``) before the segment does, the second ``⌈L/2⌉``
        frames (100 ms), so a stream fed in chunks no longer than that runs
        both before the segment closes.  Empty blocks are left out, so a
        segment of at most ``⌈L/2⌉`` frames is one block.
        """
        lookahead = self.lookahead_frames
        early = {max(frames - lookahead, 0), max(frames - (lookahead + 1) // 2, 0)}
        return tuple(sorted(early - {0, frames})) + (frames,)

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
        state: Optional["PassState"] = None,
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
        :meth:`row_block` once per block of the grid (:meth:`block_bounds`).
        A caller that already ran the first blocks of a one-pass batch passes
        its :class:`PassState` as ``state``, and only the remaining blocks
        run here; the streaming path does so to run the early blocks while
        the segment is still being spoken.  Both ways issue the same
        convolutions on the same shapes, so they give the same bits.

        The numerical constants match :meth:`forward`, and the convolutions
        run through :meth:`Conv2d.infer`; in float64 each row is within
        1e-12 relative of the one-segment autograd oracle (pinned by the
        test suite).  The pass computes in the dtype of ``spectrograms``
        (float32 stays float32, anything else is float64), or in ``state``'s;
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
        bounds = self.block_bounds(frames)
        if state is not None and (
            state.frames not in (0, *bounds[:-1]) or num_segments > ROWS_PER_PASS
        ):
            raise ValueError(f"a pass state must stop at a block edge {bounds[:-1]} of one pass")
        if num_segments == 0:
            return np.zeros((0, frames, freq_bins), dtype=batch.dtype)
        passes = []
        for first in range(0, num_segments, ROWS_PER_PASS):
            rows = slice(first, first + ROWS_PER_PASS)
            run = state
            if run is None:
                vectors = d_vector if d_vector.ndim == 1 else d_vector[rows]
                run = self.open_pass(vectors, batch.dtype)
            for end in bounds:
                if end > run.frames:
                    block = batch[rows, :, run.frames : end]
                    for _ in self.row_block(run, block, last=end == frames):
                        pass
            passes.append(run.output)
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
        segment's last block there).  ``state`` advances when the block
        ends, so a block that raises leaves it as it was, to be run again.

        Each conv layer runs :meth:`Conv2d.infer` on the rows the layer
        before it finished in this block, with the layer's
        :class:`~repro.nn.conv.PartialRows` from ``state.partials``: a layer
        with vertical padding ``p`` that has seen ``n`` input rows finishes
        its output rows up to ``n − p``, or all of them in the ``last``
        block, and carries the partial sums of the ``2p`` rows after those.
        The FC head's pre-sigmoid rows collect in ``state.output``.  Only
        the grid of :meth:`block_bounds` gives the bits of
        :meth:`forward_batch`: GEMMs over other row blocks round
        differently.
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
        partials = []
        for index, layer in enumerate(self._convs()):
            partial = state.partials[index] if state.partials else PartialRows()
            hidden, partial = layer.infer(hidden, "relu", partial, last)
            partials.append(partial)
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
        state.frames, state.partials, state.output = (
            state.frames + batch.shape[2], [] if last else partials, output
        )

    # ------------------------------------------------------------------
    def shadow_spectrogram_batch(
        self,
        spectrograms: np.ndarray,
        d_vector: np.ndarray,
        state: Optional["PassState"] = None,
    ) -> np.ndarray:
        """Signed shadow spectrograms ``S_shadow`` for a ``(N, F, T)`` batch.

        In ``mask`` mode the head output ``M`` (in [0, 1]) estimates the target
        speaker's share of each bin, so ``S_shadow = -(M * S_mixed)``; adding it
        to the mixed spectrogram leaves ``(1 - M) * S_mixed ~= S_bk``.  In
        ``spectrogram`` mode the head output is used directly.  ``d_vector``
        may be one shared ``(dim,)`` embedding or per-segment ``(N, dim)``
        rows, and ``state`` is a pass whose first blocks have run (see
        :meth:`forward_batch`, also for the dtype rule).  One segment is
        ``shadow_spectrogram_batch(spectrogram[None], d_vector)[0]``.
        """
        mixed = np.asarray(spectrograms)
        output = self.forward_batch(mixed, d_vector, state).transpose(0, 2, 1)  # (N, F, T)
        if self.config.output_mode == "mask":
            return -(output * mixed)
        return output


@dataclass
class PassState:
    """One gradient-free pass part-way through its segment, for :meth:`Selector.row_block`.

    Made by :meth:`Selector.open_pass`.  ``frames`` counts the input frames
    run so far.  ``partials[l]`` is conv layer ``l``'s
    :class:`~repro.nn.conv.PartialRows`: the partial sums of the output
    rows its inputs so far touched but did not finish, ``2·pad_l`` rows
    once past the first few (none for the first layer), empty before the
    first block and after the last.  ``output`` holds the FC head's
    pre-sigmoid rows so far, and ``vector_term`` the d-vector's FC term, so
    later blocks read no d-vector.  Between blocks at
    ``NECConfig.default()`` in float32 it takes about 0.4 MB
    (:attr:`nbytes`).
    """

    vector_term: np.ndarray                   # (H,) or (N, 1, H)
    frames: int = 0
    partials: List[PartialRows] = field(default_factory=list)
    output: Optional[np.ndarray] = None       # (N, rows so far, F), pre-sigmoid

    @property
    def nbytes(self) -> int:
        arrays = (self.vector_term, self.output)
        held = sum(array.nbytes for array in arrays if array is not None)
        return int(held + sum(partial.nbytes for partial in self.partials))


@dataclass
class StreamRequest:
    """One stream's segment inside a :class:`StreamBatch`, run as the blocks of the grid.

    Every block but the closing one runs :meth:`Selector.row_block` on its
    own frames, queued by :meth:`StreamBatch.submit_block` as soon as they
    exist, with ``d_vector``; they leave the pass in ``state``.  The closing
    block needs ``mixed_spectrogram``, the whole ``(F, T)`` segment, and
    runs the pass's remaining blocks; once it has, ``shadow_spectrogram``
    holds the signed ``(F, T)`` shadow and ``state`` is dropped.
    """

    d_vector: np.ndarray                             # (embedding_dim,)
    closing_start: int                               # the closing block's first frame
    queued: int = 0                                  # frames queued: a block end
    state: Optional[PassState] = None                # after the blocks that ran
    mixed_spectrogram: Optional[np.ndarray] = None   # (F, T) once the segment closed
    shadow_spectrogram: Optional[np.ndarray] = None  # (F, T) once ticked
    #: An early block that yielded to a closing one, resumed by the next tick.
    steps: Optional[Iterator[None]] = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.shadow_spectrogram is not None

    @property
    def tail_ready(self) -> bool:
        """True once every block before the closing one has run."""
        ran = 0 if self.state is None else self.state.frames
        return not self.done and ran == self.closing_start


#: A queued block: its request, its end frame, and its ``(F, t)`` frames,
#: ``None`` for the closing block, which reads the request's whole segment.
_Stage = Tuple[StreamRequest, int, Optional[np.ndarray]]


class StreamBatch:
    """The queue of Selector inference shared by many streams.

    Concurrent streaming protectors each complete segments at their own
    pace.  A segment is one :class:`StreamRequest` carrying its speaker's
    d-vector, and runs as the blocks of the Selector's grid
    (:meth:`Selector.block_bounds`), each a queued stage:
    :meth:`submit_block` queues early blocks as soon as their frames exist,
    and :meth:`submit` queues the closing block when the segment closes
    (with every early block not yet queued, ahead of it).  :meth:`tick`
    runs every queued stage, closing blocks whose earlier blocks have run
    first and the rest in submit order, and marks each request done as soon
    as its shadow exists.  An early block runs one convolution at a time
    and yields to a closing block that becomes runnable meanwhile, and does
    not start while one waits: the next tick runs that one, then the rest
    of the early blocks.  So a closing segment waits for at most one layer
    of another stream's block, and a stream's early blocks never delay
    another stream's shadow by more.  A
    request's shadow is exactly what a dedicated per-stream pass produces,
    whichever streams and speakers share the tick and whenever its early
    blocks ran (pinned by the test suite).  Requests are not stacked into
    one pass: at the deployment geometry stacking saves no time per segment
    and multiplies the convolution working set.

    The queue owns retries: a tick whose stage raises puts the failed stage
    and every stage behind it back at the head of the queue, ahead of any
    later submit, and re-raises; the next tick runs them in order, so a
    failed early block still runs before its request's later blocks.

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
        #: The block ends of every segment's pass.
        self._bounds = selector.block_bounds(selector.config.num_frames)
        self._pending: List[_Stage] = []
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
            return len({id(request) for request, _, _ in self._pending})

    @property
    def closed(self) -> bool:
        return self._closed

    def _checked(self, spectrogram, d_vector, frames: int):
        """Check shapes up front: a malformed request would fail every tick
        and, requeued at the head, hold up every request behind it."""
        spectrogram, d_vector = np.asarray(spectrogram), np.asarray(d_vector)
        config = self.selector.config
        bins = config.frequency_bins
        if spectrogram.shape != (bins, frames) or d_vector.shape != (config.embedding_dim,):
            raise ValueError(
                f"expected a ({bins}, {frames}) spectrogram and a "
                f"({config.embedding_dim},) d-vector, got {spectrogram.shape} "
                f"and {d_vector.shape}"
            )
        if self._closed:
            raise RuntimeError("StreamBatch is closed")
        return spectrogram, d_vector

    def _request(self, d_vector: np.ndarray) -> StreamRequest:
        return StreamRequest(d_vector=d_vector, closing_start=(0, *self._bounds)[-2])

    def _queue(self, request: StreamRequest, stages: List[_Stage]) -> StreamRequest:
        request.queued = stages[-1][1]
        with self._cond:
            self._pending.extend(stages)
            self._cond.notify_all()
        return request

    def _early_stages(
        self, request: StreamRequest, frames: np.ndarray, first: int
    ) -> List[_Stage]:
        """A stage per early block after those ``request`` queued that ends
        within ``frames``, the segment's ``(F, t)`` frames from frame ``first``."""
        stages: List[_Stage] = []
        start = request.queued
        for end in self._bounds[:-1]:
            if start < end <= first + frames.shape[1]:
                stages.append((request, end, frames[:, start - first : end - first]))
                start = end
        return stages

    def early_end(self, frames: int) -> int:
        """The end of the last early block within a segment's first ``frames`` frames, or 0.

        A streaming caller hands :meth:`submit_block` its frames up to here.
        """
        return max((end for end in self._bounds[:-1] if end <= frames), default=0)

    def submit_block(
        self,
        frames: np.ndarray,
        d_vector: Optional[np.ndarray] = None,
        request: Optional[StreamRequest] = None,
    ) -> StreamRequest:
        """Queue a segment's next early blocks: its ``(F, t)`` frames after those queued.

        The frames start after the blocks ``request`` queued, or at the
        segment's first frame without ``request``, whose d-vector is read
        here, once, and end at an early block's end (:meth:`early_end`).
        Each block they span is queued as its own stage, all under one lock
        and one notify.  Pass the returned request to the next
        :meth:`submit_block` and to :meth:`submit` when the segment closes.
        """
        queued = 0 if request is None else request.queued
        end = queued + np.shape(frames)[-1]
        if end not in self._bounds[:-1] or end == queued:
            raise ValueError(
                f"early blocks end at frames {self._bounds[:-1]}, after frame {queued}; "
                "the closing block is queued by submit()"
            )
        vector = request.d_vector if request is not None else d_vector
        frames, vector = self._checked(frames, vector, end - queued)
        if request is None:
            request = self._request(vector)
        return self._queue(request, self._early_stages(request, frames, queued))

    def submit(
        self,
        mixed_spectrogram: np.ndarray,
        d_vector: Optional[np.ndarray] = None,
        request: Optional[StreamRequest] = None,
    ) -> StreamRequest:
        """Queue a closed segment's ``(F, T)`` spectrogram for the next tick.

        ``request`` is the segment's request from :meth:`submit_block`,
        whose d-vector every block uses.  Without it, or if it did not
        queue every early block, the missing ones (with ``d_vector``) are
        queued here too, just ahead of the closing block.
        """
        vector = request.d_vector if request is not None else d_vector
        mixed, vector = self._checked(mixed_spectrogram, vector, self._bounds[-1])
        if request is None:
            request = self._request(vector)
        stages = self._early_stages(request, mixed, 0)
        stages.append((request, self._bounds[-1], None))
        request.mixed_spectrogram = mixed
        return self._queue(request, stages)

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

    @staticmethod
    def _closing_ready(stage: _Stage) -> bool:
        request, _, frames = stage
        return frames is None and request.tail_ready

    def _closing_waiting(self) -> bool:
        with self._cond:
            return any(self._closing_ready(stage) for stage in self._pending)

    def _run(self, stage: _Stage) -> bool:
        """One block of one request; False if an early block yielded to a closing one."""
        request, _, frames = stage
        if request.steps is None:
            # Early blocks queued together share a tick; one not yet begun waits too.
            if frames is not None and self._closing_waiting():
                return False
            request.steps = self._block(stage)
        try:
            for _ in request.steps:  # only an early block yields
                if self._closing_waiting():
                    return False
        except BaseException:
            request.steps = None  # a retry starts the block again
            raise
        request.steps = None
        return True

    def _block(self, stage: _Stage) -> Iterator[None]:
        request, _, frames = stage
        if frames is None:  # inside forward_batch, like every closing block
            request.shadow_spectrogram = self.selector.shadow_spectrogram_batch(
                request.mixed_spectrogram[None], request.d_vector, request.state
            )[0]
            request.state = None
            return
        state = request.state
        if state is None:
            state = self.selector.open_pass(request.d_vector, frames.dtype)
        yield from self.selector.row_block(state, frames[None])
        request.state = state

    def tick(self) -> int:
        """Run the pending stages; returns the segments finished.

        Closing blocks whose earlier blocks have run go first, then every
        other stage in submit order.  The tick ends early when an early
        block yields to a closing block submitted during the tick, after a
        layer or before its first; that block and every stage behind it
        stay queued, ahead of later submits.  Waiters are notified as each
        request's shadow comes to exist, before the next stage runs.
        """
        with self._cond:
            queued, self._pending = self._pending, []
        # sorted() is stable: submit order holds within each group.
        pending = sorted(queued, key=lambda stage: not self._closing_ready(stage))
        finished = 0
        for position, stage in enumerate(pending):
            try:
                complete = self._run(stage)
            except BaseException:
                with self._cond:
                    self._pending[:0] = pending[position:]
                raise
            if not complete:
                with self._cond:
                    self._pending[:0] = pending[position:]
                break
            if stage[2] is None:
                finished += 1
                self.notify()
        self.ticks += 1
        if not pending:
            self.empty_ticks += 1
        self.segments_coalesced += finished
        self.max_batch_size = max(self.max_batch_size, finished)
        return finished
