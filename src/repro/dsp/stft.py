"""Short-time Fourier transform and inverse, matching the paper's geometry.

The paper (Sec. IV-B1) uses 3-second 16 kHz clips, an FFT size of 1200
(601 frequency bins), a Hann window of 400 samples and a hop of 160 samples.
:func:`stft` / :func:`istft` implement exactly that framing (no centre
padding), and :func:`spectrogram_shape` reports the resulting ``(F, T)``
shape so that models can be built against it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy import fft as _scipy_fft

from repro.dsp.windows import get_window
from repro.nn.precision import active_policy


def _frame_starts(num_samples: int, win_length: int, hop_length: int) -> np.ndarray:
    if num_samples < win_length:
        return np.array([0], dtype=int)
    count = 1 + (num_samples - win_length) // hop_length
    return np.arange(count) * hop_length


def stft(
    signal: np.ndarray,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
) -> np.ndarray:
    """Complex STFT of a 1-D signal, shape ``(n_fft // 2 + 1, n_frames)``.

    The per-frame gather runs as one fancy-indexing operation over all frames
    (bit-identical to extracting each frame in a Python loop).  Under a
    reduced-precision policy (:mod:`repro.nn.precision`) the framing and FFT
    run in the policy's real dtype and return its complex dtype.
    """
    policy = active_policy()
    signal = policy.real(np.asarray(signal))
    if signal.ndim != 1:
        raise ValueError("stft expects a 1-D signal")
    if win_length > n_fft:
        raise ValueError("win_length must be <= n_fft")
    win = policy.real(get_window(window, win_length))
    starts = _frame_starts(signal.size, win_length, hop_length)
    if signal.size < win_length:
        # One zero-padded frame, exactly like the framing loop produced.
        signal = np.pad(signal, (0, win_length - signal.size))
    frames = signal[starts[:, None] + np.arange(win_length)[None, :]]
    frames = frames * win
    # scipy's pocketfft: bit-identical to numpy's in float64 (both are
    # pocketfft; pinned by the test-suite) and dtype-preserving in float32.
    spectrum = _scipy_fft.rfft(frames, n=n_fft, axis=1)
    return spectrum.T  # (freq_bins, frames)


def magnitude(spectrum: np.ndarray) -> np.ndarray:
    """Magnitude of a complex STFT."""
    return np.abs(spectrum)


def batch_stft(
    signals: np.ndarray,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
) -> np.ndarray:
    """Complex STFT of a batch of equal-length signals, shape ``(N, F, T)``.

    ``signals`` is a ``(N, num_samples)`` array of same-length clips (e.g. the
    stacked segments of :meth:`NECSystem.protect`).  Row ``n`` of the result is
    bit-identical to ``stft(signals[n], ...)``: the framing is the same, only
    the frame extraction and FFT run once for the whole batch.  Like
    :func:`stft`, the active precision policy selects the compute dtype.
    """
    policy = active_policy()
    signals = policy.real(np.asarray(signals))
    if signals.ndim != 2:
        raise ValueError("batch_stft expects a (N, num_samples) batch of signals")
    if win_length > n_fft:
        raise ValueError("win_length must be <= n_fft")
    if signals.shape[1] < win_length:
        # Mirror stft(): a too-short signal yields exactly one zero-padded frame.
        signals = np.pad(signals, ((0, 0), (0, win_length - signals.shape[1])))
    win = policy.real(get_window(window, win_length))
    starts = _frame_starts(signals.shape[1], win_length, hop_length)
    # (N, T, win): gather every frame of every signal in one indexing op.
    frames = signals[:, starts[:, None] + np.arange(win_length)[None, :]]
    frames = frames * win
    spectrum = _scipy_fft.rfft(frames, n=n_fft, axis=2)
    return spectrum.transpose(0, 2, 1)  # (N, freq_bins, frames)


def batch_magnitude_spectrogram(
    signals: np.ndarray,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
) -> np.ndarray:
    """Magnitude spectrograms of a batch of equal-length signals, ``(N, F, T)``."""
    return magnitude(batch_stft(signals, n_fft, win_length, hop_length, window))


#: Cached overlap-add plans keyed on ``(window, win_length, hop_length,
#: n_frames, dtype)``: the window, the summed window-square normalisation
#: envelope, its "safe to divide" mask and the masked reciprocal, all in the
#: requested real dtype.  Every iSTFT of the same geometry (all segments of a
#: clip, every clip of a benchmark) shares one plan instead of
#: re-accumulating the envelope per call.
_OLA_PLAN_CACHE: Dict[
    Tuple[str, int, int, int, str],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
] = {}


def clear_ola_plan_cache() -> None:
    """Drop all cached overlap-add plans (tests / memory pressure).

    One plan is kept per distinct ``(window, win, hop, n_frames)``; workloads
    inverting arbitrarily many distinct clip lengths can clear between runs.
    """
    _OLA_PLAN_CACHE.clear()


def _ola_plan(
    window: str,
    win_length: int,
    hop_length: int,
    num_frames: int,
    dtype: np.dtype = np.dtype(np.float64),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    dtype = np.dtype(dtype)
    key = (window, win_length, hop_length, num_frames, dtype.name)
    plan = _OLA_PLAN_CACHE.get(key)
    if plan is None:
        # The envelope and its safe mask are always accumulated in float64 —
        # so the float32 plan's mask picks exactly the same samples — and
        # only the finished arrays are cast to the requested dtype.
        win = get_window(window, win_length)
        expected = win_length + hop_length * (num_frames - 1)
        norm = np.zeros(max(expected, 0))
        win_sq = win**2
        for index in range(num_frames):
            start = index * hop_length
            norm[start : start + win_length] += win_sq
        # Only normalise where the window sum carries real weight; at the very
        # edges the sum tends to zero and dividing there would blow up the
        # first and last few samples into spikes.
        if norm.size:
            safe = norm > max(norm.max() * 1e-2, 1e-10)
        else:  # pragma: no cover - zero-frame spectra
            safe = np.zeros(0, dtype=bool)
        inverse = np.ones(norm.shape)
        inverse[safe] = 1.0 / norm[safe]
        win = win.astype(dtype, copy=False)
        norm = norm.astype(dtype, copy=False)
        inverse = inverse.astype(dtype, copy=False)
        for array in (win, norm, safe, inverse):
            array.setflags(write=False)
        plan = (win, norm, safe, inverse)
        _OLA_PLAN_CACHE[key] = plan
    return plan


def _overlap_add(frames: np.ndarray, win: np.ndarray, hop_length: int, expected: int) -> np.ndarray:
    """Vectorised windowing + overlap-add of ``(..., n_frames, win_length)``.

    When the hop divides the window (both eval geometries: 320/160 and
    400/200), each frame splits into ``win // hop`` hop-sized tiles and the
    whole overlap-add is that many shifted contiguous ``+=`` passes — sample
    block ``b`` of the output receives tile ``j`` of frame ``b - j``.
    Otherwise frames whose indices differ by ``ceil(win / hop)`` can no
    longer overlap, so the frames fall into that many interleaved groups,
    each accumulated through one ``+=`` on a stride-preserving reshape of the
    output buffer.  Either way there is no per-frame Python iteration; the
    window multiply is fused into the accumulation passes.
    """
    num_frames, win_length = frames.shape[-2:]
    lead = frames.shape[:-2]
    if num_frames == 0:
        return np.zeros(lead + (expected,), dtype=frames.dtype)
    if win_length % hop_length == 0:
        tiles = win_length // hop_length
        accumulator = np.empty(lead + (num_frames + tiles - 1, hop_length), dtype=frames.dtype)
        # First tile assigns (0 + x == x exactly, so skipping the zero-fill
        # pass changes nothing numerically); later tiles accumulate.
        accumulator[..., :num_frames, :] = frames[..., :, :hop_length] * win[:hop_length]
        accumulator[..., num_frames:, :] = 0.0
        for j in range(1, tiles):
            tile = slice(j * hop_length, (j + 1) * hop_length)
            accumulator[..., j : j + num_frames, :] += frames[..., :, tile] * win[tile]
        return accumulator.reshape(lead + (expected,))
    num_groups = -(-win_length // hop_length)  # ceil: no overlap within a group
    stride = num_groups * hop_length
    # Pad the buffer so every group's strided span fits, then trim.
    output = np.zeros(lead + (expected + stride,), dtype=frames.dtype)
    for group in range(min(num_groups, num_frames)):
        frames_group = frames[..., group::num_groups, :]
        count = frames_group.shape[-2]
        start = group * hop_length
        span = output[..., start : start + count * stride]
        view = span.reshape(lead + (count, stride))  # stride-preserving split
        view[..., :win_length] += frames_group * win
    return output[..., :expected]


def _finalize_istft(
    output: np.ndarray,
    inverse_norm: np.ndarray,
    expected: int,
    length: Optional[int],
) -> np.ndarray:
    # Multiplying by the cached masked reciprocal equals the sequential
    # oracle's guarded division (``tests/oracles.py``) to within one ulp
    # (unsafe edge samples stay unscaled).
    output *= inverse_norm
    if length is not None:
        if length <= expected:
            output = output[..., :length]
        else:
            pad = [(0, 0)] * (output.ndim - 1) + [(0, length - expected)]
            output = np.pad(output, pad)
    return output


def batch_istft(
    spectra: np.ndarray,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
) -> np.ndarray:
    """Inverse STFT of a ``(N, F, T)`` batch, returning ``(N, num_samples)``.

    One ``irfft`` over the whole batch and one grouped overlap-add replace a
    per-clip Python loop.  Each row equals :func:`istft` of that spectrum bit
    for bit, and matches the sequential per-frame oracle in
    ``tests/oracles.py`` (pinned in ``tests/test_fastpath.py``) up to
    overlap-add summation order (<= ~1e-10 absolute).  The active precision
    policy selects the compute dtype.
    """
    policy = active_policy()
    spectra = policy.complex(np.asarray(spectra))
    if spectra.ndim != 3:
        raise ValueError("batch_istft expects a (N, F, T) batch of spectra")
    if spectra.shape[0] == 0:
        return np.zeros((0, length or 0), dtype=policy.real_dtype)
    n_fft = (spectra.shape[1] - 1) * 2
    num_frames = spectra.shape[2]
    # scipy's pocketfft is measurably faster than numpy's here and produces
    # bit-identical transforms (both are pocketfft; pinned by the test suite).
    frames = _scipy_fft.irfft(spectra.transpose(0, 2, 1), n=n_fft, axis=2)[:, :, :win_length]
    win, _norm, _safe, inverse = _ola_plan(
        window, win_length, hop_length, num_frames, policy.real_dtype
    )
    expected = win_length + hop_length * (num_frames - 1)
    output = _overlap_add(frames, win, hop_length, expected)
    return _finalize_istft(output, inverse, expected, length)


def magnitude_spectrogram(
    signal: np.ndarray,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
) -> np.ndarray:
    """Magnitude spectrogram ``|STFT|`` with shape ``(F, T)`` (paper Eq. 2)."""
    return magnitude(stft(signal, n_fft, win_length, hop_length, window))


# ---------------------------------------------------------------------------
# Incremental (streaming) STFT / iSTFT
# ---------------------------------------------------------------------------
class StreamingSTFT:
    """Incremental STFT: feed sample chunks, get exactly the new frames.

    The real-time pipeline cannot afford to re-transform a whole buffered clip
    per chunk.  This state object carries the residual samples after the last
    emitted frame's hop boundary and, per :meth:`feed`, computes only the
    frames the new chunk completes.  The concatenation of every emitted frame
    block is **bit-identical** to ``stft(concatenated_chunks, ...)`` for any
    chunking (including sub-hop chunks): the framing offsets are carried, the
    same cached window multiplies each frame, and each frame's rfft is an
    independent pocketfft row transform, so the split into feeds never changes
    a value.  The active precision policy selects the compute dtype per feed.
    """

    def __init__(
        self,
        n_fft: int = 1200,
        win_length: int = 400,
        hop_length: int = 160,
        window: str = "hann",
    ) -> None:
        if win_length > n_fft:
            raise ValueError("win_length must be <= n_fft")
        if hop_length <= 0 or hop_length > win_length:
            raise ValueError("hop_length must be in (0, win_length]")
        self.n_fft = n_fft
        self.win_length = win_length
        self.hop_length = hop_length
        self.window = window
        self._carry = np.zeros(0, dtype=np.float64)
        self._frames_emitted = 0
        self._samples_fed = 0

    @property
    def frequency_bins(self) -> int:
        return self.n_fft // 2 + 1

    @property
    def pending_samples(self) -> int:
        """Samples carried over but not yet covered by an emitted frame hop."""
        return int(self._carry.size)

    @property
    def frames_emitted(self) -> int:
        return self._frames_emitted

    @property
    def samples_fed(self) -> int:
        return self._samples_fed

    def reset(self) -> None:
        self._carry = np.zeros(0, dtype=np.float64)
        self._frames_emitted = 0
        self._samples_fed = 0

    def feed(self, samples: np.ndarray) -> np.ndarray:
        """Append samples; return the newly completed frames, shape ``(F, t)``.

        ``t`` may be zero (chunk too small to finish a frame).  Emitted frame
        ``k`` (globally) equals column ``k`` of the whole-signal STFT.
        """
        policy = active_policy()
        data = policy.real(np.asarray(samples)).reshape(-1)
        self._samples_fed += int(data.size)
        carry = policy.real(self._carry)
        buffer = np.concatenate([carry, data]) if carry.size else data
        if buffer.size < self.win_length:
            # Own the storage: `buffer` may alias the caller's chunk.
            self._carry = buffer.copy()
            return np.zeros((self.frequency_bins, 0), dtype=policy.complex_dtype)
        count = 1 + (buffer.size - self.win_length) // self.hop_length
        win = policy.real(get_window(self.window, self.win_length))
        starts = np.arange(count) * self.hop_length
        frames = buffer[starts[:, None] + np.arange(self.win_length)[None, :]] * win
        spectrum = _scipy_fft.rfft(frames, n=self.n_fft, axis=1)
        self._carry = buffer[count * self.hop_length :].copy()
        self._frames_emitted += count
        return spectrum.T  # (freq_bins, new_frames)

    def flush(self) -> np.ndarray:
        """Terminal frames of the stream, shape ``(F, t)``.

        Mirrors :func:`stft` end-of-signal semantics exactly: a stream that
        never filled one analysis window yields the single zero-padded frame
        ``stft`` would produce; otherwise trailing samples shorter than a
        window are dropped, exactly like the batch framing.
        """
        policy = active_policy()
        if self._frames_emitted == 0 and self._carry.size:
            signal = np.pad(
                policy.real(self._carry), (0, self.win_length - self._carry.size)
            )
            win = policy.real(get_window(self.window, self.win_length))
            spectrum = _scipy_fft.rfft((signal * win)[None, :], n=self.n_fft, axis=1)
            self._carry = np.zeros(0, dtype=np.float64)
            self._frames_emitted += 1
            return spectrum.T
        self._carry = np.zeros(0, dtype=np.float64)
        return np.zeros((self.frequency_bins, 0), dtype=policy.complex_dtype)


class StreamingISTFT:
    """Incremental inverse STFT with carried overlap-add tails.

    Feed complex frame blocks, receive the samples no future frame can touch;
    :meth:`flush` emits the held-back tail.  The concatenation of everything
    emitted is **bit-identical** to ``istft(all_frames, ...)`` (and therefore
    to each row of :func:`batch_istft`):

    - When the hop divides the window (the test/benchmark geometries), output
      block ``b`` is finalised the moment frame ``b`` arrives, accumulated in
      the exact tile order of :func:`_overlap_add` (window multiply fused,
      tile ``j`` of frame ``b - j``, ``j`` ascending) with the window-norm
      envelope accumulated in the exact frame-ascending order of
      :func:`_ola_plan` — so every emitted sample carries the same bits as the
      batch kernel's.  Only the last ``win/hop - 1`` hop blocks ride in the
      carried tail.
    - Otherwise (e.g. the paper's 400/160 geometry) frames are held and the
      whole inversion runs through the batch kernel at :meth:`flush` — still
      bit-identical, just without early emission.

    The emission threshold of the norm envelope's "safe to divide" mask needs
    the envelope maximum, which is only pinned once one full window of frames
    has been seen; streams shorter than that also fall back to the batch
    kernel at flush.
    """

    def __init__(
        self,
        win_length: int = 400,
        hop_length: int = 160,
        window: str = "hann",
    ) -> None:
        if hop_length <= 0 or hop_length > win_length:
            raise ValueError("hop_length must be in (0, win_length]")
        self.win_length = win_length
        self.hop_length = hop_length
        self.window = window
        self.incremental = win_length % hop_length == 0
        self._tiles = win_length // hop_length if self.incremental else 0
        self._held: List[np.ndarray] = []  # time-domain frames, (t, win) blocks
        self._held_offset = 0  # global index of the first held frame
        self._num_frames = 0
        self._blocks_emitted = 0
        self._samples_emitted = 0
        self._flushed = False

    # -- state -----------------------------------------------------------
    @property
    def frames_fed(self) -> int:
        return self._num_frames

    @property
    def samples_emitted(self) -> int:
        return self._samples_emitted

    def reset(self) -> None:
        self._held = []
        self._held_offset = 0
        self._num_frames = 0
        self._blocks_emitted = 0
        self._samples_emitted = 0
        self._flushed = False

    # -- internals -------------------------------------------------------
    def _held_frames(self) -> np.ndarray:
        if len(self._held) == 1:
            return self._held[0]
        if not self._held:
            return np.zeros((0, self.win_length))
        merged = np.concatenate(self._held, axis=0)
        self._held = [merged]
        return merged

    def _norm_plan(self) -> Tuple[np.ndarray, float]:
        """The float64 squared window and the envelope's safe threshold."""
        win_sq = get_window(self.window, self.win_length) ** 2
        hop = self.hop_length
        steady = np.zeros(hop)
        # Frame-ascending accumulation (j descending), mirroring _ola_plan's
        # per-frame loop so partial head/tail sums reuse the same bit pattern.
        for j in reversed(range(self._tiles)):
            steady += win_sq[j * hop : (j + 1) * hop]
        threshold = max(float(steady.max()) * 1e-2, 1e-10)
        return win_sq, threshold

    def _emit_blocks(self, first_block: int, last_block: int, policy) -> np.ndarray:
        """Finalised output blocks ``[first_block, last_block]``, inclusive.

        Mirrors :func:`_overlap_add` (tile ``j`` ascending into a zeroed
        accumulator — a sequential overlap-add's initial assign equals ``0 + x``
        exactly)
        and :func:`_ola_plan` / :func:`_finalize_istft` (float64 envelope in
        frame-ascending order, masked reciprocal cast to the policy dtype).
        """
        hop, win = self.hop_length, self.win_length
        count = last_block - first_block + 1
        if count <= 0:
            return np.zeros(0, dtype=policy.real_dtype)
        frames = self._held_frames()
        window = policy.real(get_window(self.window, win))
        output = np.zeros((count, hop), dtype=frames.dtype)
        norm = np.zeros((count, hop))
        win_sq, threshold = self._norm_plan()
        blocks = np.arange(first_block, last_block + 1)
        for j in range(self._tiles):
            sources = blocks - j  # frame feeding tile j of each block
            valid = (sources >= 0) & (sources < self._num_frames)
            if not valid.any():
                continue
            tile = slice(j * hop, (j + 1) * hop)
            rows = sources[valid] - self._held_offset
            output[valid] += frames[rows, tile] * window[tile]
        for j in reversed(range(self._tiles)):  # frame-ascending per sample
            sources = blocks - j
            valid = (sources >= 0) & (sources < self._num_frames)
            if valid.any():
                norm[valid] += win_sq[j * self.hop_length : (j + 1) * self.hop_length]
        inverse = np.ones_like(norm)
        safe = norm > threshold
        inverse[safe] = 1.0 / norm[safe]
        output *= inverse.astype(policy.real_dtype, copy=False)
        self._blocks_emitted = last_block + 1
        flat = output.reshape(-1)
        self._samples_emitted += flat.size
        return flat

    def _drop_consumed_frames(self) -> None:
        """Forget frames no future block can read (older than ``tiles - 1``)."""
        keep_from = max(self._num_frames - (self._tiles - 1), self._held_offset)
        if keep_from == self._held_offset:
            return
        frames = self._held_frames()
        self._held = [frames[keep_from - self._held_offset :]]
        self._held_offset = keep_from

    # -- streaming -------------------------------------------------------
    def feed(self, spectra: np.ndarray) -> np.ndarray:
        """Append ``(F, t)`` complex frames; return the finalised samples.

        Emission is withheld while fewer than one window's worth of frames
        has been seen (see the class note on the envelope threshold) and in
        the non-dividing-hop fallback mode; :meth:`flush` always completes
        the stream either way.
        """
        if self._flushed:
            raise RuntimeError("stream already flushed; call reset() first")
        policy = active_policy()
        spectra = policy.complex(np.asarray(spectra))
        if spectra.ndim != 2:
            raise ValueError("StreamingISTFT.feed expects a (F, t) frame block")
        if spectra.shape[1]:
            n_fft = (spectra.shape[0] - 1) * 2
            frames = _scipy_fft.irfft(spectra.T, n=n_fft, axis=1)[:, : self.win_length]
            self._held.append(frames)
            self._num_frames += frames.shape[0]
        if not self.incremental or self._num_frames < self._tiles:
            return np.zeros(0, dtype=policy.real_dtype)
        emitted = self._emit_blocks(self._blocks_emitted, self._num_frames - 1, policy)
        self._drop_consumed_frames()
        return emitted

    def flush(self, length: Optional[int] = None) -> np.ndarray:
        """Emit the carried tail; total output then equals the batch kernel's.

        ``length`` applies to the **whole stream** (like ``istft(length=...)``):
        the tail is trimmed or zero-padded so everything emitted totals
        ``length`` samples.  Trimming below what :meth:`feed` already emitted
        is an error — hold emission (non-incremental mode) if that can occur.
        """
        if self._flushed:
            raise RuntimeError("stream already flushed; call reset() first")
        policy = active_policy()
        self._flushed = True
        if self._num_frames == 0:
            return np.zeros(length or 0, dtype=policy.real_dtype)
        if not self.incremental or self._num_frames < self._tiles:
            # Exact batch-kernel fallback on the full held frame set.
            frames = self._held_frames()
            win, _norm, _safe, inverse = _ola_plan(
                self.window,
                self.win_length,
                self.hop_length,
                self._num_frames,
                policy.real_dtype,
            )
            expected = self.win_length + self.hop_length * (self._num_frames - 1)
            output = _overlap_add(
                policy.real(frames), win, self.hop_length, expected
            )
            tail = _finalize_istft(output, inverse, expected, length)
            self._samples_emitted += tail.size
            return tail
        last_block = self._num_frames + self._tiles - 2
        tail = self._emit_blocks(self._blocks_emitted, last_block, policy)
        expected = self.win_length + self.hop_length * (self._num_frames - 1)
        tail = tail[: max(expected - (self._samples_emitted - tail.size), 0)]
        if length is not None:
            already = self._samples_emitted - tail.size
            if length < already:
                raise ValueError(
                    f"flush(length={length}) below the {already} samples already emitted"
                )
            if length - already <= tail.size:
                tail = tail[: length - already]
            else:
                tail = np.pad(tail, (0, length - already - tail.size))
            self._samples_emitted = already + tail.size
        return tail


def spectrogram_shape(
    num_samples: int,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
) -> Tuple[int, int]:
    """``(frequency_bins, frames)`` produced by :func:`stft` for this input size."""
    frames = _frame_starts(num_samples, win_length, hop_length).size
    return n_fft // 2 + 1, frames


def istft(
    spectrum: np.ndarray,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
) -> np.ndarray:
    """Inverse STFT via windowed overlap-add.

    ``spectrum`` is a complex array of shape ``(n_fft // 2 + 1, n_frames)``
    as produced by :func:`stft`.

    The overlap-add runs through the grouped vectorised scatter of
    :func:`_overlap_add` with a cached window-norm envelope per
    ``(window, win, hop, n_frames)`` plan; it matches the sequential
    per-frame oracle in ``tests/oracles.py`` up to summation order
    (<= ~1e-10 absolute).  The active precision policy selects the compute
    dtype.
    """
    policy = active_policy()
    spectrum = policy.complex(np.asarray(spectrum))
    if spectrum.ndim != 2:
        raise ValueError("istft expects a (F, T) spectrum")
    n_fft = (spectrum.shape[0] - 1) * 2
    frames = _scipy_fft.irfft(spectrum.T, n=n_fft, axis=1)[:, :win_length]
    num_frames = frames.shape[0]
    win, _norm, _safe, inverse = _ola_plan(
        window, win_length, hop_length, num_frames, policy.real_dtype
    )
    expected = win_length + hop_length * (num_frames - 1)
    output = _overlap_add(frames, win, hop_length, expected)
    return _finalize_istft(output, inverse, expected, length)


def reconstruct_waveform(
    magnitude_spec: np.ndarray,
    phase_reference: np.ndarray,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
) -> np.ndarray:
    """Waveform from a magnitude spectrogram and a reference complex STFT.

    The NEC Selector outputs a magnitude-only shadow spectrogram; to broadcast
    it we attach the phase of the mixed recording (the same strategy used by
    masking-based separators such as VoiceFilter) and invert.
    """
    magnitude_spec = active_policy().real(np.asarray(magnitude_spec))
    phase_reference = np.asarray(phase_reference)
    if magnitude_spec.shape != phase_reference.shape:
        raise ValueError(
            "magnitude and phase reference must have the same shape, got "
            f"{magnitude_spec.shape} vs {phase_reference.shape}"
        )
    phase = np.exp(1j * np.angle(phase_reference))
    return istft(magnitude_spec * phase, win_length, hop_length, window, length=length)


def griffin_lim(
    magnitude_spec: np.ndarray,
    n_iterations: int = 30,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
    seed: int = 0,
) -> np.ndarray:
    """Griffin-Lim phase reconstruction for magnitude-only spectrograms."""
    magnitude_spec = np.asarray(magnitude_spec, dtype=np.float64)
    n_fft = (magnitude_spec.shape[0] - 1) * 2
    rng = np.random.default_rng(seed)
    angles = np.exp(2j * np.pi * rng.random(magnitude_spec.shape))
    for _ in range(max(n_iterations, 1)):
        wave = istft(magnitude_spec * angles, win_length, hop_length, window, length=length)
        rebuilt = stft(wave, n_fft, win_length, hop_length, window)
        if rebuilt.shape[1] < magnitude_spec.shape[1]:
            pad = magnitude_spec.shape[1] - rebuilt.shape[1]
            rebuilt = np.pad(rebuilt, ((0, 0), (0, pad)))
        elif rebuilt.shape[1] > magnitude_spec.shape[1]:
            rebuilt = rebuilt[:, : magnitude_spec.shape[1]]
        angles = np.exp(1j * np.angle(rebuilt + 1e-12))
    return istft(magnitude_spec * angles, win_length, hop_length, window, length=length)
