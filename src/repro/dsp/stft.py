"""Short-time Fourier transform and inverse, matching the paper's geometry.

The paper (Sec. IV-B1) uses 3-second 16 kHz clips, an FFT size of 1200
(601 frequency bins), a Hann window of 400 samples and a hop of 160 samples.
:func:`stft` / :func:`istft` implement exactly that framing (no centre
padding), and :func:`spectrogram_shape` reports the resulting ``(F, T)``
shape so that models can be built against it.

There is one framing kernel (:func:`_frame_spectra`) and one overlap-add
(:func:`batch_istft`).  The single-clip transforms are the batch kernels on a
batch of one, :class:`StreamingSTFT` frames each chunk through the same
kernel (with no end-of-stream step), and :class:`StreamingISTFT` holds
frames until its flush, which makes one :func:`batch_istft` call.  Every
entry point checks its geometry through :func:`_check_geometry`.

The transforms run on ``numpy.fft`` alone, so the protection path loads no
scipy.  They compute in the dtype of their input: float32 samples give
complex64 frames and complex64 frames give float32 samples (numpy 2's FFT
keeps single precision); anything else computes in float64 / complex128,
bit-identical to ``scipy.fft``.  The streaming transforms carry state across
calls, so they are built with their dtype.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dsp.windows import get_window


def _check_geometry(win_length: int, hop_length: int, n_fft: Optional[int] = None) -> None:
    """The one argument check of every transform.

    ``n_fft`` is ``None`` only where it is not known yet
    (:class:`StreamingISTFT` before its first frames arrive).  Frames must
    overlap or abut, so the hop is at most the window.
    """
    bound = win_length if n_fft is None else n_fft
    if not 0 < hop_length <= win_length <= bound:
        raise ValueError(
            "STFT geometry needs 0 < hop_length <= win_length <= n_fft, got "
            f"n_fft={n_fft}, win_length={win_length}, hop_length={hop_length}"
        )


def _frame_count(num_samples: int, win_length: int, hop_length: int) -> int:
    """Frames of a signal; one zero-padded frame when it is shorter than a window."""
    return 1 + max(num_samples - win_length, 0) // hop_length


def _frame_spectra(
    signals: np.ndarray, n_fft: int, win_length: int, hop_length: int, window: str
) -> np.ndarray:
    """The one framing kernel: ``(..., num_samples)`` real to ``(..., F, T)`` complex.

    A row shorter than one window is zero-padded to one frame.  Every frame of
    a row is gathered by one fancy-indexing operation (bit-identical to a
    per-frame Python loop), windowed, and transformed by one ``numpy.fft.rfft``,
    which keeps float32 input in float32.  Each frame's ``rfft`` is an
    independent pocketfft row transform, so how rows and frames are batched
    never changes a value.  Rows go one at a time: numpy's float32 ``rfft``
    over more than about a thousand frames costs about 3x per frame (a
    16-segment batch at ``default()``, 1,584 frames, on a 2-core x86 host:
    4.9 ms in one call, 1.5 ms row by row).
    """
    _check_geometry(win_length, hop_length, n_fft)
    signals = np.asarray(signals)
    signals = signals.astype(np.result_type(signals, np.float32), copy=False)
    num_samples = signals.shape[-1]
    if num_samples < win_length:
        pad = [(0, 0)] * (signals.ndim - 1) + [(0, win_length - num_samples)]
        signals = np.pad(signals, pad)
    starts = np.arange(_frame_count(num_samples, win_length, hop_length)) * hop_length
    index = starts[:, None] + np.arange(win_length)[None, :]
    window_samples = get_window(window, win_length).astype(signals.dtype, copy=False)
    spectra = np.empty(
        signals.shape[:-1] + (starts.size, n_fft // 2 + 1),
        dtype=np.result_type(signals, np.complex64),
    )
    for row in np.ndindex(signals.shape[:-1]):
        np.fft.rfft(signals[row][index] * window_samples, n=n_fft, axis=-1, out=spectra[row])
    return spectra.swapaxes(-1, -2)


def stft(
    signal: np.ndarray,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
) -> np.ndarray:
    """Complex STFT of a 1-D signal, shape ``(n_fft // 2 + 1, n_frames)``.

    Equal to ``batch_stft(signal[None], ...)[0]`` bit for bit.
    """
    signal = np.asarray(signal)
    if signal.ndim != 1:
        raise ValueError("stft expects a 1-D signal")
    return _frame_spectra(signal, n_fft, win_length, hop_length, window)


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
    bit-identical to ``stft(signals[n], ...)``.
    """
    signals = np.asarray(signals)
    if signals.ndim != 2:
        raise ValueError("batch_stft expects a (N, num_samples) batch of signals")
    return _frame_spectra(signals, n_fft, win_length, hop_length, window)


def magnitude_spectrogram(
    signal: np.ndarray,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
) -> np.ndarray:
    """Magnitude spectrogram ``|STFT|`` with shape ``(F, T)`` (paper Eq. 2)."""
    return magnitude(stft(signal, n_fft, win_length, hop_length, window))


def spectrogram_shape(
    num_samples: int,
    n_fft: int = 1200,
    win_length: int = 400,
    hop_length: int = 160,
) -> Tuple[int, int]:
    """``(frequency_bins, frames)`` produced by :func:`stft` for this input size."""
    _check_geometry(win_length, hop_length, n_fft)
    return n_fft // 2 + 1, _frame_count(num_samples, win_length, hop_length)


#: Cached overlap-add plans keyed on ``(window, win_length, hop_length,
#: n_frames, dtype)``: the window and the masked reciprocal of the summed
#: window-square envelope, both in the requested real dtype.  Every iSTFT of
#: the same geometry (all segments of a clip, every clip of a benchmark)
#: shares one plan instead of re-accumulating the envelope per call.
_OLA_PLAN_CACHE: Dict[Tuple[str, int, int, int, str], Tuple[np.ndarray, np.ndarray]] = {}


def clear_ola_plan_cache() -> None:
    """Drop all cached overlap-add plans (tests / memory pressure).

    One plan is kept per distinct ``(window, win, hop, n_frames)``; workloads
    inverting arbitrarily many distinct clip lengths can clear between runs.
    """
    _OLA_PLAN_CACHE.clear()


def _ola_plan(
    window: str, win_length: int, hop_length: int, num_frames: int, dtype: np.dtype
) -> Tuple[np.ndarray, np.ndarray]:
    dtype = np.dtype(dtype)
    key = (window, win_length, hop_length, num_frames, dtype.name)
    plan = _OLA_PLAN_CACHE.get(key)
    if plan is None:
        # The envelope and its safe mask are always accumulated in float64 —
        # so the float32 plan's mask picks exactly the same samples — and
        # only the finished arrays are cast to the requested dtype.
        win = get_window(window, win_length)
        norm = np.zeros(max(win_length + hop_length * (num_frames - 1), 0))
        win_sq = win**2
        for index in range(num_frames):
            start = index * hop_length
            norm[start : start + win_length] += win_sq
        # Only normalise where the window sum carries real weight; at the very
        # edges the sum tends to zero and dividing there would blow up the
        # first and last few samples into spikes.
        inverse = np.ones(norm.shape)
        if norm.size:
            safe = norm > max(norm.max() * 1e-2, 1e-10)
            inverse[safe] = 1.0 / norm[safe]
        plan = (win.astype(dtype, copy=False), inverse.astype(dtype, copy=False))
        for array in plan:
            array.setflags(write=False)
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


def batch_istft(
    spectra: np.ndarray,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
) -> np.ndarray:
    """Inverse STFT of a ``(N, F, T)`` batch, returning ``(N, num_samples)``.

    The one inverse kernel: one ``irfft`` over the whole batch, one
    overlap-add (:func:`_overlap_add`) and one multiply by the cached
    plan's masked reciprocal envelope.  It matches the sequential per-frame
    oracle in ``tests/oracles.py`` (pinned in ``tests/test_fastpath.py``) up
    to overlap-add summation order (<= ~1e-10 absolute); unsafe edge samples
    stay unscaled, like the oracle's guarded division.  ``length`` trims or
    zero-pads every row.  complex64 (or float32) spectra invert in float32.
    """
    spectra = np.asarray(spectra)
    spectra = spectra.astype(np.result_type(spectra, np.complex64), copy=False)
    real_dtype = spectra.real.dtype
    if spectra.ndim != 3:
        raise ValueError("batch_istft expects a (N, F, T) batch of spectra")
    n_fft = (spectra.shape[1] - 1) * 2
    _check_geometry(win_length, hop_length, n_fft)
    if spectra.shape[0] == 0:
        return np.zeros((0, length or 0), dtype=real_dtype)
    num_frames = spectra.shape[2]
    frames = np.fft.irfft(spectra.swapaxes(1, 2), n=n_fft, axis=2)[:, :, :win_length]
    win, inverse = _ola_plan(window, win_length, hop_length, num_frames, real_dtype)
    expected = win_length + hop_length * (num_frames - 1)
    output = _overlap_add(frames, win, hop_length, expected)
    output *= inverse
    if length is None or length == expected:
        return output
    if length < expected:
        return output[:, :length]
    return np.pad(output, ((0, 0), (0, length - expected)))


def istft(
    spectrum: np.ndarray,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
) -> np.ndarray:
    """Inverse STFT via windowed overlap-add of a ``(n_fft // 2 + 1, n_frames)``
    complex spectrum as produced by :func:`stft`.

    Equal to ``batch_istft(spectrum[None], ...)[0]`` bit for bit.
    """
    spectrum = np.asarray(spectrum)
    if spectrum.ndim != 2:
        raise ValueError("istft expects a (F, T) spectrum")
    return batch_istft(spectrum[None], win_length, hop_length, window, length)[0]


# ---------------------------------------------------------------------------
# Streaming STFT / iSTFT
# ---------------------------------------------------------------------------
class StreamingSTFT:
    """Incremental STFT: feed sample chunks, get exactly the new frames.

    The real-time pipeline cannot afford to re-transform a whole buffered clip
    per chunk.  This state object carries the residual samples after the last
    emitted frame's hop boundary and, per :meth:`feed`, frames only what the
    new chunk completes through the shared framing kernel.  The concatenation
    of every emitted frame block is **bit-identical** to
    ``stft(concatenated_chunks, ...)`` for any chunking (including sub-hop
    chunks) of at least one window: the framing offsets are carried and each
    frame's ``rfft`` is an independent row transform.  Samples are cast to
    ``dtype`` as they are fed, so the frames are exactly ``stft`` of the
    samples in that dtype.
    Because frames overlap or abut (checked by :func:`_check_geometry`), the
    carry holds every sample a later frame reads.
    """

    def __init__(
        self,
        n_fft: int = 1200,
        win_length: int = 400,
        hop_length: int = 160,
        window: str = "hann",
        dtype: np.dtype = np.float64,
    ) -> None:
        _check_geometry(win_length, hop_length, n_fft)
        self.n_fft = n_fft
        self.win_length = win_length
        self.hop_length = hop_length
        self.window = window
        self.dtype = np.dtype(dtype)
        self.reset()

    def reset(self) -> None:
        self._carry = np.zeros(0, dtype=self.dtype)

    def feed(self, samples: np.ndarray) -> np.ndarray:
        """Append samples; return the newly completed frames, shape ``(F, t)``.

        ``t`` may be zero (chunk too small to finish a frame).  Emitted frame
        ``k`` (globally) equals column ``k`` of the whole-signal STFT.
        """
        data = np.asarray(samples, dtype=self.dtype).reshape(-1)
        carry = self._carry
        buffer = np.concatenate([carry, data]) if carry.size else data
        if buffer.size < self.win_length:
            # Own the storage: `buffer` may alias the caller's chunk.
            self._carry = buffer.copy()
            return np.zeros(
                (self.n_fft // 2 + 1, 0), dtype=np.result_type(self.dtype, np.complex64)
            )
        spectrum = _frame_spectra(buffer, self.n_fft, self.win_length, self.hop_length, self.window)
        self._carry = buffer[spectrum.shape[1] * self.hop_length :].copy()
        return spectrum


class StreamingISTFT:
    """Inverse STFT of a frame stream: :meth:`feed` holds, :meth:`flush` inverts.

    :meth:`feed` keeps each ``(F, t)`` complex frame block and returns an
    empty block; :meth:`flush` inverts everything fed with one
    :func:`batch_istft` call, so the output is bit-identical to
    ``istft(all_frames, ...)`` at any geometry.  Frames are held in the
    complex dtype of the real ``dtype``, which the output samples are in.  A
    stream is inverted once: after :meth:`flush`, :meth:`feed` and
    :meth:`flush` raise until :meth:`reset`.
    """

    def __init__(
        self,
        win_length: int = 400,
        hop_length: int = 160,
        window: str = "hann",
        dtype: np.dtype = np.float64,
    ) -> None:
        _check_geometry(win_length, hop_length)
        self.win_length = win_length
        self.hop_length = hop_length
        self.window = window
        self.dtype = np.dtype(dtype)
        self.reset()

    def reset(self) -> None:
        self._blocks: List[np.ndarray] = []
        self._flushed = False

    def _check_open(self) -> None:
        if self._flushed:
            raise RuntimeError("stream already flushed; call reset() first")

    def feed(self, spectra: np.ndarray) -> np.ndarray:
        """Hold ``(F, t)`` complex frames; returns an empty block of ``dtype``."""
        self._check_open()
        spectra = np.asarray(spectra)
        if spectra.ndim != 2:
            raise ValueError("StreamingISTFT.feed expects a (F, t) frame block")
        _check_geometry(self.win_length, self.hop_length, (spectra.shape[0] - 1) * 2)
        if spectra.shape[1]:
            # A copy: the caller may reuse its buffer before flush().
            self._blocks.append(
                np.array(spectra, dtype=np.result_type(self.dtype, np.complex64))
            )
        return np.zeros(0, dtype=self.dtype)

    def flush(self, length: Optional[int] = None) -> np.ndarray:
        """The whole stream's samples, trimmed or zero-padded to ``length``."""
        self._check_open()
        self._flushed = True
        if not self._blocks:
            return np.zeros(length or 0, dtype=self.dtype)
        spectra = self._blocks[0] if len(self._blocks) == 1 else np.concatenate(self._blocks, axis=1)
        self._blocks = []
        return batch_istft(spectra[None], self.win_length, self.hop_length, self.window, length)[0]
