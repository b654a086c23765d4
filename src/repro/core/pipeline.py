"""The end-to-end NEC system: enroll, protect, superpose.

Whole clips run on one gradient-free engine: :meth:`NECSystem.protect` (one
clip) and :meth:`NECSystem.protect_batch` (many) cut every clip into the rows
of one zero-padded ``(N, segment_samples)`` matrix, transform it with one
batched STFT, infer the shadow spectrograms
(:meth:`Selector.shadow_spectrogram_batch`, at most
:data:`~repro.core.selector.ROWS_PER_PASS` rows per pass) and invert them with
one batched iSTFT.  :class:`StreamingProtector` (chunked audio in, shadow
waves out, with carried-over state) transforms each chunk's frames as they
arrive and queues each segment as one request to a
:class:`~repro.core.selector.StreamBatch`: each block of the Selector's grid
as soon as its frames exist, the last when the segment closes.
Each path is bit-identical to protecting one segment at a time; that oracle
lives in ``tests/oracles.py`` and the equivalence is pinned by
``tests/test_pipeline_batch.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.core.encoder import SpeakerEncoder, SpectralEncoder
from repro.core.overshadow import apply_offsets, complex_shadow, superpose_spectrograms
from repro.core.selector import Selector, StreamBatch, StreamRequest
from repro.dsp.stft import (
    StreamingISTFT,
    StreamingSTFT,
    batch_istft,
    batch_stft,
    magnitude,
)


@dataclass
class ProtectionResult:
    """The shadow NEC produces for one clip or streamed segment.

    ``shadow_wave`` is what the device broadcasts.  ``mixed_spectrogram`` is
    the magnitude the Selector read; :attr:`record_spectrogram` and
    :attr:`predicted_suppression_db` are derived from it.  The input audio is
    not echoed back: the caller already holds it.
    """

    mixed_spectrogram: np.ndarray       # (F, T)
    shadow_spectrogram: np.ndarray      # (F, T), signed
    shadow_wave: AudioSignal

    @property
    def record_spectrogram(self) -> np.ndarray:
        """The predicted recording ``S_mixed + S_shadow`` (Eq. 5), on access."""
        return superpose_spectrograms(self.mixed_spectrogram, self.shadow_spectrogram)

    @property
    def predicted_suppression_db(self) -> float:
        """Predicted energy reduction of the recording vs the mixture (dB)."""
        mixed_energy = float(np.sum(self.mixed_spectrogram**2))
        record_energy = float(np.sum(self.record_spectrogram**2))
        if record_energy <= 0 or mixed_energy <= 0:
            return 0.0
        return 10.0 * float(np.log10(mixed_energy / record_energy))


class NECSystem:
    """Neural Enhanced Cancellation: enroll a speaker, protect audio.

    Typical usage::

        system = NECSystem(config)
        system.enroll(corpus.reference_audios("spk000"))
        result = system.protect(mixed_audio)          # shadow wave for broadcast
        recorded = system.superpose(mixed_audio, result)   # ideal superposition

    The system holds only what protection runs (encoder, Selector, STFTs).
    The ultrasonic broadcast and the simulated air channel live in
    :mod:`repro.channel`, which this module never imports::

        from repro.channel import nec_speaker, record_over_the_air

        ultrasound = nec_speaker(system.config).broadcast(result.shadow_wave)
        recorded = record_over_the_air(system, bob, alice, recorder, distance_m=1.0)
    """

    def __init__(
        self,
        config: Optional[NECConfig] = None,
        encoder: Optional[SpeakerEncoder] = None,
        selector: Optional[Selector] = None,
        seed: int = 0,
    ) -> None:
        self.config = (config or NECConfig.default()).validate()
        self.encoder = encoder if encoder is not None else SpectralEncoder(self.config, seed=seed)
        self.selector = selector if selector is not None else Selector(self.config, seed=seed)
        self._embedding: Optional[np.ndarray] = None

    # -- enrollment -----------------------------------------------------------
    def enroll(self, reference_audios: Sequence[AudioSignal | np.ndarray]) -> np.ndarray:
        """Enroll the protected (target) speaker from reference audio.

        The paper requires only three 3-second clips; fewer are accepted, but
        an empty list raises ``ValueError``.
        """
        if not reference_audios:
            raise ValueError("enrollment requires at least one reference audio")
        self._embedding = self.encoder.embed(reference_audios)
        return self._embedding

    def set_embedding(self, embedding: np.ndarray) -> np.ndarray:
        """Install a previously computed d-vector without re-running enrollment.

        This is the restore path of the multi-tenant enrollment registry
        (:mod:`repro.serving`): the registry persists each tenant's d-vector
        at enrollment time, and a restarted service re-installs it verbatim —
        protection after a reload is bit-identical to protection before it
        because the embedding bytes are exactly the ones :meth:`enroll`
        produced.
        """
        embedding = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if embedding.size != self.config.embedding_dim:
            raise ValueError(
                f"expected a {self.config.embedding_dim}-dim embedding, "
                f"got {embedding.size}"
            )
        self._embedding = embedding
        return self._embedding

    @property
    def is_enrolled(self) -> bool:
        return self._embedding is not None

    @property
    def embedding(self) -> np.ndarray:
        if self._embedding is None:
            raise RuntimeError("no speaker enrolled; call enroll() first")
        return self._embedding

    # -- shadow generation ---------------------------------------------------------
    def _check_sample_rate(self, audio: AudioSignal) -> None:
        if audio.sample_rate != self.config.sample_rate:
            raise ValueError(
                f"expected {self.config.sample_rate} Hz audio, got {audio.sample_rate}"
            )

    def _protect_clips(self, clips: Sequence[AudioSignal]) -> List[ProtectionResult]:
        """The batched engine: protect one or more clips together.

        Every clip is cut into ``segment_samples`` rows of one zeroed
        ``(N, segment_samples)`` matrix in ``config.inference_dtype`` (its
        last row zero-padded, an empty clip one all-zero row), so each
        sample is copied once and cast on the way in.  One STFT, one
        :meth:`Selector.shadow_spectrogram_batch` call (which bounds its own
        passes at :data:`~repro.core.selector.ROWS_PER_PASS` rows) and one
        batched iSTFT cover the whole matrix, and every kernel after the cast
        computes in that dtype (the float32 gates are in
        ``tests/test_precision.py``).  Each clip's result holds its rows'
        frames side by side and one fresh shadow wave of exactly its samples.
        """
        embedding = self.embedding  # fail fast, before any transform runs
        config = self.config
        segment = config.segment_samples
        rows = []
        for clip in clips:
            self._check_sample_rate(clip)
            rows.append(max(-(-clip.num_samples // segment), 1))
        matrix = np.zeros((sum(rows), segment), dtype=config.inference_dtype)
        samples = matrix.reshape(-1)
        starts = np.cumsum([0, *rows])
        for clip, start in zip(clips, starts):
            samples[start * segment : start * segment + clip.num_samples] = clip.data
        stfts = batch_stft(matrix, config.n_fft, config.win_length, config.hop_length)
        mixed_specs = magnitude(stfts)
        shadow_specs = self.selector.shadow_spectrogram_batch(mixed_specs, embedding)
        # Each row of batch_istft equals istft of that row bit for bit
        # (pinned by the test suite).
        waves = batch_istft(
            complex_shadow(stfts, mixed_specs, shadow_specs),
            config.win_length,
            config.hop_length,
            length=segment,
        ).reshape(-1)
        return [
            ProtectionResult(
                mixed_spectrogram=np.concatenate(mixed_specs[start:stop], axis=1),
                shadow_spectrogram=np.concatenate(shadow_specs[start:stop], axis=1),
                shadow_wave=AudioSignal(
                    waves[start * segment : start * segment + clip.num_samples].copy(),
                    config.sample_rate,
                ),
            )
            for clip, start, stop in zip(clips, starts, starts[1:])
        ]

    def protect(self, mixed_audio: AudioSignal) -> ProtectionResult:
        """Protect an arbitrary-length mixed audio via the batched engine.

        All segments go through one stacked STFT, the Selector and one
        batched iSTFT; the result is bit-identical to protecting the clip one
        segment at a time (pinned against the looped oracle in
        ``tests/oracles.py``).
        """
        return self._protect_clips([mixed_audio])[0]

    def protect_batch(self, mixed_audios: Sequence[AudioSignal]) -> List[ProtectionResult]:
        """Protect many clips in one call, the offline evaluation path.

        Segments of *all* clips share one matrix, so the clips share the STFT,
        Selector and iSTFT calls.  ``protect_batch([a, b])`` returns exactly
        ``[protect(a), protect(b)]``.  Live audio goes through
        :class:`StreamingProtector` instead (the serving layer streams).
        """
        return self._protect_clips(mixed_audios) if mixed_audios else []

    # -- recording models --------------------------------------------------------
    def superpose(
        self,
        mixed_audio: AudioSignal,
        protection: Optional[ProtectionResult] = None,
        time_offset_s: float = 0.0,
        power_coefficient: float = 1.0,
    ) -> AudioSignal:
        """Ideal digital superposition of mixed audio and shadow wave (Eq. 11).

        This is the recording model used by the paper's System Benchmark: the
        shadow arrives with a configurable time/power offset but without the
        ultrasound channel in between.
        """
        protection = protection if protection is not None else self.protect(mixed_audio)
        return apply_offsets(
            mixed_audio,
            protection.shadow_wave,
            time_offset_s=time_offset_s,
            power_coefficient=power_coefficient,
        )


@dataclass
class StreamLatencyStats:
    """Samples-in → shadow-out accounting of one streaming session.

    Every :meth:`StreamingProtector.feed` (and the final flush) records its
    wall-clock; every emitted segment records how many samples had been fed
    past its completion point before its shadow came out (zero when the shadow
    is emitted inside the very feed that completed the segment; positive when
    a shared :class:`~repro.core.selector.StreamBatch` ticks it later).  The
    algorithmic floor on top of that is always one segment of lookahead — the
    Selector's closing block needs the segment's last frames before any
    shadow exists.

    Every field is a count, a sum or a maximum, so the stats stay bounded
    however long the session lives.
    """

    feeds: int = 0
    total_feed_ms: float = 0.0
    worst_feed_ms: float = 0.0
    emits: int = 0
    worst_emit_latency_samples: int = 0

    @property
    def mean_feed_ms(self) -> float:
        return self.total_feed_ms / self.feeds if self.feeds else 0.0

    def record_feed(self, elapsed_ms: float) -> None:
        self.feeds += 1
        self.total_feed_ms += elapsed_ms
        self.worst_feed_ms = max(self.worst_feed_ms, elapsed_ms)

    def record_emit(self, extra_samples: int) -> None:
        self.emits += 1
        self.worst_emit_latency_samples = max(
            self.worst_emit_latency_samples, int(extra_samples)
        )

    def reset(self) -> None:
        self.feeds = 0
        self.total_feed_ms = 0.0
        self.worst_feed_ms = 0.0
        self.emits = 0
        self.worst_emit_latency_samples = 0


@dataclass
class _PendingSegment:
    """One completed segment travelling through the streaming pipeline."""

    stft: np.ndarray                # (F, T) complex frames, inference dtype
    completed_at_samples: int       # samples_fed when the segment completed
    stream_samples: int             # stream audio it covers: a tail's zero pad is not
    request: Optional[StreamRequest] = None  # from its early blocks' submits, or its own


class StreamingProtector:
    """Real-time incremental protection on a fixed-lookahead segment pipeline.

    A deployment NEC device does not see whole clips: audio arrives from the
    microphone in arbitrary-sized chunks, and the shadow wave is only useful
    if it is broadcast while the speech is still in the air.  This pipeline
    therefore does bounded work per chunk:

    - the **incremental STFT** (:class:`~repro.dsp.stft.StreamingSTFT`)
      transforms only the frames each chunk completes, so the segment
      spectrogram is already standing when its last sample arrives; no
      samples are kept past their frames, only a count of how far the open
      segment has filled;
    - each segment is one request to a
      :class:`~repro.core.selector.StreamBatch` for its gradient-free
      Selector pass, one stage per block of the grid
      (:meth:`Selector.block_bounds`: frames ``[0, T−L)``,
      ``[T−L, T−⌈L/2⌉)``, ``[T−⌈L/2⌉, T)``).  As soon as the incremental
      STFT has an early block's last frame, that block's frames are queued,
      with every other early block the same feed completed, in one
      :meth:`StreamBatch.submit_block`: the first ends ``L·hop`` samples
      (190 ms at ``NECConfig.default()``) before the segment does, the
      second ``⌈L/2⌉·hop`` (100 ms).  When the segment completes
      (:meth:`flush` zero-pads the tail to a full one), the ``(F, T)``
      spectrogram is queued for the closing block (:meth:`StreamBatch.submit`,
      with any early block one feed delivered along with it).  The d-vector
      is read once per segment, for its first block.  Without a
      ``stream_batch`` the protector owns a private batch and ticks it
      inside :meth:`feed` / :meth:`flush`, which return the results;
      attached to a shared ``stream_batch`` (the serving layer's) ``feed``
      returns nothing, and finished results are picked up with
      :meth:`collect` after ``stream_batch.tick()``;
    - the shadow spectrogram, on the segment's mixed phase
      (:func:`~repro.core.overshadow.complex_shadow`), is fed to a
      :class:`~repro.dsp.stft.StreamingISTFT`, whose flush inverts it with
      the same one overlap-add as :meth:`NECSystem.protect`, and emitted.

    Concatenating all emitted shadow waves (with a final :meth:`flush`)
    reproduces **exactly** what :meth:`NECSystem.protect` emits for the whole
    clip at once, for any chunking — the equivalence the test-suite pins:
    ``protect`` runs the same blocks.
    Per-feed wall-clock and per-segment emission lag are tracked in
    :attr:`latency` (see :class:`StreamLatencyStats`)::

        protector = StreamingProtector(system)
        for chunk in microphone_chunks:
            for result in protector.feed(chunk):
                speaker.broadcast(result.shadow_wave)
        tail = protector.flush()          # last partial segment, zero-padded
    """

    def __init__(
        self,
        system: NECSystem,
        stream_batch: Optional[StreamBatch] = None,
    ) -> None:
        self.system = system
        self.stream_batch = stream_batch
        self._batch = stream_batch if stream_batch is not None else StreamBatch(system.selector)
        config = system.config
        self._segment = config.segment_samples
        self._fill = 0  # samples of the open segment fed so far
        self._stft = StreamingSTFT(
            config.n_fft, config.win_length, config.hop_length, dtype=config.inference_dtype
        )
        self._frames: List[np.ndarray] = []
        #: The open segment's request, once its first block's frames exist.
        self._open_request: Optional[StreamRequest] = None
        self._ready: List[_PendingSegment] = []      # completed, not yet submitted
        self._submitted: List[_PendingSegment] = []  # submitted, not yet collected
        self._segments_completed = 0
        self._segments_emitted = 0
        self._samples_fed = 0
        self.latency = StreamLatencyStats()

    # -- state ---------------------------------------------------------------
    @property
    def pending_samples(self) -> int:
        """Samples fed but not yet covered by an emitted shadow."""
        queued = self._ready + self._submitted
        return int(self._fill + sum(segment.stream_samples for segment in queued))

    @property
    def pending_inference_segments(self) -> int:
        """Completed segments whose Selector pass has not been collected yet."""
        return len(self._ready) + len(self._submitted)

    @property
    def next_result_ready(self) -> bool:
        """True when :meth:`collect` would return at least one result now."""
        return bool(self._submitted and self._submitted[0].request.done)

    @property
    def all_ticked(self) -> bool:
        """True when every completed segment has had its Selector pass."""
        return not self._ready and all(segment.request.done for segment in self._submitted)

    @property
    def segments_emitted(self) -> int:
        return self._segments_emitted

    @property
    def samples_fed(self) -> int:
        return self._samples_fed

    @property
    def lookahead_samples(self) -> int:
        """The pipeline's algorithmic latency floor: one full segment."""
        return self._segment

    def reset(self) -> None:
        """Drop all carried-over state (start a new stream)."""
        self._fill = 0
        self._stft.reset()
        self._frames = []
        self._open_request = None
        self._ready = []
        self._submitted = []
        self._segments_completed = 0
        self._segments_emitted = 0
        self._samples_fed = 0
        self.latency.reset()

    # -- pipeline stages -------------------------------------------------------
    def _buffer_chunk(self, data: np.ndarray) -> None:
        """Stage 1: incremental STFT, segment by segment."""
        position = 0
        while position < data.size:
            take = min(self._segment - self._fill, data.size - position)
            frames = self._stft.feed(data[position : position + take])
            if frames.shape[1]:
                self._frames.append(frames)
            self._fill += take
            position += take
            if self._fill == self._segment:
                self._complete_segment()

    def _joined_frames(self) -> np.ndarray:
        """The open segment's frames so far, as one ``(F, t)`` block."""
        if len(self._frames) > 1:
            self._frames = [np.concatenate(self._frames, axis=1)]
        return self._frames[0]

    def _complete_segment(self) -> None:
        """A full segment's frames are standing: queue it for inference."""
        self._segments_completed += 1
        self._ready.append(
            _PendingSegment(
                stft=self._joined_frames(),
                completed_at_samples=self._segments_completed * self._segment,
                stream_samples=self._segment,
                request=self._open_request,
            )
        )
        # Framing restarts per segment (exactly the batched engine's geometry);
        # the sub-hop STFT carry never crosses a segment boundary.
        self._stft.reset()
        self._frames = []
        self._open_request = None
        self._fill = 0

    def _build_result(
        self,
        segment: _PendingSegment,
        mixed_spec: np.ndarray,
        shadow_spec: np.ndarray,
    ) -> ProtectionResult:
        """Stage 3: :func:`complex_shadow` + streaming iSTFT → one emitted result."""
        config = self.system.config
        inverter = StreamingISTFT(
            config.win_length, config.hop_length, dtype=config.inference_dtype
        )
        inverter.feed(complex_shadow(segment.stft, mixed_spec, shadow_spec))
        wave = inverter.flush(length=self._segment)
        self._segments_emitted += 1
        self.latency.record_emit(self._samples_fed - segment.completed_at_samples)
        return ProtectionResult(
            mixed_spectrogram=mixed_spec,
            shadow_spectrogram=shadow_spec,
            shadow_wave=AudioSignal(wave[: segment.stream_samples], config.sample_rate),
        )

    def _drain_ready(self) -> List[ProtectionResult]:
        """Stage 2: submit closed segments and the open segment's due early
        blocks; tick a private batch holding requests."""
        queued = 0 if self._open_request is None else self._open_request.queued
        end = self._batch.early_end(sum(block.shape[1] for block in self._frames))
        if self._ready or end > queued:
            embedding = self.system.embedding  # fail fast *before* consuming state
            while self._ready:
                segment = self._ready[0]
                # An early block's request carries the d-vector it read.
                segment.request = self._batch.submit(
                    magnitude(segment.stft), embedding, segment.request
                )
                self._submitted.append(self._ready.pop(0))
            if end > queued:
                # Every early block this feed completed, in one submit.
                block = magnitude(self._joined_frames()[:, queued:end])
                self._open_request = self._batch.submit_block(
                    block, embedding, self._open_request
                )
        if self.stream_batch is not None:
            return []
        while self._batch.pending_requests:
            self._batch.tick()
        return self.collect()

    # -- streaming -----------------------------------------------------------
    def feed(self, chunk: Union[AudioSignal, np.ndarray]) -> List[ProtectionResult]:
        """Append a chunk; return one result per segment completed by it.

        Each returned :class:`ProtectionResult` covers one full segment
        (``config.segment_samples`` samples of shadow wave).  Chunks may be of
        any size, including empty.  Attached to a shared
        :class:`~repro.core.selector.StreamBatch`, completed segments are
        queued for its next tick instead and ``feed`` returns ``[]`` — pick
        results up with :meth:`collect`.  A feed that fails
        (e.g. before enrollment) never drops stream audio: the buffered
        segments stay queued and the next feed retries them.
        """
        started = time.perf_counter()
        if not isinstance(chunk, AudioSignal):
            # AudioSignal's dtype rule: float32 and float64 stay as given.
            chunk = AudioSignal(chunk, self.system.config.sample_rate)
        self.system._check_sample_rate(chunk)
        data = chunk.data
        self._samples_fed += data.size
        self._buffer_chunk(data)
        results = self._drain_ready()
        self.latency.record_feed(1000.0 * (time.perf_counter() - started))
        return results

    def collect(self) -> List[ProtectionResult]:
        """Results whose tick has run, when attached to a shared ``stream_batch``.

        Returns finished segments in stream order, stopping at the first one
        still awaiting a :meth:`~repro.core.selector.StreamBatch.tick`.
        Without a shared batch there is never anything to collect —
        :meth:`feed` returns results directly.
        """
        results: List[ProtectionResult] = []
        while self._submitted and self._submitted[0].request.done:
            segment = self._submitted.pop(0)
            request = segment.request
            results.append(
                self._build_result(segment, request.mixed_spectrogram, request.shadow_spectrogram)
            )
        return results

    def flush(self) -> Optional[ProtectionResult]:
        """Protect the buffered partial segment (zero-padded), if any.

        The emitted shadow wave is trimmed to the actual number of buffered
        samples so that the concatenation of every emitted wave matches
        :meth:`NECSystem.protect` on the whole stream.  Returns ``None`` when
        the buffer is empty — and always with a shared ``stream_batch``, where
        the padded tail is queued for the next tick and comes out of
        :meth:`collect`.
        """
        if self._ready or (self.stream_batch is None and self._submitted):
            raise RuntimeError(
                "undrained completed segments (a previous feed failed); "
                "retry with feed(()) before flushing"
            )
        if self._fill == 0:
            return None
        started = time.perf_counter()
        pending = self._fill
        self._buffer_chunk(np.zeros(self._segment - pending))
        tail_segment = self._ready[-1]
        tail_segment.stream_samples = pending
        # The pad samples are pipeline filler, not stream audio: completion
        # happened when the last real sample arrived.
        tail_segment.completed_at_samples = self._samples_fed
        results = self._drain_ready()
        self.latency.record_feed(1000.0 * (time.perf_counter() - started))
        return results[0] if results else None
