"""The real-time streaming path: streaming STFT/iSTFT, ring pipeline, the
shared inference queue, and latency accounting.

The load-bearing contract: for ANY chunking of a clip — sub-hop dribbles,
segment-aligned blocks, everything at once — the concatenation of the shadow
waves emitted by :class:`StreamingProtector` (plus the flush tail) is
**sample-exact** against :meth:`NECSystem.protect` on the whole clip, and
sharing a :class:`StreamBatch` tick across streams never changes a bit.
:class:`StreamingSTFT` frames each chunk through the one framing kernel and
:class:`StreamingISTFT` holds frames until its flush makes one
``batch_istft`` call; both are pinned bitwise against the batch kernels at a
hop-divides-window geometry (the reduced test config) and at the paper's
non-dividing 400/160 geometry.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.signal import AudioSignal
from repro.core import NECConfig, NECSystem, StreamBatch, StreamingProtector
from repro.dsp.stft import (
    StreamingISTFT,
    StreamingSTFT,
    batch_istft,
    batch_stft,
    stft,
)


@pytest.fixture(scope="module")
def tiny_config():
    return NECConfig.tiny()


@pytest.fixture(scope="module")
def system(tiny_config):
    rng = np.random.default_rng(7)
    built = NECSystem(tiny_config, seed=0)
    built.enroll(
        [
            AudioSignal(
                rng.normal(scale=0.1, size=tiny_config.segment_samples),
                tiny_config.sample_rate,
            )
        ]
    )
    return built


@pytest.fixture(scope="module")
def system32(system):
    """``system`` serving in float32: the same Selector, encoder and d-vector."""
    built = NECSystem(
        replace(system.config, inference_dtype="float32"),
        encoder=system.encoder,
        selector=system.selector,
    )
    built.set_embedding(system.embedding)
    return built


def _noise(num_samples, seed=0):
    return np.random.default_rng(seed).normal(scale=0.1, size=num_samples)


def _chunkings(data, boundaries):
    position = 0
    for boundary in sorted(boundaries):
        if position < boundary <= data.size:
            yield data[position:boundary]
            position = boundary
    if position < data.size:
        yield data[position:]


#: Geometries the streaming kernels must match exactly: (n_fft, win, hop).
GEOMETRIES = [
    (128, 128, 64),     # hop divides window: the tiled overlap-add
    (1200, 400, 160),   # the paper's geometry: the grouped overlap-add
]


class TestStreamingSTFT:
    @pytest.mark.parametrize("n_fft,win,hop", GEOMETRIES)
    def test_matches_batch_stft_for_random_chunking(self, n_fft, win, hop):
        signal = _noise(win * 7 + 13, seed=1)
        reference = stft(signal, n_fft, win, hop)
        streamer = StreamingSTFT(n_fft, win, hop)
        rng = np.random.default_rng(2)
        frames = []
        position = 0
        while position < signal.size:
            size = int(rng.integers(1, 2 * win))
            chunk = signal[position : position + size]
            position += chunk.size
            emitted = streamer.feed(chunk)
            if emitted.shape[1]:
                frames.append(emitted)
        np.testing.assert_array_equal(np.concatenate(frames, axis=1), reference)

    def test_float32_policy_matches_batch(self):
        n_fft, win, hop = GEOMETRIES[0]
        signal = _noise(win * 5, seed=4)
        reference = stft(signal.astype(np.float32), n_fft, win, hop)
        assert reference.dtype == np.complex64
        streamer = StreamingSTFT(n_fft, win, hop, dtype=np.float32)
        # float64 chunks are cast as they are fed.
        emitted = np.concatenate(
            [streamer.feed(signal[:win + 7]), streamer.feed(signal[win + 7 :])], axis=1
        )
        assert emitted.dtype == reference.dtype
        np.testing.assert_array_equal(emitted, reference)

    def test_reset_restarts_framing(self):
        n_fft, win, hop = GEOMETRIES[0]
        signal = _noise(win * 3, seed=5)
        streamer = StreamingSTFT(n_fft, win, hop)
        streamer.feed(_noise(win + 7, seed=6))
        streamer.reset()
        np.testing.assert_array_equal(
            streamer.feed(signal), stft(signal, n_fft, win, hop)
        )


class TestStreamingISTFT:
    @pytest.mark.parametrize("n_fft,win,hop", GEOMETRIES)
    def test_matches_batch_istft_for_random_frame_splits(self, n_fft, win, hop):
        length = win * 6 + 5
        signal = _noise(length, seed=7)
        spectra = stft(signal, n_fft, win, hop)
        reference = batch_istft(spectra[None], win, hop, length=length)[0]
        inverter = StreamingISTFT(win, hop)
        rng = np.random.default_rng(8)
        position = 0
        total = spectra.shape[1]
        while position < total:
            size = int(rng.integers(1, 4))
            block = inverter.feed(spectra[:, position : position + size])
            position += min(size, total - position)
            assert block.shape == (0,) and block.dtype == reference.dtype
        np.testing.assert_array_equal(inverter.flush(length=length), reference)

    def test_float32_policy_matches_batch(self):
        n_fft, win, hop = GEOMETRIES[0]
        length = win * 4
        spectra = stft(_noise(length, seed=9).astype(np.float32), n_fft, win, hop)
        reference = batch_istft(spectra[None], win, hop, length=length)[0]
        assert reference.dtype == np.float32
        inverter = StreamingISTFT(win, hop, dtype=np.float32)
        head = inverter.feed(spectra)
        assert head.shape == (0,) and head.dtype == reference.dtype
        wave = inverter.flush(length=length)
        assert wave.dtype == reference.dtype
        np.testing.assert_array_equal(wave, reference)

    @pytest.mark.parametrize("num_frames", [0, 6])
    @pytest.mark.parametrize("length_delta", [-37, 0, 53])
    def test_flush_trims_or_pads_to_length(self, num_frames, length_delta):
        n_fft, win, hop = GEOMETRIES[1]
        spectra = stft(_noise(win + hop * (num_frames - 1), seed=10), n_fft, win, hop)
        spectra = spectra[:, :num_frames]
        natural = win + hop * (num_frames - 1) if num_frames else 0
        length = max(natural + length_delta, 0)
        inverter = StreamingISTFT(win, hop)
        inverter.feed(spectra)
        wave = inverter.flush(length=length)
        assert wave.shape == (length,)
        if num_frames:
            expected = batch_istft(spectra[None], win, hop, length=length)[0]
        else:
            expected = np.zeros(length)
        np.testing.assert_array_equal(wave, expected)

    def test_flushed_stream_refuses_until_reset(self):
        n_fft, win, hop = GEOMETRIES[0]
        spectra = stft(_noise(win * 3, seed=11), n_fft, win, hop)
        inverter = StreamingISTFT(win, hop)
        inverter.feed(spectra)
        first = inverter.flush()
        with pytest.raises(RuntimeError, match="reset"):
            inverter.flush()
        with pytest.raises(RuntimeError, match="reset"):
            inverter.feed(spectra)
        inverter.reset()
        inverter.feed(spectra)
        np.testing.assert_array_equal(inverter.flush(), first)


class TestStreamingProtectorProperty:
    """Any chunking reproduces protect() exactly."""

    @settings(max_examples=12, deadline=None)
    @given(boundaries=st.lists(st.integers(min_value=1, max_value=12000), max_size=8))
    def test_any_chunking_matches_protect(self, system, system32, tiny_config, boundaries):
        """In both inference dtypes."""
        clip_samples = int(2.4 * tiny_config.segment_samples)
        audio = AudioSignal(_noise(clip_samples, seed=11), tiny_config.sample_rate)
        for nec in (system, system32):
            whole = nec.protect(audio)

            protector = StreamingProtector(nec)
            waves = []
            for chunk in _chunkings(audio.data, boundaries):
                for result in protector.feed(chunk):
                    waves.append(result.shadow_wave.data)
            tail = protector.flush()
            if tail is not None:
                waves.append(tail.shadow_wave.data)

            np.testing.assert_array_equal(
                np.concatenate(waves), whole.shadow_wave.data
            )
            # Latency accounting: every feed (and the flush) was timed.
            assert protector.latency.feeds > 0

    def test_sub_hop_chunks_match_protect(self, system, tiny_config):
        clip_samples = tiny_config.segment_samples + 3 * tiny_config.hop_length // 2
        audio = AudioSignal(_noise(clip_samples, seed=12), tiny_config.sample_rate)
        whole = system.protect(audio)
        protector = StreamingProtector(system)
        size = tiny_config.hop_length - 1  # never a whole analysis hop per feed
        waves = []
        for start in range(0, clip_samples, size):
            for result in protector.feed(audio.data[start : start + size]):
                waves.append(result.shadow_wave.data)
        waves.append(protector.flush().shadow_wave.data)
        np.testing.assert_array_equal(np.concatenate(waves), whole.shadow_wave.data)


def _enrolled(config, seed):
    rng = np.random.default_rng(seed)
    built = NECSystem(config, seed=0)
    built.enroll(
        [AudioSignal(rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate)]
    )
    return built


def _streamed(protector, data, chunk):
    waves = []
    for start in range(0, data.size, chunk):
        waves += [result.shadow_wave.data for result in protector.feed(data[start : start + chunk])]
    tail = protector.flush()
    if tail is not None:
        waves.append(tail.shadow_wave.data)
    return np.concatenate(waves)


class _RecordingBatch(StreamBatch):
    """A :class:`StreamBatch` that records the end frame of every early block queued."""

    def __init__(self, selector):
        super().__init__(selector)
        self.blocks = []

    def submit_block(self, frames, d_vector=None, request=None):
        queued = 0 if request is None else request.queued
        request = super().submit_block(frames, d_vector, request)
        self.blocks += [end for end in self._bounds if queued < end <= request.queued]
        return request


def _grid_chunks(config, lookahead):
    """1, 63, 64, ``⌈L/2⌉·hop ± 1``, ``L·hop ± 1``, 500 and a whole segment."""
    half, whole = (lookahead + 1) // 2 * config.hop_length, lookahead * config.hop_length
    return [1, 63, 64, half - 1, half + 1, whole - 1, whole + 1, 500, config.segment_samples]


class TestHeadTailSplit:
    """Each segment's early blocks run before its last sample; nothing changes a bit."""

    @pytest.fixture(scope="class")
    def deployed(self):
        return _enrolled(NECConfig.default(), seed=70)

    def test_default_float32_streaming_equals_protect(self, deployed):
        config = deployed.config
        assert config.inference_dtype == "float32"
        audio = AudioSignal(_noise(int(2.35 * config.segment_samples), seed=71), config.sample_rate)
        whole = deployed.protect(audio).shadow_wave.data
        for chunk in (config.sample_rate // 10, config.segment_samples):
            streamed = _streamed(StreamingProtector(deployed), audio.data, chunk)
            np.testing.assert_array_equal(streamed, whole)

    @pytest.mark.parametrize("precision", ["tiny-float64", "default-float32"])
    def test_grid_chunkings_stream_bitwise_equal_protect(self, system, deployed, precision):
        """Chunks around ``⌈L/2⌉·hop`` and ``L·hop``, in the dtype each geometry serves."""
        nec = system if precision == "tiny-float64" else deployed
        config = nec.config
        assert config.inference_dtype == precision.split("-")[1]
        audio = AudioSignal(_noise(int(2.35 * config.segment_samples), seed=80), config.sample_rate)
        whole = nec.protect(audio).shadow_wave.data
        for chunk in _grid_chunks(config, nec.selector.lookahead_frames):
            streamed = _streamed(StreamingProtector(nec), audio.data, chunk)
            np.testing.assert_array_equal(streamed, whole)

    def test_default_head_is_submitted_at_the_0_9_s_feed(self, deployed):
        config = deployed.config
        selector = deployed.selector
        assert selector.lookahead_frames == 19
        assert selector.block_bounds(config.num_frames) == (80, 89, 99)
        batch = _RecordingBatch(selector)
        protector = StreamingProtector(deployed, stream_batch=batch)
        chunk = config.sample_rate // 10
        data = _noise(config.segment_samples, seed=72)
        queued = []
        for start in range(0, data.size, chunk):
            protector.feed(data[start : start + chunk])
            queued.append((batch.pending_requests, list(batch.blocks)))
        # One segment: the 0.9 s feed queues its head and middle blocks, the
        # 1.0 s feed its closing block.
        assert queued == [(0, [])] * 8 + [(1, [80, 89])] * 2
        assert protector.pending_inference_segments == 1
        batch.tick()
        (result,) = protector.collect()
        direct = deployed.protect(AudioSignal(data, config.sample_rate))
        np.testing.assert_array_equal(result.shadow_wave.data, direct.shadow_wave.data)

    def test_default_0_9_s_feed_queues_both_early_blocks_in_one_notify(self, deployed):
        """The head and the middle block the 0.9 s feed completes wake the ticker once."""
        config = deployed.config
        batch = StreamBatch(deployed.selector)
        protector = StreamingProtector(deployed, stream_batch=batch)
        chunk = config.sample_rate // 10
        data = _noise(config.segment_samples, seed=83)
        for start in range(0, 8 * chunk, chunk):
            protector.feed(data[start : start + chunk])
        assert batch.pending_requests == 0
        notify_all = batch._cond.notify_all
        notifies = []
        batch._cond.notify_all = lambda: notifies.append(1) or notify_all()
        protector.feed(data[8 * chunk : 9 * chunk])
        assert notifies == [1]
        assert [end for _, end, _ in batch._pending] == [80, 89]

    def test_head_state_is_bounded(self, deployed):
        """Between blocks a pass carries ``2·pad`` partial rows per layer, under 0.5 MB."""
        config = deployed.config
        selector = deployed.selector
        state = selector.open_pass(deployed.embedding, np.float32)
        start = 0
        for end in selector.block_bounds(config.num_frames)[:-1]:
            block = np.ones((1, config.frequency_bins, end - start), dtype=np.float32)
            for _ in selector.row_block(state, block):
                pass
            start = end
            # The partial rows and the FC rows so far: about 0.4 MB.
            assert state.frames == end and state.nbytes < 0.5e6
            assert [partial.sums.shape[2] for partial in state.partials] == [0, 6, 4, 8, 16, 4]
            assert state.output.shape[1] == end - selector.lookahead_frames

    @pytest.mark.parametrize("chunk", [1, 63, 64, 500, 11 * 64])
    def test_head_is_submitted_before_the_last_sample(self, system, tiny_config, chunk):
        """For every chunk of at most ``L·hop`` samples, segment after segment."""
        lookahead = system.selector.lookahead_frames
        assert chunk <= lookahead * tiny_config.hop_length
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        segment = tiny_config.segment_samples
        data = _noise(2 * segment, seed=73)
        heads_before_close = []
        for start in range(0, data.size, chunk):
            queued = batch.pending_requests
            completed = protector.pending_inference_segments
            protector.feed(data[start : start + chunk])
            if protector.pending_inference_segments > completed:
                # This feed closed a segment: its head must have been queued
                # by an earlier feed (heads of closed segments are never lost).
                heads_before_close.append(queued > completed)
        assert heads_before_close == [True, True]
        batch.tick()
        waves = [result.shadow_wave.data for result in protector.collect()]
        whole = system.protect(AudioSignal(data, tiny_config.sample_rate))
        np.testing.assert_array_equal(np.concatenate(waves), whole.shadow_wave.data)

    @pytest.mark.parametrize("chunk", [1, 63, 64, 100, 5 * 64, 6 * 64 - 1, 6 * 64])
    def test_middle_block_is_submitted_before_the_last_feed(self, system, tiny_config, chunk):
        """For every chunk of at most ``⌈L/2⌉·hop`` samples, both early blocks precede close."""
        bounds = system.selector.block_bounds(tiny_config.num_frames)
        assert chunk <= (system.selector.lookahead_frames + 1) // 2 * tiny_config.hop_length
        batch = _RecordingBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        segment = tiny_config.segment_samples
        data = _noise(2 * segment, seed=81)
        blocks_before_close = []
        for start in range(0, data.size, chunk):
            queued = list(batch.blocks)
            completed = protector.pending_inference_segments
            protector.feed(data[start : start + chunk])
            if protector.pending_inference_segments > completed:
                blocks_before_close.append(queued)
        early = list(bounds[:-1])
        assert blocks_before_close == [early, early + early]
        batch.tick()
        waves = [result.shadow_wave.data for result in protector.collect()]
        whole = system.protect(AudioSignal(data, tiny_config.sample_rate))
        np.testing.assert_array_equal(np.concatenate(waves), whole.shadow_wave.data)

    def test_failed_middle_block_requeues_ahead_of_its_tail(self, system, tiny_config):
        spectrogram = np.abs(
            stft(
                _noise(tiny_config.segment_samples, seed=82),
                tiny_config.n_fft,
                tiny_config.win_length,
                tiny_config.hop_length,
            )
        )
        head, middle = system.selector.block_bounds(spectrogram.shape[1])[:-1]
        clean = system.selector.shadow_spectrogram_batch(spectrogram[None], system.embedding)[0]

        class FailsOnFirstMiddle:
            config = tiny_config
            block_bounds = system.selector.block_bounds
            open_pass = system.selector.open_pass

            def __init__(self):
                self.stages = []

            def row_block(self, state, block, last=False):
                self.stages.append(state.frames)
                steps = system.selector.row_block(state, block, last)
                if self.stages == [0, head]:
                    next(steps)  # one layer runs, then the block fails
                    raise MemoryError("no room for the middle block")
                return steps

            def shadow_spectrogram_batch(self, mixed, d_vector, state):
                self.stages.append("closing")
                return system.selector.shadow_spectrogram_batch(mixed, d_vector, state)

        selector = FailsOnFirstMiddle()
        batch = StreamBatch(selector)
        request = batch.submit_block(spectrogram[:, :head], system.embedding)
        batch.submit_block(spectrogram[:, head:middle], request=request)
        with pytest.raises(MemoryError):
            batch.tick()
        assert batch.pending_requests == 1 and request.state.frames == head
        assert batch.submit(spectrogram, request=request) is request
        assert batch.tick() == 1
        assert selector.stages == [0, head, head, "closing"]
        np.testing.assert_array_equal(request.shadow_spectrogram, clean)
        assert request.state is None

    def test_set_embedding_between_head_and_tail_keeps_one_d_vector(self, system, tiny_config):
        tenant = NECSystem(tiny_config, encoder=system.encoder, selector=system.selector)
        tenant.set_embedding(system.embedding)
        other = np.random.default_rng(74).normal(size=tiny_config.embedding_dim)
        segment = tiny_config.segment_samples
        data = _noise(2 * segment, seed=75)
        protector = StreamingProtector(tenant)
        early = segment - 2 * tiny_config.hop_length  # past frame S - 1
        assert protector.feed(data[:early]) == []
        tenant.set_embedding(other)  # the first segment's head already read the d-vector
        (first,) = protector.feed(data[early:segment])
        (second,) = protector.feed(data[segment:])
        tenant.set_embedding(system.embedding)
        np.testing.assert_array_equal(
            first.shadow_wave.data,
            tenant.protect(AudioSignal(data[:segment], tiny_config.sample_rate)).shadow_wave.data,
        )
        tenant.set_embedding(other)
        np.testing.assert_array_equal(
            second.shadow_wave.data,
            tenant.protect(AudioSignal(data[segment:], tiny_config.sample_rate)).shadow_wave.data,
        )

    def test_failed_head_requeues_ahead_of_its_tail(self, system, tiny_config):
        spectrogram = np.abs(
            stft(
                _noise(tiny_config.segment_samples, seed=76),
                tiny_config.n_fft,
                tiny_config.win_length,
                tiny_config.hop_length,
            )
        )
        split = system.selector.block_bounds(spectrogram.shape[1])[0]
        clean = system.selector.shadow_spectrogram_batch(spectrogram[None], system.embedding)[0]

        class FailsOnFirstHead:
            config = tiny_config
            block_bounds = system.selector.block_bounds
            open_pass = system.selector.open_pass

            def __init__(self):
                self.stages = []

            def row_block(self, state, block, last=False):
                self.stages.append("head" if state.frames == 0 else "middle")
                steps = system.selector.row_block(state, block, last)
                if self.stages == ["head"]:
                    next(steps)  # one layer runs, then the block fails
                    raise MemoryError("no room for the head block")
                return steps

            def shadow_spectrogram_batch(self, mixed, d_vector, state):
                self.stages.append("tail")
                return system.selector.shadow_spectrogram_batch(mixed, d_vector, state)

        selector = FailsOnFirstHead()
        batch = StreamBatch(selector)
        request = batch.submit_block(spectrogram[:, :split], system.embedding)
        with pytest.raises(MemoryError):
            batch.tick()
        assert batch.pending_requests == 1 and request.state is None
        assert batch.submit(spectrogram, request=request) is request
        assert batch.tick() == 1
        # submit() queued the middle block the early submits had not.
        assert selector.stages == ["head", "head", "middle", "tail"]
        np.testing.assert_array_equal(request.shadow_spectrogram, clean)
        assert request.state is None

    def test_head_yields_to_a_tail_submitted_during_it(self, system, tiny_config):
        """A closing segment waits for one layer of another block, not the whole block."""
        rng = np.random.default_rng(79)
        frequency_bins, frames = tiny_config.spectrogram_shape
        spectrograms = [np.abs(rng.normal(size=(frequency_bins, frames))) for _ in range(2)]
        head, middle = system.selector.block_bounds(frames)[:-1]
        clean = [
            system.selector.shadow_spectrogram_batch(spectrogram[None], system.embedding)[0]
            for spectrogram in spectrograms
        ]
        layers = system.selector.num_conv_layers()
        events = []

        class SubmitsDuringHead:
            config = tiny_config
            block_bounds = system.selector.block_bounds
            open_pass = system.selector.open_pass

            def shadow_spectrogram_batch(self, mixed, d_vector, state):
                events.append("tail")
                return system.selector.shadow_spectrogram_batch(mixed, d_vector, state)

            def row_block(self, state, block, last=False):
                for step in system.selector.row_block(state, block, last):
                    events.append("head layer")
                    if len(events) == 2 * (layers + 1) + 1:  # B's first layer: A closes now
                        batch.submit(spectrograms[0], request=first)
                    yield step
                events.append("head done")

        batch = StreamBatch(SubmitsDuringHead())
        first = batch.submit_block(spectrograms[0][:, :head], system.embedding)
        batch.submit_block(spectrograms[0][:, head:middle], request=first)
        assert batch.tick() == 0 and first.tail_ready  # A's head and middle blocks
        second = batch.submit_block(spectrograms[1][:, :head], system.embedding)
        assert batch.tick() == 0  # B's head yielded after one layer
        assert not first.done and not second.tail_ready and batch.pending_requests == 2
        assert batch.tick() == 1  # A's closing block first, then the rest of B's head
        assert first.done and second.state.frames == head
        assert events[2 * (layers + 1) :] == (
            ["head layer", "tail"] + ["head layer"] * (layers - 1) + ["head done"]
        )
        batch.submit(spectrograms[1], request=second)
        assert batch.tick() == 1
        for request, want in zip((first, second), clean):
            np.testing.assert_array_equal(request.shadow_spectrogram, want)

    def test_early_block_does_not_start_while_a_tail_waits(self, system, tiny_config):
        """B's head and middle share a tick; A closing as B's head ends runs before B's middle."""
        rng = np.random.default_rng(80)
        frequency_bins, frames = tiny_config.spectrogram_shape
        spectrograms = [np.abs(rng.normal(size=(frequency_bins, frames))) for _ in range(2)]
        head, middle = system.selector.block_bounds(frames)[:-1]
        clean = [
            system.selector.shadow_spectrogram_batch(spectrogram[None], system.embedding)[0]
            for spectrogram in spectrograms
        ]
        layers = system.selector.num_conv_layers()
        events = []

        class SubmitsAsHeadEnds:
            config = tiny_config
            block_bounds = system.selector.block_bounds
            open_pass = system.selector.open_pass

            def shadow_spectrogram_batch(self, mixed, d_vector, state):
                events.append("tail")
                return system.selector.shadow_spectrogram_batch(mixed, d_vector, state)

            def row_block(self, state, block, last=False):
                name = "head" if state.frames == 0 else "middle"
                for step in system.selector.row_block(state, block, last):
                    events.append(name)
                    yield step
                events.append(name + " done")
                if name == "head" and events.count("head done") == 2:  # B's head ended: A closes
                    batch.submit(spectrograms[0], request=first)

        batch = StreamBatch(SubmitsAsHeadEnds())
        first = batch.submit_block(spectrograms[0][:, :middle], system.embedding)
        assert batch.tick() == 0 and first.tail_ready  # A's head and middle blocks
        second = batch.submit_block(spectrograms[1][:, :middle], system.embedding)
        assert batch.tick() == 0  # B's head; B's middle did not start
        assert second.state.frames == head and batch.pending_requests == 2
        assert batch.tick() == 1  # A's closing block first, then B's middle
        assert events[2 * (layers + 1) :] == (
            ["head"] * layers + ["head done", "tail"] + ["middle"] * layers + ["middle done"]
        )
        batch.submit(spectrograms[1], request=second)
        assert batch.tick() == 1
        for request, want in zip((first, second), clean):
            np.testing.assert_array_equal(request.shadow_spectrogram, want)

    def test_submit_head_rejects_bad_shapes(self, system, tiny_config):
        frequency_bins, frames = tiny_config.spectrogram_shape
        head, middle = system.selector.block_bounds(frames)[:-1]
        batch = StreamBatch(system.selector)
        with pytest.raises(ValueError):
            batch.submit_block(np.zeros((frequency_bins, frames)), system.embedding)
        assert batch.pending_requests == 0
        request = batch.submit_block(np.zeros((frequency_bins, head)), system.embedding)
        with pytest.raises(ValueError):  # the middle block is middle − head frames
            batch.submit_block(np.zeros((frequency_bins, head)), request=request)
        batch.submit_block(np.zeros((frequency_bins, middle - head)), request=request)
        with pytest.raises(ValueError, match="submit"):  # the closing block goes to submit()
            batch.submit_block(np.zeros((frequency_bins, frames - middle)), request=request)
        assert batch.pending_requests == 1 and request.queued == middle

    @pytest.mark.parametrize("frames", [15, 11, 8])
    def test_short_geometry_streaming_matches_protect(self, frames):
        """Segments so short that the head computes no rows at deep layers."""
        base = NECConfig.tiny()
        samples = base.win_length + (frames - 1) * base.hop_length
        config = replace(base, segment_seconds=samples / base.sample_rate)
        assert config.num_frames == frames
        nec = _enrolled(config, seed=77)
        audio = AudioSignal(_noise(int(3.5 * samples), seed=78), config.sample_rate)
        whole = nec.protect(audio).shadow_wave.data
        for chunk in (37, samples):
            np.testing.assert_array_equal(_streamed(StreamingProtector(nec), audio.data, chunk), whole)


class TestLatencyAccounting:
    def test_emit_latency_zero_in_immediate_mode(self, system, tiny_config):
        protector = StreamingProtector(system)
        segment = tiny_config.segment_samples
        clip = _noise(2 * segment, seed=13)
        protector.feed(clip[:segment])
        protector.feed(clip[segment:])
        # Shadows come out inside the very feed that completes each segment.
        assert protector.latency.emits == 2
        assert protector.latency.worst_emit_latency_samples == 0
        assert protector.lookahead_samples == tiny_config.segment_samples

    def test_emit_latency_counts_deferred_samples(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        segment = tiny_config.segment_samples
        assert protector.feed(_noise(segment, seed=14)) == []
        extra = 100
        protector.feed(_noise(extra, seed=15))  # arrives before the tick
        batch.tick()
        results = protector.collect()
        assert len(results) == 1
        assert protector.latency.emits == 1
        assert protector.latency.worst_emit_latency_samples == extra

    def test_collect_is_not_counted_as_a_feed(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        protector.feed(_noise(tiny_config.segment_samples, seed=16))
        batch.tick()
        assert len(protector.collect()) == 1
        assert protector.latency.feeds == 1

    def test_mean_and_worst_feed_tracked(self, system, tiny_config):
        protector = StreamingProtector(system)
        protector.feed(_noise(10, seed=17))
        protector.feed(_noise(tiny_config.segment_samples, seed=18))
        stats = protector.latency
        assert stats.feeds == 2
        assert stats.worst_feed_ms >= stats.mean_feed_ms > 0
        stats.reset()
        assert stats.feeds == stats.emits == 0
        assert stats.worst_feed_ms == stats.mean_feed_ms == 0.0


class TestStreamBatch:
    def test_coalesced_tick_is_bit_identical_across_streams(self, system, tiny_config):
        segment = tiny_config.segment_samples
        clips = [_noise(2 * segment + 77, seed=20 + index) for index in range(3)]
        immediate = []
        for clip in clips:
            protector = StreamingProtector(system)
            waves = [r.shadow_wave.data for r in protector.feed(clip)]
            tail = protector.flush()
            waves.append(tail.shadow_wave.data)
            immediate.append(np.concatenate(waves))

        batch = StreamBatch(system.selector)
        protectors = [
            StreamingProtector(system, stream_batch=batch) for _ in clips
        ]
        waves = [[] for _ in clips]
        for protector, clip in zip(protectors, clips):
            assert protector.feed(clip) == []
            assert protector.flush() is None  # tail queued for the tick
        assert batch.pending_requests == 9
        batch.tick()
        for index, protector in enumerate(protectors):
            for result in protector.collect():
                waves[index].append(result.shadow_wave.data)
            assert protector.pending_samples == 0
        for index in range(len(clips)):
            np.testing.assert_array_equal(
                np.concatenate(waves[index]), immediate[index]
            )
        assert batch.segments_coalesced == 9

    def test_cross_speaker_coalescing_uses_per_row_embeddings(self, tiny_config):
        rng = np.random.default_rng(30)
        systems = []
        for speaker_seed in (31, 32):
            built = NECSystem(tiny_config, seed=0)  # identical selector weights
            built.enroll(
                [
                    AudioSignal(
                        rng.normal(scale=0.1, size=tiny_config.segment_samples),
                        tiny_config.sample_rate,
                    )
                ]
            )
            systems.append(built)
        assert not np.array_equal(systems[0].embedding, systems[1].embedding)

        clips = [
            AudioSignal(_noise(tiny_config.segment_samples, seed=33 + index),
                        tiny_config.sample_rate)
            for index in range(2)
        ]
        dedicated = [s.protect(c) for s, c in zip(systems, clips)]

        batch = StreamBatch(systems[0].selector)  # one shared deployed selector
        protectors = [
            StreamingProtector(s, stream_batch=batch) for s in systems
        ]
        for protector, clip in zip(protectors, clips):
            protector.feed(clip)
        assert batch.tick() == 2
        for protector, reference in zip(protectors, dedicated):
            (result,) = protector.collect()
            np.testing.assert_array_equal(
                result.shadow_wave.data, reference.shadow_wave.data
            )
            np.testing.assert_array_equal(
                result.shadow_spectrogram, reference.shadow_spectrogram
            )

    def test_collect_preserves_stream_order_and_waits_for_tick(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        segment = tiny_config.segment_samples
        protector.feed(_noise(segment, seed=40))
        assert protector.collect() == []  # nothing ticked yet
        protector.feed(_noise(segment, seed=41))
        batch.tick()
        results = protector.collect()
        assert len(results) == 2
        assert protector.collect() == []
        assert protector.segments_emitted == 2

    def test_empty_tick_counts(self, system):
        batch = StreamBatch(system.selector)
        assert batch.tick() == 0
        assert batch.ticks == batch.empty_ticks == 1
        assert batch.max_batch_size == 0

    def test_tick_runs_one_segment_per_request(self, system, tiny_config):
        spectrogram = np.abs(
            stft(
                _noise(tiny_config.segment_samples, seed=60),
                tiny_config.n_fft,
                tiny_config.win_length,
                tiny_config.hop_length,
            )
        )
        batch = StreamBatch(system.selector)
        request = batch.submit(spectrogram, system.embedding)
        assert batch.tick() == 1
        assert request.done and request.shadow_spectrogram.shape == spectrogram.shape

    def test_failed_tick_requeues_ahead_of_later_submits(self, system, tiny_config):
        """The failed request and those behind it run first, in order, on the next tick."""
        frequency_bins, frames = tiny_config.spectrogram_shape
        rng = np.random.default_rng(63)
        spectrograms = [np.abs(rng.normal(size=(frequency_bins, frames))) for _ in range(4)]
        clean = [
            system.selector.shadow_spectrogram_batch(spectrogram[None], system.embedding)[0]
            for spectrogram in spectrograms
        ]

        class FailsOnSecondPass:
            config = tiny_config
            block_bounds = system.selector.block_bounds
            open_pass = system.selector.open_pass
            row_block = system.selector.row_block

            def __init__(self):
                self.inputs = []

            def shadow_spectrogram_batch(self, mixed, d_vector, state):
                self.inputs.append(mixed[0])
                if len(self.inputs) == 2:
                    raise MemoryError("no room for the pass")
                return system.selector.shadow_spectrogram_batch(mixed, d_vector, state)

        selector = FailsOnSecondPass()
        batch = StreamBatch(selector)
        requests = [batch.submit(spectrogram, system.embedding) for spectrogram in spectrograms[:3]]
        with pytest.raises(MemoryError):
            batch.tick()
        assert [request.done for request in requests] == [True, False, False]
        assert batch.pending_requests == 2
        requests.append(batch.submit(spectrograms[3], system.embedding))
        assert batch.tick() == 3
        # Passes ran 0, 1 (raised), then 1, 2, 3.
        assert len(selector.inputs) == 5
        for ran, index in zip(selector.inputs, (0, 1, 1, 2, 3)):
            np.testing.assert_array_equal(ran, spectrograms[index])
        for request, want in zip(requests, clean):
            np.testing.assert_array_equal(request.shadow_spectrogram, want)

    def test_submit_after_close_raises(self, system, tiny_config):
        frequency_bins, frames = tiny_config.spectrogram_shape
        batch = StreamBatch(system.selector)
        batch.close()
        with pytest.raises(RuntimeError, match="closed"):
            batch.submit(np.zeros((frequency_bins, frames)), system.embedding)
        batch.close()  # idempotent

    def test_submit_rejects_bad_shapes(self, system, tiny_config):
        """One request is one ``(F, T)`` segment with one d-vector."""
        frequency_bins, frames = tiny_config.spectrogram_shape
        batch = StreamBatch(system.selector)
        for shape in ((1, frequency_bins, frames), (frequency_bins,), (frequency_bins + 1, frames)):
            with pytest.raises(ValueError):
                batch.submit(np.zeros(shape), system.embedding)
        with pytest.raises(ValueError):
            batch.submit(np.zeros((frequency_bins, frames)), system.embedding[:-1])
        assert batch.pending_requests == 0

    def test_forward_batch_validates_per_row_vectors(self, system, tiny_config):
        frequency_bins, frames = tiny_config.spectrogram_shape
        specs = np.zeros((2, frequency_bins, frames))
        with pytest.raises(ValueError):
            system.selector.forward_batch(specs, np.zeros((3, tiny_config.embedding_dim)))
        with pytest.raises(ValueError):
            system.selector.forward_batch(
                specs, np.zeros((1, 1, tiny_config.embedding_dim))
            )

class TestFlushSemantics:
    def test_failed_feed_then_flush_raises_until_retried(self, tiny_config):
        unenrolled = NECSystem(tiny_config, seed=0)
        protector = StreamingProtector(unenrolled)
        audio = _noise(tiny_config.segment_samples + 9, seed=60)
        with pytest.raises(RuntimeError):
            protector.feed(audio)
        with pytest.raises(RuntimeError):
            protector.flush()  # a completed segment is still queued
        # A flush that fails counts its tail's stream samples, not the pad.
        tail_only = StreamingProtector(unenrolled)
        partial = tiny_config.segment_samples // 3
        tail_only.feed(audio[:partial])
        with pytest.raises(RuntimeError):
            tail_only.flush()
        assert tail_only.pending_samples == partial
        rng = np.random.default_rng(61)
        unenrolled.enroll(
            [
                AudioSignal(
                    rng.normal(size=tiny_config.segment_samples),
                    tiny_config.sample_rate,
                )
            ]
        )
        assert len(protector.feed(np.zeros(0))) == 1
        tail = protector.flush()
        assert tail.shadow_wave.num_samples == 9
        (retried,) = tail_only.feed(np.zeros(0))
        assert retried.shadow_wave.num_samples == partial
        assert tail_only.pending_samples == 0

    def test_deferred_flush_tail_is_trimmed(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        pending = 123
        protector.feed(_noise(pending, seed=62))
        assert protector.flush() is None
        assert protector.pending_samples == pending
        batch.tick()
        (tail,) = protector.collect()
        assert tail.shadow_wave.num_samples == pending
        assert tail.mixed_audio.num_samples == pending
        assert protector.pending_samples == 0
