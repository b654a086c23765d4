"""Tests for the batched inference engine: protect, protect_batch, streaming.

The engine's contract is strict: every batched/streaming path must be
*bit-identical* to the segment-at-a-time oracle (``protect_looped`` in
``tests/oracles.py``), so these tests assert exact array equality, not
closeness.  The oracle runs the Selector one segment at a time through the
same ``shadow_spectrogram_batch``, so that equality pins segmentation, the
STFT, the iSTFT and the assembly; the Selector's numerics are pinned
separately against ``selector_reference`` and ``conv2d_reference`` (at 1e-12
relative, ``TestBatchedSelector`` and ``TestConvInfer``).
"""

from dataclasses import replace

import numpy as np
import pytest
from oracles import conv2d_reference, protect_looped, protect_segment, selector_reference

from repro.audio.signal import AudioSignal
from repro.core import (
    NECConfig,
    NECSystem,
    ProtectionResult,
    StreamingProtector,
    superpose_spectrograms,
)
from repro.core import pipeline as pipeline_module
from repro.core.selector import ROWS_PER_PASS, Selector
from repro.nn import Conv2d, Tensor, clear_im2col_buffer_cache
from repro.nn import conv as conv_module
from repro.nn.conv import PartialRows


@pytest.fixture(scope="module")
def system(tiny_config):
    """An enrolled (untrained) NEC system at the tiny geometry."""
    rng = np.random.default_rng(11)
    nec = NECSystem(tiny_config, seed=0)
    reference = AudioSignal(
        rng.normal(scale=0.1, size=tiny_config.segment_samples), tiny_config.sample_rate
    )
    nec.enroll([reference])
    return nec


@pytest.fixture(scope="module")
def system32(system):
    """``system`` serving in float32: the same Selector, encoder and d-vector."""
    nec = NECSystem(
        replace(system.config, inference_dtype="float32"),
        encoder=system.encoder,
        selector=system.selector,
    )
    nec.set_embedding(system.embedding)
    return nec


def _noise(config, num_samples, seed=5):
    rng = np.random.default_rng(seed)
    return AudioSignal(rng.normal(scale=0.1, size=num_samples), config.sample_rate)


def _assert_matches_looped(nec, audio):
    """``protect(audio)`` equals the looped oracle bit for bit; returns it."""
    looped = protect_looped(nec, audio)
    batched = nec.protect(audio)
    assert batched.shadow_spectrogram.dtype == nec.config.inference_dtype
    assert batched.shadow_wave.num_samples == audio.num_samples
    np.testing.assert_array_equal(looped.mixed_spectrogram, batched.mixed_spectrogram)
    np.testing.assert_array_equal(looped.shadow_spectrogram, batched.shadow_spectrogram)
    np.testing.assert_array_equal(looped.record_spectrogram, batched.record_spectrogram)
    np.testing.assert_array_equal(looped.shadow_wave.data, batched.shadow_wave.data)
    return batched


class TestBatchedEquivalence:
    def test_multi_segment_protect_matches_looped_exactly(self, system, system32, tiny_config):
        """Bit-identical in both inference dtypes, on whole and partial last segments."""
        segment = tiny_config.segment_samples
        for num_samples in (3 * segment, int(3.4 * segment)):
            audio = _noise(tiny_config, num_samples)
            for nec in (system, system32):
                _assert_matches_looped(nec, audio)

    def test_segment_matrix_rows_match_protect_segment(self, system, tiny_config):
        """``protect_batch`` of one-segment clips: each matrix row equals that
        segment protected on its own."""
        segment = tiny_config.segment_samples
        clips = [_noise(tiny_config, segment, seed=s) for s in range(3)]
        batched = system.protect_batch(clips)
        for clip, result in zip(clips, batched):
            single = protect_segment(system, clip)
            np.testing.assert_array_equal(single.shadow_spectrogram, result.shadow_spectrogram)
            np.testing.assert_array_equal(single.shadow_wave.data, result.shadow_wave.data)

    def test_matrix_past_rows_per_pass_matches_oracle(self, system, tiny_config):
        """A clip of more segments than one Selector pass holds."""
        audio = _noise(tiny_config, (ROWS_PER_PASS + 2) * tiny_config.segment_samples)
        clear_im2col_buffer_cache()
        _assert_matches_looped(system, audio)
        cached_rows = [key[0] for key in conv_module._workspace_store()]  # key[0] is N
        assert cached_rows and max(cached_rows) <= ROWS_PER_PASS

    def test_segment_matrix_requires_enrollment(self, tiny_config, monkeypatch):
        """An unenrolled ``protect_batch`` raises before any transform runs."""

        def no_stft(*args, **kwargs):
            raise AssertionError("the STFT ran before the enrollment check")

        monkeypatch.setattr(pipeline_module, "batch_stft", no_stft)
        clip = _noise(tiny_config, tiny_config.segment_samples)
        with pytest.raises(RuntimeError, match="no speaker enrolled"):
            NECSystem(tiny_config).protect_batch([clip, clip])


class TestSegmentationEdgeCases:
    """Clip lengths around the segment boundary, in both inference dtypes,
    against the looped oracle (which cuts the clip itself)."""

    def test_empty_audio(self, system, system32, tiny_config):
        empty = AudioSignal(np.zeros(0), tiny_config.sample_rate)
        for nec in (system, system32):
            batched = _assert_matches_looped(nec, empty)
            # One all-zero segment is still analysed.
            assert batched.mixed_spectrogram.shape == tiny_config.spectrogram_shape

    def test_exactly_one_segment(self, system, system32, tiny_config):
        audio = _noise(tiny_config, tiny_config.segment_samples)
        for nec in (system, system32):
            batched = _assert_matches_looped(nec, audio)
            assert batched.mixed_spectrogram.shape == tiny_config.spectrogram_shape

    def test_shorter_than_one_segment(self, system, system32, tiny_config):
        segment = tiny_config.segment_samples
        for num_samples in (1, segment // 3, segment - 1):
            audio = _noise(tiny_config, num_samples)
            for nec in (system, system32):
                # The shadow wave is trimmed back to the input length (checked
                # in the helper), but the spectrogram covers the full
                # zero-padded segment.
                batched = _assert_matches_looped(nec, audio)
                assert batched.mixed_spectrogram.shape == tiny_config.spectrogram_shape

    def test_non_multiple_length(self, system, system32, tiny_config):
        segment = tiny_config.segment_samples
        for num_samples, segments in ((segment + 1, 2), (2 * segment + segment // 2, 3)):
            audio = _noise(tiny_config, num_samples)
            for nec in (system, system32):
                batched = _assert_matches_looped(nec, audio)
                # Whole segments' worth of frames (the last zero-padded).
                assert batched.mixed_spectrogram.shape[1] == segments * tiny_config.num_frames

    def test_sample_rate_mismatch_rejected(self, system, tiny_config):
        with pytest.raises(ValueError):
            system.protect(AudioSignal(np.zeros(100), tiny_config.sample_rate * 2))


class TestProtectBatch:
    def test_matches_individual_protect(self, system, tiny_config):
        segment = tiny_config.segment_samples
        clips = [
            _noise(tiny_config, segment // 2, seed=1),
            _noise(tiny_config, 2 * segment, seed=2),
            _noise(tiny_config, segment + 7, seed=3),
        ]
        batched = system.protect_batch(clips)
        assert len(batched) == len(clips)
        for clip, result in zip(clips, batched):
            single = system.protect(clip)
            np.testing.assert_array_equal(single.shadow_wave.data, result.shadow_wave.data)
            np.testing.assert_array_equal(
                single.shadow_spectrogram, result.shadow_spectrogram
            )

    def test_empty_batch(self, system):
        assert system.protect_batch([]) == []


class TestStreamingProtector:
    def test_chunked_stream_matches_protect(self, system, tiny_config):
        audio = _noise(tiny_config, int(2.7 * tiny_config.segment_samples))
        whole = system.protect(audio)
        protector = StreamingProtector(system)
        waves = []
        position = 0
        for size in (13, 1000, tiny_config.segment_samples, 77, 4000, audio.num_samples):
            chunk = audio.data[position : position + size]
            position += len(chunk)
            for result in protector.feed(chunk):
                waves.append(result.shadow_wave.data)
        tail = protector.flush()
        if tail is not None:
            waves.append(tail.shadow_wave.data)
        np.testing.assert_array_equal(np.concatenate(waves), whole.shadow_wave.data)

    def test_carried_over_state(self, system, tiny_config):
        protector = StreamingProtector(system)
        half = tiny_config.segment_samples // 2
        assert protector.feed(np.zeros(half)) == []
        assert protector.pending_samples == half
        results = protector.feed(np.zeros(tiny_config.segment_samples))
        assert len(results) == 1
        assert protector.pending_samples == half
        assert protector.segments_emitted == 1
        assert protector.samples_fed == half + tiny_config.segment_samples

    def test_multiple_segments_in_one_feed(self, system, tiny_config):
        protector = StreamingProtector(system)
        audio = _noise(tiny_config, 3 * tiny_config.segment_samples)
        results = protector.feed(audio)
        assert len(results) == 3
        assert protector.pending_samples == 0
        assert protector.flush() is None

    def test_flush_trims_to_pending(self, system, tiny_config):
        protector = StreamingProtector(system)
        protector.feed(np.zeros(123))
        tail = protector.flush()
        assert tail is not None
        assert tail.shadow_wave.num_samples == 123
        assert protector.pending_samples == 0

    def test_reset_clears_state(self, system, tiny_config):
        protector = StreamingProtector(system)
        protector.feed(np.zeros(10))
        protector.reset()
        assert protector.pending_samples == 0
        assert protector.samples_fed == 0
        assert protector.flush() is None

    def test_sample_rate_checked_for_audio_chunks(self, system, tiny_config):
        protector = StreamingProtector(system)
        with pytest.raises(ValueError):
            protector.feed(AudioSignal(np.zeros(10), tiny_config.sample_rate * 2))

    def test_failed_feed_keeps_buffer_for_retry(self, tiny_config):
        """A feed that errors (here: not enrolled) must not drop stream audio."""
        unenrolled = NECSystem(tiny_config, seed=0)
        protector = StreamingProtector(unenrolled)
        audio = _noise(tiny_config, tiny_config.segment_samples + 5)
        with pytest.raises(RuntimeError):
            protector.feed(audio)
        assert protector.pending_samples == audio.num_samples
        rng = np.random.default_rng(11)
        unenrolled.enroll(
            [AudioSignal(rng.normal(size=tiny_config.segment_samples), tiny_config.sample_rate)]
        )
        results = protector.feed(np.zeros(0))  # retry with no new samples
        assert len(results) == 1
        np.testing.assert_array_equal(
            results[0].shadow_wave.data,
            protect_segment(
                unenrolled,
                AudioSignal(audio.data[: tiny_config.segment_samples], tiny_config.sample_rate),
            ).shadow_wave.data,
        )

    def test_failed_tick_requeues_segments_for_retry(self, system, tiny_config, monkeypatch):
        """An inference pass that raises must not drop the segments it held."""
        audio = _noise(tiny_config, 2 * tiny_config.segment_samples, seed=21)
        expected = system.protect(audio).shadow_wave.data
        protector = StreamingProtector(system)

        def failing_pass(*args):
            raise MemoryError("no room for the pass")

        monkeypatch.setattr(system.selector, "shadow_spectrogram_batch", failing_pass)
        with pytest.raises(MemoryError):
            protector.feed(audio)
        assert protector.pending_samples == audio.num_samples
        monkeypatch.undo()
        results = protector.feed(np.zeros(0))
        assert len(results) == 2
        np.testing.assert_array_equal(
            np.concatenate([result.shadow_wave.data for result in results]), expected
        )

    def test_sub_hop_chunks_emit_nothing_until_full_segment(self, system, tiny_config):
        """Chunks smaller than one STFT hop must just accumulate — and the
        eventual output must still match protecting the whole stream."""
        hop = tiny_config.hop_length
        size = hop - 1
        audio = _noise(tiny_config, tiny_config.segment_samples + 3 * size)
        whole = system.protect(audio)
        protector = StreamingProtector(system)
        waves = []
        fed = 0
        for start in range(0, audio.num_samples, size):
            results = protector.feed(audio.data[start : start + size])
            fed = min(start + size, audio.num_samples)
            if fed < tiny_config.segment_samples:
                assert results == []
                assert protector.pending_samples == fed
            waves.extend(result.shadow_wave.data for result in results)
        assert protector.segments_emitted == 1
        tail = protector.flush()
        assert tail is not None
        waves.append(tail.shadow_wave.data)
        np.testing.assert_array_equal(np.concatenate(waves), whole.shadow_wave.data)

    def test_flush_result_covers_exactly_the_unpadded_tail(self, system, tiny_config):
        protector = StreamingProtector(system)
        tail_audio = _noise(tiny_config, 123, seed=9)
        protector.feed(tail_audio)
        tail = protector.flush()
        assert tail is not None
        # The shadow wave covers the fed samples, without the zero pad.
        assert tail.shadow_wave.num_samples == 123
        # The spectrograms cover the padded segment (full analysis geometry).
        assert tail.shadow_spectrogram.shape == tuple(tiny_config.spectrogram_shape)
        # Flushing an already-empty stream yields nothing.
        assert protector.flush() is None
        assert protector.pending_samples == 0

    def test_emitted_shadow_dtypes_under_both_policies(self, system, system32, tiny_config):
        """Emitted shadow waves and the internal spectrograms follow
        ``config.inference_dtype``."""
        audio = _noise(tiny_config, tiny_config.segment_samples + 50, seed=13)

        def stream(protector):
            results = protector.feed(audio)
            results.append(protector.flush())
            return results

        for result in stream(StreamingProtector(system)):
            assert result.shadow_wave.data.dtype == np.float64
            assert result.shadow_spectrogram.dtype == np.float64
        for result in stream(StreamingProtector(system32)):
            assert result.shadow_wave.data.dtype == np.float32
            assert result.shadow_spectrogram.dtype == np.float32
            assert result.record_spectrogram.dtype == np.float32


#: Relative gate of a float32 inference pass against the float64 reference
#: (the shadow-waveform tolerance of ``test_precision.py``).
FLOAT32_RTOL = 1e-4


def _early_state(selector, spectrograms, d_vector, frames):
    """A :class:`PassState` after the grid's blocks over the first ``frames`` frames."""
    state = selector.open_pass(d_vector, spectrograms.dtype)
    start = 0
    for end in selector.block_bounds(spectrograms.shape[2]):
        if end <= frames:
            for _ in selector.row_block(state, spectrograms[:, :, start:end]):
                pass
            start = end
    return state


def _assert_relative(actual, expected, tolerance=1e-12):
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= tolerance * np.max(np.abs(expected))


class TestRecordSpectrogram:
    """``record_spectrogram`` is derived on access, not stored."""

    def test_is_not_a_constructor_argument(self, system, tiny_config):
        result = system.protect(_noise(tiny_config, 100))
        with pytest.raises(TypeError):
            ProtectionResult(
                mixed_spectrogram=result.mixed_spectrogram,
                shadow_spectrogram=result.shadow_spectrogram,
                shadow_wave=result.shadow_wave,
                record_spectrogram=result.record_spectrogram,
            )
        with pytest.raises(AttributeError):
            result.record_spectrogram = result.mixed_spectrogram

    def test_equals_the_superposition_on_every_path(self, system, system32, tiny_config):
        audio = _noise(tiny_config, int(1.6 * tiny_config.segment_samples), seed=17)
        for nec in (system, system32):
            results = [nec.protect(audio), *nec.protect_batch([audio, audio])]
            protector = StreamingProtector(nec)
            results += protector.feed(audio)
            results.append(protector.flush())
            assert len(results) == 5
            for result in results:
                expected = superpose_spectrograms(
                    result.mixed_spectrogram, result.shadow_spectrogram
                )
                np.testing.assert_array_equal(result.record_spectrogram, expected)
                assert result.record_spectrogram.dtype == nec.config.inference_dtype


class TestBatchedSelector:
    def test_forward_batch_matches_forward(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        freq_bins, frames = tiny_config.spectrogram_shape
        rng = np.random.default_rng(0)
        specs = np.abs(rng.normal(size=(3, freq_bins, frames)))
        d_vector = rng.normal(size=tiny_config.embedding_dim)
        batched = selector.forward_batch(specs, d_vector)
        assert batched.shape == (3, frames, freq_bins)
        for row in range(3):
            _assert_relative(batched[row], selector_reference(selector, specs[row], d_vector).data)

    def test_forward_batch_spectrogram_mode(self, tiny_config):
        config = tiny_config.with_output_mode("spectrogram")
        selector = Selector(config, seed=0)
        freq_bins, frames = config.spectrogram_shape
        rng = np.random.default_rng(1)
        specs = np.abs(rng.normal(size=(2, freq_bins, frames)))
        d_vector = rng.normal(size=config.embedding_dim)
        batched = selector.shadow_spectrogram_batch(specs, d_vector)
        for row in range(2):
            # Spectrogram mode uses the head output as the (F, T) shadow.
            reference = selector_reference(selector, specs[row], d_vector).data.T
            _assert_relative(batched[row], reference)

    @pytest.mark.parametrize("mode", ["mask", "spectrogram"])
    def test_forward_batch_within_1e12_of_selector_reference(self, tiny_config, mode):
        """Every row of a multi-pass batch with per-segment d-vectors."""
        config = tiny_config.with_output_mode(mode)
        selector = Selector(config, seed=3)
        freq_bins, frames = config.spectrogram_shape
        rows = ROWS_PER_PASS + 2
        rng = np.random.default_rng(2)
        specs = np.abs(rng.normal(size=(rows, freq_bins, frames)))
        d_vectors = rng.normal(size=(rows, config.embedding_dim))
        batched = selector.forward_batch(specs, d_vectors)
        for row in range(rows):
            _assert_relative(
                batched[row], selector_reference(selector, specs[row], d_vectors[row]).data
            )

    @pytest.mark.parametrize("frames", [15, 11, 8])
    def test_short_geometry_matches_selector_reference(self, tiny_config, frames):
        """Deep layers finish no row in the early blocks (``T − L ≤ 0`` for 11 and 8 frames)."""
        bounds = {15: (4, 9, 15), 11: (5, 11), 8: (2, 8)}[frames]
        selector = Selector(tiny_config, seed=4)
        freq_bins = tiny_config.frequency_bins
        rng = np.random.default_rng(5)
        specs = np.abs(rng.normal(size=(2, freq_bins, frames)))
        d_vector = rng.normal(size=tiny_config.embedding_dim)
        assert selector.lookahead_frames == 11 and selector.block_bounds(frames) == bounds
        batched = selector.forward_batch(specs, d_vector)
        for row in range(2):
            _assert_relative(batched[row], selector_reference(selector, specs[row], d_vector).data)
            # Early blocks run on their own give the same bits.
            for early in bounds[:-1]:
                state = _early_state(selector, specs[row : row + 1], d_vector, early)
                assert state.frames == early
                np.testing.assert_array_equal(
                    selector.forward_batch(specs[row : row + 1], d_vector, state)[0],
                    batched[row],
                )

    def test_forward_batch_rejects_a_mismatched_head(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        freq_bins, frames = tiny_config.spectrogram_shape
        specs = np.ones((2, freq_bins, frames))
        d_vector = np.zeros(tiny_config.embedding_dim)
        split = selector.block_bounds(frames)[0]
        off_grid = selector.open_pass(d_vector, specs.dtype)
        for _ in selector.row_block(off_grid, specs[:1, :, : split - 1]):
            pass
        with pytest.raises(ValueError):
            selector.forward_batch(specs[:1], d_vector, off_grid)
        head = _early_state(selector, specs[:1], d_vector, split)
        with pytest.raises(ValueError):
            selector.forward_batch(specs, d_vector, head)
        for bad in (specs[:, :, :split], specs[:1, :-1, :split]):  # two rows; wrong bins
            with pytest.raises(ValueError):
                next(selector.row_block(selector.open_pass(d_vector, bad.dtype), bad))

    def test_a_failed_block_leaves_the_state_as_it_was(self, tiny_config, monkeypatch):
        selector = Selector(tiny_config, seed=6)
        rng = np.random.default_rng(7)
        specs = np.abs(rng.normal(size=(1,) + tiny_config.spectrogram_shape))
        d_vector = rng.normal(size=tiny_config.embedding_dim)
        whole = selector.forward_batch(specs, d_vector)
        bounds = selector.block_bounds(specs.shape[2])
        head = _early_state(selector, specs, d_vector, bounds[0])
        partials = [(partial.seen, partial.sums.copy()) for partial in head.partials]
        output = head.output.copy()

        def fail(*args, **kwargs):
            raise MemoryError("no room for the middle block")

        monkeypatch.setattr(selector.conv_out, "infer", fail)
        with pytest.raises(MemoryError):
            selector.forward_batch(specs, d_vector, head)
        monkeypatch.undo()
        assert head.frames == bounds[0]
        assert head.output.shape[1] == bounds[0] - selector.lookahead_frames
        np.testing.assert_array_equal(head.output, output)
        for partial, (seen, sums) in zip(head.partials, partials):
            assert partial.seen == seen
            np.testing.assert_array_equal(partial.sums, sums)
        np.testing.assert_array_equal(selector.forward_batch(specs, d_vector, head), whole)

    def test_forward_batch_rejects_bad_shapes(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        with pytest.raises(ValueError):
            selector.forward_batch(np.zeros((5, 4)), np.zeros(tiny_config.embedding_dim))
        with pytest.raises(ValueError):
            selector.forward_batch(np.zeros((1, 10, 5)), np.zeros(tiny_config.embedding_dim))

    def test_forward_batch_empty_batch(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        freq_bins, frames = tiny_config.spectrogram_shape
        out = selector.forward_batch(np.zeros((0, freq_bins, frames)), np.zeros(tiny_config.embedding_dim))
        assert out.shape == (0, frames, freq_bins)


class TestGemmRows:
    """Every input row goes through each convolution's GEMMs once per pass, however blocked."""

    def test_forward_batch_gemms_cover_only_real_input_rows(self, monkeypatch):
        """One ``forward_batch`` row at ``default()``: no halo row, no zero pad row.

        A layer's GEMM columns are plane rows × padded width, one GEMM per
        group of stacked taps; over a pass they total the layer's 99 input
        rows × its padded width × its tap groups, over the grid's 3 blocks.
        """
        config = NECConfig.default()
        selector = Selector(config, seed=0)
        rng = np.random.default_rng(8)
        frames, bins = config.num_frames, config.frequency_bins
        segment = np.abs(rng.normal(size=(1, bins, frames))).astype(np.float32)
        d_vector = rng.normal(size=config.embedding_dim).astype(np.float32)
        names = {
            id(layer): name
            for name, layer in [
                ("conv_freq", selector.conv_freq),
                ("conv_time", selector.conv_time),
                *((f"dilated.{i}", layer) for i, layer in enumerate(selector.dilated)),
                ("conv_out", selector.conv_out),
            ]
        }
        columns = {name: 0 for name in names.values()}
        calls = {name: 0 for name in names.values()}
        current = []
        matmul = np.matmul

        def counted(a, b, *args, **kwargs):
            if current:
                columns[current[-1]] += b.shape[-1]
            return matmul(a, b, *args, **kwargs)

        def infer_of(layer):
            infer = layer.infer

            def traced(x, *args, **kwargs):
                current.append(names[id(layer)])
                calls[current[-1]] += 1
                try:
                    return infer(x, *args, **kwargs)
                finally:
                    current.pop()

            return traced

        for layer in selector._convs():
            monkeypatch.setattr(layer, "infer", infer_of(layer))
        monkeypatch.setattr(np, "matmul", counted)
        selector.forward_batch(segment, d_vector)
        monkeypatch.undo()
        # padded width = 161 + 2·side; tap groups: 1 for the 1×7 and 5×5
        # layers (all taps stacked), 7 for the 7×1 layer (one GEMM per tap).
        assert columns == {
            "conv_freq": frames * 167 * 1,
            "conv_time": frames * 161 * 7,
            "dilated.0": frames * 165 * 1,
            "dilated.1": frames * 165 * 1,
            "dilated.2": frames * 165 * 1,
            "conv_out": frames * 165 * 1,
        }
        assert set(calls.values()) == {len(selector.block_bounds(frames))} == {3}


class TestConvInfer:
    # Explicit ids keep the names these cases had while Conv2d took a stride.
    @pytest.mark.parametrize(
        "kernel,padding,dilation",
        [
            pytest.param((3, 3), (1, 1), (1, 1), id="kernel0-1-padding0-dilation0"),
            pytest.param((1, 7), (0, 3), (1, 1), id="kernel1-1-padding1-dilation1"),
            pytest.param((5, 5), (8, 2), (4, 1), id="kernel2-1-padding2-dilation2"),
            pytest.param((3, 3), "same", (3, 3), id="kernel4-1-same-dilation4"),
            # Padding past k_eff - 1: the first and last rows read only zero padding.
            pytest.param((1, 3), (2, 3), (1, 1), id="over-padded-1x3"),
        ],
    )
    def test_infer_matches_forward(self, kernel, padding, dilation):
        rng = np.random.default_rng(0)
        conv = Conv2d(3, 4, kernel, padding=padding, dilation=dilation, rng=rng)
        conv.bias.data = rng.normal(size=conv.bias.data.shape)
        x = rng.normal(size=(2, 3, 20, 17))
        _assert_relative(conv.infer(x), conv2d_reference(conv, Tensor(x)).data)

    def test_pad_rows_runs_a_block_of_rows(self):
        """Blocks of rows carry the partial sums of ``2·pad`` unfinished output rows.

        Each block sends only its own input rows through the GEMM; an output
        row comes out once the rows ``pad`` below it have arrived, all of
        them in the last block.
        """
        rng = np.random.default_rng(1)
        conv = Conv2d(3, 4, (5, 5), padding=(8, 2), dilation=(4, 1), rng=rng)
        conv.bias.data = rng.normal(size=conv.bias.data.shape)
        x = rng.normal(size=(1, 3, 40, 17))
        full = conv2d_reference(conv, Tensor(x)).data
        pad = 8
        partial = PartialRows()
        start = 0
        for end in (3, 25, 31, 40):  # the first block finishes no row
            last = end == 40
            rows, partial = conv.infer(x[:, :, start:end], partial=partial, last=last)
            done = max(start - pad, 0)
            finished = 40 if last else end - pad
            assert rows.shape[2] == max(finished, 0) - done
            if rows.shape[2]:
                _assert_relative(rows, full[:, :, done:finished])
            assert partial.seen == end
            if not last:
                assert partial.sums.shape[2] == end + pad - max(end - pad, 0)
            start = end
        with pytest.raises(ValueError, match="PartialRows"):
            conv.infer(x, last=False)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize(
        "in_channels,out_channels,kernel,padding,dilation,shape",
        [
            # kw == 1: the gather is the padded buffer itself, no copy.
            pytest.param(3, 4, (7, 1), (3, 0), (1, 1), (2, 3, 20, 17), id="time-7x1"),
            # kh == kw == 1 (VoiceFilter's conv_out): a single GEMM, nothing cropped.
            pytest.param(3, 4, (1, 1), (0, 0), (1, 1), (2, 3, 20, 17), id="pointwise-1x1"),
            # Width dilation: the horizontal taps are 2 apart in the flat rows.
            pytest.param(3, 4, (3, 3), (1, 2), (1, 2), (2, 3, 20, 17), id="width-dilated-3x3"),
            # The Selector's deployment layers at NECConfig.default()'s image.
            pytest.param(
                16, 16, (5, 5), (8, 2), (4, 1), (1, 16, 99, 161), id="deployment-dilated-4"
            ),
            pytest.param(
                16, 2, (5, 5), "same", (1, 1), (1, 16, 99, 161), id="deployment-conv-out"
            ),
        ],
    )
    def test_infer_matches_reference_geometry(
        self, in_channels, out_channels, kernel, padding, dilation, shape, precision
    ):
        rng = np.random.default_rng(1)
        conv = Conv2d(
            in_channels, out_channels, kernel, padding=padding, dilation=dilation, rng=rng
        )
        conv.bias.data = rng.normal(size=conv.bias.data.shape)
        x = rng.normal(size=shape)
        expected = conv2d_reference(conv, Tensor(x)).data
        actual = conv.infer(x.astype(precision))
        assert actual.dtype == np.dtype(precision)
        _assert_relative(actual, expected, 1e-12 if precision == "float64" else FLOAT32_RTOL)

    def test_infer_rejects_non_4d(self):
        conv = Conv2d(1, 1, (3, 3))
        with pytest.raises(ValueError):
            conv.infer(np.zeros((3, 3)))

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_infer_fuses_relu(self, precision):
        """``activation="relu"`` is the ReLU of the plain pass, as in ``forward``."""
        rng = np.random.default_rng(2)
        conv = Conv2d(3, 4, (5, 5), padding=(4, 2), dilation=(2, 1), rng=rng)
        conv.bias.data = rng.normal(size=conv.bias.data.shape)
        x = rng.normal(size=(1, 3, 12, 9)).astype(precision)
        fused = conv.infer(x, activation="relu")
        assert fused.dtype == np.dtype(precision)
        np.testing.assert_array_equal(fused, np.maximum(conv.infer(x), 0.0))
        with pytest.raises(ValueError, match="activation"):
            conv.infer(x, activation="tanh")
