"""Tests for the NEC core: config, encoders, selector, overshadowing, training, pipeline."""

import numpy as np
import pytest

from repro.audio import AudioSignal, SyntheticCorpus, joint_conversation
from repro.channel import Recorder, nec_speaker, record_over_the_air
from repro.core import (
    NECConfig,
    NECSystem,
    NeuralEncoder,
    Selector,
    SelectorTrainer,
    SpectralEncoder,
    apply_offsets,
    complex_shadow,
    offset_study,
    shadow_waveform,
    superpose_spectrograms,
)
from repro.core.config import TrainingConfig
from repro.core.training import ExampleStream
from repro.dsp.stft import batch_stft, istft, magnitude, magnitude_spectrogram
from repro.metrics import cosine_similarity, sdr


class TestConfig:
    def test_paper_geometry(self):
        config = NECConfig.paper()
        assert config.frequency_bins == 601
        assert config.segment_samples == 48000
        assert config.frame_resolution_ms == pytest.approx(10.0)
        assert config.frequency_resolution_hz == pytest.approx(13.33, abs=0.05)

    def test_tiny_geometry_is_consistent(self, tiny_config):
        freq_bins, frames = tiny_config.spectrogram_shape
        assert freq_bins == tiny_config.n_fft // 2 + 1
        assert frames > 10

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            NECConfig(n_fft=128, win_length=256).validate()
        with pytest.raises(ValueError):
            NECConfig(output_mode="other").validate()

    def test_with_output_mode(self, tiny_config):
        assert tiny_config.with_output_mode("spectrogram").output_mode == "spectrogram"


class TestEncoders:
    def test_spectral_embedding_is_unit_norm(self, tiny_config, corpus):
        encoder = SpectralEncoder(tiny_config, seed=0)
        refs = corpus.reference_audios("spk000", seconds=tiny_config.reference_seconds)
        embedding = encoder.embed(refs)
        assert embedding.shape == (tiny_config.embedding_dim,)
        assert np.linalg.norm(embedding) == pytest.approx(1.0)

    def test_spectral_embedding_utterance_independent(self, tiny_config, corpus):
        """Different utterances of the same speaker embed close together."""
        encoder = SpectralEncoder(tiny_config, seed=0)
        same_a = encoder.embed([corpus.utterance("spk000", seed=1).audio])
        same_b = encoder.embed([corpus.utterance("spk000", seed=2).audio])
        other = encoder.embed([corpus.utterance("spk003", seed=1).audio])
        assert cosine_similarity(same_a, same_b) > cosine_similarity(same_a, other)

    def test_empty_reference_rejected(self, tiny_config):
        encoder = SpectralEncoder(tiny_config)
        with pytest.raises(ValueError):
            encoder.embed([])

    def test_neural_encoder_requires_pretraining(self, tiny_config, corpus):
        encoder = NeuralEncoder(tiny_config, seed=0)
        with pytest.raises(RuntimeError):
            encoder.embed([corpus.utterance("spk000").audio])

    def test_neural_encoder_trains_and_separates_speakers(self, tiny_config, corpus):
        encoder = NeuralEncoder(tiny_config, seed=0)
        data = {
            speaker: [corpus.utterance(speaker, seed=index).audio for index in range(3)]
            for speaker in corpus.speaker_ids[:3]
        }
        history = encoder.pretrain(data, config=TrainingConfig(epochs=40, learning_rate=5e-3))
        assert history[-1] < history[0]
        assert encoder.is_trained
        a1 = encoder.embed([corpus.utterance("spk000", seed=9).audio])
        a2 = encoder.embed([corpus.utterance("spk000", seed=10).audio])
        b = encoder.embed([corpus.utterance("spk001", seed=9).audio])
        assert cosine_similarity(a1, a2) > cosine_similarity(a1, b)

    def test_neural_encoder_needs_two_speakers(self, tiny_config, corpus):
        encoder = NeuralEncoder(tiny_config)
        with pytest.raises(ValueError):
            encoder.pretrain({"spk000": [corpus.utterance("spk000").audio]})


class TestSelector:
    def test_output_shape_matches_geometry(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        freq_bins, frames = tiny_config.spectrogram_shape
        spec = np.abs(np.random.default_rng(0).normal(size=(freq_bins, frames)))
        d_vector = np.random.default_rng(1).normal(size=tiny_config.embedding_dim)
        output = selector(spec[None], d_vector)
        assert output.shape == (1, frames, freq_bins)

    def test_mask_mode_output_in_unit_interval(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        freq_bins, frames = tiny_config.spectrogram_shape
        spec = np.abs(np.random.default_rng(0).normal(size=(freq_bins, frames)))
        d_vector = np.zeros(tiny_config.embedding_dim)
        output = selector(spec[None], d_vector).data
        assert output.min() >= 0.0 and output.max() <= 1.0

    def test_shadow_spectrogram_is_non_positive_in_mask_mode(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        freq_bins, frames = tiny_config.spectrogram_shape
        spec = np.abs(np.random.default_rng(0).normal(size=(freq_bins, frames)))
        shadow = selector.shadow_spectrogram_batch(spec[None], np.zeros(tiny_config.embedding_dim))[0]
        assert shadow.shape == (freq_bins, frames)
        assert (shadow <= 1e-12).all()

    def test_conv_layer_count_matches_paper_structure(self):
        """Paper: 6 CNN + 2 FC layers with dilations 1..8 (4 dilated layers)."""
        selector = Selector(NECConfig.tiny(), seed=0)
        assert selector.num_conv_layers() == 3 + len(NECConfig.tiny().selector_dilations)

    def test_wrong_bin_count_rejected(self, tiny_config):
        selector = Selector(tiny_config, seed=0)
        with pytest.raises(ValueError):
            selector(np.zeros((1, 10, 5)), np.zeros(tiny_config.embedding_dim))

    def test_spectrogram_mode_is_unconstrained(self, tiny_config):
        config = tiny_config.with_output_mode("spectrogram")
        selector = Selector(config, seed=0)
        freq_bins, frames = config.spectrogram_shape
        spec = np.abs(np.random.default_rng(0).normal(size=(freq_bins, frames)))
        shadow = selector.shadow_spectrogram_batch(spec[None], np.zeros(config.embedding_dim))[0]
        assert shadow.shape == (freq_bins, frames)


class TestOvershadow:
    def test_superposition_floors_at_zero(self):
        mixed = np.ones((4, 4))
        shadow = -2.0 * np.ones((4, 4))
        assert (superpose_spectrograms(mixed, shadow) == 0.0).all()

    def test_superposition_shape_mismatch(self):
        with pytest.raises(ValueError):
            superpose_spectrograms(np.ones((3, 3)), np.ones((4, 3)))

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
    def test_complex_shadow_matches_exp_angle(self, dtype, rtol):
        """``shadow · S/|S|`` is the old ``shadow · exp(i·angle(S))`` to the ulp."""
        rng = np.random.default_rng(3)
        shape = (3, 41, 17)
        spectrum = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(
            np.result_type(dtype, np.complex64)
        )
        spectrum[:, :, -4:] = 0  # silent frames, as on zero padding
        shadow = rng.normal(size=shape).astype(dtype)
        expected = shadow * np.exp(1j * np.angle(spectrum))
        result = complex_shadow(spectrum, magnitude(spectrum), shadow)
        assert result.dtype == expected.dtype
        assert np.abs(result - expected).max() <= rtol * np.abs(expected).max()
        np.testing.assert_array_equal(result[:, :, -4:], shadow[:, :, -4:])

    def test_silent_frames_keep_the_real_shadow_in_spectrogram_mode(self, tiny_config):
        """Zero-padded frames (``|S| = 0``) get the phasor 1, as ``exp(i·angle(0))`` did."""
        config = tiny_config.with_output_mode("spectrogram")
        system = NECSystem(config, seed=0)
        rng = np.random.default_rng(4)
        reference = rng.normal(scale=0.1, size=config.segment_samples)
        system.enroll([AudioSignal(reference, config.sample_rate)])
        # The last segment holds 40 real samples and the rest zero padding.
        audio = AudioSignal(
            rng.normal(scale=0.1, size=config.segment_samples + 40), config.sample_rate
        )
        result = system.protect(audio)
        segments = np.pad(audio.data, (0, 2 * config.segment_samples - audio.num_samples))
        stfts = batch_stft(
            segments.reshape(2, config.segment_samples),
            config.n_fft,
            config.win_length,
            config.hop_length,
        )
        spectrum = np.concatenate(list(stfts), axis=1)
        shadow = result.shadow_spectrogram
        silent = result.mixed_spectrogram == 0
        assert silent.any() and (shadow[silent] != 0).any()
        old = shadow * np.exp(1j * np.angle(spectrum))
        new = complex_shadow(spectrum, result.mixed_spectrogram, shadow)
        np.testing.assert_array_equal(new[silent], old[silent])
        # The emitted wave is the old synthesis to the ulp, padding included.
        frames = config.num_frames
        old_wave = np.concatenate(
            [
                istft(
                    old[:, start : start + frames],
                    config.win_length,
                    config.hop_length,
                    length=config.segment_samples,
                )
                for start in range(0, old.shape[1], frames)
            ]
        )[: audio.num_samples]
        peak = np.abs(old_wave).max()
        np.testing.assert_allclose(result.shadow_wave.data, old_wave, rtol=0, atol=1e-12 * peak)

    def test_complex_shadow_shape_mismatch(self):
        spectrum = np.ones((4, 5), dtype=np.complex128)
        with pytest.raises(ValueError):
            complex_shadow(spectrum, np.ones((4, 5)), np.ones((4, 6)))
        with pytest.raises(ValueError):
            complex_shadow(spectrum, np.ones((4, 4)), np.ones((4, 5)))

    def test_shadow_waveform_rejects_a_mismatched_shadow(self, tiny_config, corpus):
        """A shadow with the wrong frame count raises instead of being truncated."""
        config = tiny_config
        mixed, _b, _a, _t, _o = joint_conversation(
            corpus, "spk000", "spk001", duration=config.segment_seconds
        )
        freq_bins, frames = config.spectrogram_shape
        with pytest.raises(ValueError):
            shadow_waveform(mixed, np.zeros((freq_bins, frames + 1)), config)

    def test_shadow_waveform_cancels_target_component(self, tiny_config, corpus):
        """An oracle shadow (background - mixed) suppresses Bob and helps Alice."""
        config = tiny_config
        mixed, bob, alice, _t, _o = joint_conversation(
            corpus, "spk000", "spk001", duration=config.segment_seconds
        )
        mixed_spec = magnitude_spectrogram(mixed.data, config.n_fft, config.win_length, config.hop_length)
        alice_spec = magnitude_spectrogram(alice.data, config.n_fft, config.win_length, config.hop_length)
        shadow = shadow_waveform(mixed, alice_spec - mixed_spec, config)
        recorded = apply_offsets(mixed, shadow)
        assert sdr(bob.data, recorded.data) < sdr(bob.data, mixed.data) - 2.0
        assert sdr(alice.data, recorded.data) > sdr(alice.data, mixed.data)

    def test_apply_offsets_shifts_shadow(self, tiny_config, corpus):
        mixed, _bob, _alice, _t, _o = joint_conversation(
            corpus, "spk000", "spk001", duration=tiny_config.segment_seconds
        )
        shadow = mixed.scale(0.5)
        recorded = apply_offsets(mixed, shadow, time_offset_s=0.1, power_coefficient=1.0)
        offset_samples = int(0.1 * mixed.sample_rate)
        np.testing.assert_allclose(
            recorded.data[:offset_samples], mixed.data[:offset_samples]
        )

    def test_apply_offsets_rejects_negative_offset(self, tiny_config, corpus):
        mixed, _b, _a, _t, _o = joint_conversation(
            corpus, "spk000", "spk001", duration=tiny_config.segment_seconds
        )
        with pytest.raises(ValueError):
            apply_offsets(mixed, mixed, time_offset_s=-1.0)

    def test_offset_study_degrades_with_offset(self, tiny_config, corpus):
        """Fig. 9 behaviour: larger time offsets hurt similarity to the background."""
        config = tiny_config
        mixed, bob, alice, _t, _o = joint_conversation(
            corpus, "spk000", "spk001", duration=config.segment_seconds
        )
        mixed_spec = magnitude_spectrogram(mixed.data, config.n_fft, config.win_length, config.hop_length)
        alice_spec = magnitude_spectrogram(alice.data, config.n_fft, config.win_length, config.hop_length)
        shadow = shadow_waveform(mixed, alice_spec - mixed_spec, config)
        points = offset_study(
            mixed, shadow, alice, time_offsets_ms=(0, 300), power_coefficients=(1.0,)
        )
        aligned = [p for p in points if p.time_offset_ms == 0][0]
        offset = [p for p in points if p.time_offset_ms == 300][0]
        assert aligned.sdr_db >= offset.sdr_db


class TestTrainingAndPipeline:
    @pytest.fixture(scope="class")
    def trained(self, tiny_config):
        corpus = SyntheticCorpus(num_speakers=5, sample_rate=tiny_config.sample_rate, seed=3)
        encoder = SpectralEncoder(tiny_config, seed=0)
        selector = Selector(tiny_config, seed=0)
        training = TrainingConfig(epochs=4, num_examples_per_target=3)
        trainer = SelectorTrainer(selector, config=training)
        targets, others = corpus.split_speakers(2, 3)
        stream = ExampleStream(
            corpus, encoder, tiny_config, targets, others, training=training, seed=1
        )
        examples = stream.take(len(targets) * training.num_examples_per_target)
        history = trainer.fit(examples)
        return corpus, encoder, selector, trainer, targets, others, history, examples

    def test_training_reduces_loss(self, trained):
        *_rest, history, _examples = trained
        assert history.improved()
        assert history.final_loss < history.initial_loss

    def test_example_shapes_consistent(self, trained, tiny_config):
        *_rest, examples = trained
        example = examples[0]
        assert example.mixed_spectrogram.shape == example.background_spectrogram.shape
        assert example.d_vector.shape == (tiny_config.embedding_dim,)

    def test_evaluate_returns_finite_loss(self, trained):
        _corpus, _enc, _sel, trainer, *_rest, examples = trained
        assert np.isfinite(trainer.evaluate(examples))

    def test_fit_requires_examples(self, trained):
        _corpus, _enc, _sel, trainer, *_ = trained
        with pytest.raises(ValueError):
            trainer.fit([])

    def test_pipeline_enroll_and_protect(self, trained, tiny_config):
        corpus, encoder, selector, _tr, targets, others, *_ = trained
        system = NECSystem(tiny_config, encoder=encoder, selector=selector)
        assert not system.is_enrolled
        system.enroll(corpus.reference_audios(targets[0], seconds=tiny_config.reference_seconds))
        assert system.is_enrolled
        mixed, bob, _alice, _t, _o = joint_conversation(
            corpus, targets[0], others[0], duration=tiny_config.segment_seconds
        )
        result = system.protect(mixed)
        assert result.shadow_wave.num_samples == mixed.num_samples
        assert result.shadow_spectrogram.shape == result.mixed_spectrogram.shape
        recorded = system.superpose(mixed, result)
        assert sdr(bob.data, recorded.data) < sdr(bob.data, mixed.data)

    def test_protect_requires_enrollment(self, tiny_config):
        system = NECSystem(tiny_config)
        with pytest.raises(RuntimeError):
            system.protect(
                SyntheticCorpus(num_speakers=2, sample_rate=tiny_config.sample_rate, seed=0)
                .utterance("spk000", duration=tiny_config.segment_seconds)
                .audio
            )

    def test_enroll_rejects_empty(self, tiny_config):
        with pytest.raises(ValueError):
            NECSystem(tiny_config).enroll([])

    def test_protect_long_audio_is_segmented(self, trained, tiny_config):
        corpus, encoder, selector, _tr, targets, *_ = trained
        system = NECSystem(tiny_config, encoder=encoder, selector=selector)
        system.enroll(corpus.reference_audios(targets[0], seconds=tiny_config.reference_seconds))
        long_audio = corpus.utterance(targets[0], duration=2.5 * tiny_config.segment_seconds).audio
        result = system.protect(long_audio)
        assert result.shadow_wave.num_samples == long_audio.num_samples

    def test_sample_rate_mismatch_rejected(self, trained, tiny_config):
        corpus, encoder, selector, _tr, targets, *_ = trained
        system = NECSystem(tiny_config, encoder=encoder, selector=selector)
        system.enroll(corpus.reference_audios(targets[0], seconds=tiny_config.reference_seconds))
        from repro.audio.signal import AudioSignal

        with pytest.raises(ValueError):
            system.protect(AudioSignal(np.zeros(16000), 16000))

    def test_broadcast_is_ultrasonic(self, trained, tiny_config):
        corpus, encoder, selector, _tr, targets, others, *_ = trained
        system = NECSystem(tiny_config, encoder=encoder, selector=selector)
        system.enroll(corpus.reference_audios(targets[0], seconds=tiny_config.reference_seconds))
        mixed, *_ = joint_conversation(corpus, targets[0], others[0], duration=tiny_config.segment_seconds)
        broadcast = nec_speaker(system.config).broadcast(system.protect(mixed).shadow_wave)
        assert broadcast.sample_rate == 192000

    def test_record_over_the_air_runs(self, trained, tiny_config):
        corpus, encoder, selector, _tr, targets, others, *_ = trained
        system = NECSystem(tiny_config, encoder=encoder, selector=selector)
        system.enroll(corpus.reference_audios(targets[0], seconds=tiny_config.reference_seconds))
        bob = corpus.utterance(targets[0], duration=tiny_config.segment_seconds).audio
        alice = corpus.utterance(others[0], duration=tiny_config.segment_seconds).audio
        recorder = Recorder("Moto Z4", seed=0)
        recorded = record_over_the_air(system, bob, alice, recorder, distance_m=0.5)
        assert recorded.sample_rate == 16000
        assert recorded.rms() > 0
