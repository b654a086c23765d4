"""Tests for the comparison baselines (white noise, Patronus, VoiceFilter)."""

import numpy as np
import pytest
from oracles import conv2d_reference

from repro.audio import SyntheticCorpus, joint_conversation
from repro.baselines import PatronusJammer, VoiceFilterModel, WhiteNoiseJammer
from repro.core import NECConfig
from repro.metrics import sdr
from repro.nn import Tensor


@pytest.fixture(scope="module")
def conversation():
    corpus = SyntheticCorpus(num_speakers=3, seed=9)
    mixed, bob, alice, _t, _o = joint_conversation(corpus, "spk000", "spk001", duration=1.5)
    return mixed, bob, alice


class TestWhiteNoiseJammer:
    def test_jamming_adds_energy(self, conversation):
        mixed, _bob, _alice = conversation
        jammed = WhiteNoiseJammer(noise_gain_db=10.0, seed=0).jam(mixed)
        assert jammed.rms() > 2.0 * mixed.rms()

    def test_jamming_hurts_everyone(self, conversation):
        """White noise is indiscriminate: both Bob's and Alice's SDR drop."""
        mixed, bob, alice = conversation
        jammed = WhiteNoiseJammer(noise_gain_db=10.0, seed=0).jam(mixed)
        assert sdr(bob.data, jammed.data) < sdr(bob.data, mixed.data)
        assert sdr(alice.data, jammed.data) < sdr(alice.data, mixed.data)

    def test_noise_level_scales_with_gain(self, conversation):
        mixed, _bob, _alice = conversation
        quiet = WhiteNoiseJammer(noise_gain_db=0.0, seed=0).jam(mixed)
        loud = WhiteNoiseJammer(noise_gain_db=20.0, seed=0).jam(mixed)
        assert loud.rms() > quiet.rms()


class TestPatronusJammer:
    def test_scramble_is_deterministic_per_key(self):
        jammer = PatronusJammer(key=7)
        a = jammer.scramble_sequence(4000, 16000)
        b = jammer.scramble_sequence(4000, 16000)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = PatronusJammer(key=1).scramble_sequence(4000, 16000)
        b = PatronusJammer(key=2).scramble_sequence(4000, 16000)
        assert not np.allclose(a, b)

    def test_jamming_hides_target(self, conversation):
        mixed, bob, _alice = conversation
        jammed = PatronusJammer(key=3).jam(mixed)
        assert sdr(bob.data, jammed.data) < sdr(bob.data, mixed.data) - 3.0

    def test_recovery_improves_over_jammed(self, conversation):
        """The authorised path removes most (not all) of the scramble."""
        mixed, _bob, alice = conversation
        jammer = PatronusJammer(key=3, recovery_residual=0.25)
        jammed = jammer.jam(mixed)
        recovered = jammer.recover(jammed)
        assert sdr(alice.data, recovered.data) > sdr(alice.data, jammed.data)

    def test_recovery_is_imperfect(self, conversation):
        mixed, _bob, alice = conversation
        jammer = PatronusJammer(key=3, recovery_residual=0.25)
        recovered = jammer.recover(jammer.jam(mixed))
        assert sdr(alice.data, recovered.data) < sdr(alice.data, mixed.data) + 1e-9


def _voicefilter_reference(model, mixed, d_vector):
    """VoiceFilter's ``(T, F)`` mask with every convolution by ``conv2d_reference``."""
    freq_bins, frames = mixed.shape
    hidden = (Tensor(mixed) + 1e-6).log().transpose(1, 0).reshape(1, 1, frames, freq_bins)
    for layer in (model.conv_freq, model.conv_time, *model.dilated, model.conv_out):
        hidden = conv2d_reference(layer, hidden).relu()
    features = hidden.transpose(0, 2, 1, 3).reshape(frames, 8 * freq_bins)
    tiled = Tensor(np.tile(d_vector.reshape(1, -1), (frames, 1)))
    fused = Tensor.concatenate([features, tiled], axis=1)
    recurrent = model.lstm(fused.reshape(1, frames, fused.shape[1]))
    hidden = model.fc1(recurrent.reshape(frames, model.lstm_hidden)).relu()
    return model.fc2(hidden).sigmoid()


class TestVoiceFilterModel:
    def test_separate_matches_reference_forward(self):
        config = NECConfig.tiny()
        model = VoiceFilterModel(config, seed=0)
        freq_bins, frames = config.spectrogram_shape
        rng = np.random.default_rng(4)
        spec = np.abs(rng.normal(size=(freq_bins, frames)))
        d_vector = rng.normal(size=config.embedding_dim)
        expected = _voicefilter_reference(model, spec, d_vector).data.T * spec
        estimate = model.separate(spec, d_vector)
        assert estimate.shape == expected.shape
        assert np.max(np.abs(estimate - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_mask_shape_and_range(self):
        config = NECConfig.tiny()
        model = VoiceFilterModel(config, seed=0)
        freq_bins, frames = config.spectrogram_shape
        spec = np.abs(np.random.default_rng(0).normal(size=(freq_bins, frames)))
        mask = model(Tensor(spec), Tensor(np.zeros(config.embedding_dim))).data
        assert mask.shape == (frames, freq_bins)
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_separate_output_bounded_by_mixture(self):
        config = NECConfig.tiny()
        model = VoiceFilterModel(config, seed=0)
        freq_bins, frames = config.spectrogram_shape
        spec = np.abs(np.random.default_rng(0).normal(size=(freq_bins, frames)))
        estimate = model.separate(spec, np.zeros(config.embedding_dim))
        assert estimate.shape == spec.shape
        assert (estimate <= spec + 1e-12).all()

    def test_voicefilter_has_more_parameters_than_selector(self):
        """The efficiency argument of the paper: NEC's Selector is the smaller model."""
        from repro.core import Selector

        config = NECConfig.tiny()
        assert VoiceFilterModel(config, seed=0).num_parameters() > Selector(config, seed=0).num_parameters()
