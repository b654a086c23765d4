"""Tests for the DSP substrate (STFT, LAS, features, LPC, filters, resampling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    amplitude_to_db,
    bandpass_filter,
    batch_istft,
    batch_stft,
    db_to_amplitude,
    delta_features,
    estimate_formants,
    fractional_delay,
    frame_signal,
    get_window,
    hann_window,
    hamming_window,
    hz_to_mel,
    istft,
    las_correlation,
    las_correlation_matrix,
    log_mel_spectrogram,
    long_time_average_spectrum,
    lowpass_filter,
    lpc_coefficients,
    magnitude_spectrogram,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    pearson_correlation,
    preemphasis,
    resample,
    rms,
    spectrogram_shape,
    StreamingISTFT,
    StreamingSTFT,
    stft,
)

SR = 16000


def _tone(frequency, duration=1.0, sr=SR, amplitude=0.5):
    t = np.arange(int(duration * sr)) / sr
    return amplitude * np.sin(2 * np.pi * frequency * t)


class TestWindows:
    def test_hann_endpoints_and_peak(self):
        win = hann_window(128)
        assert win[0] == pytest.approx(0.0)
        assert win.max() <= 1.0

    def test_hamming_positive(self):
        assert hamming_window(64).min() > 0

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            hann_window(0)

    def test_unknown_window_name(self):
        with pytest.raises(ValueError):
            get_window("kaiser", 64)


class TestSTFT:
    def test_paper_geometry_shape(self):
        """3 s at 16 kHz with FFT 1200 / hop 160 gives 601 frequency bins."""
        signal = _tone(440, duration=3.0)
        spec = stft(signal, 1200, 400, 160)
        assert spec.shape[0] == 601
        assert spectrogram_shape(signal.size, 1200, 400, 160) == spec.shape

    def test_istft_reconstruction(self):
        signal = _tone(300) + _tone(1234, amplitude=0.2)
        spec = stft(signal, 512, 400, 100)
        rebuilt = istft(spec, 400, 100, length=signal.size)
        # Edges are affected by the analysis window; compare the interior.
        np.testing.assert_allclose(rebuilt[400:-400], signal[400:-400], atol=1e-8)

    def test_tone_lands_in_correct_bin(self):
        signal = _tone(1000, duration=0.5)
        spec = magnitude_spectrogram(signal, 512, 400, 160)
        freqs = np.fft.rfftfreq(512, d=1.0 / SR)
        peak_bin = int(np.argmax(spec.mean(axis=1)))
        assert abs(freqs[peak_bin] - 1000) < 2 * SR / 512

    def test_linearity_of_superposition(self):
        """F(a x1 + x2) = a F(x1) + F(x2) — the paper's Eq. (4)."""
        x1 = _tone(500, duration=0.5)
        x2 = _tone(900, duration=0.5)
        lhs = stft(0.7 * x1 + x2, 512, 256, 128)
        rhs = 0.7 * stft(x1, 512, 256, 128) + stft(x2, 512, 256, 128)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_reconstruct_with_reference_phase(self):
        signal = _tone(700, duration=0.5)
        spec = stft(signal, 512, 400, 160)
        rebuilt = istft(
            np.abs(spec) * np.exp(1j * np.angle(spec)), 400, 160, length=signal.size
        )
        np.testing.assert_allclose(rebuilt[400:-400], signal[400:-400], atol=1e-8)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            stft(np.zeros((10, 10)))

    @pytest.mark.parametrize(
        "n_fft,win,hop",
        [
            (512, 400, -160),  # negative hop
            (512, 400, 0),     # zero hop
            (512, 600, 160),   # window longer than the FFT
            (512, 0, 160),     # empty window
            (512, 200, 300),   # hop longer than the window
        ],
    )
    @pytest.mark.parametrize(
        "entry_point",
        ["stft", "batch_stft", "istft", "batch_istft", "StreamingSTFT", "StreamingISTFT"],
    )
    def test_every_entry_point_rejects_bad_geometry(self, entry_point, n_fft, win, hop):
        signal = _tone(440, duration=0.1)
        spectrum = np.zeros((n_fft // 2 + 1, 5), dtype=complex)
        calls = {
            "stft": lambda: stft(signal, n_fft, win, hop),
            "batch_stft": lambda: batch_stft(signal[None], n_fft, win, hop),
            "istft": lambda: istft(spectrum, win, hop),
            "batch_istft": lambda: batch_istft(spectrum[None], win, hop),
            "StreamingSTFT": lambda: StreamingSTFT(n_fft, win, hop),
            "StreamingISTFT": lambda: StreamingISTFT(win, hop).feed(spectrum),
        }
        with pytest.raises(ValueError, match="STFT geometry"):
            calls[entry_point]()


class TestBatchSTFT:
    def test_rows_match_single_stft_exactly(self):
        rng = np.random.default_rng(0)
        signals = rng.normal(size=(4, SR // 2))
        batch = batch_stft(signals, 512, 400, 160)
        assert batch.shape == (4,) + stft(signals[0], 512, 400, 160).shape
        for row in range(4):
            np.testing.assert_array_equal(stft(signals[row], 512, 400, 160), batch[row])

    def test_short_signals_yield_one_padded_frame(self):
        signals = np.ones((2, 100))
        batch = batch_stft(signals, 512, 400, 160)
        assert batch.shape == (2, 257, 1)
        np.testing.assert_array_equal(stft(signals[0], 512, 400, 160), batch[0])

    def test_batch_istft_inverts(self):
        rng = np.random.default_rng(2)
        signals = rng.normal(size=(2, SR // 2))
        batch = batch_stft(signals, 512, 400, 100)
        rebuilt = batch_istft(batch, 400, 100, length=signals.shape[1])
        assert rebuilt.shape == signals.shape
        np.testing.assert_allclose(rebuilt[:, 400:-400], signals[:, 400:-400], atol=1e-8)
        for row in range(2):
            np.testing.assert_array_equal(
                istft(batch[row], 400, 100, length=signals.shape[1]), rebuilt[row]
            )

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            batch_stft(np.zeros(100))
        with pytest.raises(ValueError):
            batch_istft(np.zeros((5, 4)))


class TestLAS:
    def test_las_normalised_to_unit_peak(self):
        las = long_time_average_spectrum(_tone(500), SR)
        assert las.max() == pytest.approx(1.0)

    def test_same_tone_correlates(self):
        assert las_correlation(_tone(400), _tone(400), SR) > 0.99

    def test_different_tones_correlate_less(self):
        same = las_correlation(_tone(400), _tone(400), SR)
        different = las_correlation(_tone(400), _tone(1800), SR)
        assert different < same

    def test_correlation_matrix_symmetric_unit_diagonal(self):
        signals = [_tone(300), _tone(800), _tone(1500)]
        matrix = las_correlation_matrix(signals, SR)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), np.ones(3))

    def test_pearson_bounds(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=100), rng.normal(size=100)
        assert -1.0 <= pearson_correlation(a, b) <= 1.0

    def test_too_short_signal_raises(self):
        with pytest.raises(ValueError):
            long_time_average_spectrum(np.zeros(10), SR, frame_duration=0.02)


class TestFeatures:
    def test_frame_signal_count(self):
        frames = frame_signal(np.arange(100.0), 20, 10)
        assert frames.shape == (9, 20)

    def test_preemphasis_preserves_length(self):
        x = np.random.default_rng(0).normal(size=256)
        assert preemphasis(x).shape == x.shape

    def test_mel_hz_roundtrip(self):
        freqs = np.array([100.0, 1000.0, 4000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-9)

    def test_mel_filterbank_shape_and_coverage(self):
        bank = mel_filterbank(20, 512, SR)
        assert bank.shape == (20, 257)
        assert (bank.sum(axis=1) > 0).all()

    def test_log_mel_shape(self):
        features = log_mel_spectrogram(_tone(500), SR, num_filters=24)
        assert features.shape[1] == 24

    def test_mfcc_shape(self):
        features = mfcc(_tone(500), SR, num_coefficients=13)
        assert features.shape[1] == 13

    def test_delta_of_constant_is_zero(self):
        features = np.ones((10, 5))
        np.testing.assert_allclose(delta_features(features), 0.0)

    def test_invalid_filterbank_range(self):
        with pytest.raises(ValueError):
            mel_filterbank(10, 512, SR, low_frequency=9000.0)


class TestLPC:
    def test_lpc_leading_coefficient_is_one(self):
        coefficients = lpc_coefficients(_tone(500, duration=0.1), 10)
        assert coefficients[0] == pytest.approx(1.0)

    def test_formant_of_resonant_signal(self):
        """A damped resonance around 700 Hz is recovered within a bin or two."""
        sr = 16000
        t = np.arange(int(0.05 * sr)) / sr
        signal = np.sin(2 * np.pi * 700 * t) * np.exp(-40 * t)
        formants = estimate_formants(signal, sr, num_formants=1)
        assert formants, "no formant found"
        assert abs(formants[0][0] - 700) < 120

    def test_silence_gives_trivial_filter(self):
        coefficients = lpc_coefficients(np.zeros(100), 8)
        np.testing.assert_allclose(coefficients[1:], 0.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            lpc_coefficients(np.ones(5), 10)


class TestFiltersAndResample:
    def test_lowpass_removes_high_tone(self):
        mixed = _tone(200) + _tone(6000)
        filtered = lowpass_filter(mixed, 1000, SR)
        spec = np.abs(np.fft.rfft(filtered))
        freqs = np.fft.rfftfreq(filtered.size, 1.0 / SR)
        assert spec[np.argmin(np.abs(freqs - 6000))] < 0.01 * spec[np.argmin(np.abs(freqs - 200))]

    def test_bandpass_keeps_band(self):
        mixed = _tone(100) + _tone(1000) + _tone(6000)
        filtered = bandpass_filter(mixed, 500, 2000, SR)
        assert rms(filtered) > 0.1

    def test_bandpass_validates_range(self):
        with pytest.raises(ValueError):
            bandpass_filter(np.zeros(100), 2000, 500, SR)

    def test_fractional_delay_integer_part(self):
        x = np.zeros(100)
        x[10] = 1.0
        delayed = fractional_delay(x, 5.0)
        assert delayed[15] == pytest.approx(1.0)

    def test_fractional_delay_interpolates(self):
        x = np.zeros(50)
        x[10] = 1.0
        delayed = fractional_delay(x, 2.5)
        assert delayed[12] == pytest.approx(0.5)
        assert delayed[13] == pytest.approx(0.5)

    def test_db_roundtrip(self):
        assert db_to_amplitude(amplitude_to_db(0.25)) == pytest.approx(0.25)

    def test_resample_changes_length(self):
        x = _tone(440, duration=0.5)
        y = resample(x, SR, 8000)
        assert abs(y.size - x.size // 2) <= 2

    def test_resample_preserves_tone(self):
        x = _tone(440, duration=0.5)
        y = resample(x, SR, 48000)
        spec = np.abs(np.fft.rfft(y))
        freqs = np.fft.rfftfreq(y.size, 1 / 48000)
        assert abs(freqs[np.argmax(spec)] - 440) < 5


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=50, max_value=3500))
def test_property_istft_inverts_stft_for_tones(frequency):
    """STFT -> ISTFT is identity (away from edges) for any tone frequency."""
    signal = _tone(frequency, duration=0.3)
    spec = stft(signal, 512, 256, 128)
    rebuilt = istft(spec, 256, 128, length=signal.size)
    np.testing.assert_allclose(rebuilt[256:-256], signal[256:-256], atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_property_fractional_delay_shifts_energy(delay):
    """Delaying never increases energy and keeps the signal length."""
    signal = np.sin(np.linspace(0, 20, 400))
    delayed = fractional_delay(signal, float(delay))
    assert delayed.shape == signal.shape
    assert np.sum(delayed**2) <= np.sum(signal**2) + 1e-9
