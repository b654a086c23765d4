"""Signal-processing substrate: STFT, spectrograms, LAS, formants, filters.

The paper's observation study (Figs. 3-5) and the NEC pipeline itself are
built on top of short-time Fourier analysis, the Long-time Average Spectrum
(LAS), mel/MFCC features (for the speaker encoder and ASR substitute) and a
handful of classical filters.  This package implements all of them, with
shapes matching the paper's configuration (FFT 1200, window 400, hop 160 at
16 kHz -> 601 frequency bins).  The STFT runs on numpy alone; the filters and
resampling load ``scipy.signal`` on first use.
"""

from repro.dsp.windows import hann_window, hamming_window, rectangular_window, get_window
from repro.dsp.stft import (
    stft,
    istft,
    batch_stft,
    batch_istft,
    clear_ola_plan_cache,
    magnitude,
    magnitude_spectrogram,
    spectrogram_shape,
    StreamingSTFT,
    StreamingISTFT,
)
from repro.dsp.las import (
    long_time_average_spectrum,
    las_correlation,
    las_correlation_matrix,
    pearson_correlation,
)
from repro.dsp.features import (
    frame_signal,
    preemphasis,
    hz_to_mel,
    mel_to_hz,
    mel_filterbank,
    log_mel_spectrogram,
    mfcc,
    delta_features,
)
from repro.dsp.lpc import lpc_coefficients, estimate_formants
from repro.dsp.filters import (
    butter_sos,
    filter_design_cache_info,
    clear_filter_design_cache,
    lowpass_filter,
    highpass_filter,
    bandpass_filter,
    fractional_delay,
    rms,
    db_to_amplitude,
    amplitude_to_db,
)
from repro.dsp.resample import resample

__all__ = [
    "hann_window",
    "hamming_window",
    "rectangular_window",
    "get_window",
    "stft",
    "istft",
    "batch_stft",
    "batch_istft",
    "clear_ola_plan_cache",
    "magnitude",
    "magnitude_spectrogram",
    "spectrogram_shape",
    "StreamingSTFT",
    "StreamingISTFT",
    "long_time_average_spectrum",
    "las_correlation",
    "las_correlation_matrix",
    "pearson_correlation",
    "frame_signal",
    "preemphasis",
    "hz_to_mel",
    "mel_to_hz",
    "mel_filterbank",
    "log_mel_spectrogram",
    "mfcc",
    "delta_features",
    "lpc_coefficients",
    "estimate_formants",
    "butter_sos",
    "filter_design_cache_info",
    "clear_filter_design_cache",
    "lowpass_filter",
    "highpass_filter",
    "bandpass_filter",
    "fractional_delay",
    "rms",
    "db_to_amplitude",
    "amplitude_to_db",
    "resample",
]
