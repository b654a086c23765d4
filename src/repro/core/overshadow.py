"""Spectrogram overshadowing and the offset-tolerance model (Sec. IV-B2, IV-C2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.dsp.stft import istft, magnitude, stft
from repro.metrics.cosine import cosine_distance
from repro.metrics.sdr import sdr


def superpose_spectrograms(mixed: np.ndarray, shadow: np.ndarray) -> np.ndarray:
    """``S_record = S_mixed + S_shadow`` (paper Eq. 5), floored at zero.

    The shadow spectrogram is signed (it subtracts the target's contribution);
    magnitudes cannot go negative, hence the floor.  Accepts single ``(F, T)``
    spectrograms or stacked ``(N, F, T)`` batches — the op is elementwise and
    computes in the promoted dtype of its inputs (float32 for two float32
    spectrograms).
    """
    mixed = np.asarray(mixed)
    shadow = np.asarray(shadow)
    if mixed.shape != shadow.shape:
        raise ValueError(f"shape mismatch: mixed {mixed.shape} vs shadow {shadow.shape}")
    return np.maximum(mixed + shadow, 0.0)


def complex_shadow(
    mixed_stft: np.ndarray,
    mixed_spectrogram: np.ndarray,
    shadow_spectrogram: np.ndarray,
) -> np.ndarray:
    """The signed shadow magnitude on the mixed phase: ``shadow · S/|S|``.

    ``mixed_spectrogram`` is ``|mixed_stft|``, the magnitude the Selector
    already read, so the unit phasor costs one division and no ``angle`` or
    ``exp``.  A bin with ``|S| = 0`` gets the phasor 1 (``exp(i·angle(0))``).
    Accepts single ``(F, T)`` arrays or stacked ``(..., F, T)`` batches of one
    shape; the result is complex in the promoted dtype of the inputs.
    """
    mixed_stft = np.asarray(mixed_stft)
    mixed_magnitude = np.asarray(mixed_spectrogram)
    shadow = np.asarray(shadow_spectrogram)
    if not mixed_stft.shape == mixed_magnitude.shape == shadow.shape:
        raise ValueError(
            f"shape mismatch: mixed STFT {mixed_stft.shape}, mixed spectrogram "
            f"{mixed_magnitude.shape}, shadow {shadow.shape}"
        )
    silent = mixed_magnitude == 0
    gain = shadow / np.where(silent, 1, mixed_magnitude)
    return np.where(silent, shadow, mixed_stft * gain)


def shadow_waveform(
    mixed_audio: AudioSignal,
    shadow_spectrogram: np.ndarray,
    config: NECConfig,
) -> AudioSignal:
    """Convert a shadow spectrogram into the broadcastable shadow wave.

    The Selector outputs a magnitude-domain quantity; to emit it over the air
    it is attached to the phase of the mixed recording (which NEC's own
    microphone observes, :func:`complex_shadow`) and inverted with the ISTFT.
    A negative shadow magnitude therefore becomes a phase-inverted waveform
    component — exactly the wave that, superposed in the air, drives the
    recorded spectrogram towards the background (Eq. 5/6).
    """
    mixed_stft = stft(
        mixed_audio.data, config.n_fft, config.win_length, config.hop_length
    )
    wave = istft(
        complex_shadow(mixed_stft, magnitude(mixed_stft), shadow_spectrogram),
        config.win_length,
        config.hop_length,
        length=mixed_audio.num_samples,
    )
    return AudioSignal(wave, config.sample_rate)


def apply_offsets(
    mixed_audio: AudioSignal,
    shadow_audio: AudioSignal,
    time_offset_s: float = 0.0,
    power_coefficient: float = 1.0,
) -> AudioSignal:
    """Superpose shadow and mixed waves with a time and power offset (Eq. 11).

    ``x_record[n] = a * x_mixed[n] + x_shadow[n - offset]`` with the shadow
    zero before it arrives.  ``power_coefficient`` is the paper's ``a``: the
    power ratio of the mixed audio relative to the shadow (small ``a`` means
    the shadow is comparatively stronger).
    """
    if mixed_audio.sample_rate != shadow_audio.sample_rate:
        raise ValueError("sample-rate mismatch between mixed and shadow audio")
    if time_offset_s < 0:
        raise ValueError("time offset must be non-negative")
    offset_samples = int(round(time_offset_s * mixed_audio.sample_rate))
    length = mixed_audio.num_samples
    shadow = np.zeros(length)
    shifted_length = max(length - offset_samples, 0)
    if shifted_length > 0:
        shadow[offset_samples:] = shadow_audio.data[:shifted_length]
    recorded = power_coefficient * mixed_audio.data + shadow
    return AudioSignal(recorded, mixed_audio.sample_rate)


@dataclass(frozen=True)
class OffsetPoint:
    """One point of the offset study (Fig. 9c/9d)."""

    time_offset_ms: float
    power_coefficient: float
    cosine_distance: float
    sdr_db: float


def offset_study(
    mixed_audio: AudioSignal,
    shadow_audio: AudioSignal,
    background_audio: AudioSignal,
    time_offsets_ms: Sequence[float] = (0, 50, 100, 200, 300, 400, 500),
    power_coefficients: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
) -> List[OffsetPoint]:
    """Sweep time and power offsets, measuring similarity to the background.

    For every combination the recorded wave is formed with
    :func:`apply_offsets` and compared against the background (Alice's) audio
    with the cosine distance and SDR — the two panels of the paper's Fig. 9.
    """
    points: List[OffsetPoint] = []
    background = background_audio.data
    for coefficient in power_coefficients:
        for offset_ms in time_offsets_ms:
            recorded = apply_offsets(
                mixed_audio,
                shadow_audio,
                time_offset_s=offset_ms / 1000.0,
                power_coefficient=coefficient,
            )
            points.append(
                OffsetPoint(
                    time_offset_ms=float(offset_ms),
                    power_coefficient=float(coefficient),
                    cosine_distance=cosine_distance(recorded.data, background),
                    sdr_db=sdr(background, recorded.data),
                )
            )
    return points


def mixed_reference_point(
    mixed_audio: AudioSignal, background_audio: AudioSignal
) -> OffsetPoint:
    """The no-shadow reference line of Fig. 9 (raw mixed vs background)."""
    return OffsetPoint(
        time_offset_ms=0.0,
        power_coefficient=float("nan"),
        cosine_distance=cosine_distance(mixed_audio.data, background_audio.data),
        sdr_db=sdr(background_audio.data, mixed_audio.data),
    )
