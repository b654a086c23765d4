"""Classical filters, delays and level utilities.

Butterworth designs are memoised: the channel simulation applies the same
handful of filters (the 192 kHz ADC anti-aliasing low-pass, the microphone
band-pass, the demodulation low-pass) to every scene source of every
instance, and ``scipy.signal.butter`` costs as much as filtering a short
signal.  :func:`butter_sos` caches each design keyed on the normalised
cutoff(s), order and band type — equal ``(order, cutoffs, rate, btype)``
requests share one immutable SOS array.

Precision: unlike the STFT/Selector kernels, which compute in the dtype of
their input, the IIR filters here always compute in float64.  High-order
Butterworth second-order sections are numerically delicate — float32 state
accumulation audibly degrades the zero-phase band edges — and the channel
simulation they model is not a hot path, so there is nothing to win and
stability to lose.

``scipy.signal`` (with the ``scipy.stats`` it pulls in, about half the
protection path's import memory; docs/architecture.md, "Import layering")
is imported inside the functions that call it, so the protection path,
which uses only :func:`rms` and the dB helpers here, never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np


@lru_cache(maxsize=None)
def _butter_sos_cached(order: int, low: float, high: Optional[float], btype: str) -> np.ndarray:
    from scipy import signal as sps

    critical = low if high is None else [low, high]
    sos = sps.butter(order, critical, btype=btype, output="sos")
    sos.setflags(write=False)  # the cached master copy must stay immutable
    return sos


def butter_sos(
    order: int, cutoffs_hz: Tuple[float, ...], sample_rate: float, btype: str
) -> np.ndarray:
    """A (cached) Butterworth second-order-sections design.

    ``cutoffs_hz`` holds one corner frequency for ``low``/``high`` designs and
    two for ``band``.  Designs are keyed on the *normalised* cutoffs, so e.g.
    a 24 kHz low-pass at 192 kHz and a 2 kHz low-pass at 16 kHz share one
    entry.  Returns a writable copy of the cached design.
    """
    nyquist = sample_rate / 2.0
    normalised = tuple(float(cutoff) / nyquist for cutoff in cutoffs_hz)
    if len(normalised) == 1:
        sos = _butter_sos_cached(order, normalised[0], None, btype)
    else:
        sos = _butter_sos_cached(order, normalised[0], normalised[1], btype)
    # scipy's sosfilt kernel requires a writable buffer; hand out a copy of
    # the immutable master (a few dozen floats — negligible next to a design).
    return sos.copy()


def filter_design_cache_info():
    """Hit/miss statistics of the Butterworth design cache (for diagnostics)."""
    return _butter_sos_cached.cache_info()


def clear_filter_design_cache() -> None:
    """Drop all memoised Butterworth designs (mainly for tests)."""
    _butter_sos_cached.cache_clear()


def lowpass_filter(
    signal: np.ndarray, cutoff_hz: float, sample_rate: int, order: int = 6
) -> np.ndarray:
    """Butterworth low-pass filter (zero-phase).

    Models the anti-aliasing low-pass inside a COTS microphone ADC, which is
    what removes the ultrasonic carrier components after the non-linearity
    (paper Sec. IV-C1).
    """
    nyquist = sample_rate / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ValueError(f"cutoff must be in (0, {nyquist}) Hz, got {cutoff_hz}")
    sos = butter_sos(order, (cutoff_hz,), sample_rate, "low")
    from scipy import signal as sps

    return sps.sosfiltfilt(sos, np.asarray(signal, dtype=np.float64))


def highpass_filter(
    signal: np.ndarray, cutoff_hz: float, sample_rate: int, order: int = 6
) -> np.ndarray:
    """Butterworth high-pass filter (zero-phase)."""
    nyquist = sample_rate / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ValueError(f"cutoff must be in (0, {nyquist}) Hz, got {cutoff_hz}")
    sos = butter_sos(order, (cutoff_hz,), sample_rate, "high")
    from scipy import signal as sps

    return sps.sosfiltfilt(sos, np.asarray(signal, dtype=np.float64))


def bandpass_filter(
    signal: np.ndarray,
    low_hz: float,
    high_hz: float,
    sample_rate: int,
    order: int = 6,
) -> np.ndarray:
    """Butterworth band-pass filter (zero-phase)."""
    nyquist = sample_rate / 2.0
    if not 0 < low_hz < high_hz < nyquist:
        raise ValueError("require 0 < low < high < Nyquist")
    sos = butter_sos(order, (low_hz, high_hz), sample_rate, "band")
    from scipy import signal as sps

    return sps.sosfiltfilt(sos, np.asarray(signal, dtype=np.float64))


def fractional_delay(signal: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a signal by a (possibly fractional) number of samples.

    Integer parts are applied by shifting; the fractional remainder via linear
    interpolation.  The output has the same length as the input (zero-padded at
    the start), which is how the over-the-air propagation delay of the shadow
    sound manifests at the recorder (paper Eq. 10-11).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if delay_samples < 0:
        raise ValueError("delay must be non-negative")
    integer = int(np.floor(delay_samples))
    fraction = delay_samples - integer
    delayed = np.zeros_like(signal)
    if integer < signal.size:
        delayed[integer:] = signal[: signal.size - integer]
    if fraction > 0:
        shifted = np.zeros_like(signal)
        if integer + 1 < signal.size:
            shifted[integer + 1 :] = signal[: signal.size - integer - 1]
        delayed = (1.0 - fraction) * delayed + fraction * shifted
    return delayed


def rms(signal: np.ndarray) -> float:
    """Root-mean-square level of a signal."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(signal ** 2)))


def amplitude_to_db(amplitude: float, reference: float = 1.0, floor_db: float = -120.0) -> float:
    """Convert an amplitude ratio to decibels with a silence floor."""
    if amplitude <= 0 or reference <= 0:
        return floor_db
    return max(20.0 * float(np.log10(amplitude / reference)), floor_db)


def db_to_amplitude(decibels: float, reference: float = 1.0) -> float:
    """Convert decibels to an amplitude ratio."""
    return reference * float(10.0 ** (decibels / 20.0))
