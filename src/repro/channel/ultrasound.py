"""Ultrasound amplitude modulation (paper Sec. IV-C1, Eq. 7-9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.audio.signal import AudioSignal
from repro.dsp.filters import lowpass_filter
from repro.dsp.resample import resample

if TYPE_CHECKING:
    from repro.core.config import NECConfig

#: Simulation rate for the ultrasonic band.  Must comfortably exceed twice the
#: highest carrier harmonic produced by the microphone non-linearity
#: (2 * fc + baseband, i.e. ~64 kHz for fc = 28 kHz), so 192 kHz is used.
ULTRASOUND_RATE = 192_000


def am_modulate(
    baseband: AudioSignal,
    carrier_hz: float,
    power_coefficient: float = 1.0,
    output_rate: int = ULTRASOUND_RATE,
) -> AudioSignal:
    """Modulate an audible baseband onto an ultrasonic carrier.

    Implements the paper's Eq. (7)/(9): the baseband is normalised to unit
    peak, a DC term ``power_coefficient`` (the paper's alpha) is added, and the
    sum multiplies a cosine carrier: ``(m(t) + alpha) * cos(2 pi f_c t)``.
    ``carrier_hz`` must be ultrasonic (>= 20 kHz) for the emission to be
    inaudible.
    """
    if carrier_hz < 20_000.0:
        raise ValueError(
            f"carrier must be ultrasonic (>= 20 kHz) to be inaudible, got {carrier_hz} Hz"
        )
    if carrier_hz >= output_rate / 2.0:
        raise ValueError("carrier frequency exceeds the Nyquist rate of the simulation")
    upsampled = resample(baseband.data, baseband.sample_rate, output_rate)
    # Normalise to roughly unit peak while being robust to isolated transient
    # spikes (a hard peak normalisation would squash the whole baseband).
    reference = np.percentile(np.abs(upsampled), 99.0)
    if reference > 0:
        upsampled = np.clip(upsampled / reference, -1.0, 1.0)
    t = np.arange(upsampled.size) / output_rate
    carrier = np.cos(2.0 * np.pi * carrier_hz * t)
    modulated = (upsampled + power_coefficient) * carrier
    return AudioSignal(modulated, output_rate)


def am_demodulate_ideal(
    modulated: AudioSignal,
    target_rate: int = 16_000,
    cutoff_hz: float = 7_600.0,
) -> AudioSignal:
    """Ideal square-law demodulation (used for unit-testing the channel).

    Squares the signal (a perfect second-order non-linearity), low-passes it,
    removes the DC term and resamples to ``target_rate``.
    """
    squared = modulated.data ** 2
    filtered = lowpass_filter(squared, cutoff_hz, modulated.sample_rate)
    filtered = filtered - np.mean(filtered)
    audible = resample(filtered, modulated.sample_rate, target_rate)
    return AudioSignal(audible, target_rate)


@dataclass
class UltrasoundSpeaker:
    """A wide-band ultrasonic transmitter (the paper's Vifa speaker + amplifier).

    ``source_spl`` is the emitted sound-pressure level at the reference
    distance used by :mod:`repro.channel.propagation`; ``directivity_back``
    scales the emission towards the rear of the speaker (the paper exploits
    this so NEC's own monitoring microphone barely hears the shadow sound).
    """

    carrier_hz: float = 25_000.0
    power_coefficient: float = 1.0
    source_spl: float = 100.0
    output_rate: int = ULTRASOUND_RATE
    directivity_back: float = 0.05
    #: Gain of the ultrasonic power amplifier driving the speaker (the paper's
    #: Avisoft amplifier).  The emitted carrier must be much louder than speech
    #: for the *square-law* demodulated baseband to stay comparable to the
    #: target's voice after spherical spreading — without amplification the
    #: second-order product would vanish quadratically with distance.
    amplifier_gain: float = 25.0

    def broadcast(self, shadow_wave: AudioSignal) -> AudioSignal:
        """Modulate a shadow wave onto the carrier, ready for propagation."""
        modulated = am_modulate(
            shadow_wave,
            carrier_hz=self.carrier_hz,
            power_coefficient=self.power_coefficient,
            output_rate=self.output_rate,
        )
        return modulated.scale(self.amplifier_gain).with_spl(self.source_spl)

    def rear_leakage(self, shadow_wave: AudioSignal) -> AudioSignal:
        """The (strongly attenuated) emission towards the speaker's back."""
        broadcast = self.broadcast(shadow_wave)
        return broadcast.scale(self.directivity_back).with_spl(
            self.source_spl + 20.0 * np.log10(max(self.directivity_back, 1e-6))
        )


def nec_speaker(config: NECConfig, carrier_khz: Optional[float] = None) -> UltrasoundSpeaker:
    """The ultrasonic speaker of an NEC device built for ``config``.

    It broadcasts on ``config.carrier_khz`` (or on ``carrier_khz``, for a
    carrier sweep) with ``config.power_coefficient`` as the AM DC term; the
    shadow of a protection goes out as
    ``nec_speaker(config).broadcast(protection.shadow_wave)``.
    """
    carrier = config.carrier_khz if carrier_khz is None else carrier_khz
    return UltrasoundSpeaker(
        carrier_hz=carrier * 1000.0, power_coefficient=config.power_coefficient
    )
