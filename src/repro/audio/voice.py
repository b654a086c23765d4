"""Source-filter speech synthesiser with per-speaker vocal parameters.

The paper's entire mechanism rests on the observation (Sec. III) that a
speaker's spectral envelope — pitch harmonics shaped by vocal-tract formants —
is consistent across utterances but distinct across speakers.  This module
synthesises speech with exactly that structure:

* the **source** is a harmonic series at the speaker's fundamental frequency
  with a speaker-specific spectral tilt and jitter;
* the **filter** is a cascade of second-order resonators at the phoneme's
  formant targets, scaled by the speaker's vocal-tract length factor.

Two utterances by the same profile therefore share formant structure (high LAS
correlation), while different profiles differ — reproducing Figs. 3-5 and
giving the Selector a real signal to learn from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.audio.lexicon import LEXICON, sentence_words
from repro.audio.phonemes import PHONEME_INVENTORY, Phoneme
from repro.audio.signal import AudioSignal
from repro.dsp.filters import butter_sos


@dataclass(frozen=True)
class SpeakerProfile:
    """Speaker-specific vocal parameters (the "timbre pattern" of the paper)."""

    speaker_id: str
    f0: float = 120.0                 # fundamental frequency in Hz
    formant_scale: float = 1.0        # vocal-tract length factor (<1: longer tract)
    bandwidth_scale: float = 1.0      # formant bandwidth multiplier
    spectral_tilt: float = 1.0        # harmonic roll-off exponent (1/k**tilt)
    breathiness: float = 0.02         # aspiration-noise level
    jitter: float = 0.01              # cycle-to-cycle pitch perturbation
    gain: float = 1.0

    def scaled_formants(self, formants: Sequence[float]) -> List[float]:
        return [frequency * self.formant_scale for frequency in formants]


def random_speaker_profile(
    speaker_id: str, rng: np.random.Generator
) -> SpeakerProfile:
    """Draw a plausible speaker profile; roughly half male / half female pitch."""
    if rng.random() < 0.5:
        f0 = rng.uniform(95.0, 140.0)          # typical male range
        formant_scale = rng.uniform(0.88, 1.02)
    else:
        f0 = rng.uniform(170.0, 240.0)         # typical female range
        formant_scale = rng.uniform(1.0, 1.16)
    return SpeakerProfile(
        speaker_id=speaker_id,
        f0=float(f0),
        formant_scale=float(formant_scale),
        bandwidth_scale=float(rng.uniform(0.85, 1.25)),
        spectral_tilt=float(rng.uniform(0.8, 1.4)),
        breathiness=float(rng.uniform(0.005, 0.04)),
        jitter=float(rng.uniform(0.003, 0.02)),
        gain=1.0,
    )


class VoiceSynthesizer:
    """Render phonemes, words and sentences for a :class:`SpeakerProfile`."""

    def __init__(self, sample_rate: int = 16000, word_gap: float = 0.07) -> None:
        if sample_rate < 8000:
            raise ValueError("sample_rate must be at least 8000 Hz for speech synthesis")
        self.sample_rate = sample_rate
        self.word_gap = word_gap

    # -- low-level pieces ---------------------------------------------------
    def _harmonic_source(
        self,
        duration: float,
        profile: SpeakerProfile,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Harmonic glottal source with speaker-specific tilt and jitter."""
        num_samples = max(int(round(duration * self.sample_rate)), 1)
        t = np.arange(num_samples) / self.sample_rate
        f0 = profile.f0 * (1.0 + profile.jitter * rng.standard_normal())
        # Slow random pitch drift within the phoneme for naturalness.
        drift = 1.0 + 0.02 * np.sin(2.0 * np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0, 2 * np.pi))
        max_harmonic = max(int((self.sample_rate / 2.0 - 200.0) // f0), 1)
        source = np.zeros(num_samples)
        phase = rng.uniform(0, 2 * np.pi, size=max_harmonic)
        for k in range(1, max_harmonic + 1):
            amplitude = 1.0 / (k ** profile.spectral_tilt)
            source += amplitude * np.sin(2.0 * np.pi * k * f0 * drift * t + phase[k - 1])
        source /= max(np.max(np.abs(source)), 1e-9)
        if profile.breathiness > 0:
            source += profile.breathiness * rng.standard_normal(num_samples)
        return source

    def _formant_filter(
        self,
        source: np.ndarray,
        formants: Sequence[float],
        profile: SpeakerProfile,
    ) -> np.ndarray:
        """Cascade of second-order resonators at the (speaker-scaled) formants."""
        from scipy import signal as sps

        output = source
        nyquist = self.sample_rate / 2.0
        for frequency in profile.scaled_formants(formants):
            if frequency >= nyquist * 0.95 or frequency <= 0:
                continue
            bandwidth = (60.0 + 0.12 * frequency) * profile.bandwidth_scale
            r = np.exp(-np.pi * bandwidth / self.sample_rate)
            theta = 2.0 * np.pi * frequency / self.sample_rate
            b = [1.0 - r]
            a = [1.0, -2.0 * r * np.cos(theta), r * r]
            output = sps.lfilter(b, a, output)
        peak = np.max(np.abs(output))
        if peak > 0:
            output = output / peak
        return output

    def _noise_band(
        self,
        duration: float,
        band: tuple,
        rng: np.random.Generator,
    ) -> np.ndarray:
        num_samples = max(int(round(duration * self.sample_rate)), 8)
        noise = rng.standard_normal(num_samples)
        low, high = band
        nyquist = self.sample_rate / 2.0
        low = min(max(low, 20.0), nyquist * 0.90)
        high = min(high, nyquist * 0.98)
        if high <= low:
            high = min(low * 1.5, nyquist * 0.98)
        from scipy import signal as sps

        return sps.sosfilt(butter_sos(4, (low, high), self.sample_rate, "band"), noise)

    @staticmethod
    def _envelope(num_samples: int, attack: float = 0.15, release: float = 0.2) -> np.ndarray:
        envelope = np.ones(num_samples)
        attack_samples = max(int(num_samples * attack), 1)
        release_samples = max(int(num_samples * release), 1)
        envelope[:attack_samples] = np.linspace(0.0, 1.0, attack_samples)
        envelope[-release_samples:] *= np.linspace(1.0, 0.0, release_samples)
        return envelope

    # -- phoneme / word / sentence synthesis ---------------------------------
    def synthesize_phoneme(
        self,
        phoneme: Phoneme,
        profile: SpeakerProfile,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Render one phoneme as a float array."""
        rng = rng if rng is not None else np.random.default_rng(0)
        duration = phoneme.duration * rng.uniform(0.85, 1.2)
        if phoneme.kind == "silence":
            return np.zeros(max(int(round(duration * self.sample_rate)), 1))
        if phoneme.kind in ("vowel", "nasal", "approximant"):
            source = self._harmonic_source(duration, profile, rng)
            rendered = self._formant_filter(source, phoneme.formants, profile)
            rendered = rendered * phoneme.amplitude
        elif phoneme.kind == "fricative":
            rendered = self._noise_band(duration, phoneme.noise_band, rng) * phoneme.amplitude
            if phoneme.voiced:
                voiced_part = self._harmonic_source(duration, profile, rng)
                voiced_part = self._formant_filter(voiced_part, (300.0, 1200.0), profile)
                rendered = rendered + 0.4 * voiced_part[: rendered.size]
        elif phoneme.kind == "stop":
            closure = np.zeros(int(round(0.03 * self.sample_rate)))
            burst_duration = max(duration - 0.03, 0.02)
            burst = self._noise_band(burst_duration, phoneme.noise_band, rng)
            burst *= np.exp(-np.linspace(0.0, 6.0, burst.size))
            rendered = np.concatenate([closure, burst * phoneme.amplitude])
            if phoneme.voiced:
                murmur = self._harmonic_source(0.03, profile, rng) * 0.2
                rendered[: murmur.size] += murmur
        else:  # pragma: no cover - inventory is fixed
            raise ValueError(f"unknown phoneme kind: {phoneme.kind}")
        envelope = self._envelope(rendered.size)
        rendered = rendered * envelope
        peak = np.max(np.abs(rendered))
        if peak > 1.0:
            rendered = rendered / peak
        return rendered * profile.gain

    def synthesize_word(
        self,
        word: str,
        profile: SpeakerProfile,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Render a lexicon word."""
        rng = rng if rng is not None else np.random.default_rng(0)
        symbols = LEXICON.get(word.lower())
        if symbols is None:
            raise KeyError(f"word '{word}' is not in the lexicon")
        pieces = [
            self.synthesize_phoneme(PHONEME_INVENTORY[symbol], profile, rng)
            for symbol in symbols
        ]
        return np.concatenate(pieces) if pieces else np.zeros(1)

    def synthesize_sentence(
        self,
        text: str,
        profile: SpeakerProfile,
        rng: Optional[np.random.Generator] = None,
        peak: float = 0.5,
    ) -> AudioSignal:
        """Render a whole sentence with inter-word gaps; peak-normalised."""
        rng = rng if rng is not None else np.random.default_rng(0)
        words = sentence_words(text)
        gap = np.zeros(int(round(self.word_gap * self.sample_rate)))
        pieces: List[np.ndarray] = [gap.copy()]
        for word in words:
            pieces.append(self.synthesize_word(word, profile, rng))
            pieces.append(gap.copy())
        samples = np.concatenate(pieces)
        maximum = np.max(np.abs(samples))
        if maximum > 0:
            samples = samples * (peak / maximum)
        return AudioSignal(samples, self.sample_rate)
