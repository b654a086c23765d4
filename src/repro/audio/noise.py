"""NOISEX-92-like noise generators (Table I of the paper).

The paper mixes target speech with four noise scenarios:

* *Joint conversation* — another speaker talking (handled by the corpus);
* *Babble* — 100 people whispering, energy up to ~4 kHz;
* *Factory* — a production hall, energy up to ~2 kHz with impulsive events;
* *Vehicle* — a car at 120 km/h, low-frequency rumble below ~500 Hz.

Each generator is procedural and deterministic given a seed, and respects the
band-limit listed in Table I.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.audio.signal import AudioSignal
from repro.audio.voice import VoiceSynthesizer, random_speaker_profile
from repro.audio.lexicon import random_sentence
from repro.dsp.filters import butter_sos


def white_noise(
    duration: float, sample_rate: int, rng: Optional[np.random.Generator] = None, rms: float = 0.1
) -> AudioSignal:
    """Flat-spectrum Gaussian noise (also used by the white-noise jammer baseline)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    samples = rng.standard_normal(int(round(duration * sample_rate)))
    samples *= rms / max(np.sqrt(np.mean(samples**2)), 1e-12)
    return AudioSignal(samples, sample_rate)


def _band_limit(samples: np.ndarray, high_hz: float, sample_rate: int, low_hz: float = 20.0) -> np.ndarray:
    nyquist = sample_rate / 2.0
    high = min(high_hz, nyquist * 0.98)
    low = max(low_hz, 1.0)
    from scipy import signal as sps

    return sps.sosfilt(butter_sos(6, (low, high), sample_rate, "band"), samples)


def babble_noise(
    duration: float,
    sample_rate: int,
    rng: Optional[np.random.Generator] = None,
    num_voices: int = 8,
    rms: float = 0.1,
) -> AudioSignal:
    """Many-voice babble: overlapping synthetic voices band-limited to 4 kHz."""
    rng = rng if rng is not None else np.random.default_rng(0)
    synthesizer = VoiceSynthesizer(sample_rate=sample_rate)
    total = np.zeros(int(round(duration * sample_rate)))
    for index in range(num_voices):
        profile = random_speaker_profile(f"babble{index}", rng)
        sentence = random_sentence(rng, num_words=6)
        voice = synthesizer.synthesize_sentence(sentence, profile, rng).data
        if voice.size < total.size:
            reps = int(np.ceil(total.size / voice.size))
            voice = np.tile(voice, reps)
        offset = int(rng.integers(0, max(voice.size - total.size, 1)))
        total += voice[offset : offset + total.size] * rng.uniform(0.4, 1.0)
    total = _band_limit(total, 4000.0, sample_rate)
    total *= rms / max(np.sqrt(np.mean(total**2)), 1e-12)
    return AudioSignal(total, sample_rate)


def factory_noise(
    duration: float,
    sample_rate: int,
    rng: Optional[np.random.Generator] = None,
    rms: float = 0.1,
) -> AudioSignal:
    """Production-hall noise: broadband floor (< 2 kHz) plus impulsive clanks."""
    rng = rng if rng is not None else np.random.default_rng(0)
    num_samples = int(round(duration * sample_rate))
    floor = _band_limit(rng.standard_normal(num_samples), 2000.0, sample_rate)
    # Impulsive machinery events: exponentially decaying tone bursts.
    events = np.zeros(num_samples)
    num_events = max(int(duration * 3), 1)
    for _ in range(num_events):
        start = int(rng.integers(0, max(num_samples - 1, 1)))
        length = int(rng.uniform(0.05, 0.15) * sample_rate)
        length = min(length, num_samples - start)
        if length <= 0:
            continue
        t = np.arange(length) / sample_rate
        tone = np.sin(2 * np.pi * rng.uniform(300.0, 1500.0) * t) * np.exp(-t * 30.0)
        events[start : start + length] += tone * rng.uniform(1.0, 3.0)
    total = floor + events
    total = _band_limit(total, 2000.0, sample_rate)
    total *= rms / max(np.sqrt(np.mean(total**2)), 1e-12)
    return AudioSignal(total, sample_rate)


def vehicle_noise(
    duration: float,
    sample_rate: int,
    rng: Optional[np.random.Generator] = None,
    rms: float = 0.1,
) -> AudioSignal:
    """Interior car noise at speed: heavy low-frequency rumble below 500 Hz."""
    rng = rng if rng is not None else np.random.default_rng(0)
    num_samples = int(round(duration * sample_rate))
    t = np.arange(num_samples) / sample_rate
    rumble = _band_limit(rng.standard_normal(num_samples), 500.0, sample_rate, low_hz=10.0)
    engine = np.zeros(num_samples)
    base = rng.uniform(70.0, 110.0)
    for harmonic in range(1, 5):
        engine += np.sin(2 * np.pi * base * harmonic * t + rng.uniform(0, 2 * np.pi)) / harmonic
    total = rumble * 2.0 + engine * 0.5
    total = _band_limit(total, 500.0, sample_rate, low_hz=10.0)
    total *= rms / max(np.sqrt(np.mean(total**2)), 1e-12)
    return AudioSignal(total, sample_rate)


NoiseGenerator = Callable[..., AudioSignal]

#: Scenario name -> (generator, approximate occupied band in Hz), as in Table I.
NOISE_SCENARIOS: Dict[str, tuple] = {
    "babble": (babble_noise, (0.0, 4000.0)),
    "factory": (factory_noise, (0.0, 2000.0)),
    "vehicle": (vehicle_noise, (0.0, 500.0)),
    "white": (white_noise, (0.0, 8000.0)),
}


def noise_by_name(
    name: str,
    duration: float,
    sample_rate: int,
    rng: Optional[np.random.Generator] = None,
    rms: float = 0.1,
) -> AudioSignal:
    """Generate a named noise scenario from :data:`NOISE_SCENARIOS`."""
    try:
        generator, _band = NOISE_SCENARIOS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown noise scenario '{name}'; choose from {sorted(NOISE_SCENARIOS)}"
        ) from exc
    return generator(duration, sample_rate, rng=rng, rms=rms)
