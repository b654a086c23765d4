"""Mixing utilities: SNR-controlled mixtures and joint conversations."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.audio.signal import AudioSignal

if TYPE_CHECKING:  # annotations only: mixing must not load the speech synthesiser
    from repro.audio.corpus import SyntheticCorpus, Utterance


def mix_at_snr(
    target: AudioSignal, interference: AudioSignal, snr_db: float
) -> Tuple[AudioSignal, AudioSignal]:
    """Scale ``interference`` so that target/interference power ratio is ``snr_db``.

    Returns ``(mixed, scaled_interference)`` so that callers keep access to the
    exact interference component that entered the mixture (needed for SDR
    ground truth).
    """
    if target.sample_rate != interference.sample_rate:
        raise ValueError("sample-rate mismatch between target and interference")
    target_rms = target.rms()
    interference_rms = interference.rms()
    if interference_rms == 0:
        return target.copy(), interference.copy()
    desired = target_rms / (10.0 ** (snr_db / 20.0)) if target_rms > 0 else interference_rms
    scaled = interference.scale_to_rms(desired)
    length = max(target.num_samples, scaled.num_samples)
    mixed = target.fit_to(length) + scaled.fit_to(length)
    return mixed, scaled.fit_to(length)


def mix_signals(signals: Sequence[AudioSignal]) -> AudioSignal:
    """Sample-wise sum of signals (padded to the longest)."""
    if not signals:
        raise ValueError("mix_signals requires at least one signal")
    sample_rate = signals[0].sample_rate
    length = max(signal.num_samples for signal in signals)
    total = AudioSignal(np.zeros(length), sample_rate)
    for signal in signals:
        total = total + signal.fit_to(length)
    return total


def joint_conversation(
    corpus: SyntheticCorpus,
    target_speaker: str,
    other_speaker: str,
    duration: float = 3.0,
    snr_db: float = 0.0,
    seed: int = 0,
) -> Tuple[AudioSignal, AudioSignal, AudioSignal, Utterance, Utterance]:
    """Two speakers talking jointly (the paper's "Joint Conv." scenario).

    Returns ``(mixed, target_component, other_component, target_utt, other_utt)``
    with every component trimmed/padded to ``duration`` seconds.
    """
    target_utterance = corpus.utterance(target_speaker, seed=seed, duration=duration)
    other_utterance = corpus.utterance(other_speaker, seed=seed + 7, duration=duration)
    target_audio = target_utterance.audio
    mixed, other_scaled = mix_at_snr(target_audio, other_utterance.audio, snr_db)
    num_samples = int(round(duration * corpus.sample_rate))
    return (
        mixed.fit_to(num_samples),
        target_audio.fit_to(num_samples),
        other_scaled.fit_to(num_samples),
        target_utterance,
        other_utterance,
    )
