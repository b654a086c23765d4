"""A LibriSpeech-like synthetic corpus of speakers and utterances.

The paper trains on mixtures of LibriSpeech speakers and evaluates on 10
held-out target speakers (System Benchmark) and 10 live volunteers (User
Study 1).  :class:`SyntheticCorpus` plays the role of both: it owns a pool of
synthetic speakers (via :class:`~repro.audio.voice.SpeakerProfile`) and hands
out utterances, reference audios (3 clips x 3 s, as the paper requires for
enrollment) and train/test splits.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.audio.lexicon import SENTENCES
from repro.audio.signal import AudioSignal
from repro.audio.voice import SpeakerProfile, VoiceSynthesizer, random_speaker_profile


@dataclass
class Utterance:
    """One synthesised utterance with its transcript and speaker label."""

    audio: AudioSignal
    text: str
    speaker_id: str

    @property
    def words(self) -> List[str]:
        return self.text.split()


class SyntheticCorpus:
    """Pool of synthetic speakers with deterministic utterance generation."""

    def __init__(
        self,
        num_speakers: int = 50,
        sample_rate: int = 16000,
        seed: int = 0,
    ) -> None:
        if num_speakers < 2:
            raise ValueError("a corpus needs at least two speakers")
        self.sample_rate = sample_rate
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.synthesizer = VoiceSynthesizer(sample_rate=sample_rate)
        self.profiles: Dict[str, SpeakerProfile] = {}
        for index in range(num_speakers):
            speaker_id = f"spk{index:03d}"
            self.profiles[speaker_id] = random_speaker_profile(
                speaker_id, np.random.default_rng((seed + 1) * 1000 + index)
            )

    # -- speaker access ------------------------------------------------------
    @property
    def speaker_ids(self) -> List[str]:
        return sorted(self.profiles)

    def profile(self, speaker_id: str) -> SpeakerProfile:
        try:
            return self.profiles[speaker_id]
        except KeyError as exc:
            raise KeyError(f"unknown speaker '{speaker_id}'") from exc

    def split_speakers(
        self, num_targets: int, num_others: Optional[int] = None
    ) -> tuple:
        """Split the pool into (target speakers, interference speakers)."""
        ids = self.speaker_ids
        if num_others is None:
            num_others = len(ids) - num_targets
        if num_targets + num_others > len(ids):
            raise ValueError("not enough speakers in the corpus for this split")
        return ids[:num_targets], ids[num_targets : num_targets + num_others]

    # -- utterances ------------------------------------------------------------
    def utterance(
        self,
        speaker_id: str,
        text: Optional[str] = None,
        seed: int = 0,
        duration: Optional[float] = None,
    ) -> Utterance:
        """Synthesise one utterance; deterministic for a given (speaker, text, seed).

        The per-utterance stream is seeded with a *stable* hash: Python's
        built-in ``hash()`` is salted per process (and ``hash(None)`` follows
        the interpreter's address-space layout), which silently made every
        corpus realisation — and thus every benchmark quality gate —
        process-dependent.
        """
        profile = self.profile(speaker_id)
        key = f"{speaker_id}|{text}|{seed}|{self.seed}".encode()
        rng = np.random.default_rng(zlib.crc32(key))
        if text is None:
            text = SENTENCES[int(rng.integers(len(SENTENCES)))]
        audio = self.synthesizer.synthesize_sentence(text, profile, rng)
        if duration is not None:
            audio = audio.fit_to_duration(duration)
        return Utterance(audio=audio, text=text, speaker_id=speaker_id)

    def reference_audios(
        self,
        speaker_id: str,
        count: int = 3,
        seconds: float = 3.0,
    ) -> List[AudioSignal]:
        """Enrollment material: ``count`` clips of ``seconds`` each (paper: 3 x 3 s)."""
        references: List[AudioSignal] = []
        for index in range(count):
            sentence = SENTENCES[index % len(SENTENCES)]
            utterance = self.utterance(speaker_id, text=sentence, seed=1000 + index)
            references.append(utterance.audio.fit_to_duration(seconds))
        return references

    def utterances(
        self,
        speaker_id: str,
        count: int,
        seed: int = 0,
        duration: Optional[float] = None,
    ) -> List[Utterance]:
        """A batch of distinct utterances for one speaker."""
        rng = np.random.default_rng(seed)
        sentence_order = rng.permutation(len(SENTENCES))
        result = []
        for index in range(count):
            sentence = SENTENCES[int(sentence_order[index % len(SENTENCES)])]
            result.append(
                self.utterance(speaker_id, text=sentence, seed=seed * 100 + index, duration=duration)
            )
        return result
