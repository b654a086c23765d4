"""Audio substrate: signals, synthetic speech, corpora and noises.

The paper evaluates NEC on LibriSpeech utterances mixed with NOISEX-92 noise
and on live recordings of volunteers.  Neither resource is available offline,
so this package synthesises an equivalent workload:

* :mod:`repro.audio.voice` — a source-filter speech synthesiser whose
  per-speaker parameters (pitch, vocal-tract length, formant structure,
  spectral tilt) give exactly the speaker-specific / utterance-independent
  spectral behaviour the paper's mechanism relies on;
* :mod:`repro.audio.corpus` — a LibriSpeech-like corpus of synthetic speakers
  and utterances with transcripts;
* :mod:`repro.audio.noise` — NOISEX-92-like babble / factory / vehicle / white
  noise generators with the band-limits of the paper's Table I.

Only :class:`~repro.audio.signal.AudioSignal`, the interchange type of the
protection path, is imported with the package; every other name loads its
submodule on first access (PEP 562), so protecting audio never imports the
synthesiser or ``scipy.signal``.
"""

import importlib

from repro.audio.signal import AudioSignal

_SUBMODULE_OF = {
    "PHONEME_INVENTORY": "phonemes",
    "word_to_phonemes": "phonemes",
    "LEXICON": "lexicon",
    "SENTENCES": "lexicon",
    "random_sentence": "lexicon",
    "sentence_words": "lexicon",
    "SpeakerProfile": "voice",
    "VoiceSynthesizer": "voice",
    "random_speaker_profile": "voice",
    "SyntheticCorpus": "corpus",
    "white_noise": "noise",
    "babble_noise": "noise",
    "factory_noise": "noise",
    "vehicle_noise": "noise",
    "noise_by_name": "noise",
    "NOISE_SCENARIOS": "noise",
    "mix_at_snr": "mixing",
    "mix_signals": "mixing",
    "joint_conversation": "mixing",
}


def __getattr__(name):
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


__all__ = ["AudioSignal", *_SUBMODULE_OF]
