"""Speech-recognition substitute for Google's speech-to-text service.

The paper measures Word Error Rate by sending recordings to Google's
speech-to-text API.  Offline, this package provides a small isolated-word
recogniser over the synthetic corpus vocabulary: utterances are segmented at
the silent gaps the synthesiser places between words, each segment is reduced
to an MFCC sequence, and dynamic-time-warping distance against per-word
templates (enrolled from several synthetic reference speakers) picks the
recognised word.  The recogniser only needs to provide a *monotone* quality
signal — clean speech decodes well, overlapped or shadow-cancelled speech
decodes badly — which is exactly the role WER plays in the paper's Fig. 11.
"""

from repro.asr.dtw import dtw_distance, dtw_distance_many
from repro.asr.segmentation import segment_words
from repro.asr.recognizer import TemplateRecognizer, TranscriptionResult, clear_template_cache

__all__ = [
    "dtw_distance",
    "dtw_distance_many",
    "segment_words",
    "TemplateRecognizer",
    "TranscriptionResult",
    "clear_template_cache",
]
