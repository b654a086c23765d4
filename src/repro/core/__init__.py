"""NEC itself: the paper's primary contribution.

* :class:`~repro.core.config.NECConfig` — the signal/model geometry (the
  paper's 16 kHz / FFT-1200 / hop-160 setup plus reduced test geometries);
* :mod:`repro.core.encoder` — the d-vector speaker encoder used as reference
  input to the Selector;
* :mod:`repro.core.selector` — the compact CNN Selector that produces the
  shadow spectrogram (Fig. 7 of the paper);
* :mod:`repro.core.overshadow` — spectrogram superposition, shadow-waveform
  reconstruction and the offset model of Sec. IV-C2;
* :mod:`repro.core.training` — the microphone-aware end-to-end training loop
  minimising ``|| (S_mixed + S_shadow) - S_bk ||^2`` (Eq. 6);
* :mod:`repro.core.pipeline` — :class:`NECSystem`, the deployable end-to-end
  system (enroll -> protect -> superpose).

The protection path never runs the training loop, so
:mod:`repro.core.training` (and the speech synthesiser it draws examples
from) loads on first access to ``repro.core.SelectorTrainer`` (PEP 562).
"""

from repro.core.config import NECConfig
from repro.core.encoder import SpeakerEncoder, SpectralEncoder, NeuralEncoder
from repro.core.selector import Selector, StreamBatch, StreamRequest
from repro.core.overshadow import (
    superpose_spectrograms,
    complex_shadow,
    shadow_waveform,
    apply_offsets,
    offset_study,
    OffsetPoint,
)
from repro.core.pipeline import (
    NECSystem,
    ProtectionResult,
    StreamingProtector,
    StreamLatencyStats,
)


def __getattr__(name):
    if name != "SelectorTrainer":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.core.training import SelectorTrainer

    globals()[name] = SelectorTrainer
    return SelectorTrainer


__all__ = [
    "NECConfig",
    "SpeakerEncoder",
    "SpectralEncoder",
    "NeuralEncoder",
    "Selector",
    "StreamBatch",
    "StreamRequest",
    "superpose_spectrograms",
    "complex_shadow",
    "shadow_waveform",
    "apply_offsets",
    "offset_study",
    "OffsetPoint",
    "SelectorTrainer",
    "NECSystem",
    "ProtectionResult",
    "StreamingProtector",
    "StreamLatencyStats",
]
