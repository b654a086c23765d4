"""Reproduction of "NEC: Speaker Selective Cancellation via Neural Enhanced
Ultrasound Shadowing" (DSN 2022) as a self-contained Python library.

Public entry points:

* :class:`repro.core.NECConfig` / :class:`repro.core.NECSystem` — the NEC
  system itself (enroll, protect, superpose);
* :mod:`repro.serving` — the multi-tenant protection service;
* :mod:`repro.audio` — synthetic speech corpus and NOISEX-like noises;
* :mod:`repro.channel` — ultrasound modulation (the device's speaker,
  :func:`repro.channel.nec_speaker`), propagation, the non-linear
  microphone / device models and
  :func:`repro.channel.record_over_the_air`;
* :mod:`repro.baselines` — white-noise jammer, Patronus-style scrambler,
  VoiceFilter;
* :mod:`repro.eval` — the experiment harness reproducing every table and
  figure of the paper's evaluation;
* :mod:`repro.nn`, :mod:`repro.dsp`, :mod:`repro.asr`, :mod:`repro.metrics` —
  the substrates everything above is built on.

See ``docs/architecture.md`` for the system inventory and its figure/table
map for which benchmark regenerates each paper result.

Importing this package loads only the protection path: neither the channel
simulator, the speech synthesiser, the trainer nor ``scipy.signal``.
"""

from repro.core.config import NECConfig
from repro.core.pipeline import NECSystem, ProtectionResult

__version__ = "1.0.0"

__all__ = ["NECConfig", "NECSystem", "ProtectionResult", "__version__"]
