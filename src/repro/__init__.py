"""Reproduction of "NEC: Speaker Selective Cancellation via Neural Enhanced
Ultrasound Shadowing" (DSN 2022) as a self-contained Python library.

Public entry points:

* :class:`repro.core.NECConfig` / :class:`repro.core.NECSystem` — the NEC
  system itself (enroll, protect, broadcast, record);
* :mod:`repro.audio` — synthetic speech corpus and NOISEX-like noises;
* :mod:`repro.channel` — ultrasound modulation, propagation and the
  non-linear microphone / device models;
* :mod:`repro.baselines` — white-noise jammer, Patronus-style scrambler,
  VoiceFilter;
* :mod:`repro.eval` — the experiment harness reproducing every table and
  figure of the paper's evaluation;
* :mod:`repro.nn`, :mod:`repro.dsp`, :mod:`repro.asr`, :mod:`repro.metrics` —
  the substrates everything above is built on.

See ``docs/architecture.md`` for the system inventory and its figure/table
map for which benchmark regenerates each paper result.
"""

from repro.core.config import NECConfig
from repro.core.pipeline import NECSystem, ProtectionResult

__version__ = "1.0.0"

__all__ = ["NECConfig", "NECSystem", "ProtectionResult", "__version__"]
