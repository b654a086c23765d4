"""Configuration of the NEC signal geometry, model sizes and training."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.dsp.stft import spectrogram_shape


@dataclass(frozen=True)
class NECConfig:
    """Signal and model geometry shared by every NEC component.

    The :meth:`paper` preset matches Sec. IV-B1 exactly (16 kHz, 3 s segments,
    FFT 1200 -> 601 bins, Hann window 400, hop 160 -> 299 frames, d-vector 256,
    64-channel Selector).  Because this reproduction runs its DNNs on a numpy
    autograd substrate rather than a GPU framework, the :meth:`default` and
    :meth:`tiny` presets keep the same structure at reduced sizes so that the
    test-suite and benchmark harness run in seconds; every component takes the
    geometry from this object, so switching presets never changes code paths.
    """

    # Signal geometry
    sample_rate: int = 16_000
    n_fft: int = 320
    win_length: int = 320
    hop_length: int = 160
    segment_seconds: float = 1.0

    # Enrollment (reference audio) requirements — 3 clips x 3 s in the paper.
    num_reference_audios: int = 3
    reference_seconds: float = 3.0

    # Model sizes
    embedding_dim: int = 32
    selector_channels: int = 16
    selector_dilations: Tuple[int, ...] = (1, 2, 4)
    selector_kernel: int = 5
    fc_hidden: int = 128
    output_mode: str = "mask"  # "mask" (sigmoid mask, default) or "spectrogram" (paper-literal)

    # Broadcast
    carrier_khz: float = 27.0
    power_coefficient: float = 1.0

    # Encoder features
    mel_filters: int = 24

    # The dtype the served protection path computes in ("float64" | "float32").
    # Only the deployment preset, :meth:`default`, serves float32; training
    # and the evaluation studies run float64.
    inference_dtype: str = "float64"

    # -- derived geometry ------------------------------------------------------
    @property
    def segment_samples(self) -> int:
        return int(round(self.segment_seconds * self.sample_rate))

    @property
    def frequency_bins(self) -> int:
        return self.n_fft // 2 + 1

    @property
    def num_frames(self) -> int:
        return spectrogram_shape(
            self.segment_samples, self.n_fft, self.win_length, self.hop_length
        )[1]

    @property
    def spectrogram_shape(self) -> Tuple[int, int]:
        """``(frequency_bins, frames)`` of one segment."""
        return (self.frequency_bins, self.num_frames)

    @property
    def frame_resolution_ms(self) -> float:
        """Frame hop in milliseconds (25 ms with 15 ms overlap in the paper)."""
        return 1000.0 * self.hop_length / self.sample_rate

    @property
    def frequency_resolution_hz(self) -> float:
        """Width of one frequency bin in Hz (13.31 Hz in the paper)."""
        return self.sample_rate / self.n_fft

    def validate(self) -> "NECConfig":
        """Sanity-check the geometry; returns self for chaining."""
        if self.win_length > self.n_fft:
            raise ValueError("win_length must not exceed n_fft")
        if self.hop_length <= 0 or self.hop_length > self.win_length:
            raise ValueError("hop_length must be in (0, win_length]")
        if self.output_mode not in ("mask", "spectrogram"):
            raise ValueError("output_mode must be 'mask' or 'spectrogram'")
        if self.segment_samples < self.win_length:
            raise ValueError("segment too short for a single analysis window")
        if self.inference_dtype not in ("float64", "float32"):
            raise ValueError("inference_dtype must be 'float64' or 'float32'")
        return self

    def with_output_mode(self, mode: str) -> "NECConfig":
        """A copy of this config with a different selector output mode."""
        return replace(self, output_mode=mode).validate()

    # -- presets -----------------------------------------------------------------
    @classmethod
    def paper(cls) -> "NECConfig":
        """The exact geometry of the paper (heavy for a numpy backend)."""
        return cls(
            sample_rate=16_000,
            n_fft=1200,
            win_length=400,
            hop_length=160,
            segment_seconds=3.0,
            embedding_dim=256,
            selector_channels=64,
            selector_dilations=(1, 2, 4, 8),
            fc_hidden=600,
            mel_filters=40,
        ).validate()

    @classmethod
    def default(cls) -> "NECConfig":
        """The deployment preset: a reduced geometry at the paper's sample rate,
        served in float32 (the gates are in ``tests/test_precision.py``)."""
        return cls(inference_dtype="float32").validate()

    @classmethod
    def tiny(cls) -> "NECConfig":
        """The smallest sensible geometry; used by the unit-test suite."""
        return cls(
            sample_rate=8_000,
            n_fft=128,
            win_length=128,
            hop_length=64,
            segment_seconds=0.6,
            embedding_dim=8,
            selector_channels=4,
            selector_dilations=(1, 2),
            fc_hidden=32,
            mel_filters=16,
            reference_seconds=1.0,
        ).validate()


#: The one learning-rate default of the repo.  Before :class:`TrainingConfig`
#: three different values coexisted (1e-3 in ``core/training.py``, 2e-3 in
#: ``eval/common.py``, 1e-2 in ``core/encoder.py``); 2e-3 — the value every
#: benchmark context already trained with — is the canonical default, so the
#: pinned evaluation numbers keep their training dynamics.
DEFAULT_LEARNING_RATE = 2e-3


@dataclass(frozen=True)
class TrainingConfig:
    """The one training recipe of the Selector (and the encoder's learning rate).

    NEC trains on one regression loss (Eq. 6) with Adam at a constant
    ``learning_rate``; this dataclass is the only place a learning rate,
    batch size or synthetic-mixture recipe is set.  Every field has a
    sensible default, so ``TrainingConfig()`` is the canonical recipe and
    call sites override only what they mean to change.
    """

    # -- optimisation ---------------------------------------------------------
    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = 5
    batch_size: int = 8
    shuffle: bool = True
    seed: int = 0

    # -- synthetic-data pipeline ----------------------------------------------
    num_examples_per_target: int = 4
    snr_db_range: Tuple[float, float] = (-3.0, 3.0)
    noise_scenarios: Tuple[str, ...] = ("babble", "vehicle")

    def validate(self) -> "TrainingConfig":
        """Sanity-check the recipe; returns self for chaining."""
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.num_examples_per_target < 1:
            raise ValueError("num_examples_per_target must be at least 1")
        if len(self.snr_db_range) != 2 or self.snr_db_range[0] > self.snr_db_range[1]:
            raise ValueError("snr_db_range must be an ordered (low, high) pair")
        return self

    def replace(self, **overrides) -> "TrainingConfig":
        """A validated copy with ``overrides`` applied."""
        return replace(self, **overrides).validate()
