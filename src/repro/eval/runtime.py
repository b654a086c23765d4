"""Running-time analysis: NEC vs VoiceFilter (paper Table II)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.voicefilter import VoiceFilterModel
from repro.channel.ultrasound import am_modulate
from repro.core.config import NECConfig
from repro.core.encoder import SpectralEncoder
from repro.core.selector import Selector
from repro.dsp.stft import magnitude_spectrogram
from repro.eval.reporting import format_table

#: Slow-down factor applied to estimate Raspberry Pi 4 latency from the local
#: measurement.  The paper measures ~190x between a 1080Ti and a Pi 4 for the
#: selector; the exact constant does not matter for the comparison — what
#: Table II establishes is that (a) NEC's selector is faster than VoiceFilter
#: on the same platform and (b) the edge-deployment latency stays below the
#: 300 ms overshadowing tolerance at the paper's model scale.
RASPBERRY_PI_FACTOR = 190.0


@dataclass
class ModuleTiming:
    """Mean per-invocation latency (milliseconds) of one pipeline module."""

    encoder_ms: float
    selector_ms: float
    broadcast_ms: float

    @property
    def total_ms(self) -> float:
        return self.encoder_ms + self.selector_ms + self.broadcast_ms


@dataclass
class RuntimeResult:
    """Latency of NEC and VoiceFilter on the local platform and a Pi estimate."""

    nec: ModuleTiming
    voicefilter: ModuleTiming
    pi_factor: float = RASPBERRY_PI_FACTOR
    audio_seconds: float = 1.0

    @property
    def selector_speedup(self) -> float:
        """How much faster NEC's selector is than VoiceFilter's separator."""
        if self.nec.selector_ms <= 0:
            return float("inf")
        return self.voicefilter.selector_ms / self.nec.selector_ms

    def pi_estimate(self, timing: ModuleTiming) -> ModuleTiming:
        return ModuleTiming(
            encoder_ms=timing.encoder_ms * self.pi_factor,
            selector_ms=timing.selector_ms * self.pi_factor,
            broadcast_ms=timing.broadcast_ms,
        )

    def table(self) -> str:
        rows = [
            ["local", "NEC", self.nec.encoder_ms, self.nec.selector_ms, self.nec.broadcast_ms],
            [
                "local",
                "VoiceFilter",
                self.voicefilter.encoder_ms,
                self.voicefilter.selector_ms,
                self.voicefilter.broadcast_ms,
            ],
            [
                "pi-estimate",
                "NEC",
                self.pi_estimate(self.nec).encoder_ms,
                self.pi_estimate(self.nec).selector_ms,
                self.pi_estimate(self.nec).broadcast_ms,
            ],
            [
                "pi-estimate",
                "VoiceFilter",
                self.pi_estimate(self.voicefilter).encoder_ms,
                self.pi_estimate(self.voicefilter).selector_ms,
                self.pi_estimate(self.voicefilter).broadcast_ms,
            ],
        ]
        return format_table(
            ["platform", "system", "encoder (ms)", "selector (ms)", "broadcast (ms)"], rows
        )


def _time_call(function, repetitions: int) -> float:
    """Mean wall-clock latency of ``function()`` in milliseconds (after warm-up)."""
    function()  # warm-up: exclude one-time allocation effects from the measurement
    start = time.perf_counter()
    for _ in range(max(repetitions, 1)):
        function()
    elapsed = time.perf_counter() - start
    return 1000.0 * elapsed / max(repetitions, 1)


def run_runtime_analysis(
    config: Optional[NECConfig] = None,
    audio_seconds: float = 1.0,
    repetitions: int = 3,
    seed: int = 0,
) -> RuntimeResult:
    """Table II: per-module latency for NEC and VoiceFilter on 1 s of audio.

    Both separators run gradient-free: NEC's Selector through
    :meth:`Selector.shadow_spectrogram_batch`, the path ``NECSystem.protect``
    and the serving layer run, and VoiceFilter through
    :meth:`VoiceFilterModel.separate`, whose convolutions use the same
    :meth:`Conv2d.infer`.  Both run float64, whatever
    ``config.inference_dtype`` says, so the comparison is like for like
    (VoiceFilter's LSTM runs on the float64 autograd substrate).
    """
    config = (config or NECConfig.default()).validate()
    rng = np.random.default_rng(seed)
    sample_count = int(audio_seconds * config.sample_rate)
    audio = rng.normal(scale=0.1, size=sample_count)

    from repro.audio.signal import AudioSignal

    signal = AudioSignal(audio, config.sample_rate)
    encoder = SpectralEncoder(config, seed=seed)
    selector = Selector(config, seed=seed)
    voicefilter = VoiceFilterModel(config, seed=seed)
    embedding = encoder.embed([signal])
    spectrogram = magnitude_spectrogram(
        audio, config.n_fft, config.win_length, config.hop_length
    )

    encoder_ms = _time_call(lambda: encoder.embed([signal]), repetitions)
    nec_selector_ms = _time_call(
        lambda: selector.shadow_spectrogram_batch(spectrogram[None], embedding)[0],
        repetitions,
    )
    voicefilter_ms = _time_call(
        lambda: voicefilter.separate(spectrogram, embedding), repetitions
    )
    broadcast_ms = _time_call(
        lambda: am_modulate(signal, carrier_hz=config.carrier_khz * 1000.0),
        repetitions,
    )

    nec = ModuleTiming(encoder_ms=encoder_ms, selector_ms=nec_selector_ms, broadcast_ms=broadcast_ms)
    voicefilter_timing = ModuleTiming(
        encoder_ms=encoder_ms, selector_ms=voicefilter_ms, broadcast_ms=broadcast_ms
    )
    return RuntimeResult(nec=nec, voicefilter=voicefilter_timing, audio_seconds=audio_seconds)
