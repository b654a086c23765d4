"""A recorder capturing a scene of audible speakers and ultrasonic broadcasts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.audio.signal import AudioSignal
from repro.audio.mixing import mix_signals
from repro.channel.devices import DeviceProfile, get_device
from repro.channel.motion import LinearMotion, propagate_moving
from repro.channel.propagation import directivity_gain, propagate
from repro.channel.rir import RoomModel, apply_rir
from repro.channel.ultrasound import ULTRASOUND_RATE, nec_speaker

if TYPE_CHECKING:
    from repro.core.pipeline import NECSystem, ProtectionResult


@dataclass
class SceneSource:
    """One sound source in a recording scene.

    ``signal`` is the emitted waveform at the source.  ``is_ultrasound`` marks
    NEC broadcasts (already AM-modulated, at the ultrasound simulation rate);
    everything else is ordinary audible sound.  ``extra_delay_s`` adds system
    processing latency on top of the propagation delay (the paper's t_p).

    The scenario-matrix axes attach here: ``motion`` replaces the fixed
    ``distance_m`` with a time-varying trajectory (``distance_m`` then only
    documents the starting point), and ``angle_deg`` applies the source's
    directivity towards an off-axis recorder (ultrasonic beams are much
    narrower than speech — see
    :func:`repro.channel.propagation.directivity_gain`).
    """

    signal: AudioSignal
    distance_m: float
    is_ultrasound: bool = False
    carrier_khz: Optional[float] = None
    extra_delay_s: float = 0.0
    label: str = ""
    motion: Optional[LinearMotion] = None
    angle_deg: float = 0.0


class Recorder:
    """A smartphone recorder placed in a scene (the paper's "Alice's phone")."""

    def __init__(
        self,
        device: DeviceProfile | str = "Moto Z4",
        seed: int = 0,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.microphone = self.device.microphone()
        self._rng = np.random.default_rng(seed)

    def record_scene(
        self,
        sources: Sequence[SceneSource],
        room: Optional[RoomModel] = None,
    ) -> AudioSignal:
        """Record all sources after propagating each to the recorder position.

        Audible sources are propagated and mixed in the audible band;
        ultrasonic sources are propagated at the ultrasound rate, scaled by the
        device's carrier response, and demodulated by the microphone's
        non-linearity inside :meth:`MicrophoneModel.record`.

        ``room`` convolves every propagated source with the room's impulse
        response (reduced tail gain for ultrasonic sources); per-source
        ``motion`` and ``angle_deg`` switch in the moving-source propagator
        and the directivity pattern.  All three default to the paper's setup
        (direct path, static, on-axis), in which case the scene is
        bit-identical to one that never mentions them.
        """
        if not sources:
            raise ValueError("record_scene needs at least one source")
        audible_parts: List[AudioSignal] = []
        ultrasonic_parts: List[AudioSignal] = []
        for source in sources:
            if source.motion is not None and not source.motion.is_static:
                propagated = propagate_moving(
                    source.signal,
                    source.motion,
                    include_absorption=not source.is_ultrasound,
                    extra_delay_s=source.extra_delay_s,
                )
            else:
                distance = (
                    source.motion.start_m if source.motion is not None else source.distance_m
                )
                propagated = propagate(
                    source.signal,
                    distance,
                    include_absorption=not source.is_ultrasound,
                    extra_delay_s=source.extra_delay_s,
                )
            if source.angle_deg != 0.0:
                propagated = propagated.scale(
                    directivity_gain(source.angle_deg, ultrasound=source.is_ultrasound)
                )
            if room is not None and not room.is_anechoic:
                propagated = apply_rir(
                    propagated,
                    room.impulse_response(
                        propagated.sample_rate,
                        tail_gain=room.ultrasound_tail_gain if source.is_ultrasound else 1.0,
                    ),
                )
            if source.is_ultrasound:
                carrier_khz = source.carrier_khz
                if carrier_khz is None:
                    raise ValueError("ultrasound sources must specify carrier_khz")
                response = self.device.carrier_response(carrier_khz)
                ultrasonic_parts.append(propagated.scale(response))
            else:
                audible_parts.append(propagated)

        audible = mix_signals(audible_parts) if audible_parts else None
        ultrasonic = mix_signals(ultrasonic_parts) if ultrasonic_parts else None
        return self.microphone.record(audible, ultrasonic, rng=self._rng)


def record_over_the_air(
    system: NECSystem,
    target_audio: AudioSignal,
    background_audio: Optional[AudioSignal],
    recorder: Recorder,
    distance_m: float = 1.0,
    nec_distance_m: Optional[float] = None,
    processing_delay_s: float = 0.0,
    enabled: bool = True,
    protection: Optional[ProtectionResult] = None,
) -> AudioSignal:
    """Record a scene protected by ``system`` at a (simulated) smartphone.

    The target speaker and the NEC ultrasonic speaker
    (:func:`~repro.channel.ultrasound.nec_speaker` for ``system.config``) are
    co-located (Bob carries the device, as in the paper's Fig. 12); the
    optional background speaker is at the recorder's position (Alice records
    herself).  With ``enabled=False`` the same scene is recorded without NEC —
    the "mixed" baseline of the evaluation.

    ``protection`` lets callers supply a precomputed shadow for the scene's
    target+background mix (it does not depend on the recording geometry, so
    e.g. a distance sweep computes it once — via the eval harness's batched
    driver — and re-records the same shadow at every distance).
    """
    sources: List[SceneSource] = [SceneSource(target_audio, distance_m, label="target")]
    if background_audio is not None:
        sources.append(SceneSource(background_audio, 0.05, label="background"))
    if enabled:
        if protection is None:
            nec_mix = target_audio if background_audio is None else target_audio + background_audio
            protection = system.protect(nec_mix)
        sources.append(
            SceneSource(
                nec_speaker(system.config).broadcast(protection.shadow_wave),
                nec_distance_m if nec_distance_m is not None else distance_m,
                is_ultrasound=True,
                carrier_khz=system.config.carrier_khz,
                extra_delay_s=processing_delay_s,
                label="nec",
            )
        )
    return recorder.record_scene(sources)
