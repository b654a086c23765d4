"""Multi-recorder study: one NEC emission, several eavesdropping phones (Table IV)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.audio.mixing import joint_conversation
from repro.channel.recorder import Recorder, SceneSource
from repro.channel.ultrasound import nec_speaker
from repro.eval.common import ExperimentContext, prepare_context
from repro.eval.reporting import format_table
from repro.metrics.sdr import sdr
from repro.metrics.sonr import sonr


@dataclass
class MultiRecorderTrial:
    """One mixed audio recorded simultaneously by all recorders."""

    audio_id: int
    carrier_khz: float
    affected_devices: List[str] = field(default_factory=list)
    sdr_with_nec: Dict[str, float] = field(default_factory=dict)
    sdr_without_nec: Dict[str, float] = field(default_factory=dict)

    @property
    def num_affected(self) -> int:
        return len(self.affected_devices)


@dataclass
class MultiRecorderResult:
    recorders: List[str]
    trials: List[MultiRecorderTrial] = field(default_factory=list)

    def counts_for(self, carrier_khz: float) -> Dict[str, str]:
        """The "1+ / 2+ / 3+" columns of Table IV for one carrier frequency."""
        trials = [t for t in self.trials if abs(t.carrier_khz - carrier_khz) < 1e-9]
        total = len(trials)
        counts = {}
        for threshold in (1, 2, 3):
            hits = sum(1 for trial in trials if trial.num_affected >= threshold)
            counts[f"{threshold}+"] = f"{hits}/{total}"
        return counts

    def table(self) -> str:
        carriers = sorted({t.carrier_khz for t in self.trials})
        rows = []
        for carrier in carriers:
            counts = self.counts_for(carrier)
            rows.append([carrier, counts["1+"], counts["2+"], counts["3+"]])
        return format_table(["fc (kHz)", "1+", "2+", "3+"], rows)


def run_multi_recorder_study(
    context: Optional[ExperimentContext] = None,
    carriers_khz: Sequence[float] = (26.3, 27.2, 27.4),
    recorders: Sequence[str] = ("Moto Z4", "Mi 8 Lite", "Pocophone", "Galaxy S9"),
    num_audios: int = 3,
    distance_m: float = 0.5,
    recorder_angle_deg: float = 0.0,
    affected_margin_db: float = 3.0,
    seed: int = 0,
) -> MultiRecorderResult:
    """Table IV: can one carrier setting affect several recorders at once?

    A device counts as "affected" when the recording's sound-to-noise ratio
    against Bob's received speech rises by at least ``affected_margin_db`` once
    NEC is switched on — i.e. the demodulated shadow measurably overshadows
    Bob at that recorder.  Every recorder listens to the same scene
    simultaneously.

    ``recorder_angle_deg`` places all recorders off the axis Bob (and the
    co-located NEC transmitter) face — the scenario grid's recorder-angle
    axis.  At the default 0 degrees the study is bit-identical to the
    original on-axis Table IV setup.
    """
    context = context if context is not None else prepare_context(seed=seed)
    config = context.config
    corpus = context.corpus
    result = MultiRecorderResult(recorders=list(recorders))
    for carrier in carriers_khz:
        for audio_id in range(num_audios):
            target = context.target_speakers[audio_id % len(context.target_speakers)]
            other = context.other_speakers[audio_id % len(context.other_speakers)]
            mixed, bob, alice, _tu, _ou = joint_conversation(
                corpus, target, other, duration=config.segment_seconds, seed=seed + audio_id
            )
            system = context.system_for(target)
            trial = MultiRecorderTrial(audio_id=audio_id, carrier_khz=float(carrier))
            for device_name in recorders:
                recorder_off = Recorder(device_name, seed=seed)
                recorder_on = Recorder(device_name, seed=seed)
                bob_recorder = Recorder(device_name, seed=seed)
                recorded_off = recorder_off.record_scene(
                    [
                        SceneSource(
                            bob, distance_m, angle_deg=recorder_angle_deg, label="target"
                        ),
                        SceneSource(alice, 0.05, label="background"),
                    ]
                )
                recorded_on = _record_with_carrier(
                    system, bob, alice, recorder_on, distance_m, carrier,
                    angle_deg=recorder_angle_deg,
                )
                bob_received = bob_recorder.record_scene(
                    [SceneSource(bob, distance_m, angle_deg=recorder_angle_deg)]
                )
                sonr_off = sonr(recorded_off.data, bob_received.data)
                sonr_on = sonr(recorded_on.data, bob_received.data)
                trial.sdr_without_nec[device_name] = sdr(bob.data, recorded_off.data)
                trial.sdr_with_nec[device_name] = sdr(bob.data, recorded_on.data)
                if sonr_on >= sonr_off + affected_margin_db:
                    trial.affected_devices.append(device_name)
            result.trials.append(trial)
    return result


def _record_with_carrier(system, bob, alice, recorder, distance_m, carrier_khz, angle_deg=0.0):
    """Record over the air using an explicit carrier frequency.

    The speaker is built per call, so the sweep never changes the carrier
    that ``system``'s other recordings broadcast on.
    """
    protection = system.protect(bob + alice)
    broadcast = nec_speaker(system.config, carrier_khz).broadcast(protection.shadow_wave)
    sources = [
        SceneSource(bob, distance_m, angle_deg=angle_deg, label="target"),
        SceneSource(alice, 0.05, label="background"),
        SceneSource(
            broadcast,
            distance_m,
            is_ultrasound=True,
            carrier_khz=carrier_khz,
            angle_deg=angle_deg,
            label="nec",
        ),
    ]
    return recorder.record_scene(sources)
