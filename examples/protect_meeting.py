#!/usr/bin/env python3
"""User case study 2 (paper Fig. 12/15): hide Bob from Alice's phone over the air.

Bob carries the NEC device (ultrasonic speaker co-located with him) and stands
at increasing distances from Alice's smartphone; Alice speaks next to her own
phone.  The whole chain is simulated: shadow generation, AM modulation onto a
27 kHz carrier, propagation, demodulation through the Moto Z4's microphone
non-linearity — and SONR (power of the recording over Bob's share) is reported
with and without NEC, as in the paper's Fig. 15(b).

Run with:  python examples/protect_meeting.py
"""

from __future__ import annotations

from repro.channel import Recorder, SceneSource, record_over_the_air
from repro.eval.common import prepare_context
from repro.metrics import sonr


def main() -> None:
    context = prepare_context(
        num_speakers=6, num_targets=1, examples_per_target=5, training_epochs=6, seed=3
    )
    config = context.config
    corpus = context.corpus
    bob_id = context.target_speakers[0]
    alice_id = context.other_speakers[0]
    system = context.system_for(bob_id)

    bob = corpus.utterance(bob_id, seed=1, duration=config.segment_seconds).audio
    alice = corpus.utterance(alice_id, seed=2, duration=config.segment_seconds).audio

    print("distance (m) | SONR without NEC (dB) | SONR with NEC (dB)")
    print("-------------+------------------------+-------------------")
    for distance in (0.5, 1.0, 2.0, 3.0):
        recorder_off = Recorder("Moto Z4", seed=0)
        recorder_on = Recorder("Moto Z4", seed=0)
        bob_only = Recorder("Moto Z4", seed=0).record_scene([SceneSource(bob, distance)])
        recorded_off = record_over_the_air(system, bob, alice, recorder_off, distance_m=distance, enabled=False)
        recorded_on = record_over_the_air(system, bob, alice, recorder_on, distance_m=distance, enabled=True)
        print(
            f"{distance:12.1f} | {sonr(recorded_off.data, bob_only.data):22.1f} |"
            f" {sonr(recorded_on.data, bob_only.data):18.1f}"
        )
    print("\nWithin ~2 m NEC's demodulated shadow overshadows Bob's voice at the")
    print("recorder; beyond that Bob's voice is already too weak to matter.")


if __name__ == "__main__":
    main()
