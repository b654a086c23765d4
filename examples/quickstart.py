#!/usr/bin/env python3
"""Quickstart: enroll a target speaker, train a Selector, hide his voice.

This walks the full NEC pipeline on synthetic data at the reduced geometry:

1. build a corpus of synthetic speakers;
2. train the Selector on crafted mixtures (paper Eq. 6);
3. enroll "Bob" from three reference audios;
4. protect a mixed conversation and measure how well Bob is hidden and how
   well "Alice" is retained (SDR, as in the paper's Fig. 11).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.audio import SyntheticCorpus, joint_conversation
from repro.core import NECConfig, NECSystem, Selector, SelectorTrainer, SpectralEncoder
from repro.core.config import TrainingConfig
from repro.core.training import ExampleStream
from repro.metrics import sdr


def main() -> None:
    config = NECConfig.tiny()
    print(f"Signal geometry: {config.sample_rate} Hz, spectrogram {config.spectrogram_shape}")

    # 1. Corpus: 2 protected target speakers, 4 interference speakers.
    corpus = SyntheticCorpus(num_speakers=6, sample_rate=config.sample_rate, seed=42)
    targets, others = corpus.split_speakers(2, 4)
    bob, alice = targets[0], others[0]

    # 2. Train the Selector on crafted mixtures (frozen spectral encoder) under
    #    one recipe: 5 mixtures per target, Adam at the default constant
    #    learning rate, batches of 8, 8 epochs.
    training = TrainingConfig(epochs=8, num_examples_per_target=5)
    encoder = SpectralEncoder(config, seed=0)
    selector = Selector(config, seed=0)
    stream = ExampleStream(corpus, encoder, config, targets, others, training=training, seed=1)
    examples = stream.take(len(targets) * training.num_examples_per_target)
    trainer = SelectorTrainer(selector, config=training)
    history = trainer.fit(examples)
    print(f"Selector training loss: {history.initial_loss:.3f} -> {history.final_loss:.3f}")

    # 3. Enroll Bob with 3 reference clips (the paper's one-fits-all enrollment).
    system = NECSystem(config, encoder=encoder, selector=selector)
    system.enroll(corpus.reference_audios(bob, count=3, seconds=config.reference_seconds))

    # 4. Protect a joint conversation and measure the effect.
    mixed, bob_component, alice_component, _bu, _au = joint_conversation(
        corpus, bob, alice, duration=config.segment_seconds, seed=7
    )
    protection = system.protect(mixed)
    recorded = system.superpose(mixed, protection)

    print("\nHide Bob / retain Alice (higher SDR = more of that speaker remains):")
    print(f"  Bob   SDR: mixed {sdr(bob_component.data, mixed.data):6.2f} dB  ->  recorded {sdr(bob_component.data, recorded.data):6.2f} dB")
    print(f"  Alice SDR: mixed {sdr(alice_component.data, mixed.data):6.2f} dB  ->  recorded {sdr(alice_component.data, recorded.data):6.2f} dB")
    print(f"  predicted spectrogram suppression: {protection.predicted_suppression_db:.2f} dB")
    print("\nBob's voice is suppressed in the recording while Alice's is preserved.")


if __name__ == "__main__":
    main()
