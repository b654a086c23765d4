"""Microphone-aware end-to-end training of the Selector (paper Sec. IV-B2).

The training loop imitates the superposition of waves at the microphone in
the spectrogram domain: for each crafted mixture, the recorded spectrogram is
``S_record = S_mixed + S_shadow`` and the loss drives it towards the
background spectrogram ``S_bk`` (everything except the target speaker),
paper Eq. (6).  The encoder is frozen — only the Selector's parameters are
optimised — matching the paper's procedure.

Every optimiser step runs one engine, :meth:`SelectorTrainer.step_batch`:
a whole ``(N, F, T)`` batch goes through one autograd graph
(:meth:`Selector.forward`, tap-wise convolutions), for
every batch size including one.  The batch loss is the mean of the
per-example losses, so one backward produces exactly the mean of the
per-example gradients (pinned per-op and end-to-end by
``check_batched_gradients`` in ``tests/oracles.py``).  The original
per-example loop survives only as a test oracle (``tests/oracles.py``):
:meth:`SelectorTrainer.fit` under a ``batch_size=1`` recipe follows its
example order and matches its trained parameters and losses to 1e-12
relative (``tests/test_training_batch.py``).

Training data comes from :class:`ExampleStream`, a deterministic synthetic-
mixture pipeline: example ``i`` is a pure function of ``(base_seed, i)`` via
:func:`repro.core.seeding.derive_seed` chains, so the stream is bit-identical
whether examples are built as the step needs them (``iterate``) or ahead of
time (``take``).  The whole recipe is one
:class:`repro.core.config.TrainingConfig`: the stream reads its mixture
fields, and :meth:`SelectorTrainer.fit` and
:meth:`~SelectorTrainer.fit_streaming` read their trainer's for the learning
rate, epochs, batch size, shuffle and seed.  Neither takes a keyword that sets one of them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.audio.corpus import SyntheticCorpus
from repro.audio.mixing import mix_at_snr
from repro.audio.noise import noise_by_name
from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig, TrainingConfig
from repro.core.encoder import SpeakerEncoder
from repro.core.seeding import derive_seed
from repro.core.selector import Selector
from repro.dsp.stft import magnitude_spectrogram
from repro.nn import Adam, Tensor


@dataclass
class TrainingExample:
    """One crafted mixture: spectrograms plus the frozen reference embedding."""

    mixed_spectrogram: np.ndarray      # (F, T)
    background_spectrogram: np.ndarray  # (F, T)
    d_vector: np.ndarray                # (embedding_dim,)
    target_speaker: str = ""

    def __post_init__(self) -> None:
        if self.mixed_spectrogram.shape != self.background_spectrogram.shape:
            raise ValueError("mixed and background spectrograms must share a shape")


@dataclass
class TrainingHistory:
    """Per-step trace of a training run (one entry per optimiser step)."""

    losses: List[float] = field(default_factory=list)
    epochs: int = 0
    batch_size: int = 1

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("nan")

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def steps(self) -> int:
        return len(self.losses)

    def improved(self) -> bool:
        """Did the loss go down over training?"""
        return bool(self.losses) and self.final_loss < self.initial_loss


def make_training_example(
    config: NECConfig,
    mixed_audio: AudioSignal,
    background_audio: AudioSignal,
    d_vector: np.ndarray,
    target_speaker: str = "",
) -> TrainingExample:
    """Build a training example from waveforms (spectrograms computed here)."""
    mixed = magnitude_spectrogram(
        mixed_audio.data, config.n_fft, config.win_length, config.hop_length
    )
    background = magnitude_spectrogram(
        background_audio.data, config.n_fft, config.win_length, config.hop_length
    )
    frames = min(mixed.shape[1], background.shape[1])
    return TrainingExample(
        mixed_spectrogram=mixed[:, :frames],
        background_spectrogram=background[:, :frames],
        d_vector=np.asarray(d_vector, dtype=np.float64),
        target_speaker=target_speaker,
    )


class SelectorTrainer:
    """Adam-based trainer for the Selector on spectrogram-domain superposition.

    Every hyper-parameter comes from one :class:`TrainingConfig` (default:
    ``TrainingConfig()``); Adam runs at its ``learning_rate`` for every step.
    """

    def __init__(self, selector: Selector, config: Optional[TrainingConfig] = None) -> None:
        self.selector = selector
        self.config = selector.config
        self.train_config = (config or TrainingConfig()).validate()
        self.optimizer = Adam(selector.parameters(), lr=self.train_config.learning_rate)

    # -- loss --------------------------------------------------------------------
    def batch_loss(self, examples: Sequence[TrainingExample]) -> Tensor:
        """Eq. (6) over a stacked minibatch: the mean of the per-example losses.

        All examples must share a spectrogram shape (one ``(N, F, T)`` stack,
        one autograd graph).  Because every example contributes ``T * F`` bins,
        the mean over ``(N, T, F)`` equals the mean of the per-example losses,
        so one backward through this loss yields the *mean* of the
        per-example gradients — the minibatch SGD contract.
        """
        if not examples:
            raise ValueError("batch_loss() needs at least one example")
        shape = examples[0].mixed_spectrogram.shape
        for example in examples[1:]:
            if example.mixed_spectrogram.shape != shape:
                raise ValueError(
                    "batch_loss() needs a shape-homogeneous batch: got "
                    f"{example.mixed_spectrogram.shape} alongside {shape}"
                )
        mixed = np.stack([example.mixed_spectrogram for example in examples])  # (N, F, T)
        vectors = np.stack([example.d_vector for example in examples])        # (N, dim)
        background_t = Tensor(
            np.stack([example.background_spectrogram.T for example in examples])
        )  # (N, T, F), constant
        output = self.selector(mixed, vectors)                                # (N, T, F)
        mixed_t = Tensor(mixed.transpose(0, 2, 1))                            # (N, T, F)
        if self.config.output_mode == "mask":
            record = mixed_t * (1.0 - output)
        else:
            record = mixed_t + output
        diff = record - background_t
        return (diff * diff).mean()

    # -- optimisation -------------------------------------------------------------
    def step_batch(self, examples: Sequence[TrainingExample]) -> float:
        """One Adam step on a minibatch; returns the batch loss before the step."""
        self.optimizer.zero_grad()
        loss = self.batch_loss(examples)
        loss.backward()
        self.optimizer.step()
        return float(loss.data)

    def fit(self, examples: Sequence[TrainingExample]) -> TrainingHistory:
        """Minibatched training over the example set, by ``train_config``.

        Each of the recipe's ``epochs`` shuffles the example order when
        ``shuffle`` is set (RNG seeded by ``seed``; same RNG consumption for
        every batch size), partitions it into consecutive batches of
        ``batch_size`` (last batch possibly partial) and takes one
        :meth:`step_batch` per batch.  A recipe with ``batch_size=1`` visits
        examples in exactly the order the per-example oracle in
        ``tests/oracles.py`` does and matches its trained parameters to 1e-12
        relative (pinned by ``tests/test_training_batch.py``).
        """
        config = self.train_config
        if not examples:
            raise ValueError("fit() needs at least one training example")
        examples = list(examples)
        history = TrainingHistory(epochs=config.epochs, batch_size=config.batch_size)
        rng = np.random.default_rng(config.seed)
        order = np.arange(len(examples))
        for _ in range(config.epochs):
            if config.shuffle:
                rng.shuffle(order)
            history.losses.extend(
                self.step_batch([examples[i] for i in order[start : start + config.batch_size]])
                for start in range(0, len(order), config.batch_size)
            )
        return history

    def fit_streaming(
        self, stream: "ExampleStream", steps: int, start_index: int = 0
    ) -> TrainingHistory:
        """Train for ``steps`` optimiser steps on an example stream.

        Consecutive stream examples form consecutive batches of the recipe's
        ``batch_size``, so the data a run sees depends only on ``(stream
        seed, start_index, steps, batch_size)``.  The learning rate does not
        depend on ``steps``, so ``n`` calls of one step each, ``start_index``
        advancing by ``batch_size``, train exactly as one call of ``n`` steps.
        """
        batch_size = self.train_config.batch_size
        if steps < 1:
            raise ValueError("fit_streaming() needs at least one step")
        history = TrainingHistory(epochs=1, batch_size=batch_size)
        examples = stream.iterate(start=start_index, count=steps * batch_size)
        for _ in range(steps):
            history.losses.append(self.step_batch(list(islice(examples, batch_size))))
        return history

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
        self, examples: Sequence[TrainingExample], batch_size: Optional[int] = None
    ) -> float:
        """Mean per-example loss without updating parameters.

        Runs through the gradient-free batched forward
        (:meth:`Selector.forward_batch`): examples are grouped by spectrogram
        shape, chunked at ``batch_size``, and each chunk's losses come from
        one stacked pass.  Each row is bit-identical to the per-example
        forward, so the result matches the per-example oracle in
        ``tests/oracles.py`` to float64 summation-order tolerance.
        """
        if not examples:
            raise ValueError("evaluate() needs at least one example")
        batch_size = self.train_config.batch_size if batch_size is None else int(batch_size)
        batch_size = max(batch_size, 1)
        examples = list(examples)
        by_shape: Dict[Tuple[int, int], List[int]] = {}
        for index, example in enumerate(examples):
            by_shape.setdefault(example.mixed_spectrogram.shape, []).append(index)
        losses = np.zeros(len(examples))
        for indices in by_shape.values():
            for start in range(0, len(indices), batch_size):
                chunk = indices[start : start + batch_size]
                mixed = np.stack([examples[i].mixed_spectrogram for i in chunk])
                vectors = np.stack([examples[i].d_vector for i in chunk])
                background_t = np.stack(
                    [examples[i].background_spectrogram.T for i in chunk]
                )
                output = self.selector.forward_batch(mixed, vectors)  # (n, T, F)
                mixed_t = mixed.transpose(0, 2, 1)
                if self.config.output_mode == "mask":
                    record = mixed_t * (1.0 - output)
                else:
                    record = mixed_t + output
                diff = record - background_t
                losses[chunk] = (diff * diff).mean(axis=(1, 2))
        return float(losses.mean())


class ExampleStream:
    """A deterministic, endless stream of crafted mixtures.

    Example ``i`` is a **pure function** of ``(base_seed, i)``: every random
    draw an example needs (target utterance, SNR, interference pick,
    interference utterance, noise synthesis) uses its own
    :func:`~repro.core.seeding.derive_seed` chain

    ``derive_seed(derive_seed(derive_seed(seed, target_idx), draw), component)``

    so no draw shares a stream with any other draw.  This fixes the seed
    collisions of the historical eager builder, where ``seed * 977 + index``
    (target) and ``seed * 991 + index`` (interference) collapse to the same
    value at ``seed=0`` and ignore the target speaker entirely — every target
    trained on the *same* utterances mixed with themselves.

    The index layout interleaves targets in blocks of
    ``num_examples_per_target``: indices ``0 .. k*T-1`` hold ``k`` draws per
    target in target-major order (``take(k * T)`` is the epoch set
    :meth:`SelectorTrainer.fit` trains on), and the stream then continues
    with fresh draws forever — streaming training never runs out of data.
    Because :meth:`example_at` is pure, :meth:`iterate` (built as the step
    consumes it) and :meth:`take` (built ahead) yield bit-identical examples.

    Every example mixes its target with an interference speaker or a noise
    scenario, so a stream with neither is rejected at construction.
    """

    def __init__(
        self,
        corpus: SyntheticCorpus,
        encoder: SpeakerEncoder,
        config: NECConfig,
        target_speakers: Sequence[str],
        interference_speakers: Sequence[str] = (),
        training: Optional[TrainingConfig] = None,
        seed: int = 0,
    ) -> None:
        if not target_speakers:
            raise ValueError("ExampleStream needs at least one target speaker")
        self.training = (training or TrainingConfig()).validate()
        if not interference_speakers and not self.training.noise_scenarios:
            raise ValueError(
                "ExampleStream has nothing to mix with the target: pass "
                "interference speakers or a non-empty noise_scenarios"
            )
        self.corpus = corpus
        self.encoder = encoder
        self.config = config.validate()
        self.target_speakers = list(target_speakers)
        self.interference_speakers = list(interference_speakers)
        self.seed = int(seed)
        self._d_vectors: Dict[str, np.ndarray] = {}

    # -- deterministic example construction ---------------------------------
    def d_vector_for(self, target_speaker: str) -> np.ndarray:
        """The frozen reference embedding of a target (computed once, cached)."""
        vector = self._d_vectors.get(target_speaker)
        if vector is None:
            references = self.corpus.reference_audios(
                target_speaker,
                count=self.config.num_reference_audios,
                seconds=self.config.reference_seconds,
            )
            vector = self._d_vectors[target_speaker] = self.encoder.embed(references)
        return vector

    def example_at(self, index: int) -> TrainingExample:
        """Build example ``index`` — pure in ``(self.seed, index)``."""
        if index < 0:
            raise ValueError("example index must be non-negative")
        per_target = self.training.num_examples_per_target
        num_targets = len(self.target_speakers)
        target_index = (index // per_target) % num_targets
        draw = (index % per_target) + per_target * (index // (per_target * num_targets))
        target = self.target_speakers[target_index]
        example_seed = derive_seed(derive_seed(self.seed, target_index), draw)
        duration = self.config.segment_seconds

        target_utt = self.corpus.utterance(
            target, seed=derive_seed(example_seed, 0), duration=duration
        )
        snr_rng = np.random.default_rng(derive_seed(example_seed, 1))
        snr_db = float(snr_rng.uniform(*self.training.snr_db_range))
        use_interference = self.interference_speakers and (
            draw % 2 == 0 or not self.training.noise_scenarios
        )
        if use_interference:
            pick_rng = np.random.default_rng(derive_seed(example_seed, 2))
            other = self.interference_speakers[
                int(pick_rng.integers(len(self.interference_speakers)))
            ]
            other_utt = self.corpus.utterance(
                other, seed=derive_seed(example_seed, 3), duration=duration
            )
            background = other_utt.audio
        else:
            noise_rng = np.random.default_rng(derive_seed(example_seed, 4))
            scenario = self.training.noise_scenarios[
                int(noise_rng.integers(len(self.training.noise_scenarios)))
            ]
            background = noise_by_name(
                scenario, duration, self.config.sample_rate, rng=noise_rng
            )
        mixed, background_scaled = mix_at_snr(target_utt.audio, background, snr_db)
        num_samples = self.config.segment_samples
        return make_training_example(
            self.config,
            mixed.fit_to(num_samples),
            background_scaled.fit_to(num_samples),
            self.d_vector_for(target),
            target_speaker=target,
        )

    # -- iteration -----------------------------------------------------------
    def take(self, count: int, start: int = 0) -> List[TrainingExample]:
        """The first ``count`` examples from ``start`` as an eager list."""
        return [self.example_at(start + offset) for offset in range(count)]

    def iterate(self, start: int, count: int) -> Iterator[TrainingExample]:
        """Examples ``start .. start + count - 1``, each built as it is consumed."""
        for index in range(start, start + count):
            yield self.example_at(index)
