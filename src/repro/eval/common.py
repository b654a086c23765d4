"""Shared experiment setup: corpus, encoder, trained Selector, enrolled systems.

Most of the paper's experiments need the same ingredients — a corpus of target
and interference speakers, a frozen speaker encoder, and a Selector trained on
crafted mixtures.  :func:`prepare_context` builds them once at a configurable
scale so individual experiments stay focused on their own measurement.

Scale note: the paper trains a one-fits-all Selector on LibriSpeech for many
GPU-hours.  On this numpy substrate the Selector is trained for a few dozen
steps on mixtures that include the evaluated target speakers (with disjoint
sentences), which preserves the qualitative behaviour the experiments measure;
the deviation is noted in ``docs/architecture.md`` (figure/table map).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent import futures as _futures
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.audio.corpus import SyntheticCorpus
from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig, TrainingConfig
from repro.core.encoder import SpeakerEncoder, SpectralEncoder
from repro.core.pipeline import NECSystem, ProtectionResult
from repro.core.seeding import derive_seed  # re-export: studies/tests import it here
from repro.core.selector import Selector
from repro.core.training import SelectorTrainer, TrainingHistory, build_training_examples


@dataclass
class ExperimentContext:
    """Everything an experiment needs: corpus, models and enrolled systems."""

    config: NECConfig
    corpus: SyntheticCorpus
    encoder: SpeakerEncoder
    selector: Selector
    trainer: SelectorTrainer
    target_speakers: List[str]
    other_speakers: List[str]
    training_history: Optional[TrainingHistory] = None
    _systems: Dict[str, NECSystem] = field(default_factory=dict)

    def system_for(self, target_speaker: str) -> NECSystem:
        """An :class:`NECSystem` enrolled for ``target_speaker`` (cached)."""
        if target_speaker not in self._systems:
            system = NECSystem(self.config, encoder=self.encoder, selector=self.selector)
            references = self.corpus.reference_audios(
                target_speaker,
                count=self.config.num_reference_audios,
                seconds=self.config.reference_seconds,
            )
            system.enroll(references)
            self._systems[target_speaker] = system
        return self._systems[target_speaker]


def batched_protections(
    context: "ExperimentContext",
    jobs: Sequence[Tuple[str, AudioSignal]],
) -> List[ProtectionResult]:
    """The shared batched driver of the evaluation harness.

    ``jobs`` is a sequence of ``(target_speaker, mixed_audio)`` pairs — e.g.
    every instance of a benchmark dataset.  Jobs are grouped per target
    speaker and each group goes through **one**
    :meth:`NECSystem.protect_batch` call, so all segments of all of a
    speaker's instances share stacked STFT and iSTFT calls instead of paying
    one full ``protect`` per instance.  Results come back in job order and
    are bit-identical to ``[context.system_for(s).protect(a) for s, a in jobs]``
    (the batched engine's per-row equivalence is pinned by
    ``tests/test_pipeline_batch.py`` and the driver's by
    ``tests/test_fastpath.py``).
    """
    grouped: Dict[str, List[int]] = {}
    for index, (speaker, _audio) in enumerate(jobs):
        grouped.setdefault(speaker, []).append(index)
    results: List[Optional[ProtectionResult]] = [None] * len(jobs)
    for speaker, indices in grouped.items():
        system = context.system_for(speaker)
        batch = system.protect_batch([jobs[index][1] for index in indices])
        for index, result in zip(indices, batch):
            results[index] = result
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The shared worker-pool runner of the evaluation studies.
# ---------------------------------------------------------------------------

#: Module-level slot holding the (work function, items) of the shard run in
#: flight.  It is installed *before* the pool forks, so every worker inherits
#: it by memory inheritance — the work closure and the items (contexts,
#: AudioSignals, recorders …) never have to be picklable; only each item's
#: index travels to a worker and only that item's result travels back.
_SHARD_WORK: Optional[Tuple[Callable[[int, Any], Any], List[Any]]] = None


def _invoke_shard(index: int) -> Tuple[int, Any]:
    work, items = _SHARD_WORK  # type: ignore[misc]
    return index, work(index, items[index])




def resolve_num_workers(num_workers: Optional[int] = None) -> int:
    """``num_workers``, or the ``REPRO_EVAL_WORKERS`` environment default (1)."""
    if num_workers is None:
        env = os.environ.get("REPRO_EVAL_WORKERS", "").strip()
        num_workers = int(env) if env else 1
    return max(int(num_workers), 1)


def run_sharded(
    work: Callable[[int, Any], Any],
    items: Sequence[Any],
    num_workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> List[Any]:
    """``[work(i, items[i]) for i]``, optionally sharded over forked workers.

    This is the one parallelism primitive of the evaluation harness: every
    study maps an independent per-item function over its grid (instances,
    distances, devices, offset points) through this runner.  The contract:

    - **Bit-stable.**  ``work`` must be a pure function of ``(index, item)``
      (per-item randomness derives from :func:`derive_seed`, never from shared
      mutable state), so the returned list is bit-identical for *any* worker
      count, including the inline ``num_workers=1`` path.
    - **Shared-memory dispatch.**  Workers are forked after the work closure
      is installed in :data:`_SHARD_WORK`; contexts and audio never cross the
      process boundary — an index goes in, one item's result comes out.
    - **Crashes surface, never hang.**  A worker dying (OOM kill, segfault)
      raises a ``RuntimeError`` naming the failure; a ``timeout_s`` bound per
      item turns a wedged worker into an error as well.

    ``num_workers=None`` reads the ``REPRO_EVAL_WORKERS`` environment variable
    (the CI knob) and defaults to inline serial execution.  Platforms without
    ``fork`` (or nested ``run_sharded`` calls inside a worker) fall back to
    the inline path, which is always available and always equivalent.
    """
    items = list(items)
    num_workers = min(resolve_num_workers(num_workers), max(len(items), 1))
    global _SHARD_WORK
    inline = (
        num_workers <= 1
        or len(items) <= 1
        or _SHARD_WORK is not None  # nested call inside a worker
        or "fork" not in multiprocessing.get_all_start_methods()
    )
    if inline:
        return [work(index, item) for index, item in enumerate(items)]
    _SHARD_WORK = (work, items)
    pool = None
    try:
        context = multiprocessing.get_context("fork")
        results: List[Any] = [None] * len(items)
        pool = _futures.ProcessPoolExecutor(max_workers=num_workers, mp_context=context)
        pending = [pool.submit(_invoke_shard, index) for index in range(len(items))]
        try:
            for future in pending:
                index, value = future.result(timeout=timeout_s)
                results[index] = value
        except _futures.process.BrokenProcessPool as exc:
            raise RuntimeError(
                "an evaluation shard worker died before returning its "
                "result (killed or crashed); rerun with num_workers=1 to "
                "debug the failing item inline"
            ) from exc
        except _futures.TimeoutError as exc:
            # A wedged worker would make a graceful shutdown wait forever:
            # terminate the pool's processes outright before raising.
            for future in pending:
                future.cancel()
            for process in (getattr(pool, "_processes", None) or {}).values():
                process.terminate()
            raise RuntimeError(
                f"an evaluation shard exceeded its {timeout_s} s budget"
            ) from exc
        pool.shutdown(wait=True)
        pool = None
        return results
    finally:
        _SHARD_WORK = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def probe_broadcasts(
    probe: AudioSignal, carriers_khz: Sequence[float]
) -> Dict[float, AudioSignal]:
    """AM broadcasts of one probe tone at several carriers, computed once each.

    The channel studies (Table III, Fig. 15) replay the same probe at many
    ``(carrier, distance)`` grid points; modulation (resample to 192 kHz +
    mixing onto the carrier) only depends on the carrier, so the sweep shares
    one broadcast per carrier instead of re-modulating per grid point.
    """
    from repro.channel.ultrasound import UltrasoundSpeaker

    return {
        float(carrier): UltrasoundSpeaker(carrier_hz=float(carrier) * 1000.0).broadcast(probe)
        for carrier in carriers_khz
    }


def prepare_context(
    config: Optional[NECConfig] = None,
    num_speakers: int = 8,
    num_targets: int = 2,
    num_others: Optional[int] = None,
    examples_per_target: int = 4,
    training_epochs: int = 6,
    learning_rate: Optional[float] = None,
    train: bool = True,
    seed: int = 0,
    training: Optional[TrainingConfig] = None,
) -> ExperimentContext:
    """Build (and optionally train) a complete experiment context.

    The training recipe is one :class:`TrainingConfig` (``training``); the
    legacy ``examples_per_target`` / ``training_epochs`` / ``learning_rate``
    keywords override the matching fields so existing call sites keep their
    meaning.  The default keeps ``batch_size=1`` — one optimiser step per
    example, the dynamics every pinned benchmark quality gate was measured
    under; larger-batch contexts opt in explicitly via ``training=``.
    """
    config = (config or NECConfig.tiny()).validate()
    train_config = (training or TrainingConfig(batch_size=1)).validate()
    overrides = {
        "num_examples_per_target": int(examples_per_target),
        "epochs": int(training_epochs),
        "seed": int(seed),
    }
    if learning_rate is not None:
        overrides["learning_rate"] = float(learning_rate)
    train_config = train_config.replace(**overrides)
    corpus = SyntheticCorpus(num_speakers=num_speakers, sample_rate=config.sample_rate, seed=seed)
    targets, others = corpus.split_speakers(num_targets, num_others)
    encoder = SpectralEncoder(config, seed=seed)
    selector = Selector(config, seed=seed)
    trainer = SelectorTrainer(selector, config=train_config)
    context = ExperimentContext(
        config=config,
        corpus=corpus,
        encoder=encoder,
        selector=selector,
        trainer=trainer,
        target_speakers=list(targets),
        other_speakers=list(others),
    )
    if train:
        examples = build_training_examples(
            corpus,
            encoder,
            trainer,
            targets,
            others,
            num_examples_per_target=train_config.num_examples_per_target,
            seed=seed,
            config=train_config,
        )
        context.training_history = trainer.fit(examples)
    return context
