"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation and
prints the corresponding rows/series.  The heavy ingredients (a trained
Selector and the word recogniser) are built once per session.  The scale knobs
(`BENCH_*`) keep the full harness in the minutes range on the numpy substrate;
raise them for a higher-fidelity run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.tensor as _tensor_module
from repro.asr.recognizer import TemplateRecognizer
from repro.core.config import NECConfig
from repro.eval.common import EVAL_TRAINING, prepare_context

# Scale knobs for the benchmark harness.
BENCH_NUM_SPEAKERS = 8
BENCH_NUM_TARGETS = 2
BENCH_EXAMPLES_PER_TARGET = 5
BENCH_TRAINING_EPOCHS = 8
BENCH_SEED = 0


@pytest.fixture(autouse=True)
def isolated_global_state():
    """Run every benchmark against pinned global RNG / autograd state.

    The benchmarks train models and are sensitive to any process-global state
    another test may have touched: the legacy ``numpy.random`` stream and the
    autograd substrate's grad-enabled flag.  Pinning both before each test (and
    restoring afterwards) makes every benchmark produce the same numbers
    regardless of which tests ran before it, killing order-dependent failures
    such as the one ``test_ablation_dilations`` used to show in full runs.
    """
    rng_state = np.random.get_state()
    grad_state = _tensor_module.grad_enabled()
    np.random.seed(BENCH_SEED)
    _tensor_module._GRAD_ENABLED = True
    try:
        yield
    finally:
        _tensor_module._GRAD_ENABLED = grad_state
        np.random.set_state(rng_state)


@pytest.fixture(scope="session")
def bench_config() -> NECConfig:
    """The reduced geometry used by the benchmark harness (16 kHz is kept for ASR)."""
    return NECConfig.tiny()


@pytest.fixture(scope="session")
def bench_context(bench_config):
    """A trained experiment context shared by all benchmarks."""
    return prepare_context(
        config=bench_config,
        num_speakers=BENCH_NUM_SPEAKERS,
        num_targets=BENCH_NUM_TARGETS,
        seed=BENCH_SEED,
        training=EVAL_TRAINING.replace(
            epochs=BENCH_TRAINING_EPOCHS, num_examples_per_target=BENCH_EXAMPLES_PER_TARGET
        ),
    )


@pytest.fixture(scope="session")
def bench_recognizer(bench_config):
    """A template recogniser matching the benchmark corpus sample rate."""
    vocabulary = None  # full lexicon
    return TemplateRecognizer(sample_rate=bench_config.sample_rate, vocabulary=vocabulary, seed=BENCH_SEED)
