"""Minibatched training fast path: gradient equivalence, data pipeline, config.

This suite pins the four contracts of the batched training engine:

- **Batched autograd == looped autograd.**  Every convolution geometry the
  Selector uses (flat 1x7 / 7x1 kernels, dilated 5x5 kernels, 'same' padding)
  must produce the same forward values and the same gradients through the
  tap-wise autograd kernel (:meth:`repro.nn.conv.Conv2d.forward`) as through
  the tap-sum reference (``conv2d_reference`` in ``tests/oracles.py``) — and
  the full Selector graph's batched backward must equal the mean of the
  per-example backwards of ``selector_reference``
  (``check_batched_gradients`` in ``tests/oracles.py``).  Training never
  reaches the frequency-domain kernel :func:`repro.nn.fftconv.fft_conv2d`.
- **The fast path degrades to the reference.**  ``fit`` under a
  ``batch_size=1`` recipe matches the per-example oracle ``fit_looped`` (``tests/oracles.py``) to 1e-12
  relative; partial last batches and oversized batch sizes behave; batched
  evaluation matches looped evaluation.
- **The data stream is a pure function of its seed.**  ``ExampleStream``
  derives every random draw through :func:`repro.core.seeding.derive_seed`
  chains, so it never reproduces the historical ``seed * 977 + index``
  collision, and one multi-step streaming run equals the same steps taken
  one call at a time.
- **One backward per graph.**  The backward pass frees each node once it
  has run, so a training step's traced peak stays bounded by a few conv
  activations (``TestGraphLifetime``).
"""

from __future__ import annotations

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from oracles import (
    check_batched_gradients,
    conv2d_reference,
    evaluate_looped,
    example_loss,
    fit_looped,
    selector_reference,
)

from repro.audio.corpus import SyntheticCorpus
from repro.core.config import NECConfig, TrainingConfig
from repro.core.encoder import NeuralEncoder, SpectralEncoder
from repro.core.seeding import derive_seed
from repro.core.selector import Selector
from repro.core.training import ExampleStream, SelectorTrainer
from repro.eval.ablation import run_dilation_ablation, run_output_mode_ablation
from repro.eval.common import EVAL_TRAINING, prepare_context
from repro.nn import Adam, Tensor, fft_conv2d, next_fast_len
from repro.nn import conv as conv_module
from repro.nn import fftconv as fftconv_module
from repro.nn.conv import Conv2d

# The Selector's five convolution geometries at the tiny config (channels=4,
# dilations (1, 2)): (in_c, out_c, kernel, padding, dilation).
SELECTOR_CONV_GEOMETRIES = [
    pytest.param(1, 4, (1, 7), (0, 3), (1, 1), id="conv_freq_1x7"),
    pytest.param(4, 4, (7, 1), (3, 0), (1, 1), id="conv_time_7x1"),
    pytest.param(4, 4, (5, 5), (2, 2), (1, 1), id="dilated_d1"),
    pytest.param(4, 4, (5, 5), (4, 2), (2, 1), id="dilated_d2"),
    pytest.param(4, 2, (5, 5), "same", (1, 1), id="conv_out_same"),
]


def _grad_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def _stream(tiny_config, corpus, training=None, seed=0) -> ExampleStream:
    encoder = SpectralEncoder(tiny_config, seed=seed)
    targets, others = corpus.split_speakers(2, None)
    return ExampleStream(
        corpus,
        encoder,
        tiny_config,
        targets,
        others,
        training=training or TrainingConfig(),
        seed=seed,
    )


class TestNextFastLen:
    def test_small_values_are_exact(self):
        known = {1: 1, 2: 2, 3: 3, 7: 7, 11: 12, 13: 14, 17: 18, 101: 105}
        for n, expected in known.items():
            assert next_fast_len(n) == expected

    def test_result_is_seven_smooth_and_minimal(self):
        for n in range(1, 300):
            result = next_fast_len(n)
            assert result >= n
            remainder = result
            for factor in (2, 3, 5, 7):
                while remainder % factor == 0:
                    remainder //= factor
            assert remainder == 1, f"next_fast_len({n}) = {result} is not 7-smooth"


class TestTapConvEquivalence:
    """``Conv2d.forward`` (the tap-wise autograd kernel) vs ``conv2d_reference``."""

    @pytest.mark.parametrize(
        "in_c, out_c, kernel, padding, dilation", SELECTOR_CONV_GEOMETRIES
    )
    def test_forward_and_gradients_match_im2col(
        self, in_c, out_c, kernel, padding, dilation
    ):
        rng = np.random.default_rng(3)
        layer = Conv2d(
            in_c, out_c, kernel, padding=padding, dilation=dilation, rng=rng
        )
        layer.bias.data = rng.normal(size=layer.bias.data.shape) * 0.1
        x_data = rng.normal(size=(3, in_c, 12, 9))

        x_ref = Tensor(x_data.copy(), requires_grad=True)
        out_ref = conv2d_reference(layer, x_ref)
        (out_ref * out_ref).mean().backward()
        ref_grads = (x_ref.grad, layer.weight.grad, layer.bias.grad)

        layer.weight.zero_grad()
        layer.bias.zero_grad()
        x_tap = Tensor(x_data.copy(), requires_grad=True)
        out_tap = layer(x_tap)
        (out_tap * out_tap).mean().backward()

        assert out_tap.shape == out_ref.shape
        assert np.max(np.abs(out_tap.data - out_ref.data)) < 1e-11
        for ref, tap in zip(ref_grads, (x_tap.grad, layer.weight.grad, layer.bias.grad)):
            assert _grad_error(ref, tap) < 1e-9

    def test_fused_relu_matches_separate_relu_node(self):
        rng = np.random.default_rng(5)
        layer = Conv2d(2, 3, (3, 3), padding=(1, 1), rng=rng)
        x_data = rng.normal(size=(2, 2, 8, 7))

        x_ref = Tensor(x_data.copy(), requires_grad=True)
        out_ref = conv2d_reference(layer, x_ref).relu()
        (out_ref * out_ref).mean().backward()
        ref_grads = (x_ref.grad, layer.weight.grad, layer.bias.grad)

        layer.weight.zero_grad()
        layer.bias.zero_grad()
        x_tap = Tensor(x_data.copy(), requires_grad=True)
        out_tap = layer(x_tap, activation="relu")
        (out_tap * out_tap).mean().backward()

        assert np.min(out_tap.data) >= 0.0
        assert np.max(np.abs(out_tap.data - out_ref.data)) < 1e-11
        for ref, tap in zip(ref_grads, (x_tap.grad, layer.weight.grad, layer.bias.grad)):
            assert _grad_error(ref, tap) < 1e-9

    @pytest.mark.parametrize(
        "in_c, out_c, kernel, padding, dilation, bias, x_needs_grad, shape",
        [
            pytest.param(3, 4, (3, 3), (1, 1), (1, 1), False, True, (2, 3, 9, 8), id="bias_free"),
            pytest.param(3, 4, (3, 3), (1, 1), (1, 1), True, False, (2, 3, 9, 8), id="input_no_grad"),
            pytest.param(3, 4, (3, 3), (1, 2), (1, 2), True, True, (2, 3, 9, 11), id="width_dilated_3x3"),
            pytest.param(3, 4, (1, 1), (0, 0), (1, 1), True, True, (2, 3, 9, 8), id="pointwise_1x1"),
            # Padding past k_eff - 1: the border outputs see only zeros, and
            # the input gradient crops the output gradient instead of padding it.
            pytest.param(3, 4, (1, 3), (2, 3), (1, 1), True, True, (2, 3, 9, 8), id="over_padded_1x3"),
            # NECConfig.default()'s dilated[2] on two deployment-sized segments.
            pytest.param(16, 16, (5, 5), (8, 2), (4, 1), True, True, (2, 16, 99, 161), id="deployment_dilated2"),
        ],
    )
    def test_autograd_node_matches_reference(
        self, monkeypatch, in_c, out_c, kernel, padding, dilation, bias, x_needs_grad, shape
    ):
        rng = np.random.default_rng(7)
        layer = Conv2d(
            in_c, out_c, kernel, padding=padding, dilation=dilation, bias=bias, rng=rng
        )
        if bias:
            layer.bias.data = rng.normal(size=layer.bias.data.shape) * 0.1
        params = [layer.weight] if layer.bias is None else [layer.weight, layer.bias]
        x_data = rng.normal(size=shape)

        x_ref = Tensor(x_data.copy(), requires_grad=x_needs_grad)
        out_ref = conv2d_reference(layer, x_ref).relu()
        (out_ref * out_ref).mean().backward()
        ref_grads = [x_ref.grad] + [p.grad for p in params]
        for param in params:
            param.zero_grad()

        x_tap = Tensor(x_data.copy(), requires_grad=x_needs_grad)
        out_tap = layer(x_tap, activation="relu")
        calls = []
        kernel_fn = conv_module._conv_rows
        monkeypatch.setattr(
            conv_module, "_conv_rows", lambda *a, **k: calls.append(1) or kernel_fn(*a, **k)
        )
        (out_tap * out_tap).mean().backward()

        assert np.max(np.abs(out_tap.data - out_ref.data)) < 1e-11
        for ref, tap in zip(ref_grads[1:], [p.grad for p in params]):
            assert _grad_error(ref, tap) < 1e-9
        if x_needs_grad:
            assert calls == [1] * shape[0]  # the input gradient runs the forward kernel
            assert _grad_error(ref_grads[0], x_tap.grad) < 1e-9
        else:
            assert calls == []  # no input gradient is computed at all
            assert x_tap.grad is None

    def test_flushes_round_off_to_exact_zeros(self):
        """All-zero receptive fields must give *exactly* 0.0, as a direct convolution does.

        ReLU-sparse activations make such fields common; without the flush the
        FFT path leaves +-1e-16 noise there, downstream ReLU masks flip at
        random, and gradient equivalence with the looped reference breaks.
        """
        rng = np.random.default_rng(11)
        layer = Conv2d(1, 2, (3, 3), padding=(1, 1), rng=rng)  # zero-init bias
        x_data = np.zeros((1, 1, 10, 10))
        x_data[0, 0, 7:, 7:] = np.abs(rng.normal(size=(3, 3))) + 0.5
        out = fft_conv2d(
            Tensor(x_data), layer.weight, layer.bias, padding=(1, 1)
        ).data
        # Rows 0..4 are >= 2 taps away from any non-zero input: exact zeros.
        assert np.all(out[:, :, :5, :] == 0.0)
        assert np.any(out[:, :, 7:, 7:] != 0.0)
        # The tap-wise kernel sums exact products of zeros: no flush needed.
        out = layer(Tensor(x_data)).data
        assert np.all(out[:, :, :5, :] == 0.0)
        assert np.any(out[:, :, 7:, 7:] != 0.0)

    def test_rejects_bad_inputs(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        good = Conv2d(2, 3, (3, 3), padding=(1, 1))
        with pytest.raises(ValueError, match="activation"):
            good(x, activation="gelu")
        with pytest.raises(ValueError, match="input"):
            fft_conv2d(Tensor(np.zeros((2, 8, 8))), good.weight, good.bias)
        with pytest.raises(ValueError, match="input"):
            good(Tensor(np.zeros((2, 8, 8))))
        with pytest.raises(ValueError, match="input channels"):
            good(Tensor(np.zeros((1, 3, 8, 8))))
        with pytest.raises(ValueError, match="empty"):
            Conv2d(2, 3, (5, 5))(Tensor(np.zeros((1, 2, 3, 3))))

    def test_training_step_never_reaches_the_fft_kernel(self, tiny_config, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training reached fft_conv2d")

        monkeypatch.setattr(conv_module, "fft_conv2d", refuse)
        monkeypatch.setattr(fftconv_module, "fft_conv2d", refuse)
        selector = Selector(tiny_config, seed=0)
        rng = np.random.default_rng(2)
        mixed = np.abs(rng.normal(size=(2, tiny_config.frequency_bins, tiny_config.num_frames)))
        vectors = rng.normal(size=(2, tiny_config.embedding_dim))
        before = selector.conv_freq.weight.data.copy()
        optimizer = Adam(selector.parameters(), lr=1e-3)
        loss = (selector(mixed, vectors) ** 2).mean()
        loss.backward()
        optimizer.step()
        assert not np.array_equal(selector.conv_freq.weight.data, before)


# The class's former name, collected a second time so the test ids recorded
# under it keep resolving; delete it together with ``nn/fftconv.py``.
TestFFTConvEquivalence = TestTapConvEquivalence


class TestTrainingEqualsInference:
    """``Conv2d.forward`` and ``Conv2d.infer`` run the one row kernel."""

    @pytest.mark.parametrize("activation", [None, "relu"])
    def test_forward_equals_infer_bit_for_bit(self, activation):
        """Training and inference run one kernel: in float64 they give the same bits.

        Every Selector layer at ``tiny()`` on the tiny image, and
        ``default()``'s ``dilated.2`` (5x5, dilation (4, 1)) on the deployment
        image.  ``forward`` runs each example as one whole-plane block, so
        the two-example batch checks that too.
        """
        rng = np.random.default_rng(12)
        tiny, default = NECConfig.tiny(), NECConfig.default()
        layers = [
            (layer, (2, layer.in_channels, tiny.num_frames, tiny.frequency_bins))
            for layer in Selector(tiny, seed=0)._convs()
        ]
        deployed = Selector(default, seed=0).dilated[2]
        layers.append((deployed, (1, 16, default.num_frames, default.frequency_bins)))
        for layer, shape in layers:
            layer.bias.data = rng.normal(size=layer.bias.data.shape) * 0.1
            x = rng.normal(size=shape)
            np.testing.assert_array_equal(
                layer(Tensor(x), activation=activation).data, layer.infer(x, activation)
            )


class TestGraphLifetime:
    """One backward per graph: the pass frees each node once it has run."""

    def test_step_peak_memory_is_bounded_by_activations(self, tiny_config, corpus):
        """A training step's traced peak stays under 12 conv activations.

        Holding every interior gradient and closure until the step returns
        peaked near 20 activations at this geometry; freeing them as the
        backward pass goes peaks near 10.
        """
        examples = _stream(tiny_config, corpus).take(8)
        trainer = SelectorTrainer(Selector(tiny_config, seed=0))
        trainer.step_batch(examples[:4])  # warm-up: Adam state, conv buffers
        frequency_bins, frames = examples[0].mixed_spectrogram.shape
        activation_bytes = 4 * tiny_config.selector_channels * frames * frequency_bins * 8
        tracemalloc.start()
        try:
            trainer.step_batch(examples[4:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * activation_bytes


class TestSelectorBatchedGradients:
    """The full-graph contract: one batched backward == mean of looped backwards."""

    def test_batched_equals_looped_on_selector_graph(self, tiny_config, corpus):
        stream = _stream(tiny_config, corpus)
        examples = stream.take(5)
        trainer = SelectorTrainer(Selector(tiny_config, seed=0))
        max_error = check_batched_gradients(
            lambda: trainer.batch_loss(examples),
            [lambda e=e: example_loss(trainer, e) for e in examples],
            trainer.optimizer.parameters,
        )
        assert max_error < 1e-9

    def test_forward_batch_train_rows_match_per_example_forward(
        self, tiny_config, corpus
    ):
        """Rows of the batched autograd ``Selector.forward`` equal
        ``selector_reference`` per example, in both output modes."""
        stream = _stream(tiny_config, corpus)
        examples = stream.take(3)
        mixed = np.stack([e.mixed_spectrogram for e in examples])
        vectors = np.stack([e.d_vector for e in examples])
        for mode in ("mask", "spectrogram"):
            selector = Selector(tiny_config.with_output_mode(mode), seed=0)
            batched = selector(mixed, vectors).data
            for row, example in enumerate(examples):
                single = selector_reference(
                    selector, example.mixed_spectrogram, example.d_vector
                ).data
                assert np.max(np.abs(batched[row] - single)) < 1e-11

    def test_batch_loss_equals_mean_example_loss(self, tiny_config, corpus):
        stream = _stream(tiny_config, corpus)
        examples = stream.take(4)
        trainer = SelectorTrainer(Selector(tiny_config, seed=0))
        batched = float(trainer.batch_loss(examples).data)
        looped = np.mean([float(example_loss(trainer, e).data) for e in examples])
        assert abs(batched - looped) < 1e-11

    def test_batch_loss_rejects_ragged_batches(self, tiny_config, corpus):
        stream = _stream(tiny_config, corpus)
        examples = stream.take(2)
        ragged = examples[1]
        ragged.mixed_spectrogram = ragged.mixed_spectrogram[:, :-1]
        ragged.background_spectrogram = ragged.background_spectrogram[:, :-1]
        trainer = SelectorTrainer(Selector(tiny_config, seed=0))
        with pytest.raises(ValueError, match="shape-homogeneous"):
            trainer.batch_loss(examples)
        with pytest.raises(ValueError, match="at least one"):
            trainer.batch_loss([])


class TestFitEquivalenceAndBatching:
    def test_fit_batch_size_one_matches_fit_looped(self, tiny_config, corpus):
        """Batches of one run the tap-wise autograd kernel, the oracle the
        tap-sum graph: the two agree to GEMM round-off, not bit for bit."""
        stream = _stream(tiny_config, corpus)
        examples = stream.take(6)
        config = TrainingConfig(epochs=2, seed=3, batch_size=1)
        looped = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        batched = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        history_l = fit_looped(looped, examples)
        history_b = batched.fit(examples)
        np.testing.assert_allclose(history_b.losses, history_l.losses, rtol=1e-12, atol=0)
        for p_l, p_b in zip(looped.optimizer.parameters, batched.optimizer.parameters):
            scale = np.max(np.abs(p_l.data))
            assert np.max(np.abs(p_b.data - p_l.data)) <= 1e-12 * scale

    def test_minibatch_fit_reduces_loss(self, tiny_config, corpus):
        config = TrainingConfig(batch_size=4, epochs=3)
        stream = _stream(tiny_config, corpus, training=config)
        examples = stream.take(8)
        trainer = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        history = trainer.fit(examples)
        assert history.steps == 3 * 2  # 8 examples / batch 4 = 2 steps per epoch
        assert history.batch_size == 4
        assert history.improved()

    def test_partial_last_batch_and_oversized_batch(self, tiny_config, corpus):
        stream = _stream(tiny_config, corpus)
        examples = stream.take(5)
        config = TrainingConfig(epochs=1, batch_size=3, shuffle=False)
        trainer = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        history = trainer.fit(examples)
        assert history.steps == 2  # batches of 3 and 2
        oversized = SelectorTrainer(
            Selector(tiny_config, seed=0), config=config.replace(batch_size=16)
        )
        history = oversized.fit(examples[:3])
        assert history.steps == 1

    def test_shuffle_order_is_seeded_and_batch_size_independent(
        self, tiny_config, corpus
    ):
        stream = _stream(tiny_config, corpus)
        examples = stream.take(6)
        runs = []
        for batch_size in (1, 1, 3):
            config = TrainingConfig(epochs=2, seed=12, batch_size=batch_size)
            trainer = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
            runs.append(trainer.fit(examples))
        # Same seed, same batch size -> identical trace; a different batch
        # size consumes the shuffle RNG identically (the per-epoch order is
        # drawn once, then partitioned), so epoch boundaries see the same
        # permutation.
        assert runs[0].losses == runs[1].losses
        assert runs[2].steps == 2 * 2

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_evaluate_batched_matches_looped(self, tiny_config, corpus, batch_size):
        stream = _stream(tiny_config, corpus)
        examples = stream.take(6)
        trainer = SelectorTrainer(Selector(tiny_config, seed=0))
        batched = trainer.evaluate(examples, batch_size=batch_size)
        looped = evaluate_looped(trainer, examples)
        assert abs(batched - looped) < 1e-11


class TestTrainingConfig:
    def test_defaults_validate(self):
        assert TrainingConfig().validate().batch_size == 8

    # Each case keeps the id it was first given, so deleting a case (as the
    # ones for retired fields were) does not rename the cases after it.
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"learning_rate": 0.0}, id="overrides0"),
            pytest.param({"batch_size": 0}, id="overrides1"),
            pytest.param({"num_examples_per_target": 0}, id="overrides6"),
            pytest.param({"snr_db_range": (3.0, -3.0)}, id="overrides7"),
            pytest.param({"epochs": -1}, id="overrides10"),
            pytest.param({"snr_db_range": (0.0,)}, id="overrides11"),
        ],
    )
    def test_rejects_bad_recipes(self, overrides):
        with pytest.raises(ValueError):
            TrainingConfig(**overrides).validate()

    def test_recipe_is_set_only_in_training_config(self):
        """Every entry point that trains takes a whole recipe (or reads its
        trainer's): none has a keyword that sets a field of it again.  Two
        names are exempt: an experiment's ``seed`` seeds the corpus, encoder
        and Selector as well as the recipe, and ``evaluate``'s ``batch_size``
        only chunks a gradient-free pass."""
        fields = {field.name for field in dataclasses.fields(TrainingConfig)}
        # Aliases too: a field without its ``num_`` prefix or with a
        # ``training_`` one, the shape the retired keywords had.
        recipe_names = fields | {f"training_{name}" for name in fields}
        recipe_names |= {name[len("num_"):] for name in fields if name.startswith("num_")}
        for function, exempt in (
            (SelectorTrainer.fit, set()),
            (SelectorTrainer.fit_streaming, set()),
            (NeuralEncoder.pretrain, set()),
            (prepare_context, {"seed"}),
            (run_output_mode_ablation, {"seed"}),
            (run_dilation_ablation, {"seed"}),
            (SelectorTrainer.evaluate, {"batch_size"}),
        ):
            shared = (recipe_names - exempt) & set(inspect.signature(function).parameters)
            assert not shared, f"{function.__qualname__} re-sets {sorted(shared)}"
        # Without a recipe, the evaluation trains its own, seeded by ``seed``.
        recipe = (EVAL_TRAINING.batch_size, EVAL_TRAINING.epochs, EVAL_TRAINING.num_examples_per_target)
        assert recipe == (1, 6, 4)
        for seed in (0, 3):
            context = prepare_context(num_speakers=4, num_targets=1, train=False, seed=seed)
            assert context.trainer.train_config == EVAL_TRAINING.replace(seed=seed)


class TestExampleStream:
    def test_examples_are_pure_functions_of_seed_and_index(
        self, tiny_config, corpus
    ):
        stream = _stream(tiny_config, corpus, seed=0)
        again = _stream(tiny_config, corpus, seed=0)
        for index in (0, 3, 11):
            a, b = stream.example_at(index), again.example_at(index)
            assert np.array_equal(a.mixed_spectrogram, b.mixed_spectrogram)
            assert np.array_equal(a.background_spectrogram, b.background_spectrogram)
            assert a.target_speaker == b.target_speaker

    def test_no_seed_zero_collision_between_targets(self, tiny_config, corpus):
        """The historical ``seed * 977 + index`` / ``seed * 991 + index``
        scheme collapsed at seed 0: every target's draw chain was identical
        and the target utterance equalled the interference utterance.  The
        derive_seed chains must keep all draws distinct."""
        training = TrainingConfig(num_examples_per_target=2)
        stream = _stream(tiny_config, corpus, training=training, seed=0)
        first_target = stream.example_at(0)   # target block 0, draw 0
        second_target = stream.example_at(2)  # target block 1, draw 0
        assert first_target.target_speaker != second_target.target_speaker
        assert not np.array_equal(
            first_target.mixed_spectrogram, second_target.mixed_spectrogram
        )
        # The mixture is never the background mixed with itself.
        assert not np.array_equal(
            first_target.mixed_spectrogram, first_target.background_spectrogram
        )

    def test_derive_seed_chains_do_not_collide(self):
        seen = {
            derive_seed(derive_seed(0, target), draw)
            for target in range(8)
            for draw in range(64)
        }
        assert len(seen) == 8 * 64

    def test_rejects_a_stream_with_nothing_to_mix(self, tiny_config, corpus):
        """No interference speakers and no noise scenarios: every example
        would fail to draw a background, so construction must refuse."""
        targets, _ = corpus.split_speakers(2, None)
        with pytest.raises(ValueError, match="nothing to mix"):
            ExampleStream(
                corpus,
                SpectralEncoder(tiny_config, seed=0),
                tiny_config,
                targets,
                training=TrainingConfig(noise_scenarios=()),
            )

    def test_stream_never_runs_out(self, tiny_config, corpus):
        training = TrainingConfig(num_examples_per_target=2)
        stream = _stream(tiny_config, corpus, training=training)
        # Index far past the eager builder's 2 targets x 2 draws block.
        example = stream.example_at(37)
        assert example.mixed_spectrogram.shape == stream.example_at(0).mixed_spectrogram.shape

    def test_fit_streaming_matches_fit_on_the_same_prefix(self, tiny_config, corpus):
        config = TrainingConfig(batch_size=2, epochs=1, shuffle=False)
        stream = _stream(tiny_config, corpus, training=config)
        examples = stream.take(4)
        eager = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        streaming = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        history_e = eager.fit(examples)
        history_s = streaming.fit_streaming(stream, steps=2)
        assert history_s.losses == pytest.approx(history_e.losses, abs=0.0)
        for p_e, p_s in zip(eager.optimizer.parameters, streaming.optimizer.parameters):
            assert np.array_equal(p_e.data, p_s.data)

    def test_single_step_calls_match_one_multi_step_run(self, tiny_config, corpus):
        """The benchmark's ``train`` workload steps with one ``fit_streaming``
        call per step; that must train exactly as one multi-step call."""
        config = TrainingConfig(batch_size=2)
        stream = _stream(tiny_config, corpus, training=config)
        whole = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        stepped = SelectorTrainer(Selector(tiny_config, seed=0), config=config)
        history_w = whole.fit_streaming(stream, steps=3)
        losses = []
        for step in range(3):
            losses += stepped.fit_streaming(
                stream, steps=1, start_index=step * config.batch_size
            ).losses
        assert losses == history_w.losses
        for p_w, p_s in zip(whole.optimizer.parameters, stepped.optimizer.parameters):
            assert np.array_equal(p_w.data, p_s.data)
