"""Model serialization round-trips on the real NEC models.

The enrollment registry (:mod:`repro.serving.registry`) stakes the serving
layer's correctness on ``save_model``/``load_model`` being bit-transparent:
a Selector or encoder restored from its ``.npz`` checkpoint must produce
**bit-identical** outputs, not merely close ones (float64 arrays round-trip
``.npz`` exactly).  These tests pin that contract on the actual models —
including the Selector's list-held ``dilated`` convolution stack and
non-trainable buffers — plus the structural digit-path walker in
``load_state_dict`` that list/container indices rely on.
"""

import numpy as np
import pytest

from repro.core.config import NECConfig
from repro.core.encoder import SpectralEncoder
from repro.core.selector import Selector
from repro.nn import Dense, ReLU, Sequential, Tensor
from repro.nn.layers import Module
from repro.nn.serialization import (
    load_model,
    load_state_dict,
    save_model,
    state_dict,
)


@pytest.fixture(scope="module")
def config():
    return NECConfig.tiny()


class _Buffered(Module):
    """A layer with non-trainable state: ``y = (x - offset) * scale``."""

    def __init__(self, width: int) -> None:
        super().__init__()
        self.offset = np.zeros(width)
        self.scale = np.ones(width)
        self._buffers = ("offset", "scale")

    def forward(self, x: Tensor) -> Tensor:
        return (x - Tensor(self.offset)) * Tensor(self.scale)


class TestRealModelRoundTrips:
    def test_selector_roundtrip_bit_identical(self, config, tmp_path):
        """The registry's core promise: a restored Selector never drifts a bit.

        The Selector holds its dilated convolutions in a plain Python list
        (``self.dilated``), so this also exercises digit-indexed parameter
        paths (``dilated.0.weight`` ...) end to end.
        """
        rng = np.random.default_rng(3)
        saved = Selector(config, seed=0)
        restored = Selector(config, seed=99)  # different init: must be overwritten
        path = save_model(saved, tmp_path / "selector.npz")

        specs = rng.uniform(0.0, 1.0, size=(2, *config.spectrogram_shape))
        embedding = rng.normal(size=config.embedding_dim)
        before = restored.shadow_spectrogram_batch(specs, embedding)
        load_model(restored, path)
        reference = saved.shadow_spectrogram_batch(specs, embedding)
        roundtrip = restored.shadow_spectrogram_batch(specs, embedding)

        assert not np.array_equal(before, reference)  # the load did something
        np.testing.assert_array_equal(roundtrip, reference)

    def test_spectral_encoder_roundtrip_bit_identical(self, config, tmp_path):
        rng = np.random.default_rng(5)
        saved = SpectralEncoder(config, seed=0)
        restored = SpectralEncoder(config, seed=42)
        path = save_model(saved, tmp_path / "encoder.npz")
        load_model(restored, path)

        reference_audio = rng.normal(scale=0.1, size=config.segment_samples)
        np.testing.assert_array_equal(
            restored.embed([reference_audio]), saved.embed([reference_audio])
        )

    def test_buffered_module_roundtrip_bit_identical(self, tmp_path):
        """Buffers survive the round trip exactly."""
        rng = np.random.default_rng(7)
        saved = Sequential(Dense(6, 8, rng=rng), _Buffered(8), ReLU(), Dense(8, 3, rng=rng))
        # Move the buffers away from their init before saving.
        saved[1].offset = rng.normal(size=8)
        saved[1].scale = np.abs(rng.normal(size=8)) + 0.5
        restored = Sequential(
            Dense(6, 8, rng=np.random.default_rng(101)),
            _Buffered(8),
            ReLU(),
            Dense(8, 3, rng=np.random.default_rng(102)),
        )
        path = save_model(saved, tmp_path / "buffered.npz")
        load_model(restored, path)

        np.testing.assert_array_equal(restored[1].offset, saved[1].offset)
        np.testing.assert_array_equal(restored[1].scale, saved[1].scale)
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_array_equal(restored(x).data, saved(x).data)


class _IndexableStack(Module):
    """ModuleList-style container: children under a non-``layers`` attribute."""

    def __init__(self, *blocks: Module) -> None:
        super().__init__()
        self._blocks = list(blocks)

    def __getitem__(self, index: int) -> Module:
        return self._blocks[index]


class _NotIndexable(Module):
    def __init__(self) -> None:
        super().__init__()
        self.norm = _Buffered(2)


class TestBufferPathWalker:
    def test_list_held_buffer_paths_roundtrip(self, tmp_path):
        """Generated paths put the list attribute before the digit: ``stack.0.*``."""

        class Holder(Module):
            def __init__(self, seed: int) -> None:
                super().__init__()
                rng = np.random.default_rng(seed)
                self.stack = [_Buffered(4), _Buffered(4)]
                self.head = Dense(4, 2, rng=rng)

        rng = np.random.default_rng(9)
        saved = Holder(seed=0)
        saved.stack[0].offset = rng.normal(size=4)
        saved.stack[1].scale = np.abs(rng.normal(size=4)) + 0.5
        restored = Holder(seed=50)
        path = save_model(saved, tmp_path / "holder.npz")
        load_model(restored, path)
        np.testing.assert_array_equal(restored.stack[0].offset, saved.stack[0].offset)
        np.testing.assert_array_equal(restored.stack[1].scale, saved.stack[1].scale)

    def test_digit_path_indexes_custom_container(self):
        """Regression: a digit part must index the *resolved* container.

        Framework-convention keys index an indexable container Module
        directly (``blocks.0.offset``).  The walker used to hard-code
        ``getattr(target, "layers")`` at digit parts, which raised
        AttributeError for any container not named ``layers`` — e.g. this
        ModuleList-style stack.
        """

        class Model(Module):
            def __init__(self) -> None:
                super().__init__()
                self.blocks = _IndexableStack(_Buffered(3), _Buffered(3))

        model = Model()
        value = np.arange(3.0)
        load_state_dict(model, {"buffer:blocks.0.offset": value})
        np.testing.assert_array_equal(model.blocks[0].offset, value)

    def test_digit_path_into_non_indexable_module_raises_keyerror(self):
        class Model(Module):
            def __init__(self) -> None:
                super().__init__()
                self.inner = _NotIndexable()

        with pytest.raises(KeyError, match="non-indexable"):
            load_state_dict(
                Model(), {"buffer:inner.0.offset": np.zeros(2)}
            )

    def test_sequential_digit_paths_still_resolve(self, tmp_path):
        """``Sequential`` stores children under ``layers``; paths unchanged."""
        saved = Sequential(_Buffered(2), ReLU())
        saved.layers[0].offset = np.array([1.5, -2.5])
        keys = dict(state_dict(saved))
        assert "buffer:layers.0.offset" in keys
        restored = Sequential(_Buffered(2), ReLU())
        load_state_dict(restored, keys)
        np.testing.assert_array_equal(restored[0].offset, [1.5, -2.5])


class TestModuleDiscovery:
    def test_named_parameters_walk_attributes_and_containers(self):
        class Model(Module):
            def __init__(self) -> None:
                super().__init__()
                self.direct = Dense(2, 2)
                self.held = [ReLU(), Sequential(Dense(2, 2))]

        found = [name for name, _ in Model().named_parameters()]
        # The direct Dense, and the Dense inside the list-held Sequential.
        assert found == [
            "direct.weight",
            "direct.bias",
            "held.1.layers.0.weight",
            "held.1.layers.0.bias",
        ]

    def test_encoder_registers_projection_buffer(self, config):
        encoder = SpectralEncoder(config, seed=0)
        names = [name for name, _ in encoder.named_buffers()]
        assert names == ["_projection"]
