"""Tests for layers, convolution, recurrence, losses, optimisers, serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2d,
    Dense,
    LSTM,
    LSTMCell,
    Module,
    ReLU,
    Sequential,
    Tensor,
    check_gradients,
    cross_entropy_loss,
    load_state_dict,
    save_model,
    load_model,
    state_dict,
)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).mean(), [x, layer.weight, layer.bias])

    def test_no_bias(self):
        layer = Dense(3, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestConv2d:
    def test_same_padding_preserves_shape(self):
        conv = Conv2d(2, 4, (3, 3), padding="same")
        out = conv(Tensor(np.zeros((1, 2, 7, 9))))
        assert out.shape == (1, 4, 7, 9)

    def test_dilated_same_padding(self):
        conv = Conv2d(1, 2, (5, 5), padding=(8, 2), dilation=(4, 1))
        out = conv(Tensor(np.zeros((1, 1, 10, 10))))
        assert out.shape == (1, 2, 10, 10)

    def test_flat_filters_match_paper_shapes(self):
        """The Selector's 1x7 (frequency) and 7x1 (time) filters keep the grid."""
        freq_conv = Conv2d(1, 4, (1, 7), padding=(0, 3))
        time_conv = Conv2d(4, 4, (7, 1), padding=(3, 0))
        x = Tensor(np.zeros((1, 1, 12, 20)))
        out = time_conv(freq_conv(x))
        assert out.shape == (1, 4, 12, 20)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 3, (3, 2), padding=(1, 0), rng=rng)
        x = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
        check_gradients(lambda: (conv(x) ** 2).mean(), [x, conv.weight, conv.bias])

    def test_matches_manual_convolution(self):
        """A 1x1 convolution is a per-pixel linear map."""
        conv = Conv2d(2, 1, (1, 1), bias=False)
        conv.weight.data = np.array([[[[2.0]], [[3.0]]]])
        x = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
        out = conv(Tensor(x)).data
        np.testing.assert_allclose(out[0, 0], 2.0 * x[0, 0] + 3.0 * x[0, 1])

    def test_rejects_bad_input_rank(self):
        conv = Conv2d(1, 1, (3, 3))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((3, 3))))


class TestRecurrent:
    def test_lstm_output_shape(self):
        lstm = LSTM(4, 6)
        out = lstm(Tensor(np.zeros((2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_lstm_cell_state_shapes(self):
        cell = LSTMCell(3, 4)
        h, c = cell.initial_state(2)
        h2, c2 = cell(Tensor(np.zeros((2, 3))), (h, c))
        assert h2.shape == (2, 4)
        assert c2.shape == (2, 4)

    def test_lstm_gradcheck(self):
        rng = np.random.default_rng(2)
        lstm = LSTM(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True)
        check_gradients(lambda: (lstm(x) ** 2).mean(), [x, lstm.cell.weight_ih])


class TestLosses:
    def test_cross_entropy_prefers_correct_class(self):
        good = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]), requires_grad=True)
        bad = Tensor(np.array([[0.0, 10.0], [10.0, 0.0]]), requires_grad=True)
        labels = np.array([0, 1])
        assert float(cross_entropy_loss(good, labels).data) < float(
            cross_entropy_loss(bad, labels).data
        )


class TestOptimisers:
    def _fit(self, optimizer_factory, steps=200):
        rng = np.random.default_rng(0)
        layer = Dense(2, 1, rng=rng)
        optimizer = optimizer_factory(layer.parameters())
        x = rng.normal(size=(64, 2))
        y = x @ np.array([[2.0], [-1.0]]) + 0.5
        loss_value = None
        for _ in range(steps):
            optimizer.zero_grad()
            diff = layer(Tensor(x)) - Tensor(y)
            loss = (diff * diff).mean()
            loss.backward()
            optimizer.step()
            loss_value = float(loss.data)
        return loss_value

    def test_adam_converges(self):
        assert self._fit(lambda p: Adam(p, lr=0.05)) < 1e-3

    def test_weight_decay_shrinks_weights(self):
        layer = Dense(3, 3)
        optimizer = Adam(layer.parameters(), lr=0.1, weight_decay=0.5)
        before = np.abs(layer.weight.data).sum()
        for _ in range(20):
            optimizer.zero_grad()
            loss = (layer(Tensor(np.zeros((1, 3)))) ** 2).sum()
            loss.backward()
            optimizer.step()
        assert np.abs(layer.weight.data).sum() < before

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([])


class TestModuleAndSerialization:
    def test_sequential_composition(self):
        model = Sequential(Dense(4, 8), ReLU(), Dense(8, 2))
        out = model(Tensor(np.zeros((3, 4))))
        assert out.shape == (3, 2)
        assert len(model) == 3

    def test_named_parameters_unique(self):
        model = Sequential(Dense(4, 4), Dense(4, 4))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names)) == 4

    def test_num_parameters(self):
        model = Dense(10, 5)
        assert model.num_parameters() == 10 * 5 + 5

    def test_state_dict_roundtrip(self, tmp_path):
        model = Sequential(Dense(3, 4), ReLU(), Dense(4, 2))
        clone = Sequential(Dense(3, 4), ReLU(), Dense(4, 2))
        for parameter in clone.parameters():
            parameter.data = parameter.data + 1.0
        path = tmp_path / "model.npz"
        save_model(model, path)
        load_model(clone, path)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_load_rejects_shape_mismatch(self):
        source = Dense(3, 4)
        target = Dense(3, 5)
        with pytest.raises((ValueError, KeyError)):
            load_state_dict(target, state_dict(source))
