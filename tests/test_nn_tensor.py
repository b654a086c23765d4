"""Autograd correctness tests for repro.nn.tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import check_gradients

from repro.nn import Tensor, no_grad
from repro.nn.conv import conv_output_size


def _param(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestElementwiseOps:
    def test_add_backward(self):
        a = _param([1.0, 2.0, 3.0])
        b = _param([4.0, 5.0, 6.0])
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_mul_backward(self):
        a = _param([[1.0, -2.0], [0.5, 3.0]])
        b = _param([[2.0, 1.0], [-1.0, 0.3]])
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div_backward(self):
        a = _param([1.0, 2.0, 3.0])
        b = _param([2.0, 4.0, 5.0])
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_pow_backward(self):
        a = _param([1.0, 2.0, 3.0])
        check_gradients(lambda: (a ** 3).sum(), [a])

    def test_broadcasting_add(self):
        a = _param(np.ones((3, 4)))
        b = _param(np.ones(4))
        out = a + b
        out.sum().backward()
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_sub_and_neg(self):
        a = _param([5.0, 1.0])
        b = _param([2.0, 2.0])
        result = (a - b).sum()
        result.backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [-1.0, -1.0])


class TestMatmulAndReductions:
    def test_matmul_backward(self):
        a = _param(np.random.default_rng(0).normal(size=(3, 4)))
        b = _param(np.random.default_rng(1).normal(size=(4, 2)))
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched_matmul_backward(self):
        a = _param(np.random.default_rng(0).normal(size=(2, 5)))
        b = _param(np.random.default_rng(1).normal(size=(3, 5, 4)))
        check_gradients(lambda: ((a @ b) ** 2).mean(), [a, b])

    def test_mean_matches_manual(self):
        a = _param([[1.0, 2.0], [3.0, 4.0]])
        a.zero_grad()
        a.mean().backward()
        np.testing.assert_allclose(a.grad, 0.25 * np.ones((2, 2)))

    def test_sum_axis_keepdims(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        check_gradients(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_max_backward(self):
        a = _param([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        a.zero_grad()
        a.max().backward()
        assert a.grad[1, 0] == 1.0
        assert a.grad.sum() == 1.0


class TestActivations:
    @pytest.mark.parametrize("op", ["relu", "sigmoid", "tanh", "exp", "abs"])
    def test_unary_gradients(self, op):
        a = _param([[0.5, -1.2], [2.0, 0.1]])
        check_gradients(lambda: (getattr(a, op)() ** 2).mean(), [a])

    def test_log_gradient(self):
        a = _param([0.5, 1.5, 2.0])
        check_gradients(lambda: a.log().sum(), [a], tolerance=1e-3)

    def test_softmax_rows_sum_to_one(self):
        a = _param(np.random.default_rng(0).normal(size=(4, 5)))
        probs = a.softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_clip_gradient_zero_outside(self):
        a = _param([-2.0, 0.5, 3.0])
        a.zero_grad()
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestStructuralOps:
    def test_reshape_transpose(self):
        a = _param(np.random.default_rng(0).normal(size=(2, 3, 4)))
        check_gradients(lambda: (a.reshape(6, 4).transpose(1, 0) ** 2).sum(), [a])

    def test_getitem_backward(self):
        a = _param(np.arange(12.0).reshape(3, 4))
        a.zero_grad()
        a[1:3, :2].sum().backward()
        expected = np.zeros((3, 4))
        expected[1:3, :2] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_concatenate_backward(self):
        a = _param(np.ones((2, 3)))
        b = _param(np.ones((2, 2)))
        check_gradients(lambda: (Tensor.concatenate([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_backward(self):
        a = _param(np.ones(3))
        b = _param(2.0 * np.ones(3))
        check_gradients(lambda: (Tensor.stack([a, b], axis=0) ** 2).sum(), [a, b])

    def test_pad_backward(self):
        a = _param(np.ones((2, 2)))
        padded = a.pad(((1, 1), (2, 2)))
        assert padded.shape == (4, 6)
        check_gradients(lambda: (a.pad(((1, 1), (2, 2))) ** 2).sum(), [a])

    def test_conv_output_size(self):
        assert conv_output_size(10, 10, (3, 3), padding=(1, 1)) == (10, 10)
        assert conv_output_size(10, 10, (5, 5), dilation=(2, 1), padding=(4, 2)) == (10, 10)


class TestGraphMechanics:
    def test_no_grad_context(self):
        a = _param([1.0, 2.0])
        with no_grad():
            out = (a * 2).sum()
        assert not out.requires_grad

    def test_backward_requires_scalar(self):
        a = _param([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_constant_raises(self):
        a = Tensor([1.0, 2.0])
        with pytest.raises(RuntimeError):
            a.sum().backward()

    def test_gradient_accumulates_when_reused(self):
        a = _param([1.0, 2.0])
        a.zero_grad()
        ((a * a) + a).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0 * a.data + 1.0)

    def test_detach_cuts_graph(self):
        a = _param([1.0, 2.0])
        a.zero_grad()
        (a.detach() * a).sum().backward()
        np.testing.assert_allclose(a.grad, a.data)

    def test_backward_frees_interior_grads_and_keeps_leaf_grads(self):
        a = _param([1.0, 2.0, 3.0])
        b = _param([0.5, -1.0, 2.0])
        product = a * b
        hidden = (product + a).relu()
        loss = (hidden * hidden).sum()
        loss.backward()
        for interior in (product, hidden, loss):
            assert interior.grad is None
        h = np.maximum(a.data * b.data + a.data, 0.0)
        np.testing.assert_allclose(a.grad, 2.0 * h * (b.data + 1.0))
        np.testing.assert_allclose(b.grad, 2.0 * h * a.data)

    def test_second_backward_through_a_freed_graph_raises(self):
        a = _param([1.0, 2.0])
        hidden = a * a
        loss = hidden.sum()
        loss.backward()
        spent = a.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            (hidden * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, spent)

    def test_leaf_grads_alias_no_other_gradient_or_the_seed(self):
        """Pass-through backwards copy a first gradient; fresh ones are bound as they are."""
        rng = np.random.default_rng(0)
        a, b, c = (_param(rng.normal(size=(2, 3))) for _ in range(3))
        bias = _param(rng.normal(size=(3,)))
        d = _param(rng.normal(size=(3, 2)))
        e, f = (_param(rng.normal(size=(2, 3))) for _ in range(2))
        leaves = [a, b, c, bias, d, e, f]
        out = Tensor.concatenate(
            [
                b + f,                                   # identity unbroadcast, both sides
                (c + bias).reshape(3, 2).transpose(),    # broadcast, reshape, transpose
                Tensor.stack([a, e])[1],                 # stack, then a slice
                (a @ d).pad(((0, 0), (0, 1))),           # fresh products, then a pad view
                (e * 2.0).relu() - e.sigmoid(),
            ],
            axis=0,
        )
        seed = rng.normal(size=out.shape)
        out.backward(seed)
        for index, leaf in enumerate(leaves):
            assert leaf.grad is not None
            assert not np.shares_memory(leaf.grad, seed)
            for other in leaves[index + 1 :]:
                assert not np.shares_memory(leaf.grad, other.grad)
        kept = [leaf.grad.copy() for leaf in leaves]
        seed[...] = 0.0
        for leaf, grad in zip(leaves, kept):
            np.testing.assert_array_equal(leaf.grad, grad)
        # A leaf that is the root binds a copy of the seed.
        root = _param([1.0, 2.0])
        seed = np.array([3.0, 4.0])
        root.backward(seed)
        assert not np.shares_memory(root.grad, seed)

    def test_deep_chain_does_not_recurse(self):
        a = _param([1.0])
        out = a
        for _ in range(2000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, (3, 4), elements=st.floats(-3, 3)),
    arrays(np.float64, (3, 4), elements=st.floats(-3, 3)),
)
def test_property_add_mul_match_numpy(a, b):
    """Forward results of basic ops agree with numpy for arbitrary inputs."""
    ta, tb = Tensor(a), Tensor(b)
    np.testing.assert_allclose((ta + tb).data, a + b)
    np.testing.assert_allclose((ta * tb).data, a * b)
    np.testing.assert_allclose((ta - tb).data, a - b)


@settings(max_examples=15, deadline=None)
@given(arrays(np.float64, (2, 3), elements=st.floats(-2, 2, allow_nan=False)))
def test_property_sum_gradient_is_ones(values):
    """d(sum)/dx is exactly one everywhere, whatever the input."""
    tensor = Tensor(values, requires_grad=True)
    tensor.sum().backward()
    np.testing.assert_allclose(tensor.grad, np.ones_like(values))
