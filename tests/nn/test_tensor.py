"""Unit tests for the autodiff Tensor: forward values and gradients."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import Tensor, no_grad, is_grad_enabled


def numeric_gradient(func, values, eps=1e-6):
    """Central-difference gradient of a scalar-valued function of a flat array."""
    values = np.asarray(values, dtype=np.float64)
    grad = np.zeros_like(values)
    for i in range(values.size):
        plus = values.copy()
        plus.flat[i] += eps
        minus = values.copy()
        minus.flat[i] -= eps
        grad.flat[i] = (func(plus) - func(minus)) / (2 * eps)
    return grad


def analytic_gradient(func_tensor, values):
    x = Tensor(values, requires_grad=True)
    out = func_tensor(x)
    out.backward()
    return x.grad


def check_gradients(func_tensor, values, atol=1e-6):
    values = np.asarray(values, dtype=np.float64)
    analytic = analytic_gradient(func_tensor, values)
    numeric = numeric_gradient(lambda v: func_tensor(Tensor(v)).item(), values)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestTensorBasics:
    def test_creation_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.ndim == 1
        assert t.size == 3

    def test_requires_grad_flag(self):
        assert not Tensor([1.0]).requires_grad
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_stops_gradient(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_copy_independent(self):
        t = Tensor([1.0, 2.0])
        c = t.copy()
        c.data[0] = 5.0
        assert t.data[0] == 1.0

    def test_backward_requires_grad_error(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()


class TestNoGrad:
    def test_no_grad_disables_tracking(self):
        with no_grad():
            assert not is_grad_enabled()
            t = Tensor([1.0], requires_grad=True)
            out = t * 2
            assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()


class TestArithmeticForward:
    def test_add(self):
        np.testing.assert_allclose((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_add_scalar(self):
        np.testing.assert_allclose((Tensor([1.0]) + 2.0).data, [3.0])

    def test_radd(self):
        np.testing.assert_allclose((2.0 + Tensor([1.0])).data, [3.0])

    def test_sub(self):
        np.testing.assert_allclose((Tensor([5.0]) - Tensor([2.0])).data, [3.0])

    def test_rsub(self):
        np.testing.assert_allclose((10.0 - Tensor([4.0])).data, [6.0])

    def test_mul(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])).data, [8.0, 15.0])

    def test_div(self):
        np.testing.assert_allclose((Tensor([6.0]) / Tensor([3.0])).data, [2.0])

    def test_rdiv(self):
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, np.array([[19.0, 22.0], [43.0, 50.0]]))

    def test_matmul_batched(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_broadcasting_add(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose((a + b).data, np.ones((2, 3)) + np.array([1.0, 2.0, 3.0]))


class TestGradients:
    def test_add_gradient(self):
        check_gradients(lambda x: (x + x * 2).sum(), np.array([1.0, -2.0, 3.0]))

    def test_mul_gradient(self):
        check_gradients(lambda x: (x * x).sum(), np.array([1.0, -2.0, 3.0]))

    def test_div_gradient(self):
        check_gradients(lambda x: (x / (x * x + 1.0)).sum(), np.array([1.0, -2.0, 0.5]))

    def test_pow_gradient(self):
        check_gradients(lambda x: (x ** 3).sum(), np.array([1.0, 2.0, 0.5]))

    def test_matmul_gradient(self):
        rng = np.random.default_rng(1)
        fixed = rng.normal(size=(3, 2))

        def f(x):
            return (x.reshape(2, 3) @ Tensor(fixed)).sum()

        check_gradients(f, rng.normal(size=6))

    def test_exp_gradient(self):
        check_gradients(lambda x: x.exp().sum(), np.array([0.1, -0.5, 1.0]))

    def test_log_gradient(self):
        check_gradients(lambda x: x.log().sum(), np.array([0.5, 1.5, 3.0]))

    def test_sqrt_gradient(self):
        check_gradients(lambda x: x.sqrt().sum(), np.array([0.5, 1.5, 3.0]))

    def test_abs_gradient(self):
        check_gradients(lambda x: x.abs().sum(), np.array([0.5, -1.5, 3.0]))

    def test_sigmoid_gradient(self):
        check_gradients(lambda x: x.sigmoid().sum(), np.array([0.0, -2.0, 2.0]))

    def test_tanh_gradient(self):
        check_gradients(lambda x: x.tanh().sum(), np.array([0.0, -2.0, 2.0]))

    def test_relu_gradient(self):
        check_gradients(lambda x: x.relu().sum(), np.array([0.5, -2.0, 2.0]))

    def test_gelu_gradient(self):
        check_gradients(lambda x: x.gelu().sum(), np.array([0.5, -2.0, 2.0]), atol=1e-5)

    def test_sin_cos_gradient(self):
        check_gradients(lambda x: (x.sin() + x.cos()).sum(), np.array([0.1, 1.2, -0.7]))

    def test_softmax_gradient(self):
        check_gradients(lambda x: (x.softmax() * Tensor([1.0, 2.0, 3.0])).sum(), np.array([0.1, 1.2, -0.7]))

    def test_log_softmax_gradient(self):
        check_gradients(lambda x: (x.log_softmax() * Tensor([1.0, 0.0, -1.0])).sum(), np.array([0.1, 1.2, -0.7]))

    def test_mean_gradient(self):
        check_gradients(lambda x: (x.mean() * 3.0), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_var_gradient(self):
        check_gradients(lambda x: x.var(), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_max_gradient(self):
        check_gradients(lambda x: x.max(), np.array([1.0, 4.0, 3.0]))

    def test_clip_gradient(self):
        check_gradients(lambda x: x.clip(-1.0, 1.0).sum(), np.array([0.5, -2.0, 2.0]))

    def test_getitem_gradient(self):
        check_gradients(lambda x: x[1:].sum(), np.array([1.0, 2.0, 3.0]))

    def test_broadcast_gradient_accumulation(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        ((a * b).sum()).backward()
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(a.grad, np.tile([1.0, 2.0, 3.0], (2, 1)))

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3 + x * 4
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])


class TestShapeOps:
    def test_reshape_roundtrip(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape((3, 2)).shape == (3, 2)

    def test_reshape_gradient(self):
        check_gradients(lambda x: (x.reshape(2, 2) ** 2).sum(), np.arange(4.0))

    def test_transpose_default(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.T.shape == (3, 2)

    def test_transpose_axes_gradient(self):
        check_gradients(lambda x: (x.reshape(2, 3).transpose(1, 0) * Tensor(np.arange(6.0).reshape(3, 2))).sum(), np.arange(6.0))

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.swapaxes(1, 2).shape == (2, 4, 3)

    def test_expand_squeeze(self):
        t = Tensor(np.zeros((3,)))
        expanded = t.expand_dims(0)
        assert expanded.shape == (1, 3)
        assert expanded.squeeze(0).shape == (3,)

    def test_repeat_gradient_sums(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = x.repeat(3, axis=0)
        assert y.shape == (3, 2)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [[3.0, 3.0]])

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3))).flatten().shape == (6,)

    def test_sum_axis_keepdims(self):
        t = Tensor(np.ones((2, 3)))
        assert t.sum(axis=0).shape == (3,)
        assert t.sum(axis=0, keepdims=True).shape == (1, 3)

    def test_sum_axis_gradient(self):
        check_gradients(lambda x: (x.reshape(2, 3).sum(axis=1) ** 2).sum(), np.arange(6.0))


class TestCombiningOps:
    def test_concat_forward(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert Tensor.concat([a, b], axis=1).shape == (2, 5)

    def test_concat_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_allclose(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

    def test_stack_forward_and_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_where(self):
        cond = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = Tensor.where(cond, a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestNumericalStability:
    def test_sigmoid_extreme_inputs(self):
        out = Tensor([1000.0, -1000.0]).sigmoid()
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = Tensor(rng.normal(size=(4, 7)) * 50).softmax(axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_large_values_finite(self):
        out = Tensor([1e6, 1e6 + 1]).softmax()
        assert np.isfinite(out.data).all()


@pytest.fixture
def gc_disabled():
    """Turn the cyclic garbage collector off, so only refcounting frees."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestGraphLifetime:
    """The tape holds no reference cycle: refcounting alone frees a graph."""

    def test_intermediate_dies_with_its_loss(self, gc_disabled):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        hidden = (x * 2.0).tanh()
        alive = weakref.ref(hidden)
        loss = (hidden @ Tensor(np.ones((3, 1)))).sum()
        del hidden
        loss.backward()
        assert alive() is not None  # the loss still owns its graph
        del loss
        assert alive() is None
        assert x.grad is not None

    def test_detector_fit_leaves_no_cyclic_garbage(self, gc_disabled):
        from repro.core import AeroConfig, AeroDetector

        config = AeroConfig.fast(window=16, short_window=6).scaled(
            d_model=8, num_heads=2, max_epochs_stage1=1, max_epochs_stage2=1
        )
        series = np.random.default_rng(42).normal(10.0, 1.0, size=(150, 3))
        AeroDetector(config).fit(series)
        assert gc.collect() == 0


class TestGradientAliasing:
    def test_leaf_grads_are_private(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        a.grad *= 5.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 5.0))

    def test_transposed_intermediate_grad_is_c_contiguous(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        hidden = x * 1.0
        flipped = hidden.transpose()
        (flipped @ Tensor(np.ones((3, 2)))).sum().backward()
        assert hidden.grad.flags.c_contiguous
        np.testing.assert_array_equal(hidden.grad, np.full((3, 4), 2.0))
