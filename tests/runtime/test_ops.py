"""Kernel parity: each ``repro.runtime.ops`` kernel against its ``repro.nn`` twin.

The compiled plans are bit-for-bit equal to the autograd forward in float64
only because every kernel replays its ``Tensor``/``nn`` counterpart's exact
ufunc sequence.  These tests pin that kernel by kernel, on inputs that
exercise the IEEE corners a rewrite could disturb: NaN, ±inf, −0.0 and
magnitudes large enough to overflow ``exp`` and the cubic term of GELU.
Equality is asserted on the raw bit patterns, so a flipped zero sign or a
different NaN payload fails too.
"""

import numpy as np
import pytest

from repro.nn import LayerNorm, Linear, Tensor
from repro.runtime import ops

SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 1e-310, 700.0, -745.0])

# Overflow and inf - inf warnings are the point of these inputs.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _inputs(shape=(3, 4, 10), seed=0):
    """Random normals at several scales with the special values mixed in."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3, 1e8], size=shape)
    flat = x.reshape(-1)
    positions = rng.choice(flat.size, size=2 * len(SPECIALS), replace=False)
    flat[positions] = np.tile(SPECIALS, 2)
    return x


def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint8), expected.view(np.uint8))


def test_inputs_cover_the_special_values():
    x = _inputs()
    assert np.isnan(x).any() and np.isposinf(x).any() and np.isneginf(x).any()
    assert (np.signbit(x) & (x == 0)).any()
    assert (np.abs(x[np.isfinite(x)]) >= 1e300).any()


@pytest.mark.parametrize("in_features", [1, 10])
@pytest.mark.parametrize("bias", [True, False])
def test_linear(in_features, bias):
    x = _inputs((4, 6, in_features))
    layer = Linear(in_features, 6, bias=bias, rng=np.random.default_rng(1))
    if bias:
        layer.bias.data = np.random.default_rng(2).standard_normal(6)
    weight = layer.weight.data
    expected = layer(Tensor(x)).data
    actual = ops.linear(x, weight, layer.bias.data if bias else None)
    assert_bits_equal(actual, expected)


def test_relu():
    x = _inputs()
    assert_bits_equal(ops.relu(x.copy()), Tensor(x).relu().data)


def test_relu_and_softmax_overwrite_their_input():
    x = _inputs()
    relu_input = x.copy()
    assert ops.relu(relu_input) is relu_input
    softmax_input = x.copy()
    assert ops.softmax(softmax_input) is softmax_input


def test_gelu():
    x = _inputs()
    assert_bits_equal(ops.gelu(x), Tensor(x).gelu().data)


def test_sigmoid():
    x = _inputs()
    assert_bits_equal(ops.sigmoid(x), Tensor(x).sigmoid().data)


@pytest.mark.parametrize("axis", [-1, 1])
def test_softmax(axis):
    x = _inputs()
    expected = Tensor(x).softmax(axis=axis).data
    assert_bits_equal(ops.softmax(x.copy(), axis=axis), expected)


def test_softmax_of_finite_rows():
    # Rows without special values are the common case: check they stay
    # proper distributions as well as bit-equal.
    x = np.random.default_rng(3).standard_normal((5, 7)) * 50.0
    expected = Tensor(x).softmax().data
    actual = ops.softmax(x.copy())
    assert_bits_equal(actual, expected)
    np.testing.assert_allclose(actual.sum(axis=-1), 1.0)


def test_layer_norm():
    x = _inputs()
    norm = LayerNorm(x.shape[-1], eps=1e-5)
    rng = np.random.default_rng(4)
    norm.gamma.data = rng.standard_normal(x.shape[-1])
    norm.beta.data = rng.standard_normal(x.shape[-1])
    expected = norm(Tensor(x)).data
    assert_bits_equal(ops.layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps), expected)
