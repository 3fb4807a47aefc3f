"""Numerics-exact ndarray kernels for the compiled inference runtime.

Every function here reproduces, operation for operation, the arithmetic of
its :mod:`repro.nn` counterpart (``tensor.py`` / ``layers.py``): the same
expression trees, the same scalar constants, the same numpy ufuncs.  That
is what makes the compiled plans **bit-for-bit equal** to the autograd
forward pass in float64 — IEEE-754 arithmetic is deterministic, so an
identical sequence of operations produces identical bits.

Two kinds of speedups are applied, neither of which changes a single bit:

* **in-place completion** — once an intermediate array is freshly
  allocated, the remaining ufuncs of the expression write into it
  (``out=``) instead of allocating again; the values computed are the same.
  :func:`relu` and :func:`softmax` go one step further and finish in their
  *input*: every plan hands them a freshly allocated array that nothing
  else reads, so they overwrite it (same ufuncs, same order, same bits)
  rather than allocate and stream a second array of the same size.
* **degenerate-shape shortcuts** — a ``(…, 1) @ (1, d)`` embedding matmul
  is a sum over one product, so the broadcast multiply ``x * w[0]``
  produces identical bits without a GEMM dispatch.

Scalar constants are python floats, which numpy promotes as "weak"
scalars: float32 inputs therefore stay float32 end to end in the optional
single-precision mode (no silent upcast to float64).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear",
    "relu",
    "gelu",
    "sigmoid",
    "softmax",
    "layer_norm",
    "apply_activation",
]


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ W + b`` — mirrors :class:`repro.nn.Linear.forward`.

    When the contraction axis has length 1 (the univariate value
    embeddings), the matmul degenerates to one product per output element
    and is computed as a broadcast multiply — bit-identical, no GEMM.  The
    product is added to the +0.0 a GEMM accumulates from, which turns a
    -0.0 product into +0.0 exactly as the matmul does.
    """
    if weight.shape[0] == 1 and x.shape[-1] == 1:
        out = x * weight[0]
        np.add(out, 0.0, out=out)
    else:
        out = x @ weight
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Matches ``Tensor.relu``: multiply by a 0/1 mask (not ``np.maximum``).

    **Overwrites** ``x`` and returns it.  The boolean mask is cast to the
    float loop by the multiply itself, so each element is multiplied by
    exactly the 1.0/0.0 that ``Tensor.relu``'s ``astype`` mask holds.
    """
    np.multiply(x, x > 0, out=x)
    return x


def gelu(x: np.ndarray) -> np.ndarray:
    """Matches ``Tensor.gelu`` (tanh approximation)."""
    c = float(np.sqrt(2.0 / np.pi))
    inner = c * (x + 0.044715 * x ** 3)
    return 0.5 * x * (1.0 + np.tanh(inner))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Matches ``Tensor.sigmoid`` including its overflow clip."""
    out = np.clip(x, -60.0, 60.0)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Matches ``Tensor.softmax``: max-shifted exponentials.

    **Overwrites** ``x`` with the probabilities and returns it.
    """
    np.subtract(x, x.max(axis=axis, keepdims=True), out=x)
    np.exp(x, out=x)
    np.divide(x, x.sum(axis=axis, keepdims=True), out=x)
    return x


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """Matches :class:`repro.nn.LayerNorm.forward` over the last axis.

    The ``Tensor`` path computes the mean as ``sum * (1.0 / count)`` (not
    ``np.mean``) and the variance as the mean of ``centered * centered``;
    both are replicated here, with the ``x - mean`` intermediate computed
    once and reused (bit-identical — the autograd path evaluates the same
    subtraction twice).
    """
    inverse_count = 1.0 / x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True)
    np.multiply(mean, inverse_count, out=mean)
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True)
    np.multiply(var, inverse_count, out=var)
    np.add(var, eps, out=var)
    np.sqrt(var, out=var)
    np.divide(centered, var, out=centered)
    np.multiply(centered, gamma, out=centered)
    np.add(centered, beta, out=centered)
    return centered


def apply_activation(x: np.ndarray, name: str) -> np.ndarray:
    """Dispatch matching the activation names used across :mod:`repro.nn`.

    ``"relu"`` overwrites ``x`` (see :func:`relu`); pass a fresh array.
    """
    if name == "identity":
        return x
    if name == "relu":
        return relu(x)
    if name == "gelu":
        return gelu(x)
    if name == "tanh":
        return np.tanh(x)
    if name == "sigmoid":
        return sigmoid(x)
    raise ValueError(f"unsupported activation: {name!r}")
