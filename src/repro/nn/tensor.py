"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of the ``repro.nn`` package.  The paper's
original implementation relies on PyTorch; in this reproduction every neural
component (Transformer, GCN, GRU, VAE, ...) is built on the :class:`Tensor`
class defined here, which provides a small but complete reverse-mode autodiff
engine:

* element-wise arithmetic with numpy broadcasting,
* matrix multiplication, reductions, reshaping, slicing and concatenation,
* the non-linearities required by the models (sigmoid, tanh, relu, gelu,
  softmax, log-softmax),
* a topological-order ``backward`` pass that accumulates gradients.

The tape is cycle-free: an output node holds its parents and the VJP it was
built with, and no VJP captures its own output, so a graph is freed by
reference counting as soon as the last reference to its output drops (for a
training loop, when ``loss`` is rebound for the next batch) instead of
waiting for a cyclic garbage-collector pass.  Gradient accumulation copies
leaf gradients (``Parameter``s and user tensors), so every public ``.grad``
array is private.  A non-leaf gradient may alias its VJP output when that is
C-contiguous; nothing mutates a gradient in place, which keeps the aliasing
harmless.  Non-contiguous VJP outputs are still copied, because their layout
would steer later matmuls and reductions to other numpy kernels and change
the trained weights' bits.

The design intentionally mirrors the familiar ``torch.Tensor`` surface so the
model code in :mod:`repro.core` and :mod:`repro.baselines` reads like the
paper's reference implementation.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Grad mode is *per thread* (like torch's): concurrent training sessions —
# e.g. a FleetTrainer thread pool — must not see each other's no_grad blocks.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad``.  While active, newly created tensors do not
    record the computation graph, which makes inference significantly cheaper.
    The flag is thread-local, so parallel training/inference threads are
    isolated from one another.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        _GRAD_STATE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled (in this thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to the shape of
    ``grad`` during the forward pass, the corresponding gradient must be
    summed over the broadcast axes before being accumulated.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy-backed array that records operations for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and getattr(_GRAD_STATE, "enabled", True)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], Iterable[np.ndarray | None]] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Iterable[np.ndarray | None]],
    ) -> "Tensor":
        """Create an output tensor wired to ``parents`` via ``backward``.

        ``backward`` is the VJP: it maps the output gradient to one gradient
        per parent (``None`` for parents that do not require gradients).  The
        node stores only ``parents`` and ``backward``; VJPs capture their
        inputs, never their output, so the graph holds no reference cycle and
        is freed by refcount when the last reference to the output drops.
        """
        requires = getattr(_GRAD_STATE, "enabled", True) and any(
            p.requires_grad for p in parents
        )
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data
        return Tensor._make(data, (self, other), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data
        return Tensor._make(data, (self, other), lambda g: (g, -g))

    def __rsub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return other.__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data
        return Tensor._make(
            data, (self, other), lambda g: (g * other.data, g * self.data)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data
        return Tensor._make(
            data,
            (self, other),
            lambda g: (g / other.data, -g * self.data / (other.data ** 2)),
        )

    def __rtruediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return other.__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data ** exponent
        return Tensor._make(
            data,
            (self,),
            lambda g: (g * exponent * self.data ** (exponent - 1.0),),
        )

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(g: np.ndarray):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return g * b, g * a
            if a.ndim == 1:
                grad_a = g @ np.swapaxes(b, -1, -2)
                grad_b = np.outer(a, g) if b.ndim == 2 else a[:, None] * g
                return grad_a, grad_b
            if b.ndim == 1:
                grad_a = np.expand_dims(g, -1) * b
                grad_b = np.swapaxes(a, -1, -2) @ g
                return grad_a, grad_b
            grad_a = g @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ g
            return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            grad = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(grad, self.data.shape).copy(),)
            if not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            return (np.broadcast_to(grad, self.data.shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            grad = np.asarray(g)
            expanded = data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                expanded = np.expand_dims(data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            return (mask * grad,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # element-wise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._make(data, (self,), lambda g: (g * data,))

    def log(self) -> "Tensor":
        data = np.log(self.data)
        return Tensor._make(data, (self,), lambda g: (g / self.data,))

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return Tensor._make(data, (self,), lambda g: (g * 0.5 / data,))

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        return Tensor._make(data, (self,), lambda g: (g * np.sign(self.data),))

    def sin(self) -> "Tensor":
        data = np.sin(self.data)
        return Tensor._make(data, (self,), lambda g: (g * np.cos(self.data),))

    def cos(self) -> "Tensor":
        data = np.cos(self.data)
        return Tensor._make(data, (self,), lambda g: (-g * np.sin(self.data),))

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor._make(data, (self,), lambda g: (g * (1.0 - data ** 2),))

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return Tensor._make(data, (self,), lambda g: (g * data * (1.0 - data),))

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        return Tensor._make(self.data * mask, (self,), lambda g: (g * mask,))

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        inner = c * (x + 0.044715 * x ** 3)
        tanh_inner = np.tanh(inner)
        data = 0.5 * x * (1.0 + tanh_inner)

        def backward(g: np.ndarray):
            d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
            grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * (1.0 - tanh_inner ** 2) * d_inner
            return (g * grad,)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
        return Tensor._make(data, (self,), lambda g: (g * mask,))

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray):
            dot = (g * data).sum(axis=axis, keepdims=True)
            return (data * (g - dot),)

        return Tensor._make(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_sum
        softmax = np.exp(data)

        def backward(g: np.ndarray):
            return (g - softmax * g.sum(axis=axis, keepdims=True),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)
        return Tensor._make(data, (self,), lambda g: (g.reshape(original),))

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)
        return Tensor._make(data, (self,), lambda g: (g.transpose(inverse),))

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        data = self.data.swapaxes(axis1, axis2)
        return Tensor._make(data, (self,), lambda g: (g.swapaxes(axis1, axis2),))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(g: np.ndarray):
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            return (grad,)

        return Tensor._make(data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)
        return Tensor._make(data, (self,), lambda g: (np.squeeze(g, axis=axis),))

    def squeeze(self, axis: int | None = None) -> "Tensor":
        original = self.data.shape
        data = np.squeeze(self.data, axis=axis)
        return Tensor._make(data, (self,), lambda g: (g.reshape(original),))

    def repeat(self, repeats: int, axis: int) -> "Tensor":
        """Tile the tensor along ``axis`` (gradient sums over the copies)."""
        data = np.repeat(self.data, repeats, axis=axis)
        original = self.data.shape

        def backward(g: np.ndarray):
            new_shape = list(original)
            new_shape.insert(axis + 1, repeats)
            return (g.reshape(new_shape).sum(axis=axis + 1),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # combination helpers
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray):
            grads = []
            slicer: list = [slice(None)] * g.ndim
            for i in range(len(tensors)):
                slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
                grads.append(g[tuple(slicer)])
            return grads

        return Tensor._make(data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g: np.ndarray):
            return [np.take(g, i, axis=axis) for i in range(len(tensors))]

        return Tensor._make(data, tensors, backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a = a if isinstance(a, Tensor) else Tensor(a)
        b = b if isinstance(b, Tensor) else Tensor(b)
        cond = np.asarray(condition, dtype=bool)
        data = np.where(cond, a.data, b.data)
        return Tensor._make(
            data,
            (a, b),
            lambda g: (np.where(cond, g, 0.0), np.where(cond, 0.0, g)),
        )

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Nodes are visited in reverse topological order; each node's VJP maps
        its accumulated gradient to its parents' gradients, which are
        unbroadcast to the parent's shape and summed into ``parent.grad``.

        The first gradient a node receives is copied when the node is a leaf
        (no VJP: ``Parameter``s and user tensors), so public ``.grad`` arrays
        never alias each other or a VJP's internals and may be edited in
        place by ``clip_grad_norm``, optimizers or users.  A non-leaf node
        keeps a C-contiguous VJP output as is, so its grad may alias another
        node's; that is safe because nothing mutates a gradient in place
        (accumulation is ``parent.grad + grad``, a new array).  Non-contiguous
        outputs (views from ``transpose``/``swapaxes`` VJPs) are still copied:
        their memory layout steers the next matmul or reduction to a
        different numpy kernel, which would change the trained weights' bits.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (appropriate when this tensor is a scalar loss).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological ordering of the graph reachable from ``self``.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:  # repro: allow[id-key] -- visited-set for one walk; every keyed node is alive on `stack`/`order`, so no address can recycle mid-walk
                continue
            visited.add(id(node))  # repro: allow[id-key] -- same walk-scoped visited-set
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:  # repro: allow[id-key] -- same walk-scoped visited-set
                    stack.append((parent, False))

        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, grad in zip(node._parents, node._backward(node.grad)):
                if grad is None or not parent.requires_grad:
                    continue
                grad = _unbroadcast(np.asarray(grad), parent.data.shape)
                if parent.grad is None:
                    if parent._backward is None or not grad.flags.c_contiguous:
                        grad = grad.copy()
                    parent.grad = grad
                else:
                    parent.grad = parent.grad + grad
