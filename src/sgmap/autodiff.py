"""Minimal reverse-mode automatic differentiation over numpy arrays.

The prediction network works on stacked rows: node features are one
(N, D) array, edge features one (E, D) array, and index arrays say which
rows belong together (the source and target node of each edge, the node of
each point).  Every operation acts on the last axis, so the same call takes
a single (D,) vector or a stack of rows:

- ``linear``: a weight matrix applied to every row;
- elementwise arithmetic with numpy broadcasting, sigmoid/tanh/relu/log;
- ``softmax``, ``log_softmax`` and ``concat`` over the last axis;
- ``gather``: rows (or single entries) picked by index;
- ``segment_max``: the componentwise max of the rows of each segment;
- ``mean_all``: the mean of every entry, as a scalar.

Graphs are built eagerly and freed after backward().
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reverse numpy broadcasting: reduce grad back to the operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Array value plus the closure that routes gradients to its parents."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Backpropagate from a scalar tensor."""
        if self.value.shape != ():
            raise ShapeError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.array(1.0)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, as_tensor(-1.0))

    def __truediv__(self, other):
        return div(self, as_tensor(other))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def _binary(a: Tensor, b: Tensor, value, da, db) -> Tensor:
    out = Tensor(value, parents=(a, b))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_sum_to_shape(da(grad), a.value.shape))
        if b.requires_grad:
            b._accumulate(_sum_to_shape(db(grad), b.value.shape))

    out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, a.value + b.value, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, a.value - b.value, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, a.value * b.value, lambda g: g * b.value, lambda g: g * a.value)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(
        a,
        b,
        a.value / b.value,
        lambda g: g / b.value,
        lambda g: -g * a.value / (b.value * b.value),
    )


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``w`` (M, K) applied to the last axis of ``x`` (..., K), giving
    (..., M); a (K,) weight acts as a single output row, giving (..., 1).

    Each row is multiplied on its own (a stacked product of (1, K) rows),
    so a row's result does not depend on its position or on how many rows
    there are.  One matrix product over all rows would not guarantee that:
    BLAS blocks the rows, and edge blocks sum in another order.
    """
    xv = x.value
    wv = np.atleast_2d(w.value)
    out = Tensor(np.matmul(xv[..., None, :], wv.T)[..., 0, :], parents=(x, w))

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad @ wv)
        if w.requires_grad:
            gw = grad.reshape(-1, wv.shape[0]).T @ xv.reshape(-1, wv.shape[1])
            w._accumulate(gw.reshape(w.value.shape))

    out._backward = backward
    return out


def _unary(a: Tensor, value, da) -> Tensor:
    out = Tensor(value, parents=(a,))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(da(grad))

    out._backward = backward
    return out


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function (only exponentiates non-positives)."""
    z = np.exp(-np.abs(x))
    return np.where(np.asarray(x) >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: Tensor) -> Tensor:
    s = stable_sigmoid(a.value)
    return _unary(a, s, lambda g: g * s * (1.0 - s))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.value)
    return _unary(a, t, lambda g: g * (1.0 - t * t))


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0
    return _unary(a, a.value * mask, lambda g: g * mask)


def log(a: Tensor) -> Tensor:
    return _unary(a, np.log(a.value), lambda g: g / a.value)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    e = np.exp(a.value - a.value.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return _unary(a, s, lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True)))


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return _unary(a, ls, lambda g: g - np.exp(ls) * g.sum(axis=-1, keepdims=True))


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenation over the last axis."""
    splits = np.cumsum([p.value.shape[-1] for p in parts])[:-1]
    out = Tensor(np.concatenate([p.value for p in parts], axis=-1), parents=tuple(parts))

    def backward(grad):
        for p, g in zip(parts, np.split(grad, splits, axis=-1)):
            if p.requires_grad:
                p._accumulate(g)

    out._backward = backward
    return out


def segment_max(a: Tensor, segment: np.ndarray, num_segments: int) -> Tensor:
    """Componentwise max of the rows of ``a`` (R, D) in each segment.

    Row ``r`` belongs to segment ``segment[r]``; the result is
    (num_segments, D), with zero rows for segments that have no rows.  On
    ties the gradient goes to the first such row in row order.
    """
    order = np.argsort(segment, kind="stable")
    rows = a.value[order]
    counts = np.bincount(segment, minlength=num_segments)
    filled = counts > 0
    starts = (np.cumsum(counts) - counts)[filled]
    value = np.zeros((num_segments,) + a.value.shape[1:])
    if len(rows):
        value[filled] = np.maximum.reduceat(rows, starts, axis=0)
    out = Tensor(value, parents=(a,))

    def backward(grad):
        if a.requires_grad and len(rows):
            # rows == max, except that a NaN max (x < NaN is False) hits every row
            hit = ~(rows < value[segment[order]])
            position = np.where(hit, np.arange(len(rows))[:, None], len(rows))
            first = order[np.minimum.reduceat(position, starts, axis=0)]
            ga = np.zeros_like(a.value)
            ga[first, np.arange(a.value.shape[1])] = grad[filled]
            a._accumulate(ga)

    out._backward = backward
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size
    return _unary(a, a.value.mean(), lambda g: np.full_like(a.value, g / n))


def gather(a: Tensor, index) -> Tensor:
    """``a[index]`` under numpy indexing: an int or an index array picks
    rows, a tuple of index arrays picks single entries.  Gradients of
    repeated indices add up."""
    out = Tensor(a.value[index], parents=(a,))

    def backward(grad):
        if a.requires_grad:
            ga = np.zeros_like(a.value)
            np.add.at(ga, index, grad)
            a._accumulate(ga)

    out._backward = backward
    return out
