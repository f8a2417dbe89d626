"""Differentiable operations on :class:`~repro.autograd.tensor.Tensor`.

Each function computes the forward result eagerly with NumPy and attaches a
backward closure to the output.  Convolution and pooling run the
array-level window kernels of :mod:`repro.autograd.arrays` (im2col and
col2im, shifted-window pooling, zero-bordered padding), which the
compiled proxy plans of :mod:`repro.engine.plan` share.  Inside :func:`keep_columns` each ``conv2d`` also hands
its unfolded input columns to the caller, so the batched NTK kernel
reuses them instead of unfolding every conv input a second time.

Every op is dtype-preserving: forwards compute with NumPy (which keeps the
operand dtype), outputs are wrapped by :class:`Tensor` (which allocates in
the active precision policy's compute dtype — a no-op when operands already
match it), and backward closures accumulate into each parent's own dtype.
Under ``precision("float32")`` the whole tape — im2col buffers, BLAS
matmuls, gradient accumulation — therefore runs in float32; the float64
default is bit-identical to the historical hard-coded behaviour.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.arrays import (
    _avg_pool,
    _avg_pool_grad,
    _col2im,
    _conv_out_size,
    _im2col,
    _pool_windows,
    _zero_pad,
)
from repro.autograd.precision import default_dtype
from repro.autograd.tensor import Tensor, _as_tensor, _unbroadcast
from repro.errors import ShapeError

Axis = Union[None, int, Tuple[int, ...]]

#: Column sink of the innermost :func:`keep_columns` scope, *per thread*:
#: the thread pool runs NTK kernels concurrently, so one thread's capture
#: must never see another thread's convolutions.
_COLUMNS = threading.local()


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return out._attach((a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(-grad)

    return out._attach((a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * b.data)
        if b.requires_grad:
            b._accumulate(grad * a.data)

    return out._attach((a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / b.data)
        if b.requires_grad:
            b._accumulate(-grad * a.data / (b.data**2))

    return out._attach((a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    out = Tensor(a.data**exponent)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return out._attach((a,), backward)


def exp(a: Tensor) -> Tensor:
    value = np.exp(a.data)
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * value)

    return out._attach((a,), backward)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return out._attach((a,), backward)


def sqrt(a: Tensor) -> Tensor:
    return power(a, 0.5)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties send the full gradient to ``a``."""
    mask = a.data >= b.data
    out = Tensor(np.where(mask, a.data, b.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)
        if b.requires_grad:
            b._accumulate(grad * ~mask)

    return out._attach((a, b), backward)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    out = Tensor(a.data * mask)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return out._attach((a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    value = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * value * (1.0 - value))

    return out._attach((a,), backward)


def tanh(a: Tensor) -> Tensor:
    value = np.tanh(a.data)
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - value**2))

    return out._attach((a,), backward)


# ----------------------------------------------------------------------
# Reductions and shape ops
# ----------------------------------------------------------------------
def sum(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(ax % a.data.ndim for ax in axes)
            g = np.expand_dims(g, axis=tuple(sorted(axes)))
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return out._attach((a,), backward)


def mean(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    if axis is None:
        denom = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        denom = 1
        for ax in axes:
            denom *= a.data.shape[ax % a.data.ndim]
    return sum(a, axis=axis, keepdims=keepdims) * (1.0 / denom)


def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(a.data.shape))

    return out._attach((a,), backward)


def transpose(a: Tensor, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    out = Tensor(a.data.transpose(axes))

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axes is None:
            a._accumulate(grad.transpose())
        else:
            inverse = np.argsort(axes)
            a._accumulate(grad.transpose(tuple(inverse)))

    return out._attach((a,), backward)


def getitem(a: Tensor, index) -> Tensor:
    out = Tensor(a.data[index])

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            a._accumulate(full)

    return out._attach((a,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return out._attach(tuple(tensors), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ grad)

    return out._attach((a, b), backward)


def pad2d(a: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return a
    out = Tensor(_zero_pad(a.data, padding))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad[..., padding:-padding, padding:-padding])

    return out._attach((a,), backward)


# ----------------------------------------------------------------------
# Convolution (im2col) and pooling (shifted windows)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def keep_columns() -> Iterator[Dict[int, np.ndarray]]:
    """Collect each ``conv2d``'s unfolded input columns inside the scope.

    Yields a dict mapping ``id(output)`` of every ``conv2d`` call made on
    this thread to its ``(N, C*K*K, OH*OW)`` columns.  The dict is dropped
    from the thread's state when the scope exits, normally or not; scopes
    nest, and other threads never see it.
    """
    previous = getattr(_COLUMNS, "sink", None)
    sink: Dict[int, np.ndarray] = {}
    _COLUMNS.sink = sink
    try:
        yield sink
    finally:
        _COLUMNS.sink = previous


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation of NCHW input with OIHW weights."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects OIHW weight, got shape {weight.shape}")
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError("only square kernels are supported")
    if c_in != c_in_w:
        raise ShapeError(
            f"input has {c_in} channels but weight expects {c_in_w}"
        )
    kernel = kh
    cols, (oh, ow) = _im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(c_out, c_in * kernel * kernel)
    # Batched BLAS matmul ((o,k) broadcast against (n,k,p)) — measurably
    # faster than the equivalent einsum, which bypasses BLAS.
    out_data = np.matmul(w_mat, cols).reshape(n, c_out, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)
    out = Tensor(out_data)
    sink = getattr(_COLUMNS, "sink", None)
    if sink is not None:
        sink[id(out)] = cols

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, c_out, oh * ow)
        if weight.requires_grad:
            grad_w = np.tensordot(grad_mat, cols, axes=([0, 2], [0, 2]))
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = np.matmul(w_mat.T, grad_mat)
            x._accumulate(_col2im(grad_cols, x.data.shape, kernel, stride, padding))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return out._attach(parents, backward)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None, padding: int = 0) -> Tensor:
    """Average pooling over NCHW input (count includes padded zeros,
    matching the ``count_include_pad=True`` convention NAS-Bench-201 uses).

    The forward adds the K² shifted strided windows of the zero-bordered
    input in window order and divides by K²; the backward scatters
    ``grad / K²`` back through the same windows.  (An im2col ``mean``
    sums the same order, except over a single output pixel with K² ≥ 8,
    where numpy sums pairwise; no pool in the search space hits that.)
    """
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    windows = _pool_windows(kernel, stride, oh, ow)
    out = Tensor(_avg_pool(x.data, kernel, padding, windows))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_avg_pool_grad(grad, x.data.shape, kernel, padding,
                                         windows))

    return out._attach((x,), backward)


def batch_norm_eval(
    x: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
    weight: Optional[Tensor] = None,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """BatchNorm of NCHW ``x`` with fixed per-channel statistics: one node.

    Computes ``(x - mean) * (var + eps) ** -0.5``, then ``* weight + bias``
    when affine, with the statistics as constants.
    """
    shape = (1, x.shape[1], 1, 1)
    # ``eps`` in the compute dtype, as a wrapped Tensor scalar would be.
    inv_std = (var.reshape(shape) + np.asarray(eps, dtype=default_dtype())) ** -0.5
    normalised = (x.data - mean.reshape(shape)) * inv_std
    if weight is None:
        out = Tensor(normalised)
        parents: Tuple[Tensor, ...] = (x,)
    else:
        scale = weight.data.reshape(shape)
        out = Tensor(normalised * scale + bias.data.reshape(shape))
        parents = (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * inv_std if weight is None
                          else grad * scale * inv_std)
        if weight is not None and weight.requires_grad:
            weight._accumulate(
                _unbroadcast(grad * normalised, shape).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, shape).reshape(bias.shape))

    return out._attach(parents, backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims of NCHW input, returning (N, C)."""
    return mean(x, axis=(2, 3))


def max_reduce(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    """Maximum along an axis; gradient flows to the (first) argmax entries."""
    data = a.data.max(axis=axis, keepdims=keepdims)
    out = Tensor(data)

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axis is None:
            mask = a.data == a.data.max()
            # Split gradient across ties to keep the total derivative bounded.
            a._accumulate(grad * mask / mask.sum())
            return
        expanded = data if keepdims else np.expand_dims(data, axis=axis)
        g = grad if keepdims else np.expand_dims(grad, axis=axis)
        mask = a.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)
        a._accumulate(g * mask / counts)

    return out._attach((a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_z
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            softmax = np.exp(value)
            a._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return out._attach((a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (via the stable log-softmax)."""
    return exp(log_softmax(a, axis=axis))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (N, C) logits against integer labels."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, C) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    log_probs = log_softmax(logits, axis=1)
    n = logits.shape[0]
    picked = getitem(log_probs, (np.arange(n), labels))
    return neg(mean(picked))
