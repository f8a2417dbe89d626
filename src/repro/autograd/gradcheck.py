"""Finite-difference gradient checking for the autograd engine."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.autograd.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    tensors: Sequence[Tensor],
    index: int,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*tensors))`` w.r.t. one input."""
    target = tensors[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*tensors).data.sum())
        flat[i] = original - eps
        minus = float(fn(*tensors).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> bool:
    """Compare analytic gradients of ``sum(fn(*tensors))`` to finite differences.

    Returns True when every ``requires_grad`` input matches within tolerance;
    raises :class:`AssertionError` with a diagnostic otherwise.
    """
    for tensor in tensors:
        tensor.zero_grad()
    out = fn(*tensors)
    out.backward(np.ones_like(out.data))
    for idx, tensor in enumerate(tensors):
        if not tensor.requires_grad:
            continue
        numeric = numerical_gradient(fn, tensors, idx, eps=eps)
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradcheck failed for input {idx}: max abs error {worst:.3e}"
            )
    return True
