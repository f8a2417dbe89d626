"""The :class:`Tensor` type and the backward tape.

A ``Tensor`` wraps a ``numpy.ndarray`` together with:

* ``requires_grad`` — whether gradients should flow to this tensor,
* ``grad`` — the accumulated gradient (same shape as ``data``),
* a backward closure and parent links recorded by the op that produced it.

The implementation favours clarity over raw speed; the proxy networks in
this library are deliberately tiny (a few thousand parameters), so a pure
NumPy tape is fast enough for thousands of proxy evaluations.

Dtype semantics: every tensor — including each op's output — is
allocated in the **active precision policy's** compute dtype
(:mod:`repro.autograd.precision`; float64 by default, bit-identical to
the historical hard-coded behaviour), and gradients accumulate in each
tensor's own dtype.  Inside one ``precision(...)`` scope every tape node
therefore shares one dtype.  Build AND evaluate a network inside the
same scope: running a network outside the scope it was built under makes
each op's output wrap re-cast to the ambient dtype (a silent
copy-per-op upcast, or a precision-losing downcast) — which is why the
proxies re-enter their config's policy on every call.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.precision import default_dtype
from repro.errors import AutogradError, ShapeError

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]

#: Tape-recording switch, *per thread*: a caller may evaluate proxies on
#: several threads at once, and a process-global flag would let one
#: thread's ``no_grad()`` (e.g. line-region counting) silently strip
#: another thread's NTK tape mid-build.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the backward tape."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables tape recording (faster inference).

    Scoped to the current thread — parallel proxy evaluations never see
    each other's recording state.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, reversing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode gradient support."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        # The active policy's compute dtype (thread-local; float64 unless
        # a precision(...) scope says otherwise).  asarray is a no-op view
        # when the array already has the right dtype, so op outputs built
        # from same-dtype operands never copy.
        self.data = np.asarray(data, dtype=default_dtype())
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return Tensor(array, requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    # ------------------------------------------------------------------
    # Tape plumbing
    # ------------------------------------------------------------------
    def _attach(
        self,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Record provenance on a freshly built output tensor."""
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._parents = tuple(parents)
            self._backward = backward
        return self

    def _accumulate(self, grad: np.ndarray) -> None:
        # Gradients live in the tensor's own dtype: a float32 tape keeps
        # float32 gradients end to end instead of silently upcasting.
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                            self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def tape_nodes(self) -> List["Tensor"]:
        """All tensors reachable through parent links (the recorded tape)."""
        nodes: List[Tensor] = []
        visited = set()
        stack: List[Tensor] = [self]
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        return nodes

    def clear_tape_grads(self) -> None:
        """Zero gradients on every tape node, enabling repeated backward().

        The NTK proxy backpropagates once per sample through a single
        forward tape; without clearing, the second pass would accumulate
        stale intermediate gradients.
        """
        for node in self.tape_nodes():
            node.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (i.e. sums this tensor's elements), which
        matches the summed-logit convention used by the NTK proxy.
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor without grad")
        if grad is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(grad.data if isinstance(grad, Tensor) else grad,
                              dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ShapeError(
                    f"backward seed shape {seed.shape} != tensor shape {self.data.shape}"
                )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Operator sugar (implementations live in functional.py)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.add(self, _as_tensor(other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.neg(self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.div(self, _as_tensor(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import functional as F

        return F.div(_as_tensor(other), self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.autograd import functional as F

        return F.power(self, float(exponent))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.autograd import functional as F

        return F.matmul(self, _as_tensor(other))

    def __getitem__(self, index) -> "Tensor":
        from repro.autograd import functional as F

        return F.getitem(self, index)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.autograd import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        from repro.autograd import functional as F

        return F.transpose(self, axes if axes else None)

    def relu(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.relu(self)


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)
