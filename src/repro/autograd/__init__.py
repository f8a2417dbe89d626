"""Reverse-mode automatic differentiation over NumPy arrays.

This subpackage is the numerical substrate for the zero-cost proxies: the
NTK proxy needs exact per-sample parameter gradients, and the linear-region
proxy needs ReLU pre-activations.  The engine is define-by-run: every
operation on :class:`Tensor` records a backward closure, and
:meth:`Tensor.backward` walks the tape in reverse topological order.

Gradients are validated against central finite differences in
``tests/autograd/test_gradcheck.py``.

Compute precision is governed by the thread-local
:class:`~repro.autograd.precision.PrecisionPolicy` (float64 by default;
``with precision("float32"):`` halves tensor width for ~2× BLAS
throughput while rank statistics stay stable — see
:mod:`repro.autograd.precision`).
"""

from repro._lazy import lazy_exports as _lazy_exports
from repro.autograd.precision import (
    FLOAT32,
    FLOAT64,
    POLICIES,
    PrecisionPolicy,
    default_dtype,
    get_precision,
    precision,
    resolve_policy,
)
from repro.autograd.gradcheck import gradcheck

#: The tape and its ops load on first access (PEP 562), so the precision
#: policy, the weight initialisers (:mod:`repro.autograd.init`) and the
#: array kernels (:mod:`repro.autograd.arrays`) that the compiled proxy
#: plans run load without them.
__getattr__, __dir__ = _lazy_exports(__name__, {
    "tensor": ("Tensor", "no_grad", "is_grad_enabled"),
    "functional": (
        "functional", "add", "cross_entropy", "log_softmax", "max_reduce",
        "softmax", "avg_pool2d", "concatenate", "conv2d", "exp",
        "global_avg_pool2d", "log", "matmul", "maximum", "mean", "mul",
        "pad2d", "relu", "reshape", "sigmoid", ("tensor_sum", "sum"),
        "tanh", "transpose"),
})

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "PrecisionPolicy",
    "FLOAT32",
    "FLOAT64",
    "POLICIES",
    "precision",
    "get_precision",
    "default_dtype",
    "resolve_policy",
    "functional",
    "gradcheck",
    "add",
    "cross_entropy",
    "log_softmax",
    "max_reduce",
    "softmax",
    "avg_pool2d",
    "concatenate",
    "conv2d",
    "exp",
    "global_avg_pool2d",
    "log",
    "matmul",
    "maximum",
    "mean",
    "mul",
    "pad2d",
    "relu",
    "reshape",
    "sigmoid",
    "tensor_sum",
    "tanh",
    "transpose",
]
