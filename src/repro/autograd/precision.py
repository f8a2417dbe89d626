"""The precision policy: one explicit dtype contract for the whole stack.

Historically every layer of the proxy substrate hard-coded ``float64`` —
the autograd tape coerced all data, ``nn`` allocated parameters and
buffers in float64, and the engine kernels inherited it.  The paper's
trainless indicators are *rank statistics* though: NTK condition numbers
and linear-region counts only need enough precision to order candidates,
and float32 BLAS roughly doubles kernel throughput.

:class:`PrecisionPolicy` makes the dtype choice explicit and threads it
through the stack:

* ``compute_dtype`` — the dtype tensors, parameters, buffers and every
  forward/backward kernel run in (``float32`` or ``float64``),
* ``accumulate_dtype`` — the dtype numerically delicate reductions are
  *promoted* to.  Eigensolves of NTK Gram matrices amplify rounding error
  through ill-conditioned spectra, so both built-in policies accumulate
  eigendecompositions in float64; only the (much larger) forward/backward
  work runs at ``compute_dtype``.

The active policy is **scoped and thread-local**, exactly like the
``no_grad`` tape flag: a caller may evaluate proxies on several threads
at once, and a process-global dtype default would let one thread's
float32 context silently reallocate another thread's float64 tensors
mid-build.  Proxies never rely on ambient state across call
boundaries — each proxy function re-enters ``precision(...)`` from its
own ``ProxyConfig``, so chunks shipped to pool workers carry their
precision with them.

The default policy is :data:`FLOAT64`, which reproduces the pre-policy
behaviour bit-for-bit (pinned by ``tests/proxies/test_precision.py``).
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True)
class PrecisionPolicy:
    """An explicit dtype contract for tensor compute and accumulation.

    ``name`` doubles as the cache/store identity (it is what
    ``ProxyConfig.precision`` carries into cache keys and fingerprints);
    ``compute`` defaults to ``name`` and ``accumulate`` to ``float64``.
    """

    name: str
    compute: Optional[str] = None
    accumulate: str = "float64"

    def __post_init__(self) -> None:
        # Resolved dtype objects, cached once: Tensor construction reads
        # compute_dtype on every op output, so resolving np.dtype there
        # would put string parsing on the tape's hot path.
        object.__setattr__(self, "compute_dtype",
                           np.dtype(self.compute or self.name))
        object.__setattr__(self, "accumulate_dtype", np.dtype(self.accumulate))
        if self.compute_dtype.kind != "f" or self.accumulate_dtype.kind != "f":
            raise ReproError(
                f"precision policy needs floating dtypes, got "
                f"{self.compute_dtype}/{self.accumulate_dtype}"
            )


#: Bit-identical to the historical hard-coded float64 substrate.
FLOAT64 = PrecisionPolicy("float64")
#: Half-width compute; eigensolves still accumulate in float64.
FLOAT32 = PrecisionPolicy("float32")

#: Policies addressable by name (the ``--precision`` CLI vocabulary).
POLICIES = {policy.name: policy for policy in (FLOAT64, FLOAT32)}

PolicyLike = Union[str, PrecisionPolicy]

#: Active-policy stack, *per thread* — see the module docstring.
_PRECISION_STATE = threading.local()


def resolve_policy(policy: PolicyLike) -> PrecisionPolicy:
    """A :class:`PrecisionPolicy` from a name or an existing policy."""
    if isinstance(policy, PrecisionPolicy):
        return policy
    try:
        return POLICIES[policy]
    except KeyError:
        raise ReproError(
            f"unknown precision {policy!r}; known: {sorted(POLICIES)}"
        ) from None


def get_precision() -> PrecisionPolicy:
    """The policy active on the current thread (default: :data:`FLOAT64`)."""
    return getattr(_PRECISION_STATE, "policy", FLOAT64)


def default_dtype() -> np.dtype:
    """The compute dtype new tensors/parameters/buffers are allocated in."""
    return get_precision().compute_dtype


@contextlib.contextmanager
def precision(policy: PolicyLike) -> Iterator[PrecisionPolicy]:
    """Context manager scoping the active precision policy.

    Scoped to the current thread — parallel proxy evaluations never see
    each other's dtype state (mirrors :func:`repro.autograd.no_grad`).
    """
    resolved = resolve_policy(policy)
    previous = get_precision()
    _PRECISION_STATE.policy = resolved
    try:
        yield resolved
    finally:
        _PRECISION_STATE.policy = previous


__all__ = [
    "PrecisionPolicy",
    "FLOAT64",
    "FLOAT32",
    "POLICIES",
    "resolve_policy",
    "get_precision",
    "default_dtype",
    "precision",
]
