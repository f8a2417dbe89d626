"""Vectorized proxy kernels over caller-built Modules, and their oracle role.

Two hot loops dominate trainless evaluation, and both collapse to single
batched passes over a module tree:

* **NTK Jacobian** — the reference path runs one forward/backward per
  sample (batch-size-1 tapes).  With BatchNorm statistics frozen, no
  operation in the proxy network mixes batch entries, so the per-sample
  gradient of every *intermediate* tensor survives a single batched
  backward intact; only the contraction into parameter gradients sums over
  the batch.  :func:`batched_ntk_jacobian` therefore runs ONE batched
  forward + ONE backward seeded with ones, captures each parameterised
  layer's input activation and output gradient via forward hooks, and
  reconstructs the per-sample parameter gradients layer-locally
  (Goodfellow, 2015): an outer product for ``Linear``, a contraction with
  the im2col columns the forward ``conv2d`` already built for ``Conv2d``
  (collected through :func:`repro.autograd.functional.keep_columns`, so no
  conv input is unfolded twice), and channel-wise reductions for the
  affine ``BatchNorm2d`` terms.  The result is the exact ``(B, P)``
  Jacobian the per-sample loop produces, at ~1/B of the Python/tape
  overhead.

* **Line-region counting** — the reference path runs one forward per probe
  line.  :func:`batched_line_patterns` stacks all lines' sample points
  into one ``(L·P, C, H, W)`` batch and runs a single ``no_grad`` forward;
  per-line boundary crossings are then counted on the reshaped pattern
  matrix.  Per-sample arithmetic is bit-identical to the per-line path.

Both kernels assume (and assert) per-sample independence: networks must be
in eval mode with frozen normalisation statistics.

The proxies' ``"batched"`` mode no longer builds module trees: it runs
straight-line plans over a per-search weight bank
(:mod:`repro.engine.plan`), which replay these kernels' numpy calls
step for step.  The two kernels here serve networks a caller built
(``compute_ntk_gram(network, ...)``, ``ntk_spectrum(network=...)``) and
are the plans' test oracle: a plan must match them as float hex.  The
eigensolve helpers below are stacked twins of the per-candidate solve in
:mod:`repro.proxies.ntk`; no proxy path calls them (every row is one
candidate's solve in a chunk worker), only tests and the perfbench
tracer do.  The engine's cache and population layers live in
:mod:`repro.engine.core`.

**Precision semantics** (see :mod:`repro.autograd.precision`): every
kernel runs in the dtype of the network it is handed — forward passes,
im2col buffers, per-sample gradient reconstruction and the Gram matmul
all stay in the policy's ``compute_dtype``.  The one deliberate
exception is eigendecomposition: :func:`batched_eigvalsh` promotes Gram
stacks to ``accumulate_dtype`` (float64 under both built-in policies)
because condition numbers amplify rounding error through near-singular
spectra, while the solve itself is negligible next to the Jacobian work.
Probe-line endpoints are interpolated in float64 in both the batched and
reference paths (identical inputs), then cast once at the forward.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import keep_columns
from repro.engine.plan import count_regions_per_line, line_points
from repro.errors import ProxyError
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Module

#: Layer types whose per-sample parameter gradients the kernel can
#: reconstruct layer-locally.  Everything parameterised in this library is
#: composed of these three leaves.
_CAPTURED_TYPES = (Conv2d, Linear, BatchNorm2d)


def _param_slices(params) -> Dict[int, List[slice]]:
    """Flat-Jacobian column slices per parameter id, in collection order.

    Matches the layout of ``_collect_param_grads`` in the reference path:
    parameters are concatenated in ``network.parameters()`` order.
    """
    slices: Dict[int, List[slice]] = {}
    offset = 0
    for p in params:
        slices.setdefault(id(p), []).append(slice(offset, offset + p.size))
        offset += p.size
    return slices


def _per_sample_grads(module: Module, x: Tensor, grad: np.ndarray,
                      batch: int,
                      cols: Optional[np.ndarray]) -> List[Tuple[int, np.ndarray]]:
    """``(param id, (B, size) gradient)`` pairs for one captured layer call.

    ``cols`` are a ``Conv2d`` call's forward im2col columns (else None).
    """
    out: List[Tuple[int, np.ndarray]] = []
    if isinstance(module, Conv2d):
        n, c_out, oh, ow = grad.shape
        grad_mat = grad.reshape(n, c_out, oh * ow)
        grad_w = np.matmul(grad_mat, cols.transpose(0, 2, 1))
        out.append((id(module.weight), grad_w.reshape(batch, -1)))
        if module.bias is not None:
            out.append((id(module.bias), grad.sum(axis=(2, 3))))
    elif isinstance(module, Linear):
        if x.ndim != 2 or grad.ndim != 2:
            raise ProxyError(
                f"batched NTK supports 2-D Linear activations, got input "
                f"{x.shape} / grad {grad.shape}"
            )
        grad_w = grad[:, :, None] * x.data[:, None, :]
        out.append((id(module.weight), grad_w.reshape(batch, -1)))
        if module.bias is not None:
            out.append((id(module.bias), grad))
    elif isinstance(module, BatchNorm2d):
        if not module.affine:
            return out
        if module.training:
            raise ProxyError(
                "batched NTK requires frozen BatchNorm statistics "
                "(eval mode); use mode='reference' or 'coupled' instead"
            )
        inv_std = 1.0 / np.sqrt(module.running_var + module.eps)
        normalised = (x.data - module.running_mean.reshape(1, -1, 1, 1)) \
            * inv_std.reshape(1, -1, 1, 1)
        out.append((id(module.weight), (grad * normalised).sum(axis=(2, 3))))
        out.append((id(module.bias), grad.sum(axis=(2, 3))))
    return out


def batched_ntk_jacobian(network: Module, images: np.ndarray) -> np.ndarray:
    """Exact per-sample summed-logit Jacobian in one forward + one backward.

    Every BatchNorm computes this batch's statistics on the fly and
    normalises with them as constants — numerically identical to the
    reference path's separate momentum-1.0 freeze pass, without paying a
    second forward.  The network is put in eval mode.  Returns the
    ``(B, P)`` matrix whose rows are ``∂ Σ_c f_c(x_i) / ∂θ`` in
    ``network.parameters()`` order — the same layout as the reference
    per-sample loop, up to float summation order.
    """
    params = network.parameters()
    if not params:
        raise ProxyError("network has no parameters; NTK undefined")
    batch = images.shape[0]
    slices = _param_slices(params)

    captures: List[Tuple[Module, Tensor, Tensor, Optional[np.ndarray]]] = []
    handles: List[Tuple[Module, int]] = []

    def capture(module: Module, inputs: Tuple, output: Tensor) -> None:
        # ``columns`` is the keep_columns() sink of the forward below.
        captures.append((module, inputs[0], output,
                         columns.pop(id(output), None)))

    batchnorms = []
    for module in network.modules():
        if module._parameters and not isinstance(module, _CAPTURED_TYPES):
            raise ProxyError(
                f"{type(module).__name__} carries parameters the batched NTK "
                "kernel cannot capture; use mode='reference'"
            )
        if isinstance(module, _CAPTURED_TYPES):
            handles.append((module, module.register_forward_hook(capture)))
        if isinstance(module, BatchNorm2d):
            batchnorms.append(module)

    # Route gradient flow through the *input* and detach the parameters:
    # the kernel only consumes intermediate activation gradients, so the
    # total parameter gradients the backward closures would otherwise
    # produce (one tensordot per conv) are pure waste here.
    saved_flags = [p.requires_grad for p in params]
    try:
        network.train(False)
        for bn in batchnorms:
            bn.freeze_stats_on_forward = True
        for p in params:
            p.requires_grad = False
        with keep_columns() as columns:
            output = network(Tensor(images, requires_grad=True))
        if output.ndim != 2:
            raise ProxyError(
                f"expected (batch, classes) logits, got {output.shape}"
            )
        output.backward(np.ones_like(output.data))
    finally:
        for module, handle in handles:
            module.remove_forward_hook(handle)
        for p, flag in zip(params, saved_flags):
            p.requires_grad = flag
        for bn in batchnorms:
            bn.freeze_stats_on_forward = False

    # The Jacobian inherits the network's compute dtype (precision-policy
    # controlled): a float32 network keeps the whole reconstruction — and
    # the Gram matmul downstream — in float32 instead of upcasting.
    jacobian = np.zeros((batch, sum(p.size for p in params)),
                        dtype=params[0].data.dtype)
    for module, x, out, cols in captures:
        grad = out.grad
        if grad is None:
            # Layer output never reached the logits (dead branch): the
            # reference loop leaves these parameter gradients at zero too.
            continue
        for pid, per_sample in _per_sample_grads(module, x, grad, batch, cols):
            for column_slice in slices[pid]:
                jacobian[:, column_slice] += per_sample
    output.clear_tape_grads()
    return jacobian


def batched_line_patterns(
    network: Module,
    starts: np.ndarray,
    stops: np.ndarray,
    num_points: int,
) -> np.ndarray:
    """ReLU patterns for every point of every probe line in ONE forward.

    ``starts``/``stops`` are ``(L, C, H, W)`` segment endpoints.  Returns a
    ``(L, num_points, units)`` boolean array; per-sample values are
    bit-identical to running each line separately (no op mixes the batch
    axis in the BN-free expressivity network).
    """
    from repro.proxies.linear_regions import _forward_patterns

    lines = line_points(starts, stops, num_points)
    num_lines = lines.shape[0]
    stacked = lines.reshape(num_lines * num_points, *lines.shape[2:])
    patterns = _forward_patterns(network, stacked)
    return patterns.reshape(num_lines, num_points, -1)


def batched_count_line_regions(
    network: Module,
    starts: np.ndarray,
    stops: np.ndarray,
    num_points: int,
) -> np.ndarray:
    """Per-line region counts for all probe lines in one forward pass."""
    return count_regions_per_line(
        batched_line_patterns(network, starts, stops, num_points)
    )


def batched_eigvalsh(grams: np.ndarray,
                     accumulate_dtype=np.float64) -> np.ndarray:
    """Eigenvalues (ascending) of a stack of symmetric matrices.

    ``np.linalg.eigvalsh`` is a gufunc: stacking population NTK Grams into
    one ``(N, B, B)`` array dispatches a single LAPACK loop instead of N
    Python-level calls, and each matrix goes through the identical
    ``syevd`` routine — per-matrix results are bit-identical to separate
    calls (pinned by ``tests/engine/test_kernels.py``).

    ``accumulate_dtype`` is the precision-policy promotion seam: NTK
    spectra are ill-conditioned by construction (κ IS the indicator), so
    even float32-computed Grams are eigendecomposed in float64 by default
    (``PrecisionPolicy.accumulate_dtype``) — the solve is O(N·B³) on tiny
    B×B matrices, a rounding error next to the Jacobian work it follows.
    """
    grams = np.asarray(grams, dtype=accumulate_dtype)
    if grams.ndim != 3 or grams.shape[-1] != grams.shape[-2]:
        raise ProxyError(
            f"expected a stacked (N, B, B) Gram array, got {grams.shape}"
        )
    return np.linalg.eigvalsh(grams)


def batched_condition_numbers(grams: np.ndarray, k_index: int = 1,
                              accumulate_dtype=np.float64) -> np.ndarray:
    """``K_{k_index} = λ_max / λ_(k-th smallest)`` per Gram, one eigensolve.

    Vectorized twin of :meth:`repro.proxies.ntk.NtkResult.k` over an
    ``(N, B, B)`` stack: singular kernels (λ below the shared epsilon)
    produce ``inf`` exactly as the per-candidate path does.  Grams are
    promoted to ``accumulate_dtype`` for the solve (see
    :func:`batched_eigvalsh`).
    """
    from repro.proxies.ntk import _EIG_EPS

    eigenvalues = batched_eigvalsh(grams, accumulate_dtype=accumulate_dtype)
    num_eigs = eigenvalues.shape[1]
    if not 1 <= k_index <= num_eigs:
        raise ProxyError(f"K index {k_index} outside [1, {num_eigs}]")
    lam_max = eigenvalues[:, -1]
    lam_k = eigenvalues[:, k_index - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = lam_max / lam_k
    values[(lam_max <= _EIG_EPS) | (lam_k <= _EIG_EPS)] = np.inf
    return values


__all__ = [
    "batched_ntk_jacobian",
    "batched_line_patterns",
    "batched_count_line_regions",
    "batched_eigvalsh",
    "batched_condition_numbers",
    "count_regions_per_line",
    "line_points",
]
