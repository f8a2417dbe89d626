"""Straight-line proxy plans over a per-search weight bank.

The batched kernels of :mod:`repro.engine.kernels` pay, per evaluation,
for a fresh module tree (every weight redrawn), a ``Tensor`` per op, a
topological re-sort of the tape and forward hooks.  At the reduced proxy
scale that Python dispatch, not arithmetic, sets the wall clock.  This
module compiles a search-space network once into a flat list of numpy
steps and runs it over weights drawn without building any ``Module``.

* :class:`WeightBank` — read-only initial weights of one proxy network
  family plus its inputs (NTK images or line-region probe points).  The
  draws follow the exact RNG order of ``NasBench201Network`` /
  ``SuperCell`` / ``Cell`` / ``ReductionBlock`` / ``LinearRegionNetwork``:
  stem conv, then per stage the reduction block's three convs and each
  cell's base seed, then the classifier; every (cell, edge, op) conv comes
  from its own stable seed, so a bank that holds all five ops on every
  edge serves every pruning state.  NTK images are drawn before the
  weights, probe lines after them.  :func:`supernet_ntk_bank` and
  :func:`supernet_lr_bank` memoize one bank per ``(config, repeat)`` in
  each process (fork workers draw their own).
* :class:`NtkPlan` — the frozen-BatchNorm NTK network of one genotype
  (``Cell``: edges summed as they are) or supernet state (``SuperCell``:
  each edge scaled by ``1/len``).  A run is a forward that takes the
  BatchNorm statistics from the current batch, hand-written adjoints and
  per-sample Jacobian blocks written in ``network.parameters()`` column
  order.
* :class:`LinePlan` — the BN-free line-region network, forward only; its
  ReLU patterns come back in the ReLU order of ``network.modules()``.
* :class:`SupernetChunk` — the supernet states of one executor chunk as
  one incremental computation: each state compiled alone, and the
  forward values two or more states hold alike computed once.
* :func:`line_points` / :func:`count_regions_per_line` — probe-line
  geometry, shared with the module-tree kernels.

The module imports neither :mod:`repro.nn`, the autograd tape nor
:mod:`repro.engine.kernels` (weights come from
:mod:`repro.autograd.init`, window kernels from
:mod:`repro.autograd.arrays`), so the proxies import it when they load,
before a pool forks its workers.

**Bit-identity contract.**  Each step calls the same numpy functions on
the same operands, in the same order and dtype, as the autograd op it
replaces (the conv, pool and column helpers of
:mod:`repro.autograd.arrays` are the ones those ops call), so a plan's
Jacobian equals
``batched_ntk_jacobian(build_supernet(...))`` as float hex, and its
patterns equal ``batched_line_patterns``.  Concretely: the BatchNorm
forward normalises with ``(var + eps) ** -0.5`` while its Jacobian term
uses ``1 / np.sqrt(var + eps)``, as the two code paths it mirrors do;
scalar multipliers are 0-d arrays in the compute dtype, as wrapped
``Tensor`` scalars are; later gradients of a node add onto its first in
the tape's order, as ``Tensor._accumulate`` does (the first is kept
rather than copied: a copy has the same bits, and no step writes a
gradient in place); the BatchNorm statistics are
``np.add.reduce(..., keepdims=True) / count`` with ``count`` = N·H·W,
which is what ``ndarray.mean`` computes behind its Python wrapper.  The
plan's BatchNorm weight is the constant 1, so its ``* weight`` is left
out of the forward and the adjoint (x·1.0 is x, bit for bit); the
``+ bias`` stays, as adding +0.0 turns a −0.0 into +0.0.
Elementwise window steps (the conv fold and both pool directions) may
run in another memory layout, as long as every output element sees the
same adds in the same order; a matmul operand never changes layout,
because BLAS blocks its sums by layout and would round differently.
One known exception, shared with the autograd path: a pointwise (1×1)
fold returns a reshape view of the gradient columns rather than adding
them onto +0.0, so a −0.0 entry stays −0.0 where the zero-start fold
gives +0.0.  The values are equal and no indicator row changes; forcing
+0.0 would cost a full copy in every 1×1 conv adjoint.
``test_hwnc_window_bodies_match_nchw_bodies`` compares that case by
value only.

Jacobian blocks are written in place: each conv term's matmul writes
straight into its column block of an uninitialised ``jac`` (``out=``),
and the BatchNorm and linear terms assign their blocks, where the module
tree adds each term onto a zeroed Jacobian.  Only the blocks of layers
the tape never reaches are zeroed.  Adding onto +0.0 changes nothing but
signed zeros, so the one possible difference is a −0.0 entry of J that
the module tree holds as +0.0.  None was seen (3,000 random genotypes at
the tiny test scale), every paper-scale and reduced-scale indicator row
is equal as float hex, and the Gram ``J Jᵀ`` cannot tell the two zeros
apart unless a whole row of J is zero.

**Tape order.**  Gradients at fan-out nodes are sums whose rounding
depends on their order.  Compilation records each node's
gradient-carrying parents in the tape's own order and runs the
depth-first sort of ``Tensor.backward`` once, so the adjoints run — and
fan-out gradients add up — in the order today's tape uses.  Nodes the
sort does not reach (dead branches of a pruned cell) are not computed;
their parameters keep zero Jacobian columns, as in the hooked kernel.

**Shared values.**  The contract holds for the plans of a
:class:`SupernetChunk`, compared with the same states compiled and run
alone: each is compiled alone, so its steps, tape order and Jacobian
columns are the lone plan's.  A node's structural key stands for its
forward step (its op and constants), its weight key and its parents'
keys, so two nodes with one key run the same numpy calls on operands
with the same bits.  A value another state of the chunk computed — a
node's ``vals`` and ``saved`` entries — is the array that state's step
returned, handed over read-only: no step writes a value or a saved entry
in place, and a write to a shared one raises.  Per-state runs stay the
test oracle (``tests/engine/test_plan.py``).

Plans and banks are immutable and every per-evaluation array is a local
of the run, so one plan may run on many threads at once.  The plans of
one chunk share its values, so a chunk runs on one thread.
"""

from __future__ import annotations

import functools
from collections import Counter
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.arrays import (
    DEFAULT_EPS,
    _avg_pool,
    _avg_pool_grad,
    _col2im,
    _conv_out_size,
    _im2col,
    _pool_windows,
)
from repro.autograd.init import kaiming_normal
from repro.autograd.precision import default_dtype, precision
from repro.errors import ProxyError, SearchSpaceError
from repro.searchspace.ops import CANDIDATE_OPS, CONV_KERNEL, EDGES, NUM_NODES
from repro.utils.rng import new_rng, stable_seed

#: The edge op sets of a supernet bank: every candidate op on every edge.
_ALL_OPS = (CANDIDATE_OPS,) * len(EDGES)

Key = Tuple


# ----------------------------------------------------------------------
# Weight banks
# ----------------------------------------------------------------------
class WeightBank:
    """Read-only initial weights keyed by layer, plus the network inputs.

    ``arrays`` maps ``("stem",)``, ``("reduce", block, part)``,
    ``("cell", position, edge, op)`` and ``("head",)`` to conv and
    classifier weights in the compute dtype.  ``inputs`` are the NTK images
    or the ``(lines, points, C, H, W)`` line-region probe points, or None
    when the caller supplies them per run.
    """

    __slots__ = ("arrays", "inputs")

    def __init__(self, arrays: Dict[Key, np.ndarray],
                 inputs: Optional[np.ndarray] = None) -> None:
        for array in arrays.values():
            array.flags.writeable = False
        if inputs is not None:
            inputs = inputs.view()
            inputs.flags.writeable = False
        self.arrays = MappingProxyType(dict(arrays))
        self.inputs = inputs


def _edge_convs(arrays: Dict[Key, np.ndarray], position: int,
                edge_op_sets: Sequence[Sequence[str]], width: int,
                *seed_keys) -> None:
    """Each (edge, op) conv of one cell, from its own stable seed."""
    for edge, ops in enumerate(edge_op_sets):
        for op in ops:
            kernel = CONV_KERNEL.get(op)
            if kernel is not None:
                arrays[("cell", position, edge, op)] = kaiming_normal(
                    (width, width, kernel, kernel),
                    rng=stable_seed(*seed_keys, edge, op))


def draw_ntk_bank(edge_op_sets: Sequence[Sequence[str]], macro, generator,
                  images: Optional[np.ndarray] = None) -> WeightBank:
    """The weights ``build_network``/``build_supernet`` would draw.

    Consumes ``generator`` exactly as ``NasBench201Network`` does; call it
    inside the precision scope the network would be built under.
    """
    c1, c2, c3 = macro.stage_channels
    arrays: Dict[Key, np.ndarray] = {
        ("stem",): kaiming_normal((c1, macro.input_channels, 3, 3),
                                  rng=generator)}
    position = 0
    for stage, width in enumerate((c1, c2, c3)):
        if stage:
            half = width // 2
            for part, shape in enumerate(((width, half, 3, 3),
                                          (width, width, 3, 3),
                                          (width, half, 1, 1))):
                arrays[("reduce", stage - 1, part)] = kaiming_normal(
                    shape, rng=generator)
        for _ in range(macro.cells_per_stage):
            base = int(generator.integers(2**31))
            _edge_convs(arrays, position, edge_op_sets, width,
                        "supercell-op", base)
            position += 1
    arrays[("head",)] = kaiming_normal((macro.num_classes, c3),
                                       rng=generator, gain=1.0)
    if images is not None:
        images = np.asarray(images, dtype=default_dtype())
    return WeightBank(arrays, images)


def _draw_lines(generator, shape, num_lines: int):
    """Random segment endpoints, drawn in the per-line reference order."""
    starts = np.empty((num_lines, *shape))
    stops = np.empty((num_lines, *shape))
    for line in range(num_lines):
        starts[line] = generator.normal(size=shape) * 2.0
        stops[line] = generator.normal(size=shape) * 2.0
    return starts, stops


def line_points(starts: np.ndarray, stops: np.ndarray,
                num_points: int) -> np.ndarray:
    """``(L, num_points, C, H, W)`` evenly spaced points on each segment,
    interpolated in float64 from ``(L, C, H, W)`` endpoints."""
    starts = np.asarray(starts, dtype=float)
    stops = np.asarray(stops, dtype=float)
    if starts.shape != stops.shape or starts.ndim != 4:
        raise ProxyError(
            f"need matching (L, C, H, W) endpoints, got {starts.shape} "
            f"and {stops.shape}"
        )
    ts = np.linspace(0.0, 1.0, num_points).reshape(1, -1, 1, 1, 1)
    return starts[:, None] * (1.0 - ts) + stops[:, None] * ts


def count_regions_per_line(patterns: np.ndarray) -> np.ndarray:
    """Region count per line from stacked ``(L, P, units)`` patterns.

    A region boundary lies between consecutive points whose activation
    patterns differ; each line crosses ``#boundaries + 1`` regions.
    """
    changed = (patterns[:, 1:] != patterns[:, :-1]).any(axis=2)
    return changed.sum(axis=1) + 1


def draw_lr_bank(edge_op_sets: Sequence[Sequence[str]], config, generator,
                 num_lines: int) -> WeightBank:
    """The weights ``LinearRegionNetwork`` would draw, then the probe lines.

    ``config`` is a ``ProxyConfig``; call inside its precision scope.
    """
    channels = config.lr_channels
    arrays: Dict[Key, np.ndarray] = {
        ("stem",): kaiming_normal((channels, 3, 3, 3), rng=generator)}
    base = int(generator.integers(2**31))
    for cell in range(config.lr_num_cells):
        _edge_convs(arrays, cell, edge_op_sets, channels, "lr-op", base, cell)
    size = config.lr_input_size
    starts, stops = _draw_lines(generator, (3, size, size), num_lines)
    points = line_points(starts, stops, config.lr_num_samples)
    return WeightBank(arrays, np.asarray(points, dtype=default_dtype()))


@functools.lru_cache(maxsize=8)
def supernet_ntk_bank(config, repeat: int) -> WeightBank:
    """The pruning search's NTK bank: one per ``(config, repeat)``.

    Seeded from the config only, as ``supernet_ntk_condition_number``
    always was: every state shares the images and every surviving weight.
    """
    generator = new_rng(stable_seed("ntk-super", config.seed, repeat))
    with precision(config.precision_policy()):
        return draw_supernet_ntk_bank(config, generator)


def draw_supernet_ntk_bank(config, generator) -> WeightBank:
    """Images, then every op's weights on every edge, from ``generator``."""
    images = generator.normal(size=(config.ntk_batch_size, 3,
                                    config.input_size, config.input_size))
    return draw_ntk_bank(_ALL_OPS, config.macro_config(), generator, images)


@functools.lru_cache(maxsize=8)
def supernet_lr_bank(config, repeat: int, num_lines: int) -> WeightBank:
    """The pruning search's line-region bank: one per ``(config, repeat)``."""
    generator = new_rng(stable_seed("lr-super", config.seed, repeat))
    with precision(config.precision_policy()):
        return draw_lr_bank(_ALL_OPS, config, generator, num_lines)


@functools.lru_cache(maxsize=None)
def _filled(value: float, width: int, dtype: np.dtype) -> np.ndarray:
    """A read-only constant vector (BatchNorm affine init, zero biases)."""
    array = np.full(width, value, dtype=dtype)
    array.flags.writeable = False
    return array


# ----------------------------------------------------------------------
# Steps
# ----------------------------------------------------------------------
# A node's steps close over its constants only (shapes, kernel, scalar),
# never over node numbers: the node and its parents come in as arguments,
#
#   forward(i, parents, vals, saved, weights)
#   adjoint(i, parents, vals, saved, grads)
#   term(i, parents, vals, saved, grads, jac, slices)
#
# so every node with the same constants, in every plan of a process, runs
# one set of steps, built once.  ``weights`` maps each weighted node to
# its array.
def _accumulate(grads: list, node: int, grad: np.ndarray) -> None:
    """``Tensor._accumulate`` without its copy: keep the first gradient
    itself, add later ones.

    The tape copies because ``Tensor.grad`` goes to callers that may
    change it in place.  A plan's gradients never leave its run, and no
    plan step writes one in place (every adjoint, term and sum returns a
    new array), so a kept array has the bits its copy would have.
    """
    held = grads[node]
    grads[node] = grad if held is None else held + grad


@functools.lru_cache(maxsize=None)
def _conv_steps(shape: Tuple[int, int, int], c_out: int, kernel: int,
                stride: int, padding: int, bias: bool, keep: bool, dtype):
    """``functional.conv2d`` over a ``shape`` input; ``keep`` saves what
    the adjoint and Jacobian term read."""
    c_in, h, w = shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    bias4 = (_filled(0.0, c_out, dtype).reshape(1, c_out, 1, 1)
             if bias else None)

    def forward(i, parents, vals, saved, weights):
        xd = vals[parents[0]]
        cols, _ = _im2col(xd, kernel, stride, padding)
        w_mat = weights[i].reshape(c_out, c_in * kernel * kernel)
        out = np.matmul(w_mat, cols).reshape(xd.shape[0], c_out, oh, ow)
        if bias4 is not None:
            out = out + bias4
        vals[i] = out
        if keep:
            saved[i] = (cols, w_mat)

    def adjoint(i, parents, vals, saved, grads):
        grad = grads[i]
        n = grad.shape[0]
        grad_mat = grad.reshape(n, c_out, oh * ow)
        grad_cols = np.matmul(saved[i][1].T, grad_mat)
        _accumulate(grads, parents[0], _col2im(grad_cols, (n, c_in, h, w),
                                               kernel, stride, padding))

    def term(i, parents, vals, saved, grads, jac, slices):
        grad = grads[i]
        n = grad.shape[0]
        grad_mat = grad.reshape(n, c_out, oh * ow)
        block = jac[:, slices[0]]
        block.shape = (n, c_out, -1)    # a view, never a copy
        np.matmul(grad_mat, saved[i][0].transpose(0, 2, 1), out=block)
    return forward, adjoint, term


@functools.lru_cache(maxsize=None)
def _batch_norm_steps(c: int, dtype):
    """Frozen-statistics ``BatchNorm2d`` over ``c`` channels, affine at
    init (no ``* weight``; see the module docstring)."""
    shift = _filled(0.0, c, dtype).reshape(1, c, 1, 1)
    eps = np.asarray(DEFAULT_EPS, dtype=dtype)

    def forward(i, parents, vals, saved, weights):
        # ``ndarray.mean`` is this add-reduce and true divide behind a
        # Python wrapper; ``count`` (N·H·W) is a Python int.
        xd = vals[parents[0]]
        count = xd.size // c
        centered = xd - np.add.reduce(xd, axis=(0, 2, 3),
                                      keepdims=True) / count
        var = np.add.reduce(centered * centered, axis=(0, 2, 3),
                            keepdims=True) / count
        inv_std = (var + eps) ** -0.5
        vals[i] = centered * inv_std + shift
        # The Jacobian term's normalised input reads forward values only,
        # so it is formed here, where a chunk can share it.
        term_std = 1.0 / np.sqrt(var.reshape(-1) + DEFAULT_EPS)
        saved[i] = (centered * term_std.reshape(1, -1, 1, 1), inv_std)

    def adjoint(i, parents, vals, saved, grads):
        _accumulate(grads, parents[0], grads[i] * saved[i][1])

    def term(i, parents, vals, saved, grads, jac, slices):
        grad = grads[i]
        jac[:, slices[0]] = (grad * saved[i][0]).sum(axis=(2, 3))
        jac[:, slices[1]] = grad.sum(axis=(2, 3))
    return forward, adjoint, term


def _relu_forward(i, parents, vals, saved, weights):
    xd = vals[parents[0]]
    mask = xd > 0.0
    vals[i] = xd * mask
    saved[i] = mask


def _relu_adjoint(i, parents, vals, saved, grads):
    _accumulate(grads, parents[0], grads[i] * saved[i])


def _add_forward(i, parents, vals, saved, weights):
    a, b = parents
    vals[i] = vals[a] + vals[b]


def _add_adjoint(i, parents, vals, saved, grads):
    grad = grads[i]
    a, b = parents
    _accumulate(grads, a, grad)
    _accumulate(grads, b, grad)


@functools.lru_cache(maxsize=None)
def _scale_steps(value: float, dtype):
    """``x * value`` with the scalar wrapped as a 0-d array."""
    factor = np.asarray(value, dtype=dtype)

    def forward(i, parents, vals, saved, weights):
        vals[i] = vals[parents[0]] * factor

    def adjoint(i, parents, vals, saved, grads):
        _accumulate(grads, parents[0], grads[i] * factor)
    return forward, adjoint, None


@functools.lru_cache(maxsize=None)
def _pool_steps(shape: Tuple[int, int, int], kernel: int, stride: int,
                padding: int):
    c, h, w = shape
    windows = _pool_windows(kernel, stride,
                            _conv_out_size(h, kernel, stride, padding),
                            _conv_out_size(w, kernel, stride, padding))

    def forward(i, parents, vals, saved, weights):
        vals[i] = _avg_pool(vals[parents[0]], kernel, padding, windows)

    def adjoint(i, parents, vals, saved, grads):
        grad = grads[i]
        _accumulate(grads, parents[0],
                    _avg_pool_grad(grad, (grad.shape[0], c, h, w), kernel,
                                   padding, windows))
    return forward, adjoint, None


@functools.lru_cache(maxsize=None)
def _spatial_sum_steps(shape: Tuple[int, int, int]):
    c, h, w = shape

    def forward(i, parents, vals, saved, weights):
        vals[i] = vals[parents[0]].sum(axis=(2, 3))

    def adjoint(i, parents, vals, saved, grads):
        grad = grads[i]
        expanded = np.expand_dims(grad, axis=(2, 3))
        _accumulate(grads, parents[0],
                    np.broadcast_to(expanded, (grad.shape[0], c, h, w)))
    return forward, adjoint, None


def _linear_forward(i, parents, vals, saved, weights):
    w_t = weights[i].transpose()
    vals[i] = vals[parents[0]] @ w_t
    saved[i] = w_t


def _linear_adjoint(i, parents, vals, saved, grads):
    _accumulate(grads, parents[0], grads[i] @ np.swapaxes(saved[i], -1, -2))


def _linear_term(i, parents, vals, saved, grads, jac, slices):
    # Written at the matmul node: its gradient is the bias node's own
    # array (its only reader), so the block is the one the bias node
    # would write.
    grad = grads[i]
    per_sample = grad[:, :, None] * vals[parents[0]][:, None, :]
    jac[:, slices[0]] = per_sample.reshape(grad.shape[0], -1)
    jac[:, slices[1]] = grad


@functools.lru_cache(maxsize=None)
def _bias_steps(width: int, dtype):
    """``Linear``'s zero bias, added after the matmul."""
    bias = _filled(0.0, width, dtype)

    def forward(i, parents, vals, saved, weights):
        vals[i] = vals[parents[0]] + bias

    def adjoint(i, parents, vals, saved, grads):
        _accumulate(grads, parents[0], grads[i])
    return forward, adjoint, None


_RELU = (_relu_forward, _relu_adjoint, None)
_ADD = (_add_forward, _add_adjoint, None)
_LINEAR = (_linear_forward, _linear_adjoint, _linear_term)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _tape_order(parents: Sequence[Tuple[int, ...]], root: int) -> List[int]:
    """Post-order of the depth-first sort ``Tensor.backward`` runs."""
    topo: List[int] = []
    visited = [False] * len(parents)
    stack = [root]           # ``~node`` marks a node whose parents are done
    pop, push, emit = stack.pop, stack.append, topo.append
    while stack:
        node = pop()
        if node < 0:
            emit(~node)
        elif not visited[node]:
            visited[node] = True
            push(~node)
            for parent in parents[node]:
                if not visited[parent]:
                    push(parent)
    return topo


class _Tape:
    """Records a network's tape at compile time: one node per autograd op.

    Node 0 is the input.  Each node keeps its gradient-carrying parents in
    the order the autograd op lists them, its ``(C, H, W)`` shape and its
    ``(forward, adjoint, term)`` steps (adjoint None where its gradient
    flows nowhere).  Parameterised layers register their parameters with
    a sort key that reproduces ``network.parameters()`` order.
    """

    def __init__(self, input_shape: Tuple[int, int, int],
                 saves_columns: bool) -> None:
        self.dtype = default_dtype()
        #: Whether runs keep what adjoints and Jacobian terms read (conv
        #: columns).  A forward-only plan drops them as it goes, as a
        #: ``no_grad`` forward would.
        self.saves_columns = saves_columns
        self.parents: List[Tuple[int, ...]] = [()]
        self.shapes: List[Tuple[int, int, int]] = [input_shape]
        self.steps: List[Optional[Tuple[Callable, ...]]] = [None]
        #: The bank key of each conv and linear node's weight.
        self.weight_keys: Dict[int, Key] = {}
        #: Nodes whose values a Jacobian term reads after the forward.
        self.pinned = set()
        #: (sort key, [(source, size)], node whose term writes the
        #: layer's block) per parameterised layer.
        self.layers: List[Tuple] = []

    def _node(self, parents: Tuple[int, ...], shape, steps,
              weight: Optional[Key] = None) -> int:
        i = len(self.parents)
        self.parents.append(parents)
        self.shapes.append(shape)
        self.steps.append(steps)
        if weight is not None:
            self.weight_keys[i] = weight
        return i

    def conv(self, x: int, key: Key, c_out: int, kernel: int, stride: int,
             padding: int, order=None, bias: bool = False) -> int:
        """``functional.conv2d``; bias-free unless ``bias`` (zeros)."""
        c_in, h, w = self.shapes[x]
        forward, adjoint, term = _conv_steps(
            self.shapes[x], c_out, kernel, stride, padding, bias,
            self.saves_columns, self.dtype)
        shape = (c_out, _conv_out_size(h, kernel, stride, padding),
                 _conv_out_size(w, kernel, stride, padding))
        # The input image's gradient feeds nothing: no adjoint for the stem.
        i = self._node((x,), shape, (forward, adjoint if x else None, term),
                       key)
        if order is not None:
            params = [(key, c_out * c_in * kernel * kernel)]
            if bias:
                params.append((_filled(0.0, c_out, self.dtype), c_out))
            self.layers.append((order, params, i))
        return i

    def batch_norm(self, x: int, order) -> int:
        """Frozen-statistics ``BatchNorm2d`` (``freeze_stats_on_forward``
        followed by ``functional.batch_norm_eval``), affine at init."""
        c = self.shapes[x][0]
        i = self._node((x,), self.shapes[x],
                       _batch_norm_steps(c, self.dtype))
        self.layers.append((order, [(_filled(1.0, c, self.dtype), c),
                                    (_filled(0.0, c, self.dtype), c)], i))
        return i

    def relu(self, x: int) -> int:
        return self._node((x,), self.shapes[x], _RELU)

    def add(self, a: int, b: int) -> int:
        return self._node((a, b), self.shapes[a], _ADD)

    def scale(self, x: int, value: float) -> int:
        """``x * value`` with the scalar wrapped as a 0-d array."""
        return self._node((x,), self.shapes[x],
                          _scale_steps(value, self.dtype))

    def pool(self, x: int, kernel: int, stride: int, padding: int) -> int:
        c, h, w = self.shapes[x]
        shape = (c, _conv_out_size(h, kernel, stride, padding),
                 _conv_out_size(w, kernel, stride, padding))
        return self._node((x,), shape,
                          _pool_steps(self.shapes[x], kernel, stride, padding))

    def global_pool(self, x: int) -> int:
        """``functional.global_avg_pool2d``: a spatial sum, then a scale."""
        c, h, w = self.shapes[x]
        i = self._node((x,), (c,), _spatial_sum_steps(self.shapes[x]))
        return self.scale(i, 1.0 / (h * w))

    def linear(self, x: int, key: Key, c_out: int, order) -> int:
        """``Linear``: a matmul with the transposed weight, then the bias."""
        c_in = self.shapes[x][0]
        i = self._node((x,), (c_out,), _LINEAR, key)
        bias = _filled(0.0, c_out, self.dtype)
        self.pinned.add(x)
        self.layers.append((order, [(key, c_out * c_in), (bias, c_out)], i))
        return self._node((i,), (c_out,), _bias_steps(c_out, self.dtype))

    def cell(self, x: int, edge_op_sets, apply_op, scaled: bool) -> int:
        """``SuperCell.forward`` (``scaled``) or ``Cell.forward``.

        ``apply_op(edge, position, op, node)`` builds one edge operation.
        """
        nodes = [x]
        for dst in range(1, NUM_NODES):
            total = None
            for edge, (src, edge_dst) in enumerate(EDGES):
                if edge_dst != dst or not edge_op_sets[edge]:
                    continue
                ops = edge_op_sets[edge]
                edge_out = None
                for position, op in enumerate(ops):
                    out = apply_op(edge, position, op, nodes[src])
                    edge_out = out if edge_out is None else self.add(edge_out, out)
                if scaled:
                    edge_out = self.scale(edge_out, 1.0 / len(ops))
                total = edge_out if total is None else self.add(total, edge_out)
            nodes.append(total if total is not None else self.scale(nodes[0], 0.0))
        return nodes[-1]


def _validate(edge_op_sets, error) -> Tuple[Tuple[str, ...], ...]:
    op_sets = tuple(tuple(ops) for ops in edge_op_sets)
    if len(op_sets) != len(EDGES):
        raise error(f"need {len(EDGES)} edge op sets, got {len(op_sets)}")
    for ops in op_sets:
        for op in ops:
            if op not in CANDIDATE_OPS:
                raise error(f"unknown operation {op!r}")
    return op_sets


class _Plan:
    """A compiled step list; subclasses define what a run returns.

    A plan computes in the compute dtype of the precision scope it was
    compiled in, which must be the scope its bank was drawn in.
    """

    #: A chunk plan's ``(shared values, {node: structural key}, its index
    #: in the chunk)``; see :class:`SupernetChunk`.
    _shared = None

    def __init__(self, tape: _Tape, live: Sequence[int],
                 pinned: Sequence[int]) -> None:
        self.dtype = tape.dtype
        self._size = len(tape.parents)
        self._weight_keys = tuple(tape.weight_keys.items())
        #: Nodes whose values a run reads after the forward.
        self._after = frozenset(pinned)
        # Each forward step drops the values it was the last to read (the
        # pinned ones excepted), so a run holds no more than it needs.
        parents, steps = tape.parents, tape.steps
        order = [i for i in sorted(live) if i]
        last_reader = {parent: i for i in order for parent in parents[i]}
        release: Dict[int, List[int]] = {}
        for node, reader in last_reader.items():
            if node not in self._after:
                release.setdefault(reader, []).append(node)
        get = release.get
        self._forward = tuple([(i, steps[i][0], parents[i], tuple(get(i, ())))
                               for i in order])
        self._layers = tuple(sorted(tape.layers, key=lambda layer: layer[0]))

    def parameters(self, bank: WeightBank) -> List[np.ndarray]:
        """The network's parameters in ``network.parameters()`` order."""
        return [bank.arrays[source] if isinstance(source, tuple) else source
                for _, params, _ in self._layers for source, _ in params]

    def _run_forward(self, bank: WeightBank, inputs: np.ndarray,
                     share: bool = True):
        """The forward over ``inputs``; a chunk plan takes the values its
        chunk shares only when ``share`` says the inputs are the bank's."""
        vals: list = [None] * self._size
        saved: list = [None] * self._size
        vals[0] = np.asarray(inputs, dtype=self.dtype)
        arrays = bank.arrays
        weights = {node: arrays[key] for node, key in self._weight_keys}
        if self._shared is not None and share:
            values, keys, index = self._shared
            if values.forward(bank, index, self._forward, keys, vals, saved,
                              weights):
                return vals, saved
        for i, step, parents, release in self._forward:
            step(i, parents, vals, saved, weights)
            for node in release:
                vals[node] = None
        return vals, saved


class NtkPlan(_Plan):
    """The frozen-BatchNorm NTK of one genotype or supernet state.

    ``edge_op_sets`` holds one tuple of op names per edge.  ``supercell``
    selects ``SuperCell`` semantics (each edge scaled by ``1/len``, empty
    edges skipped); otherwise every edge carries exactly one op and edges
    sum as in ``Cell``.
    """

    def __init__(self, edge_op_sets, macro, supercell: bool) -> None:
        op_sets = _validate(edge_op_sets, SearchSpaceError)
        if not supercell and any(len(ops) != 1 for ops in op_sets):
            raise SearchSpaceError("a Cell needs exactly one op per edge")
        b = _Tape((macro.input_channels, macro.image_size, macro.image_size),
                  saves_columns=True)
        c1, c2, c3 = macro.stage_channels
        h = b.conv(0, ("stem",), c1, 3, 1, 1, order=(0, 0))
        h = b.batch_norm(h, order=(0, 1))
        block = position = 0
        for stage, width in enumerate((c1, c2, c3)):
            if stage:
                block += 1
                reduce = ("reduce", stage - 1)
                r = b.relu(h)
                r = b.conv(r, reduce + (0,), width, 3, 2, 1, order=(block, 0))
                r = b.batch_norm(r, order=(block, 1))
                r = b.relu(r)
                r = b.conv(r, reduce + (1,), width, 3, 1, 1, order=(block, 2))
                r = b.batch_norm(r, order=(block, 3))
                s = b.pool(h, 2, 2, 0)
                s = b.conv(s, reduce + (2,), width, 1, 1, 0, order=(block, 4))
                h = b.add(r, s)
            for _ in range(macro.cells_per_stage):
                block += 1
                h = b.cell(h, op_sets,
                           self._edge_op(b, block, position, width),
                           scaled=supercell)
                position += 1
        h = b.relu(b.batch_norm(h, order=(block + 1, 0)))
        root = b.linear(b.global_pool(h), ("head",), macro.num_classes,
                        order=(block + 2, 0))
        topo = _tape_order(b.parents, root)
        super().__init__(b, topo, b.pinned | {root})
        self._root = root
        terms, offset, reached, dead = {}, 0, set(topo), []
        for _, params, node in self._layers:
            slices = []
            for _, size in params:
                slices.append(slice(offset, offset + size))
                offset += size
            terms[node] = tuple(slices)
            if node not in reached:
                dead.extend(slices)
        self.num_parameters = offset
        #: Column blocks of the layers the tape never reaches: the only
        #: Jacobian columns no term writes, so the only ones zeroed.
        self._dead = tuple(dead)
        # A node's gradient is final once its adjoint's turn comes, so its
        # Jacobian block is written right then, and what it read dropped.
        self._backward = tuple(
            (i, b.steps[i][1], b.parents[i],
             b.steps[i][2] if i in terms else None, terms.get(i))
            for i in reversed(topo) if i)

    @staticmethod
    def _edge_op(b: _Tape, block: int, position: int, width: int):
        def apply_op(edge, index, op, x):
            if op == "none":
                return b.scale(x, 0.0)
            if op == "skip_connect":
                return x
            if op == "avg_pool_3x3":
                return b.pool(x, 3, 1, 1)
            kernel = CONV_KERNEL[op]
            h = b.conv(b.relu(x), ("cell", position, edge, op), width, kernel,
                       1, kernel // 2, order=(block, edge, index, 0))
            return b.batch_norm(h, order=(block, edge, index, 1))
        return apply_op

    def jacobian(self, bank: WeightBank,
                 images: Optional[np.ndarray] = None) -> np.ndarray:
        """``(B, P)`` per-sample summed-logit Jacobian (``bank.inputs``
        unless ``images`` are given)."""
        vals, saved = self._run_forward(
            bank, bank.inputs if images is None else images,
            share=images is None)
        grads: list = [None] * self._size
        seed = grads[self._root] = np.ones_like(vals[self._root])
        jac = np.empty((seed.shape[0], self.num_parameters), dtype=self.dtype)
        for sl in self._dead:
            jac[:, sl] = 0.0
        for node, adjoint, parents, term, slices in self._backward:
            if adjoint is not None:
                adjoint(node, parents, vals, saved, grads)
            if term is not None:
                term(node, parents, vals, saved, grads, jac, slices)
            grads[node] = saved[node] = None
        return jac

    def gram(self, bank: WeightBank,
             images: Optional[np.ndarray] = None) -> np.ndarray:
        """The ``(B, B)`` empirical NTK, as ``compute_ntk_gram`` forms it."""
        jacobian = self.jacobian(bank, images)
        return jacobian @ jacobian.T


class LinePlan(_Plan):
    """The BN-free line-region network of a genotype or supernet state.

    Forward only.  Every ReLU whose pattern counts is computed, with the
    nodes feeding it; nothing else is.
    """

    def __init__(self, edge_op_sets, channels: int, num_cells: int,
                 input_size: int) -> None:
        op_sets = _validate(edge_op_sets, ProxyError)
        b = _Tape((3, input_size, input_size), saves_columns=False)
        # Module order, for ReLU patterns and parameters alike: the stem,
        # then (cell, edge, op position).
        relus: List[Tuple[Tuple, int]] = []
        h = b.conv(0, ("stem",), channels, 3, 1, 1, order=(-1,), bias=True)
        h = b.relu(h)
        relus.append(((-1,), h))
        for cell in range(num_cells):
            def apply_op(edge, index, op, x, cell=cell):
                if op == "none":
                    return b.scale(x, 0.0)
                if op == "skip_connect":
                    return x
                if op == "avg_pool_3x3":
                    return b.pool(x, 3, 1, 1)
                kernel = CONV_KERNEL[op]
                out = b.relu(b.conv(x, ("cell", cell, edge, op), channels,
                                    kernel, 1, kernel // 2,
                                    order=(cell, edge, index), bias=True))
                relus.append(((cell, edge, index), out))
                return out
            h = b.cell(h, op_sets, apply_op, scaled=True)
        relus.sort(key=lambda item: item[0])
        self._relus = tuple(node for _, node in relus)
        needed = set(self._relus)
        for node in range(len(b.parents) - 1, 0, -1):
            if node in needed:
                needed.update(b.parents[node])
        super().__init__(b, needed, ())

    def patterns(self, bank: WeightBank) -> np.ndarray:
        """``(lines, points, units)`` ReLU patterns along the bank's
        probe lines, as ``batched_line_patterns`` returns them."""
        num_lines, num_points = bank.inputs.shape[:2]
        batch = num_lines * num_points
        _, saved = self._run_forward(
            bank, bank.inputs.reshape(batch, *bank.inputs.shape[2:]))
        patterns = np.concatenate([saved[node].reshape(batch, -1)
                                   for node in self._relus], axis=1)
        return patterns.reshape(num_lines, num_points, -1)

    def count(self, bank: WeightBank) -> np.ndarray:
        """Region count per probe line of the bank."""
        return count_regions_per_line(self.patterns(bank))


# ----------------------------------------------------------------------
# Chunks: the supernet states of one executor chunk, sharing values
# ----------------------------------------------------------------------
def _read_only(value):
    """``value`` (an array, a tuple of arrays or None), made read-only."""
    if isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif value is not None:
        value.flags.writeable = False
    return value


class _SharedValues:
    """The forward values a chunk's plans compute more than once: at
    nodes of two or more plans, or at two nodes of one plan.

    Entries are keyed by structural key, per bank: ``(value, saved)``,
    read-only, where ``value`` is None unless a node that finds the entry
    may be read by one that computes (or is read after the forward).  The
    first node to reach a key computes it; an entry is dropped as soon as
    every plan holding its key has run.
    """

    def __init__(self, occurrences: Dict[int, int], keep_value) -> None:
        self._occurrences = occurrences
        self._keep_value = keep_value
        self._banks: Dict[WeightBank, Tuple[dict, dict, set]] = {}

    def forward(self, bank: WeightBank, index: int, steps,
                keys: Dict[int, int], vals, saved, weights) -> bool:
        """Plan ``index``'s forward (``steps``: ``(node, step, parents,
        release)``; ``keys``: the shared key of each node that has one),
        then the release of what it was the last to hold.  False, with
        nothing run, for a plan that already ran on ``bank``: its keys
        are no longer counted."""
        held = self._banks.get(bank)
        if held is None:
            held = self._banks[bank] = ({}, dict(self._occurrences), set())
        entries, left, ran = held
        if index in ran:
            return False
        ran.add(index)
        keep_value = self._keep_value
        for i, step, parents, release in steps:
            key = keys.get(i)
            entry = None if key is None else entries.get(key)
            if entry is not None:
                vals[i], saved[i] = entry
            else:
                step(i, parents, vals, saved, weights)
                if key is not None and left[key] > 1:
                    entries[key] = (
                        _read_only(vals[i]) if key in keep_value else None,
                        _read_only(saved[i]))
            for node in release:
                vals[node] = None
        for key in keys.values():
            left[key] -= 1
            if not left[key]:
                entries.pop(key, None)
        return True


def _share(plans: Sequence[_Plan]) -> None:
    """Key the forward nodes of a chunk's plans, and give each plan with
    a key that recurs one :class:`_SharedValues`.

    A node's structural key stands for its forward step (which fixes its
    op and constants), its weight key and its parents' keys: equal keys
    mean the same numpy calls on equal operands, so equal values.  A key
    recurs across states (the stem, the cell nodes upstream of a removed
    op) and within one (each conv's ReLU of one cell node, each edge's
    pool of it).
    """
    table: Dict[Tuple, int] = {}
    holders: Counter = Counter()        # plans holding each key
    occurrences: Counter = Counter()    # nodes holding it, in every plan
    keyed = []
    for plan in plans:
        weight = dict(plan._weight_keys).get
        ids = [-1] * plan._size     # -1: the input, or a node not run
        for i, forward, parents, _ in plan._forward:
            if len(parents) == 1:
                key = (forward, weight(i), ids[parents[0]])
            else:
                key = (forward, weight(i), *[ids[p] for p in parents])
            ids[i] = table.setdefault(key, len(table))
        occurrences.update(ids)
        holders.update(set(ids))
        keyed.append(ids)
    del occurrences[-1], holders[-1]
    # A shared value is kept where a node that finds it may be read by
    # one that computes: a node fewer plans hold (the plans holding a
    # child hold its parents), a key one plan holds twice (its later
    # nodes may feed a node computed first), or a node read after the
    # forward.
    keep_value = set()
    plan_keys = []
    for plan, ids in zip(plans, keyed):
        keys: Dict[int, int] = {}
        seen = set()
        for i, _, parents, _ in plan._forward:
            key = ids[i]
            count = holders[key]
            if occurrences[key] > 1:
                if key in seen:
                    keep_value.add(key)
                seen.add(key)
                keys[i] = key
            for parent in parents:
                if holders[ids[parent]] > count:
                    keep_value.add(ids[parent])
        keep_value.update(ids[node] for node in plan._after)
        plan_keys.append(keys)
    values = _SharedValues({key: count for key, count in occurrences.items()
                            if count > 1}, keep_value)
    for index, (plan, keys) in enumerate(zip(plans, plan_keys)):
        if keys:
            plan._shared = (values, keys, index)


class SupernetChunk:
    """The supernet states of one executor chunk, run as one incremental
    computation: hand it to ``supernet_ntk_condition_number`` and
    ``supernet_line_regions`` with each of its states.

    The first plan asked for of a kind compiles every state of the chunk,
    each alone, as the proxies would, and keys their forward nodes
    (:func:`_share`).  A node whose key two or more states hold is
    computed once, by the first state to reach it, with the ``saved``
    entry its adjoint, Jacobian term or ReLU pattern reads, and reused as
    read-only arrays.  Every backward step runs per state.  Nothing
    outlives the chunk: the key table goes once the plans are keyed, and
    a shared value when the last state holding it has run.
    """

    def __init__(self, states: Sequence) -> None:
        self._states = list(dict.fromkeys(
            tuple(tuple(ops) for ops in state) for state in states))
        self._plans: Dict[Tuple, Dict[Tuple, _Plan]] = {}

    def ntk_plan(self, edge_op_sets, macro) -> Optional[NtkPlan]:
        """The ``SuperCell`` NTK plan of one of the chunk's states, or
        None (asked for a second time, too)."""
        return self._plan(("ntk", macro), edge_op_sets,
                          lambda state: NtkPlan(state, macro, supercell=True))

    def line_plan(self, edge_op_sets, channels: int, num_cells: int,
                  input_size: int) -> Optional[LinePlan]:
        """The line-region plan of one of the chunk's states, or None
        (asked for a second time, too)."""
        return self._plan(("lr", channels, num_cells, input_size),
                          edge_op_sets,
                          lambda state: LinePlan(state, channels, num_cells,
                                                 input_size))

    def _plan(self, kind: Tuple, edge_op_sets, compile_state):
        kind += (default_dtype(),)
        plans = self._plans.get(kind)
        if plans is None:
            # A state the plans would reject is left to its proxy call.
            plans = self._plans[kind] = {
                state: compile_state(state) for state in self._states
                if len(state) == len(EDGES)
                and all(op in CANDIDATE_OPS for ops in state for op in ops)}
            _share(list(plans.values()))
        return plans.pop(tuple(tuple(ops) for ops in edge_op_sets), None)


__all__ = [
    "WeightBank",
    "NtkPlan",
    "LinePlan",
    "SupernetChunk",
    "draw_ntk_bank",
    "draw_lr_bank",
    "draw_supernet_ntk_bank",
    "supernet_ntk_bank",
    "supernet_lr_bank",
    "line_points",
    "count_regions_per_line",
]
