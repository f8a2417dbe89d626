"""Candidate operations of the NAS-Bench-201 cell.

The operator set is fixed by the benchmark definition:

* ``none``          — zeroise (edge absent),
* ``skip_connect``  — identity,
* ``nor_conv_1x1``  — ReLU → 1×1 conv → BatchNorm,
* ``nor_conv_3x3``  — ReLU → 3×3 conv (pad 1) → BatchNorm,
* ``avg_pool_3x3``  — 3×3 average pooling (stride 1, pad 1).

All cell-internal operations are stride 1 and channel preserving.

This module holds the operator names and their closed-form costs only.
The operator modules (``Zero``, ``Identity``, ``build_op``) live with the
cells that build them, in :mod:`repro.searchspace.cell`; reading them
from here still works and imports the module tree on first access.
"""

from __future__ import annotations

from typing import Dict, Tuple

NUM_NODES = 4
NUM_EDGES = 6

#: Edge list of the cell DAG as (source node, destination node), in the
#: canonical NAS-Bench-201 order used by architecture strings.
EDGES: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))

#: The edges into each cell node, in edge order (none into node 0).
EDGES_INTO: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(edge for edge, (_, dst) in enumerate(EDGES) if dst == node)
    for node in range(NUM_NODES))

CANDIDATE_OPS: Tuple[str, ...] = (
    "none",
    "skip_connect",
    "nor_conv_1x1",
    "nor_conv_3x3",
    "avg_pool_3x3",
)

OP_INDEX: Dict[str, int] = {name: idx for idx, name in enumerate(CANDIDATE_OPS)}

#: Kernel size used by each convolutional candidate.
CONV_KERNEL: Dict[str, int] = {"nor_conv_1x1": 1, "nor_conv_3x3": 3}


def op_is_parametric(op_name: str) -> bool:
    """Whether an operation has learnable weights (affects params/FLOPs)."""
    return op_name in CONV_KERNEL


def op_flops(op_name: str, channels: int, height: int, width: int) -> int:
    """FLOPs of one op at a given feature shape.

    Convention: 1 multiply-add = 1 FLOP, matching the NAS-Bench-201 API's
    reported numbers (and hence the paper's Table I scale); pooling counts
    ``k*k`` adds per output element; ``none``/``skip_connect`` are free.
    """
    if op_name in CONV_KERNEL:
        kernel = CONV_KERNEL[op_name]
        return channels * channels * kernel * kernel * height * width
    if op_name == "avg_pool_3x3":
        return 9 * channels * height * width
    return 0


def op_params(op_name: str, channels: int) -> int:
    """Learnable parameter count of one op (conv weights + BN affine)."""
    if op_name in CONV_KERNEL:
        kernel = CONV_KERNEL[op_name]
        return channels * channels * kernel * kernel + 2 * channels
    return 0


#: Names served from :mod:`repro.searchspace.cell` on first access.
_MODULE_TREE_NAMES = ("Zero", "Identity", "build_op")


def __getattr__(name: str):
    if name in _MODULE_TREE_NAMES:
        from repro.searchspace import cell

        return getattr(cell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
