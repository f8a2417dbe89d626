"""Architecture genotypes and the NAS-Bench-201 arch-string codec.

A genotype is the 6-tuple of operation names on the cell edges, in the
canonical edge order ``(0→1, 0→2, 1→2, 0→3, 1→3, 2→3)``.  It round-trips
with the benchmark's string format::

    |op~0|+|op~0|op~1|+|op~0|op~1|op~2|

and with a base-5 integer index in ``[0, 15625)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from repro.errors import GenotypeError
from repro.searchspace.ops import CANDIDATE_OPS, EDGES, NUM_EDGES, OP_INDEX

_ARCH_TOKEN = re.compile(r"([^|~]+)~(\d+)")

#: Edges grouped by destination node, in string order.
_EDGES_BY_NODE: Tuple[Tuple[int, ...], ...] = (
    tuple(i for i, (_, dst) in enumerate(EDGES) if dst == node) for node in (1, 2, 3)
)
_EDGES_BY_NODE = tuple(_EDGES_BY_NODE)


@lru_cache(maxsize=None)
def _ops_index(ops: Tuple[str, ...]) -> int:
    """Memoized base-5 code of an op tuple (edge 0 least significant).

    Cache keys, dedupe and report rows all call :meth:`Genotype.to_index`;
    the whole space is 15,625 op tuples, so an unbounded memo stays tiny
    (the same pattern as ``canonical._canonical_ops``).
    """
    index = 0
    for edge in reversed(range(NUM_EDGES)):
        index = index * len(CANDIDATE_OPS) + OP_INDEX[ops[edge]]
    return index


@dataclass(frozen=True)
class Genotype:
    """An immutable NAS-Bench-201 architecture."""

    ops: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.ops) != NUM_EDGES:
            raise GenotypeError(
                f"a genotype needs {NUM_EDGES} operations, got {len(self.ops)}"
            )
        for op in self.ops:
            if op not in OP_INDEX:
                raise GenotypeError(f"unknown operation {op!r}")
        object.__setattr__(self, "ops", tuple(self.ops))

    # ------------------------------------------------------------------
    # Codec: arch string
    # ------------------------------------------------------------------
    def to_arch_str(self) -> str:
        """Render the canonical NAS-Bench-201 architecture string."""
        groups = []
        for node_edges in _EDGES_BY_NODE:
            tokens = "".join(
                f"|{self.ops[edge]}~{EDGES[edge][0]}|" for edge in node_edges
            )
            groups.append(tokens.replace("||", "|"))
        return "+".join(groups)

    @classmethod
    def from_arch_str(cls, arch_str: str) -> "Genotype":
        """Parse an architecture string (inverse of :meth:`to_arch_str`)."""
        groups = arch_str.split("+")
        if len(groups) != 3:
            raise GenotypeError(f"expected 3 node groups, got {len(groups)}: {arch_str!r}")
        ops = ["none"] * NUM_EDGES
        for node_offset, group in enumerate(groups):
            raw_tokens = [token for token in group.split("|") if token]
            expected = node_offset + 1
            if len(raw_tokens) != expected:
                raise GenotypeError(
                    f"node {expected} should have {expected} incoming edges, "
                    f"got {len(raw_tokens)} in {group!r}"
                )
            for token in raw_tokens:
                match = _ARCH_TOKEN.fullmatch(token)
                if match is None:
                    raise GenotypeError(f"malformed edge token {token!r}")
                op_name, src_str = match.groups()
                src = int(src_str)
                dst = node_offset + 1
                try:
                    edge_idx = EDGES.index((src, dst))
                except ValueError as exc:
                    raise GenotypeError(f"invalid edge {src}->{dst}") from exc
                if op_name not in OP_INDEX:
                    raise GenotypeError(f"unknown operation {op_name!r}")
                ops[edge_idx] = op_name
        return cls(tuple(ops))

    # ------------------------------------------------------------------
    # Codec: integer index
    # ------------------------------------------------------------------
    def to_index(self) -> int:
        """Base-5 encode the op assignment (edge 0 is the least significant)."""
        return _ops_index(self.ops)

    @classmethod
    def from_index(cls, index: int) -> "Genotype":
        """Decode a base-5 architecture index (inverse of :meth:`to_index`)."""
        size = len(CANDIDATE_OPS) ** NUM_EDGES
        if not 0 <= index < size:
            raise GenotypeError(f"index {index} outside [0, {size})")
        ops = []
        remaining = index
        for _ in range(NUM_EDGES):
            ops.append(CANDIDATE_OPS[remaining % len(CANDIDATE_OPS)])
            remaining //= len(CANDIDATE_OPS)
        return cls(tuple(ops))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def op_on_edge(self, src: int, dst: int) -> str:
        """Operation assigned to the edge ``src -> dst``."""
        try:
            return self.ops[EDGES.index((src, dst))]
        except ValueError as exc:
            raise GenotypeError(f"no edge {src}->{dst} in the cell DAG") from exc

    def with_op(self, edge_index: int, op_name: str) -> "Genotype":
        """Return a copy with one edge's operation replaced."""
        if not 0 <= edge_index < NUM_EDGES:
            raise GenotypeError(f"edge index {edge_index} outside [0, {NUM_EDGES})")
        ops = list(self.ops)
        ops[edge_index] = op_name
        return Genotype(tuple(ops))

    def count(self, op_name: str) -> int:
        """Number of edges carrying ``op_name``."""
        return sum(1 for op in self.ops if op == op_name)

    def __str__(self) -> str:
        return self.to_arch_str()

    @classmethod
    def all_genotypes(cls) -> Iterator["Genotype"]:
        """Iterate every architecture in index order (15,625 total)."""
        size = len(CANDIDATE_OPS) ** NUM_EDGES
        for index in range(size):
            yield cls.from_index(index)

    @classmethod
    def random(cls, rng, ops: Sequence[str] = CANDIDATE_OPS) -> "Genotype":
        """Sample a uniform random genotype using a numpy Generator."""
        choices = tuple(rng.choice(len(ops), size=NUM_EDGES))
        return cls(tuple(ops[i] for i in choices))

    @classmethod
    def resolve(cls, value) -> "Genotype":
        """Accept an integer index (or numeric string) or an arch string.

        The shared user-input resolver behind the CLI's positional ``arch``
        arguments and ``RuntimeConfig.arch``.
        """
        try:
            return cls.from_index(int(value))
        except (TypeError, ValueError):
            return cls.from_arch_str(str(value))
