"""Functional canonicalisation of genotypes.

Many NAS-Bench-201 genotypes realise the *same function*: an operation on
an edge that cannot reach the cell output (or cannot be reached from the
input) never executes meaningfully.  The canonical form replaces every
such dead edge with ``none``, which

* deduplicates functionally-equivalent architectures in search traces,
* matches what an optimising deployment runtime would actually compile
  (the latency layer walker already skips ``none`` edges, but a dead
  *conv* edge would otherwise be billed).

The surrogate accuracy model is path-based, so canonically-equal genotypes
receive identical quality scores — a property the tests pin down.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Set, Tuple

from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import EDGES


def live_edges(genotype: Genotype) -> Set[int]:
    """Indices of edges on some input→output path of non-``none`` ops."""
    passing = [(idx, src, dst) for idx, (src, dst) in enumerate(EDGES)
               if genotype.ops[idx] != "none"]
    # EDGES is sorted by destination node, so one pass in order settles
    # reachability from the input, and one pass in reverse settles
    # reachability of the output.
    reaches_from_input = {0}
    for _, src, dst in passing:
        if src in reaches_from_input:
            reaches_from_input.add(dst)
    reaches_output = {3}
    for _, src, dst in reversed(passing):
        if dst in reaches_output:
            reaches_output.add(src)
    return {idx for idx, src, dst in passing
            if src in reaches_from_input and dst in reaches_output}


@lru_cache(maxsize=None)
def _canonical_ops(ops: Tuple[str, ...]) -> Tuple[str, ...]:
    """Memoized dead-edge elimination on the raw op tuple.

    Canonicalization builds a cell graph per call and sits on every hot
    path (cache keys, population dedupe, constraint checks); the whole
    space is 15,625 genotypes, so an unbounded memo stays tiny while
    making repeat canonicalizations O(1).
    """
    alive = live_edges(Genotype(ops))
    return tuple(
        op if idx in alive else "none" for idx, op in enumerate(ops)
    )


def canonicalize(genotype: Genotype) -> Genotype:
    """Replace every dead edge's operation with ``none``."""
    return Genotype(_canonical_ops(genotype.ops))


def is_canonical(genotype: Genotype) -> bool:
    """Whether the genotype equals its canonical form."""
    return canonicalize(genotype) == genotype


def functionally_equal(a: Genotype, b: Genotype) -> bool:
    """Whether two genotypes realise the same cell function structurally."""
    return canonicalize(a) == canonicalize(b)
