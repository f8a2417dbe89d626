"""Multi-objective zero-shot search: the accuracy/latency Pareto front.

MicroNAS scalarises its objectives with tunable weights (``w_F``,
``w_L``); picking those weights *is* picking a point on the quality/
latency trade-off curve.  This module exposes the whole curve instead:
rank a zero-shot architecture sample by non-dominated sorting (NSGA-II's
fronts + crowding distance, without the genetic loop — the proxies are
cheap enough to score a sample directly) over

* **trainless quality** — the rank-combined NTK + linear-region score
  (lower is better, exactly the hybrid objective's trainless part),
* one or more **cost axes** named by ``objectives=`` — ``latency`` (the
  default), ``flops`` or any registered
  :class:`~repro.search.costs.CostModel` axis (``energy``, ``peak-mem``,
  ``int8-latency``, ...).

Every axis has one price: the engine's cost model for it, read once per
unique canonical cell (``Engine.cost_column``) and gathered back to
sample order, so a sample's front does not depend on the objective's
weights.  The deliverable is the first front plus a knee point, which a
user can hand to the secondary stage (:mod:`repro.search.macro`) per
deployment.  :func:`build_front` is the one front builder — Pareto set,
crowding, the order along the first cost axis and the knee — shared with
the device-matrix cells of :mod:`repro.runtime.harness`.

:func:`non_dominated_sort` is array-native but keeps the list order of
the classic pairwise NSGA-II loop: front 0 in ascending index order, and
each later front ordered by the position, in the previous front, of each
member's last dominator, ties broken by index.  It compares ``≤ 256``
rows against all points at a time, so its memory stays ``O(256 · N)``
and never reaches ``N × N`` — a whole-space sort (N = 15,625) included.
:func:`first_front` peels the same fronts under the same bound but only
counts the later ones: their member order, which the device-matrix
cells and the Pareto search discard, is never built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SearchError
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space
from repro.utils.timing import Timer


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimisation: a <= b everywhere, < somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise SearchError("objective vectors must have equal length")
    return bool(np.all(a <= b) and np.any(a < b))


#: Rows of the dominance relation built at once by :func:`non_dominated_sort`.
_SORT_BLOCK = 256


def _dominance_rows(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``out[r, c]`` is ``dominates(rows[r], columns[c])``.

    Built one objective at a time from 2-D comparisons, so no temporary
    exceeds ``len(rows) × len(columns)`` booleans.  NaN compares False,
    exactly as in :func:`dominates`.
    """
    shape = (len(rows), len(columns))
    no_worse = np.ones(shape, dtype=bool)
    better = np.zeros(shape, dtype=bool)
    for k in range(rows.shape[1]):
        row = rows[:, k, None]
        column = columns[None, :, k]
        no_worse &= row <= column
        better |= row < column
    return no_worse & better


def _fronts(points: np.ndarray, ordered: bool) -> Iterator[np.ndarray]:
    """Yield the non-dominated fronts of ``points`` (an ``(n, m)`` float
    array) as index arrays, front 0 first and in ascending order.

    With ``ordered`` each later front comes in :func:`non_dominated_sort`'s
    last-dominator order; without it, in ascending order, and nothing of
    that order is computed.  Domination counts and front peeling both
    compare blocks of at most 256 rows against the points, so memory is
    ``O(256 · N)``.
    """
    n = len(points)
    count = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _SORT_BLOCK):
        block = _dominance_rows(points[start:start + _SORT_BLOCK], points)
        count += np.count_nonzero(block, axis=0)
    current = np.flatnonzero(count == 0)
    remaining = np.flatnonzero(count)
    while current.size:
        yield current
        if not remaining.size:
            return
        # Peel: each front member releases the points it dominates; a
        # point joins the next front when its last dominator is released.
        # ``last[c]`` is that dominator's position in ``current``.
        rest = points[remaining]
        last = np.zeros(remaining.size, dtype=np.int64) if ordered else None
        for start in range(0, current.size, _SORT_BLOCK):
            block = _dominance_rows(
                points[current[start:start + _SORT_BLOCK]], rest)
            hits = np.count_nonzero(block, axis=0)
            count[remaining] -= hits
            if ordered:
                stop = start + len(block)
                last = np.where(hits > 0,
                                stop - 1 - block[::-1].argmax(axis=0), last)
        released = count[remaining] == 0
        current = remaining[released]
        if ordered:
            current = current[np.argsort(last[released], kind="stable")]
        remaining = remaining[~released]


def non_dominated_sort(points: np.ndarray) -> List[List[int]]:
    """NSGA-II fast non-dominated sort (minimisation).

    Returns fronts as lists of row indices; front 0 is the Pareto set.
    The lists come in the order the classic pairwise loop appends them:

    * front 0 in ascending index order;
    * each later front ordered by the position, in the previous front,
      of each member's *last* dominator, ties broken by index.

    Dominance is :func:`dominates`, NaN and ±inf included.  Domination
    counts and front peeling both work in blocks of at most 256 rows
    against the points, so memory is ``O(256 · N)``: nothing ``N × N``
    is ever allocated.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        return []
    return [front.tolist()
            for front in _fronts(points.reshape(n, -1), ordered=True)]


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance within one front (larger = lonelier)."""
    points = np.asarray(points, dtype=float)
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(points[:, k])
        spread = points[order[-1], k] - points[order[0], k]
        distance[order[0]] = distance[order[-1]] = np.inf
        if spread == 0:
            continue
        for pos in range(1, n - 1):
            gap = points[order[pos + 1], k] - points[order[pos - 1], k]
            distance[order[pos]] += gap / spread
    return distance


def first_front(vectors: np.ndarray) -> Tuple[List[int], np.ndarray, int]:
    """The Pareto set of ``vectors``: its row indices (ascending), their
    crowding distances, and how many fronts the full sort finds.

    Equal to ``non_dominated_sort(vectors)[0]`` and its length, with the
    same ``O(256 · N)`` memory, but the later fronts are only counted:
    their member order is never built.
    """
    vectors = np.asarray(vectors, dtype=float)
    fronts = _fronts(vectors.reshape(len(vectors), -1), ordered=False)
    first = next(fronts).tolist()
    num_fronts = 1 + sum(1 for _ in fronts)
    return first, crowding_distance(vectors[first]), num_fronts


def knee_index(matrix: Sequence[Sequence[float]]) -> int:
    """Row of ``matrix`` closest (L2) to the utopian corner (0, ..., 0)
    once every column is min-max normalised (a constant column reads 0)."""
    matrix = np.asarray(matrix, dtype=float)
    lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    normed = (matrix - lo) / np.where(hi > lo, hi - lo, 1.0)
    return int(np.argmin(np.sqrt((normed ** 2).sum(axis=1))))


def build_front(vectors: np.ndarray
                ) -> Tuple[List[int], np.ndarray, int, int]:
    """The one Pareto-front builder, for ``(quality, *costs)`` rows.

    Returns the first front's row indices sorted by the first cost axis
    (column 1; a stable sort, so ties keep ascending index order), their
    crowding distances in that order, the number of fronts, and the
    knee's position in the sorted front (:func:`knee_index`).
    """
    vectors = np.asarray(vectors, dtype=float)
    first, crowd, num_fronts = first_front(vectors)
    order = sorted(range(len(first)), key=lambda k: vectors[first[k], 1])
    members = [first[k] for k in order]
    return members, crowd[order], num_fronts, knee_index(vectors[members])


def crowding_selection_weights(points: np.ndarray) -> np.ndarray:
    """Parent-selection probabilities proportional to crowding distance.

    The steady-state evolutionary loop samples parents from its Pareto
    front; weighting the pick by NSGA-II crowding distance biases
    exploration toward under-populated regions of the front instead of
    wherever non-dominated points happen to cluster.  Guarantees, pinned
    by ``tests/search/test_crowding_selection.py``:

    * probabilities are positive and sum to 1,
    * they are **monotone in crowding distance** — a lonelier point is
      never less likely than a more crowded one (boundary points, whose
      distance is ``inf``, are capped at twice the largest finite
      distance, keeping them the most likely picks without degenerating
      to certainty),
    * fully crowded members (distance 0) keep a small floor probability
      (1% of the maximum weight) so no front member is unreachable,
    * degenerate fronts (≤ 2 points, or all distances equal) fall back
      to the uniform pick.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise SearchError("cannot build selection weights for an empty front")
    # Objective axes may carry ±inf (an untrainable candidate's κ can sit
    # on the front through its other axes); clamp each column to its
    # finite range so distances stay defined — infinite members become
    # boundary points, which is exactly their geometric role.
    points = points.copy()
    for k in range(points.shape[1]):
        column = points[:, k]
        finite_mask = np.isfinite(column)
        if not finite_mask.any():
            points[:, k] = 0.0
            continue
        points[:, k] = np.clip(column, column[finite_mask].min(),
                               column[finite_mask].max())
    distance = crowding_distance(points)
    finite = distance[np.isfinite(distance)]
    if finite.size == 0 or finite.max() == 0.0:
        # All-boundary or all-coincident front: nothing to discriminate.
        return np.full(n, 1.0 / n)
    cap = 2.0 * finite.max()
    weights = np.where(np.isfinite(distance), distance, cap)
    weights = weights + weights.max() * 0.01
    return weights / weights.sum()


@dataclass(frozen=True)
class ParetoPoint:
    """One architecture with its objective vector."""

    genotype: Genotype
    quality_rank: float      # trainless combined rank (lower = better)
    latency_ms: float
    flops: float
    crowding: float = field(default=0.0, compare=False)
    #: Extra cost-axis values (name, value), canonically sorted — only
    #: populated when the search ran with non-default ``objectives``.
    costs: Tuple[Tuple[str, float], ...] = ()

    def cost(self, axis: str) -> float:
        """The value of one named cost axis on this point."""
        if axis == "latency":
            return self.latency_ms
        if axis == "flops":
            return self.flops
        for name, value in self.costs:
            if name == axis:
                return value
        raise SearchError(f"point carries no cost axis {axis!r}")

    def vector(self, axes: Sequence[str]) -> Tuple[float, ...]:
        """(quality, *costs) objective vector over the named axes."""
        return (self.quality_rank,) + tuple(self.cost(a) for a in axes)


@dataclass
class ParetoResult:
    """The discovered front plus bookkeeping."""

    front: List[ParetoPoint]
    population_size: int
    wall_seconds: float
    num_fronts: int
    #: Cost axes the front was sorted over (quality is always implicit).
    axes: Tuple[str, ...] = ("latency",)

    def knee_point(self) -> ParetoPoint:
        """The balanced pick: minimal normalised distance to the ideal
        (:func:`knee_index` over the front's objective vectors)."""
        if not self.front:
            raise SearchError("empty Pareto front")
        vectors = [p.vector(self.axes) for p in self.front]
        return self.front[knee_index(vectors)]

    def fastest(self) -> ParetoPoint:
        return min(self.front, key=lambda p: p.latency_ms)

    def best_quality(self) -> ParetoPoint:
        return min(self.front, key=lambda p: p.quality_rank)


class ParetoZeroShotSearch:
    """Score a sample with the trainless proxies; return the Pareto front.

    ``objectives`` names the cost axes — any mix of ``latency``,
    ``flops`` and registered :class:`~repro.search.costs.CostModel` axes
    (e.g. ``("energy", "peak-mem")``); the default is ``("latency",)``.
    """

    algorithm_name = "pareto-zeroshot"

    def __init__(
        self,
        objective: HybridObjective,
        num_samples: int = 64,
        seed: int = 0,
        space: Optional[NasBench201Space] = None,
        objectives: Optional[Sequence[str]] = None,
    ) -> None:
        if num_samples < 2:
            raise SearchError("need at least two samples")
        self.objective = objective
        self.num_samples = num_samples
        self.seed = seed
        self.space = space or NasBench201Space()
        axes = tuple(objectives) if objectives else ("latency",)
        if len(set(axes)) != len(axes):
            raise SearchError(f"duplicate objective axes in {list(axes)}")
        self.axes: Tuple[str, ...] = axes

    # ------------------------------------------------------------------
    def _score_population(
        self, genotypes: Sequence[Genotype]
    ) -> List[ParetoPoint]:
        # One population call: canonical dedupe, the engine's executor
        # computes the missing rows as one batch, and every cost axis is
        # read once per unique canonical form through its cost model and
        # gathered back to sample order through ``inverse``.
        table = self.objective.evaluate_population(genotypes)
        # Quality is the *trainless* part only (NTK + linear regions);
        # hardware enters as its own objective axis, not via the weights.
        trainless = self.objective.with_weights(ObjectiveWeights())
        quality = trainless.combined_ranks(table.rows())
        engine = self.objective.engine
        costs = {axis: engine.cost_column(table.canonical,
                                          engine.cost_model(axis))[table.inverse]
                 for axis in sorted(self.axes)}
        # Off the axes, the table's columns: FLOPs always, latency when
        # the weights request it (else its 0.0 placeholder).
        latencies = costs.pop("latency", table.column("latency"))
        flops = costs.pop("flops", table.column("flops"))
        return [
            ParetoPoint(
                genotype=genotype,
                quality_rank=float(quality[i]),
                latency_ms=float(latencies[i]),
                flops=float(flops[i]),
                costs=tuple((axis, float(column[i]))
                            for axis, column in costs.items()),
            )
            for i, genotype in enumerate(genotypes)
        ]

    def search(self) -> ParetoResult:
        """Sample, score, sort; return the first front (crowding-annotated)."""
        genotypes = self.space.sample(self.num_samples, rng=self.seed)
        with Timer() as timer:
            points = self._score_population(genotypes)
            members, crowd, num_fronts, _ = build_front(
                [p.vector(self.axes) for p in points])
            front = [replace(points[idx], crowding=float(c))
                     for idx, c in zip(members, crowd)]
        return ParetoResult(
            front=front,
            population_size=self.num_samples,
            wall_seconds=timer.elapsed,
            num_fronts=num_fronts,
            axes=self.axes,
        )
