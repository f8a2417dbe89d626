"""Multi-objective Pareto zero-shot search."""

import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.proxies.base import ProxyConfig
from repro.search import HybridObjective, ObjectiveWeights
from repro.search.pareto import (
    ParetoPoint,
    build_front,
    ParetoResult,
    ParetoZeroShotSearch,
    _two_axis_ranks,
    crowding_distance,
    dominates,
    first_front,
    knee_index,
    non_dominated_sort,
)
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig

pytestmark = pytest.mark.hw

FAST_PROXY = ProxyConfig(init_channels=4, cells_per_stage=1, input_size=8,
                         ntk_batch_size=8, lr_num_samples=32, lr_input_size=4,
                         lr_channels=2, seed=9)

objective_vectors = st.lists(
    st.tuples(st.floats(0, 100), st.floats(0, 100)),
    min_size=2, max_size=30,
)


def pairwise_fronts(points):
    """Oracle: the classic pairwise NSGA-II loop over :func:`dominates`.

    Fronts come in the order this loop appends them, which
    :func:`non_dominated_sort` must reproduce list for list.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    dominated_by = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(points[i], points[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(points[j], points[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


@st.composite
def tied_points(draw):
    """Small-integer points (ties are common) with injected ±inf and NaN."""
    n = draw(st.integers(0, 60))
    m = draw(st.integers(1, 4))
    values = st.one_of(st.integers(0, 4).map(float),
                       st.sampled_from([np.inf, -np.inf, np.nan]))
    flat = draw(st.lists(values, min_size=n * m, max_size=n * m))
    return np.array(flat, dtype=float).reshape(n, m)


@st.composite
def block_sized_points(draw):
    """Tied points with ±inf and NaN, on both sides of the 256-row block,
    weighted to two axes (the rows :func:`first_front` sorts by a sweep)."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 255, 256, 257, 513]),
                       st.integers(0, 600)))
    m = draw(st.sampled_from([2, 2, 2, 1, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    palette = np.array([0.0, 1.0, 2.0, 3.0, 4.0, np.inf, -np.inf, np.nan])
    weights = np.array([0.24, 0.24, 0.2, 0.15, 0.1, 0.03, 0.02, 0.02])
    return rng.choice(palette, size=(n, m), p=weights)


def front_ranks(points):
    """Each row's front index, from the ordered full sort."""
    rank = np.zeros(len(points), dtype=np.int64)
    for k, front in enumerate(non_dominated_sort(points)):
        rank[front] = k
    return rank


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([1, 1], [2, 2])
        assert dominates([1, 2], [1, 3])

    def test_no_self_domination(self):
        assert not dominates([1, 2], [1, 2])

    def test_incomparable(self):
        assert not dominates([1, 3], [2, 2])
        assert not dominates([2, 2], [1, 3])

    def test_length_mismatch(self):
        with pytest.raises(SearchError):
            dominates([1], [1, 2])


class TestNonDominatedSort:
    def test_simple_fronts(self):
        points = np.array([[1, 1], [2, 2], [1, 3], [3, 3]])
        fronts = non_dominated_sort(points)
        assert fronts[0] == [0]          # (1,1) dominates everything
        assert set(fronts[1]) == {1, 2}  # (2,2) and (1,3) incomparable
        assert fronts[2] == [3]

    def test_all_equal_points_one_front(self):
        points = np.array([[1.0, 1.0]] * 5)
        fronts = non_dominated_sort(points)
        assert len(fronts) == 1
        assert sorted(fronts[0]) == list(range(5))

    def test_empty_input(self):
        assert non_dominated_sort(np.zeros((0, 2))) == []

    @settings(max_examples=150, deadline=None)
    @given(points=tied_points())
    def test_matches_pairwise_oracle_in_order(self, points):
        fronts = non_dominated_sort(points)
        assert fronts == pairwise_fronts(points)
        assert all(type(i) is int for front in fronts for i in front)

    def test_later_fronts_follow_last_dominator(self):
        # Front 0 is [0, 1].  Point 4's only front-0 dominator is 0, so it
        # comes first; 2 and 5 both have 1 as their last dominator, so the
        # index breaks their tie.
        points = np.array([[0, 5], [5, 0], [6, 1], [6, 6], [1, 6],
                           [5.5, 5.5]])
        expected = [[0, 1], [4, 2, 5], [3]]
        assert pairwise_fronts(points) == expected
        assert non_dominated_sort(points) == expected

    def test_large_input_memory_stays_blocked(self):
        """8,000 points sort without any N×N temporary: an 8,000² boolean
        matrix alone would take 64 MB."""
        points = np.random.default_rng(0).random((8000, 3))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            fronts = non_dominated_sort(points)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert elapsed < 30.0
        assert sorted(i for front in fronts for i in front) == list(range(8000))
        first = points[fronts[0]]
        assert not any(dominates(p, q) for p in points[::97] for q in first)
        # first_front counts the same fronts under the same bound.
        tracemalloc.start()
        try:
            started = time.perf_counter()
            front, _, num_fronts = first_front(points)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert elapsed < 30.0
        assert front == fronts[0]
        assert num_fronts == len(fronts)

    @settings(max_examples=50, deadline=None)
    @given(vectors=objective_vectors)
    def test_fronts_partition_population(self, vectors):
        points = np.array(vectors)
        fronts = non_dominated_sort(points)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(len(points)))

    @settings(max_examples=50, deadline=None)
    @given(vectors=objective_vectors)
    def test_first_front_mutually_non_dominated(self, vectors):
        points = np.array(vectors)
        first = non_dominated_sort(points)[0]
        for i in first:
            for j in first:
                assert not dominates(points[i], points[j])

    @settings(max_examples=50, deadline=None)
    @given(vectors=objective_vectors)
    def test_nothing_dominates_first_front(self, vectors):
        points = np.array(vectors)
        first = set(non_dominated_sort(points)[0])
        for i in range(len(points)):
            for j in first:
                assert not dominates(points[i], points[j])


class TestFirstFront:
    @settings(max_examples=120, deadline=None)
    @given(points=block_sized_points())
    def test_equals_front_zero_of_the_full_sort(self, points):
        fronts = non_dominated_sort(points) or [[]]
        first, crowd, num_fronts = first_front(points)
        assert first == fronts[0]
        assert all(type(i) is int for i in first)
        assert num_fronts == (len(fronts) if len(points) else 0)
        np.testing.assert_array_equal(crowd,
                                      crowding_distance(points[fronts[0]]))
        if points.shape[1] == 2 and len(points):
            # The sweep puts every row, not only front 0, in its front.
            np.testing.assert_array_equal(_two_axis_ranks(points),
                                          front_ranks(points))

    @settings(max_examples=40, deadline=None)
    @given(points=tied_points())
    def test_build_front_sorts_the_first_front_and_picks_its_knee(
            self, points):
        if len(points) == 0 or points.shape[1] < 2:
            return
        first, crowd, num_fronts = first_front(points)
        members, sorted_crowd, count, knee = build_front(points)
        order = sorted(range(len(first)), key=lambda k: points[first[k], 1])
        assert members == [first[k] for k in order]
        np.testing.assert_array_equal(sorted_crowd, crowd[order])
        assert count == num_fronts
        assert knee == knee_index(points[members])


class TestTwoAxisSweep:
    def test_ties_and_nan_rows(self):
        # Equal rows share a front; a tie on one axis is still dominated;
        # a NaN row is incomparable, so it stays in front 0.
        points = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0],
                           [np.nan, 9.0], [np.inf, np.inf], [0.0, np.inf]])
        assert _two_axis_ranks(points).tolist() == [0, 0, 1, 1, 0, 2, 0]
        assert first_front(points)[0] == [0, 1, 4, 6]
        assert first_front(points)[2] == 3

    def test_empty_input_has_no_front(self):
        for empty in (np.zeros((0, 2)), np.zeros((0, 3)), []):
            first, crowd, num_fronts = first_front(empty)
            assert first == [] and num_fronts == 0
            assert crowd.shape == (0,)

    def test_whole_space_sort_is_linear(self):
        """A whole-space-sized two-axis input (15,625 rows) sorts in
        linear memory: less than one 256-row block of the peel's two
        boolean dominance matrices."""
        points = np.random.default_rng(3).random((15625, 2))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            first, _, num_fronts = first_front(points)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 256 * len(points)
        assert elapsed < 10.0
        assert num_fronts > 1
        front = points[first]
        assert not any(dominates(p, q) for p in points[::31] for q in front)


class TestCrowdingDistance:
    def test_extremes_infinite(self):
        points = np.array([[0, 10], [5, 5], [10, 0]])
        distance = crowding_distance(points)
        assert np.isinf(distance[0])
        assert np.isinf(distance[2])
        assert np.isfinite(distance[1])

    def test_small_fronts_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1, 2]]))))
        assert np.all(np.isinf(crowding_distance(np.array([[1, 2], [2, 1]]))))

    def test_denser_point_smaller_distance(self):
        # Point 1 sits between near neighbours (0,10) and (1.2,8.8);
        # point 2's neighbourhood spans all the way to (10,0).
        points = np.array([[0, 10.0], [1, 9.0], [1.2, 8.8], [10, 0.0]])
        distance = crowding_distance(points)
        assert distance[1] < distance[2]

    def test_degenerate_axis_no_nan(self):
        points = np.array([[1.0, 0], [1.0, 5], [1.0, 10]])
        distance = crowding_distance(points)
        assert not np.any(np.isnan(distance))

    def test_infinite_coordinate_is_a_boundary(self):
        # Row 2's infinite second coordinate reads as that axis's finite
        # maximum: no gap becomes inf - inf, and row 0 keeps the inf of
        # its first-axis boundary instead of turning NaN.
        distance = crowding_distance(
            [[0, 5], [1, 1], [2, np.inf], [3, 0.5], [4, 0.1]])
        assert np.isinf(distance[[0, 2, 4]]).all()
        assert np.isfinite(distance[[1, 3]]).all()

    def test_nan_coordinate_reads_as_the_worst(self):
        # A NaN reads as its axis's largest finite value.
        with_nan = [[0, 1.0], [1, np.nan], [2, 0.0], [3, 0.5]]
        with_worst = [[0, 1.0], [1, 1.0], [2, 0.0], [3, 0.5]]
        distance = crowding_distance(with_nan)
        assert not np.any(np.isnan(distance))
        np.testing.assert_array_equal(distance, crowding_distance(with_worst))


class TestKneeIndex:
    def test_constant_axis_normalises_to_zero(self):
        # The middle axis is constant: it must read 0, not NaN, and
        # leave the pick to the other two axes.
        matrix = [[0.0, 5.0, 1.0], [1.0, 5.0, 0.0], [0.5, 5.0, 0.4]]
        assert knee_index(matrix) == 2

    def test_infinite_quality_is_not_the_knee(self):
        # Column 0 normalises over its finite range [0.5, 2], so the inf
        # row reads (1, 1), not NaN; the balanced row 1 is the knee.
        assert knee_index([[np.inf, 5], [1, 1], [2, 0.2], [0.5, 3]]) == 1

    def test_nan_row_is_the_knee_only_when_every_row_has_one(self):
        assert knee_index([[np.nan, 0.0], [1.0, 1.0], [1.0, 2.0]]) == 1
        assert knee_index([[np.nan, 0.0], [np.nan, 1.0]]) == 0

    def test_three_axis_pick_by_hand(self):
        # Normalised rows: (0, 1, 0), (1, 0, 1), (0.6, 0.5, 0.6); L2
        # distances 1, sqrt(2), sqrt(0.97).  Raw L2 would pick row 1.
        matrix = [[0.0, 60.0, 0.0], [1.0, 0.0, 1.0], [0.6, 30.0, 0.6]]
        assert knee_index(matrix) == 2

    @pytest.mark.parametrize("axes", [("latency",), ("energy", "peak-mem"),
                                      ("flops", "latency")])
    @pytest.mark.parametrize("seed", range(5))
    def test_knee_point_agrees_with_matrix_cell(self, axes, seed):
        """``ParetoZeroShotSearch`` and a one-device ``run_matrix`` over
        the same sample build the same front, crowding, front count and
        knee as float hex, whatever the search objective's weights."""
        report = _matrix_report(seed)
        config = report.config
        cell = report.cell(config.devices[0], axes)
        for weights in (ObjectiveWeights(), ObjectiveWeights(latency=0.5)):
            objective = HybridObjective(
                proxy_config=config.proxy_config(), weights=weights,
                macro_config=config.macro_config())
            result = ParetoZeroShotSearch(
                objective, num_samples=config.samples, seed=seed,
                objectives=axes).search()
            assert cell.num_fronts == result.num_fronts
            assert [_hex_row(row, axes) for row in cell.front] == \
                [_hex_point(p, axes) for p in result.front]
            assert _hex_row(cell.knee, axes) == \
                _hex_point(result.knee_point(), axes)


class TestParetoSearch:
    @pytest.fixture(scope="class")
    def result(self, shared_latency_estimator):
        objective = HybridObjective(
            proxy_config=FAST_PROXY,
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=shared_latency_estimator,
        )
        return ParetoZeroShotSearch(objective, num_samples=16, seed=2).search()

    def test_front_non_empty_and_sorted(self, result):
        assert result.front
        latencies = [p.latency_ms for p in result.front]
        assert latencies == sorted(latencies)

    def test_front_mutually_non_dominated(self, result):
        for a in result.front:
            for b in result.front:
                assert not dominates(a.vector(result.axes),
                                     b.vector(result.axes))

    def test_quality_decreases_along_front(self, result):
        """Sorted by latency, quality rank must be non-increasing-better:
        each slower point must buy strictly better (lower) quality."""
        qualities = [p.quality_rank for p in result.front]
        assert qualities == sorted(qualities, reverse=True)

    def test_named_picks(self, result):
        assert result.fastest().latency_ms == result.front[0].latency_ms
        assert result.best_quality().quality_rank == min(
            p.quality_rank for p in result.front)
        knee = result.knee_point()
        assert knee in result.front

    def test_bookkeeping(self, result):
        assert result.population_size == 16
        assert result.num_fronts >= 1
        assert result.wall_seconds > 0

    def test_rejects_tiny_population(self, shared_latency_estimator):
        objective = HybridObjective(proxy_config=FAST_PROXY,
                                    latency_estimator=shared_latency_estimator)
        with pytest.raises(SearchError):
            ParetoZeroShotSearch(objective, num_samples=1)

    def test_knee_point_of_empty_front(self):
        with pytest.raises(SearchError):
            ParetoResult(front=[], population_size=0, wall_seconds=0,
                         num_fronts=0).knee_point()

    def test_flops_objective_supported(self, shared_latency_estimator):
        objective = HybridObjective(
            proxy_config=FAST_PROXY,
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=shared_latency_estimator,
        )
        result = ParetoZeroShotSearch(
            objective, num_samples=10, seed=4,
            objectives=("latency", "flops")).search()
        assert result.axes == ("latency", "flops")
        assert result.front
        for a in result.front:
            for b in result.front:
                assert not dominates(a.vector(result.axes),
                                     b.vector(result.axes))


class _ZeroLatencyEstimator:
    """Estimator reporting a genuine 0.0 ms for everything, with a call
    counter: the sentinel regression below keys on *calls*, not values."""

    precision = "float32"

    def __init__(self, config):
        from repro.engine.cache import IndicatorCache
        from repro.hardware.device import NUCLEO_F746ZG

        self.config = config
        self.device = NUCLEO_F746ZG
        self.cache = IndicatorCache()
        self.profiler = None
        self.calls = 0

    def estimate_ms(self, genotype):
        self.calls += 1
        return 0.0


class TestZeroLatencyRegression:
    """A genuine 0.0 ms estimate from a latency-weighted objective must be
    kept as-is — the old ``latency == 0.0`` sentinel silently re-estimated
    such rows on every scoring pass."""

    def test_zero_latency_rows_not_reestimated(self):
        estimator = _ZeroLatencyEstimator(
            MacroConfig(init_channels=4, cells_per_stage=1, num_classes=10,
                        input_channels=3, image_size=8))
        objective = HybridObjective(
            proxy_config=FAST_PROXY,
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=estimator,
        )
        search = ParetoZeroShotSearch(objective, num_samples=8, seed=3)
        from repro.searchspace import NasBench201Space

        genotypes = NasBench201Space().sample(8, rng=3)
        points = search._score_population(genotypes)
        assert all(p.latency_ms == 0.0 for p in points)
        calls_after_rows = estimator.calls
        assert calls_after_rows > 0
        # Scoring again resolves every row from the cache: the fixed code
        # must not fall back to the estimator just because latency is 0.0.
        search._score_population(genotypes)
        assert estimator.calls == calls_after_rows

    def test_zero_latency_front_still_builds(self):
        estimator = _ZeroLatencyEstimator(
            MacroConfig(init_channels=4, cells_per_stage=1, num_classes=10,
                        input_channels=3, image_size=8))
        objective = HybridObjective(
            proxy_config=FAST_PROXY,
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=estimator,
        )
        result = ParetoZeroShotSearch(objective, num_samples=8,
                                      seed=3).search()
        assert result.front
        assert all(p.latency_ms == 0.0 for p in result.front)


class TestExtraCostAxes:
    def test_energy_axis_front(self, shared_latency_estimator):
        objective = HybridObjective(
            proxy_config=FAST_PROXY,
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=shared_latency_estimator,
        )
        result = ParetoZeroShotSearch(
            objective, num_samples=10, seed=5,
            objectives=("latency", "energy")).search()
        assert result.axes == ("latency", "energy")
        assert result.front
        for point in result.front:
            assert point.cost("energy") > 0.0
            assert point.cost("latency") == point.latency_ms
        ordering = [p.cost("latency") for p in result.front]
        assert ordering == sorted(ordering)

    def test_missing_axis_rejected(self):
        point = ParetoPoint(genotype=Genotype(("skip_connect",) * 6),
                            quality_rank=1.0, latency_ms=2.0, flops=3.0)
        with pytest.raises(SearchError, match="no cost axis"):
            point.cost("peak-mem")

    def test_duplicate_axes_rejected(self, shared_latency_estimator):
        objective = HybridObjective(
            proxy_config=FAST_PROXY,
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=shared_latency_estimator,
        )
        with pytest.raises(SearchError):
            ParetoZeroShotSearch(objective, num_samples=8,
                                 objectives=("latency", "latency"))


class _PerGenotypeSearch(ParetoZeroShotSearch):
    """Oracle: every sampled genotype re-read through
    ``genotype_indicators`` and priced on every axis by a per-genotype
    ``Engine.cost`` — one price per axis, whatever the weights."""

    def _score_population(self, genotypes):
        self.objective.evaluate_population(genotypes)
        rows = [self.objective.genotype_indicators(g) for g in genotypes]
        trainless = self.objective.with_weights(ObjectiveWeights())
        quality = trainless.combined_ranks(rows)
        engine = self.objective.engine
        points = []
        for genotype, row, q in zip(genotypes, rows, quality):
            costs = {axis: float(engine.cost(genotype, axis))
                     for axis in self.axes}
            points.append(ParetoPoint(
                genotype=genotype, quality_rank=float(q),
                latency_ms=costs.pop("latency", float(row["latency"])),
                flops=costs.pop("flops", float(row["flops"])),
                costs=tuple(sorted(costs.items()))))
        return points


def _hex_front(result):
    """Every float of a result's front, crowding and knee, as float hex."""
    def point(p):
        return (p.genotype.to_index(), p.quality_rank.hex(),
                p.latency_ms.hex(), p.flops.hex(), p.crowding.hex(),
                tuple((axis, value.hex()) for axis, value in p.costs))
    return ([point(p) for p in result.front], result.num_fronts,
            point(result.knee_point()))


AXIS_SETS = [None, ("latency", "energy"), ("peak-mem", "flops", "latency")]


class TestScoringFromThePopulationTable:
    """Scoring from the population table's unique canonical forms gives
    the per-genotype oracle's fronts, crowding and knees as float hex."""

    @pytest.mark.parametrize("weights", [ObjectiveWeights(latency=0.5),
                                         ObjectiveWeights(flops=0.3),
                                         ObjectiveWeights()])
    @pytest.mark.parametrize("axes", AXIS_SETS)
    def test_fronts_equal_the_per_genotype_oracle(
            self, shared_latency_estimator, weights, axes):
        objective = HybridObjective(
            proxy_config=FAST_PROXY, weights=weights,
            latency_estimator=shared_latency_estimator)
        for seed in range(5):
            searches = [cls(objective, num_samples=24, seed=seed,
                            objectives=axes)
                        for cls in (_PerGenotypeSearch, ParetoZeroShotSearch)]
            oracle, table = (s.search() for s in searches)
            assert _hex_front(table) == _hex_front(oracle)


class TestOneFrontWhateverTheWeights:
    """Each cost axis has one price, so the objective's weights choose
    nothing about a sample's front: unweighted, latency-weighted and
    FLOPs-weighted objectives return the same front, crowding and knee
    as float hex, non-canonical genotypes included."""

    @pytest.mark.parametrize("axes", AXIS_SETS)
    def test_front_independent_of_weights(self, shared_latency_estimator,
                                          axes):
        weightings = [ObjectiveWeights(), ObjectiveWeights(latency=0.5),
                      ObjectiveWeights(flops=0.3),
                      ObjectiveWeights(flops=0.25, latency=0.75)]
        for seed in range(3):
            fronts = [_hex_front(ParetoZeroShotSearch(
                HybridObjective(proxy_config=FAST_PROXY, weights=weights,
                                latency_estimator=shared_latency_estimator),
                num_samples=16, seed=seed, objectives=axes).search())
                for weights in weightings]
            assert all(front == fronts[0] for front in fronts[1:])

    def test_non_canonical_latency_is_the_canonical_price(
            self, shared_latency_estimator):
        from repro.searchspace.canonical import canonicalize

        objective = HybridObjective(proxy_config=FAST_PROXY,
                                    latency_estimator=shared_latency_estimator)
        search = ParetoZeroShotSearch(objective, num_samples=16, seed=0)
        genotypes = search.space.sample(16, rng=0)
        points = search._score_population(genotypes)
        assert any(canonicalize(g) != g for g in genotypes)
        for genotype, point in zip(genotypes, points):
            assert point.latency_ms == shared_latency_estimator.estimate_ms(
                canonicalize(genotype))


@functools.lru_cache(maxsize=None)
def _matrix_report(seed):
    """A one-device matrix run over 24 samples, with the axis sets of
    ``TestKneeIndex.test_knee_point_agrees_with_matrix_cell``."""
    from repro.runtime import RunHarness, RuntimeConfig

    return RunHarness(RuntimeConfig(
        samples=24, seed=seed, fast=True, devices=("nucleo-f746zg",),
        objectives=("latency", "energy,peak-mem", "flops,latency"),
    )).run_matrix()


def _hex_row(row, axes):
    return (row["arch_index"], row["quality_rank"].hex(),
            row["crowding"].hex(), tuple(row[a].hex() for a in axes))


def _hex_point(point, axes):
    return (point.genotype.to_index(), point.quality_rank.hex(),
            point.crowding.hex(), tuple(point.cost(a).hex() for a in axes))
