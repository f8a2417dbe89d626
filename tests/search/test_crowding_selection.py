"""Crowding-distance-weighted parent selection (steady-state evolution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.proxies.base import ProxyConfig
from repro.search.evolutionary import (
    EvolutionConfig,
    SteadyStateEvolutionarySearch,
)
from repro.search.objective import HybridObjective
from repro.search.pareto import (
    crowding_distance,
    crowding_selection_weights,
    non_dominated_sort,
)
from repro.searchspace.genotype import Genotype


def _front():
    """A 5-point front: two boundary points, one lonely interior point,
    two tightly clustered interior points."""
    return np.array([
        [0.0, 10.0],   # boundary (inf crowding)
        [1.0, 8.0],    # clustered with the next point
        [1.1, 7.9],    # clustered
        [5.0, 3.0],    # lonely interior point
        [10.0, 0.0],   # boundary (inf crowding)
    ])


def test_weights_are_a_distribution():
    weights = crowding_selection_weights(_front())
    assert weights.shape == (5,)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0)


def test_selection_probabilities_follow_crowding_order():
    """The satellite contract: probability ordering == crowding ordering."""
    points = _front()
    distance = crowding_distance(points)
    weights = crowding_selection_weights(points)
    # Compare every pair: lonelier never gets a smaller probability, and
    # strictly lonelier (among finite distances) gets strictly more.
    for i in range(len(points)):
        for j in range(len(points)):
            if distance[i] > distance[j] or (
                np.isinf(distance[i]) and np.isfinite(distance[j])
            ):
                assert weights[i] > weights[j], (i, j)
            elif distance[i] == distance[j]:
                assert weights[i] == pytest.approx(weights[j])


def test_empirical_frequencies_follow_crowding_order():
    points = _front()
    weights = crowding_selection_weights(points)
    rng = np.random.default_rng(0)
    picks = rng.choice(len(points), size=20_000, p=weights)
    frequencies = np.bincount(picks, minlength=len(points)) / picks.size
    # The lonely interior point (index 3) beats the clustered ones (1, 2);
    # boundary points beat everyone.
    assert frequencies[3] > frequencies[1]
    assert frequencies[3] > frequencies[2]
    assert frequencies[0] > frequencies[3]
    assert frequencies[4] > frequencies[3]
    np.testing.assert_allclose(frequencies, weights, atol=0.02)


def test_degenerate_fronts_fall_back_to_uniform():
    # <= 2 points: every distance is inf.
    np.testing.assert_allclose(
        crowding_selection_weights(np.array([[0.0, 1.0], [1.0, 0.0]])),
        [0.5, 0.5],
    )
    # Coincident points: zero spread on every axis.
    np.testing.assert_allclose(
        crowding_selection_weights(np.full((4, 2), 3.0)),
        np.full(4, 0.25),
    )


def test_infinite_objectives_are_handled():
    """κ = inf candidates can sit on the front via their other axes."""
    points = np.array([
        [np.inf, 0.0],
        [1.0, 5.0],
        [2.0, 4.0],
        [3.0, 1.0],
    ])
    weights = crowding_selection_weights(points)
    assert np.all(np.isfinite(weights))
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0)


def test_empty_front_rejected():
    with pytest.raises(SearchError):
        crowding_selection_weights(np.empty((0, 2)))


# ----------------------------------------------------------------------
# Search-loop integration
# ----------------------------------------------------------------------
def _search(parent_selection, seed=0):
    from repro.eval.benchconfig import reduced_proxy_config

    objective = HybridObjective(proxy_config=reduced_proxy_config(seed=0))
    return SteadyStateEvolutionarySearch(
        objective,
        EvolutionConfig(population_size=6, sample_size=2, cycles=8),
        seed=seed,
        parent_selection=parent_selection,
    )


def test_unknown_parent_selection_rejected():
    with pytest.raises(SearchError):
        _search("roulette")


@pytest.mark.parametrize("parent_selection", ["crowding", "uniform"])
def test_steady_state_runs_under_both_selection_modes(parent_selection):
    result = _search(parent_selection).search()
    assert result.genotype is not None
    assert result.algorithm == "evolutionary-steady-state"
    assert "ntk" in result.indicators


# ----------------------------------------------------------------------
# Parents from the first front alone
# ----------------------------------------------------------------------
TINY_PROXY = ProxyConfig(init_channels=4, cells_per_stage=1, input_size=8,
                         ntk_batch_size=8, lr_num_samples=32,
                         lr_input_size=4, lr_channels=2, seed=9)


def _full_sort_parents(self, population):
    """``_pareto_parents`` built on front 0 of the ordered full sort."""
    vectors = np.array([vector for _, vector in population], dtype=float)
    front = non_dominated_sort(vectors)[0]
    parents = [population[i][0] for i in front]
    if self.parent_selection != "crowding":
        return parents, None
    return parents, crowding_selection_weights(vectors[front])


@st.composite
def tied_populations(draw):
    """Objective vectors of 2-4 axes with ties, ±inf and NaN."""
    n = draw(st.integers(1, 40))
    m = draw(st.sampled_from([2, 2, 3, 4]))
    values = st.one_of(st.integers(0, 4).map(float),
                       st.sampled_from([np.inf, -np.inf, np.nan]))
    flat = draw(st.lists(values, min_size=n * m, max_size=n * m))
    vectors = np.array(flat, dtype=float).reshape(n, m)
    return [(Genotype.from_index(i), tuple(vector))
            for i, vector in enumerate(vectors)]


@pytest.mark.parametrize("parent_selection", ["crowding", "uniform"])
@settings(max_examples=60, deadline=None)
@given(population=tied_populations())
def test_parents_equal_the_full_sort_front(parent_selection, population):
    search = SteadyStateEvolutionarySearch(
        HybridObjective(proxy_config=TINY_PROXY),
        parent_selection=parent_selection)
    parents, weights = search._pareto_parents(population)
    expected, expected_weights = _full_sort_parents(search, population)
    assert parents == expected
    if expected_weights is None:
        assert weights is None
    else:
        np.testing.assert_array_equal(weights, expected_weights)


@pytest.mark.parametrize("parent_selection", ["crowding", "uniform"])
def test_search_history_unchanged_by_the_front_builder(monkeypatch,
                                                       parent_selection):
    """A whole steady-state run, with its history, is the run the full
    sort's front 0 gives."""
    def run():
        return SteadyStateEvolutionarySearch(
            HybridObjective(proxy_config=TINY_PROXY),
            EvolutionConfig(population_size=8, sample_size=2, cycles=120),
            seed=1, parent_selection=parent_selection).search()

    result = run()
    monkeypatch.setattr(SteadyStateEvolutionarySearch, "_pareto_parents",
                        _full_sort_parents)
    expected = run()
    assert len(result.history) == 2
    assert result.history == expected.history
    assert result.genotype == expected.genotype
    assert result.ledger.counts == expected.ledger.counts
