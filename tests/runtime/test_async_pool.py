"""Async executor: completion-order independence, fuzzing, steady-state.

The determinism contract under test: no matter in which order chunk
futures resolve — reversed, interleaved, rotated, with duplicate
genotypes in flight — the merged cache and every assembled
``IndicatorTable`` are bit-identical to serial evaluation.
"""

import random

import numpy as np
import pytest

from repro.engine import Engine
from repro.errors import SearchError
from repro.runtime.async_pool import (
    AsyncPopulationExecutor,
    ChunkGatherError,
    FuturePool,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.pool import _evaluate_genotype_chunk
from repro.search.objective import HybridObjective
from repro.searchspace.canonical import canonicalize
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CANDIDATE_OPS
from repro.searchspace.space import NasBench201Space


@pytest.fixture()
def population():
    space = NasBench201Space()
    sample = space.sample(8, rng=21)
    return sample + sample[:3]  # duplicates exercise canonical dedupe


def _engine(tiny_proxy_config, executor=None):
    return Engine(proxy_config=tiny_proxy_config, executor=executor)


# ----------------------------------------------------------------------
# Adversarial completion orders
# ----------------------------------------------------------------------
def _reversed_order(pending):
    return list(reversed(pending))


def _interleaved_order(pending):
    return pending[::2] + pending[1::2]


def _rotated_order(pending):
    return pending[3:] + pending[:3]


def _shuffled_order(seed):
    def order(pending):
        out = list(pending)
        random.Random(seed).shuffle(out)
        return out

    return order


ADVERSARIAL_ORDERS = [
    _reversed_order,
    _interleaved_order,
    _rotated_order,
    _shuffled_order(1),
    _shuffled_order(2),
]


class OrderFuzzedAsyncExecutor(AsyncPopulationExecutor):
    """Serial async executor whose futures resolve in an adversarial
    order: the pending queue is permuted before every gather, so chunks
    "complete" reversed / interleaved / shuffled instead of FIFO."""

    def __init__(self, order, chunk_size=2):
        super().__init__(n_workers=1, chunk_size=chunk_size, mode="serial")
        self._order = order

    def gather(self, k=1):
        self.pool._pending = self._order(self.pool._pending)
        return super().gather(k)


class TestCompletionOrderFuzzing:
    @pytest.mark.parametrize("order", ADVERSARIAL_ORDERS,
                             ids=["reversed", "interleaved", "rotated",
                                  "shuffle1", "shuffle2"])
    def test_fuzzed_orders_bit_identical_table(self, tiny_proxy_config,
                                               population, order):
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        executor = OrderFuzzedAsyncExecutor(order, chunk_size=2)
        fuzzed = _engine(tiny_proxy_config,
                         executor).evaluate_population(population)
        assert fuzzed.unique_canonical == serial.unique_canonical
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          fuzzed.columns[name])

    @pytest.mark.parametrize("order", ADVERSARIAL_ORDERS,
                             ids=["reversed", "interleaved", "rotated",
                                  "shuffle1", "shuffle2"])
    def test_fuzzed_incremental_gather_identical(self, tiny_proxy_config,
                                                 population, order):
        """gather(1) in adversarial completion order, one chunk at a time."""
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        engine = _engine(tiny_proxy_config)
        executor = OrderFuzzedAsyncExecutor(order, chunk_size=1)
        executor.submit_population(engine, population)
        landed = []
        while executor.num_pending:
            for chunk in executor.gather(1):
                landed.extend(chunk.canonical_indices)
        assert sorted(landed) == sorted(set(landed))  # no index twice
        table = engine.evaluate_population(population)
        # Every proxy row was pre-merged; only FLOPs are priced here.
        assert table.cache_misses == table.unique_canonical
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          table.columns[name])

    def test_duplicate_genotype_population_in_flight(self,
                                                     tiny_proxy_config):
        """A population that is one genotype many times (plus canonical
        twins) must ship exactly one chunk and merge exactly once."""
        base = Genotype.from_arch_str(
            "|nor_conv_3x3~0|+|none~0|none~1|+|skip_connect~0|none~1|none~2|"
        )
        # Canonical twin: differs from `base` only on edge 1->2, which is
        # dead either way (node 2's only outgoing edge is none), so both
        # canonicalize identically.
        twin = base.with_op(2, "nor_conv_3x3")
        from repro.searchspace.canonical import canonicalize

        assert canonicalize(twin) == canonicalize(base)
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=4,
                                           mode="serial")
        shipped = executor.submit_population(engine, [base, twin] * 5)
        assert shipped == 1
        assert executor.submit_population(engine, [twin, base]) == 0
        merged = sum(c.merged_rows for c in executor.gather_all())
        assert merged == 2  # ntk + linear_regions, once
        serial = _engine(tiny_proxy_config).evaluate_population([base, twin])
        warm = engine.evaluate_population([base, twin])
        assert warm.cache_misses == 1  # the driver's one FLOPs row
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          warm.columns[name])

    def test_double_delivery_first_write_wins(self, tiny_proxy_config,
                                              population):
        """Re-warming an already-merged population changes nothing."""
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                           mode="serial")
        first = executor.warm_population(engine, population,
                                        assume_canonical=False)
        snapshot = dict(engine.cache.items())
        second = executor.warm_population(engine, population,
                                         assume_canonical=False)
        assert first > 0 and second == 0
        assert dict(engine.cache.items()) == snapshot


class TestWorkerFailureRecovery:
    """A poisoned chunk must not wedge the pool or leak in-flight claims."""

    def test_failed_task_leaves_pool_drainable(self):
        pool = FuturePool(n_workers=1, mode="serial")

        def worker(payload):
            if payload == "boom":
                raise ValueError("poisoned chunk")
            return payload

        for payload in ("ok1", "boom", "ok2"):
            pool.submit(worker, payload)
        results = pool.gather_all()
        assert pool.num_pending == 0  # failed task left the queue too
        assert [r.value for r in results] == ["ok1", None, "ok2"]
        assert isinstance(results[1].error, ValueError)

    def test_all_failed_gather_still_counts_as_gather(self,
                                                      tiny_proxy_config,
                                                      population):
        """Regression: a gather whose every chunk failed used to skip
        ``stats.gathers``, understating in reports how often the loop
        synchronised with the pool."""

        def dead_worker(payload):
            raise ValueError("worker died")

        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=100,
                                           mode="serial",
                                           genotype_worker=dead_worker)
        assert executor.submit_population(engine, population) == 1
        with pytest.raises(ChunkGatherError) as info:
            executor.gather_all()
        assert info.value.gathered == []  # nothing landed...
        assert executor.stats.gathers == 1  # ...but the gather happened

    def test_on_gather_hook_fires_even_on_all_failure(self,
                                                      tiny_proxy_config,
                                                      population):
        def dead_worker(payload):
            raise ValueError("worker died")

        flushes = []
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=100,
                                           mode="serial",
                                           genotype_worker=dead_worker)
        executor.on_gather = flushes.append
        executor.submit_population(engine, population)
        with pytest.raises(ChunkGatherError):
            executor.gather_all()
        assert flushes == [[]]
        assert executor.stats.flushes == 1

    def test_flush_error_never_masks_chunk_gather_error(self,
                                                        tiny_proxy_config,
                                                        population):
        """A store hiccup in the flush hook must not swallow the worker
        failures (and landed siblings) ChunkGatherError carries."""
        calls = {"n": 0}

        def flaky_worker(payload):
            from repro.runtime.pool import _evaluate_genotype_chunk

            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("worker died")
            return _evaluate_genotype_chunk(payload)

        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=4,
                                           mode="serial",
                                           genotype_worker=flaky_worker)
        def broken_flush(gathered):
            raise OSError("disk full")

        executor.on_gather = broken_flush
        executor.submit_population(engine, population)
        with pytest.raises(ChunkGatherError) as info:
            executor.gather_all()
        assert isinstance(info.value.__cause__, ValueError)
        assert len(info.value.gathered) >= 1  # siblings still delivered

    def test_flush_error_surfaces_when_no_worker_failed(
            self, tiny_proxy_config, population):
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=4,
                                           mode="serial")

        def broken_flush(gathered):
            raise OSError("disk full")

        executor.on_gather = broken_flush
        executor.submit_population(engine, population)
        with pytest.raises(OSError, match="disk full"):
            executor.gather_all()
        # The chunks themselves landed: their rows are in the cache, and
        # only FLOPs are priced here.
        table = engine.evaluate_population(population)
        assert table.cache_misses == table.unique_canonical

    def test_on_gather_hook_receives_landed_chunks(self, tiny_proxy_config,
                                                   population):
        flushes = []
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=3,
                                           mode="serial")
        executor.on_gather = flushes.append
        executor.submit_population(engine, population)
        merged = sum(chunk.merged_rows for chunk in executor.gather_all())
        assert merged > 0
        assert len(flushes) == 1
        assert sum(c.merged_rows for c in flushes[0]) == merged

    def test_executor_raises_but_releases_claims(self, tiny_proxy_config,
                                                 population):
        calls = {"n": 0}

        def flaky_worker(payload):
            from repro.runtime.pool import _evaluate_genotype_chunk

            calls["n"] += 1
            if calls["n"] == 2:  # second chunk is poisoned, once
                raise ValueError("worker died")
            return _evaluate_genotype_chunk(payload)

        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                           mode="serial",
                                           genotype_worker=flaky_worker)
        shipped = executor.submit_population(engine, population)
        with pytest.raises(ChunkGatherError) as info:
            executor.gather_all()
        # The error carries everything that still landed plus the cause.
        assert isinstance(info.value.__cause__, ValueError)
        assert len(info.value.failures) == 1
        assert len(info.value.gathered) == shipped - 1
        # Sibling chunks gathered in the same call merged before the
        # raise, the failed chunk's claims were released, and the
        # executor is reusable: resubmission re-ships ONLY the failed
        # candidates and completes bit-identically to serial.
        assert executor.num_pending == 0
        assert executor.submit_population(engine, population) == 1
        assert executor.gather_all()[0].merged_rows > 0
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        table = engine.evaluate_population(population)
        assert table.cache_misses == table.unique_canonical  # FLOPs only
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          table.columns[name])


class TestDropInExecutorHooks:
    def test_warm_population_matches_serial(self, tiny_proxy_config,
                                            population):
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        for mode, workers in (("serial", 1), ("fork", 2), ("thread", 2)):
            with AsyncPopulationExecutor(n_workers=workers, chunk_size=3,
                                         mode=mode) as executor:
                table = _engine(tiny_proxy_config,
                                executor).evaluate_population(population)
                assert executor.stats.mode == mode
                for name in serial.columns:
                    np.testing.assert_array_equal(serial.columns[name],
                                                  table.columns[name])

    def test_warm_supernets_matches_serial(self, tiny_proxy_config):
        base = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
        states = [[base[0].without(op)] + base[1:]
                  for op in CANDIDATE_OPS[:3]]
        serial_rows = HybridObjective(
            engine=_engine(tiny_proxy_config)
        ).supernet_population(states)
        with AsyncPopulationExecutor(n_workers=1, chunk_size=1,
                                     mode="serial") as executor:
            async_obj = HybridObjective(
                engine=_engine(tiny_proxy_config, executor))
            assert async_obj.supernet_population(states) == serial_rows
            assert executor.stats.tasks == len(states)

    def test_search_loop_executor_hook(self, tiny_proxy_config):
        from repro.search.random_search import ZeroShotRandomSearch

        serial = ZeroShotRandomSearch(
            HybridObjective(engine=_engine(tiny_proxy_config)),
            num_samples=6, seed=4,
        ).search()
        with AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                     mode="serial") as executor:
            pooled = ZeroShotRandomSearch(
                HybridObjective(engine=_engine(tiny_proxy_config, executor)),
                num_samples=6, seed=4,
            ).search()
        assert pooled.genotype == serial.genotype
        assert executor.stats.merged_rows > 0


class TestFuturePoolMechanics:
    def test_serial_gather_is_fifo_and_lazy(self):
        pool = FuturePool(n_workers=1, mode="serial")
        log = []

        def worker(payload):
            log.append(payload)
            return payload * 10

        for i in range(4):
            pool.submit(worker, i, tag=f"t{i}")
        assert log == []  # nothing ran at submit time
        first = pool.gather(2)
        assert [r.value for r in first] == [0, 10]
        assert [r.tag for r in first] == ["t0", "t1"]
        assert pool.num_pending == 2
        rest = pool.gather_all()
        assert [r.value for r in rest] == [20, 30]
        assert log == [0, 1, 2, 3]
        assert pool.gather_all() == []

    def test_gather_clamps_and_validates_k(self):
        pool = FuturePool(n_workers=1, mode="serial")
        with pytest.raises(SearchError):
            pool.gather(0)
        assert pool.gather(5) == []  # nothing pending
        pool.submit(lambda x: x, 1)
        assert len(pool.gather(99)) == 1

    def test_thread_mode_round_trips(self):
        with FuturePool(n_workers=2, mode="thread") as pool:
            for i in range(5):
                pool.submit(lambda x: x + 1, i)
            values = sorted(r.value for r in pool.gather_all())
            assert values == [1, 2, 3, 4, 5]

    def test_idle_fraction_accounting(self, tiny_proxy_config, population):
        """The executor derives utilisation from the worker spans."""
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=4,
                                           mode="serial")
        # Nothing gathered yet: "no data", not "fully utilised".
        assert executor.stats.idle_fraction is None
        executor.submit_population(_engine(tiny_proxy_config), population)
        assert executor.stats.idle_fraction is None
        executor.gather_all()
        fraction = executor.stats.idle_fraction
        assert fraction is not None
        assert 0.0 <= fraction <= 1.0
        # One serial worker: every span lies inside the window.
        assert 0.0 < executor.stats.worker_seconds \
            <= executor.stats.span_seconds

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SearchError):
            FuturePool(n_workers=0)
        with pytest.raises(SearchError):
            FuturePool(mode="quantum")
        with pytest.raises(SearchError):
            AsyncPopulationExecutor(chunk_size=0)


class MinimalPool:
    """A stand-in transport with only the seven members the executor
    relies on, wrapping a serial :class:`FuturePool`.  ``__slots__``
    keeps the executor from writing any other attribute onto it."""

    __slots__ = ("_inner", "mode", "n_workers")

    def __init__(self):
        self._inner = FuturePool(n_workers=1, mode="serial")
        self.mode = "minimal"
        self.n_workers = 1

    def submit(self, worker, payload, tag=None):
        return self._inner.submit(worker, payload, tag=tag)

    def gather(self, k=1):
        return self._inner.gather(k)

    @property
    def num_pending(self):
        return self._inner.num_pending

    @property
    def respawns(self):
        return self._inner.respawns

    def close(self):
        self._inner.close()


class TestTransportContract:
    def test_executor_keeps_the_books_over_a_minimal_pool(
            self, tiny_proxy_config, tmp_path):
        """A clean chunk lands and a poisoned one raises; the executor
        books both from the task results alone."""
        good, bad = NasBench201Space().sample(2, rng=5)
        worker = FaultPlan(
            state_path=str(tmp_path / "faults"),
            script={canonicalize(bad).to_index(): ("poison",)},
        ).wrap(_evaluate_genotype_chunk)
        engine = _engine(tiny_proxy_config)
        with AsyncPopulationExecutor(chunk_size=1, genotype_worker=worker,
                                     pool=MinimalPool()) as executor:
            assert executor.submit_population(engine, [good, bad]) == 2
            with pytest.raises(ChunkGatherError) as info:
                executor.gather_all()
        (landed,) = info.value.gathered
        assert landed.canonical_indices == (canonicalize(good).to_index(),)
        assert landed.worker_seconds > 0.0
        stats = executor.stats
        assert (stats.mode, stats.n_workers) == ("minimal", 1)
        assert (stats.gathers, stats.tasks) == (1, 1)
        assert (stats.timeouts, stats.respawns) == (0, 0)
        # The raising worker was busy too.
        assert stats.worker_seconds > landed.worker_seconds
        assert 0.0 <= stats.idle_fraction <= 1.0
        serial = _engine(tiny_proxy_config).evaluate_population([good])
        table = engine.evaluate_population([good])
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          table.columns[name])


class TestSteadyStateSearch:
    def _objective(self, tiny_proxy_config, executor=None):
        return HybridObjective(engine=_engine(tiny_proxy_config, executor))

    def _search(self, tiny_proxy_config, executor=None, seed=5, cycles=8):
        from repro.search.evolutionary import (
            EvolutionConfig,
            SteadyStateEvolutionarySearch,
        )

        return SteadyStateEvolutionarySearch(
            self._objective(tiny_proxy_config, executor),
            EvolutionConfig(population_size=5, sample_size=2, cycles=cycles),
            seed=seed,
        )

    def test_serial_runs_are_reproducible(self, tiny_proxy_config):
        first = self._search(tiny_proxy_config).search()
        second = self._search(tiny_proxy_config).search()
        assert first.genotype == second.genotype
        assert first.indicators == second.indicators

    def test_trajectory_pure_function_of_completion_order(
        self, tiny_proxy_config
    ):
        for order in (_reversed_order, _shuffled_order(3)):
            runs = [
                self._search(
                    tiny_proxy_config,
                    executor=OrderFuzzedAsyncExecutor(order, chunk_size=1),
                ).search()
                for _ in range(2)
            ]
            assert runs[0].genotype == runs[1].genotype
            assert runs[0].indicators == runs[1].indicators

    def test_indicators_bit_identical_to_serial_engine(self,
                                                       tiny_proxy_config):
        result = self._search(tiny_proxy_config).search()
        fresh = _engine(tiny_proxy_config).evaluate(
            result.genotype, with_latency=False
        )
        assert result.indicators == fresh

    def test_budget_accounting(self, tiny_proxy_config):
        search = self._search(tiny_proxy_config, cycles=7)
        result = search.search()
        # population_size + cycles candidates were submitted, exactly.
        assert result.ledger.counts["evolution_candidates"] == 5 + 7

    def test_warm_cache_fast_path_commits_without_futures(
        self, tiny_proxy_config
    ):
        objective = self._objective(tiny_proxy_config)
        from repro.search.evolutionary import (
            EvolutionConfig,
            SteadyStateEvolutionarySearch,
        )

        config = EvolutionConfig(population_size=5, sample_size=2, cycles=6)
        SteadyStateEvolutionarySearch(objective, config, seed=5).search()
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=1,
                                           mode="serial")
        # A second engine over the same cache, running on a fresh executor.
        warm = HybridObjective(engine=Engine(
            proxy_config=tiny_proxy_config, cache=objective.engine.cache,
            executor=executor))
        rerun = SteadyStateEvolutionarySearch(warm, config, seed=5).search()
        # Same seed over a warm cache: the whole trajectory replays from
        # cache hits; at most a handful of late-breaking children miss.
        assert executor.stats.chunks <= 2
        assert rerun.genotype is not None

    def test_fork_mode_completes_and_closes(self, tiny_proxy_config):
        import multiprocessing

        with AsyncPopulationExecutor(n_workers=2, chunk_size=1) as executor:
            result = self._search(tiny_proxy_config,
                                  executor=executor).search()
            assert result.genotype is not None
        assert multiprocessing.active_children() == []
