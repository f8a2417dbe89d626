"""Device-matrix cells against a per-genotype oracle, bit for bit.

A matrix run prices each (device, axis) column once per unique canonical
cell and gathers it back to sample order.  The oracle here prices every
sampled genotype on its own through ``Engine.cost`` and sorts with the
full :func:`~repro.search.pareto.non_dominated_sort`; each cell's front
rows, crowding, knee and front count must match it as float hex, from a
cold store and from a warm one.
"""

from collections import Counter

import numpy as np
import pytest

from repro.hardware.device import get_device
from repro.runtime import RunHarness, RuntimeConfig
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.search.pareto import (
    crowding_distance,
    knee_index,
    non_dominated_sort,
)
from repro.searchspace.space import NasBench201Space

pytestmark = pytest.mark.hw

DEVICES = ("nucleo-f746zg", "nucleo-l432kc")
OBJECTIVES = ("latency", "energy,peak-mem", "flops,latency")

#: The benchmark's warm device-matrix workload (``perfbench`` matrix-warm).
BENCH_MATRIX = dict(samples=512, seed=0, fast=True, devices=DEVICES,
                    objectives=("latency", "energy,peak-mem"))


def _hex(value):
    return float(value).hex() if isinstance(value, float) else value


def _hex_cell(front, knee, num_fronts):
    rows = [{key: _hex(value) for key, value in row.items()}
            for row in front]
    return rows, {key: _hex(value) for key, value in knee.items()}, num_fronts


def oracle_cells(harness):
    """Every cell recomputed per genotype from the harness's cache."""
    config = harness.config
    engine = harness.engine
    genotypes = NasBench201Space().sample(config.samples, rng=config.seed)
    trainless = HybridObjective(weights=ObjectiveWeights(), engine=engine)
    quality = np.asarray(trainless.combined_ranks([
        {"ntk": engine.ntk(g), "linear_regions": engine.linear_regions(g),
         "flops": engine.flops(g), "latency": 0.0} for g in genotypes]),
        dtype=float)
    cells = {}
    for device in config.devices:
        device_engine = engine.for_device(get_device(device))
        for axes in config.objective_sets():
            columns = {axis: np.array([device_engine.cost(g, axis)
                                       for g in genotypes], dtype=float)
                       for axis in axes}
            vectors = np.column_stack([quality]
                                      + [columns[a] for a in axes])
            fronts = non_dominated_sort(vectors)
            first = fronts[0]
            crowd = crowding_distance(vectors[first])
            rows = sorted((
                {"arch_str": genotypes[i].to_arch_str(),
                 "arch_index": genotypes[i].to_index(),
                 "quality_rank": float(quality[i]),
                 "crowding": float(c),
                 **{axis: float(columns[axis][i]) for axis in axes}}
                for i, c in zip(first, crowd)),
                key=lambda row: row[axes[0]])
            knee = knee_index([[row["quality_rank"]] + [row[a] for a in axes]
                               for row in rows])
            cells[(device, axes)] = _hex_cell(rows, rows[knee], len(fronts))
    return cells


def assert_matches_oracle(harness, report):
    expected = oracle_cells(harness)
    assert len(report.cells) == len(expected)
    for cell in report.cells:
        got = _hex_cell(cell.front, cell.knee, cell.num_fronts)
        assert got == expected[(cell.device, tuple(cell.objectives))], (
            cell.device, cell.objectives)


def cold_then_warm(store_dir, **fields):
    """Run the matrix into a fresh store, then again from it; check both."""
    reports = []
    for _ in range(2):
        harness = RunHarness(RuntimeConfig(store_dir=store_dir, **fields))
        report = harness.run_matrix()
        assert_matches_oracle(harness, report)
        reports.append(report)
    cold, warm = reports
    assert cold.trainless_evals["rows_computed"] == 3 * cold.unique_canonical
    assert warm.trainless_evals["rows_computed"] == 0
    return cold, warm


@pytest.mark.parametrize("seed", (0, 3, 7))
def test_cells_match_per_genotype_oracle(tmp_path, seed):
    cold, warm = cold_then_warm(str(tmp_path / "store"), samples=48,
                                seed=seed, fast=True, devices=DEVICES,
                                objectives=OBJECTIVES)
    # Duplicates in the sample are what the one-pass pricing skips.
    assert cold.unique_canonical < cold.samples
    assert len(cold.cells) == len(DEVICES) * len(OBJECTIVES)
    for cell in cold.cells:
        twin = warm.cell(cell.device, tuple(cell.objectives))
        assert _hex_cell(cell.front, cell.knee, cell.num_fronts) == \
            _hex_cell(twin.front, twin.knee, twin.num_fronts)


@pytest.mark.slow
def test_benchmark_matrix_matches_oracle(tmp_path):
    _, warm = cold_then_warm(str(tmp_path / "store"), **BENCH_MATRIX)
    assert warm.unique_canonical == 411
    assert warm.cell("nucleo-f746zg", ("latency",)).knee["arch_index"] == 8046


def test_cost_models_price_each_canonical_cell_once(monkeypatch):
    """On a cold run each (device, axis) model's ``estimate`` runs at most
    once per unique canonical cell, however often the sample repeats it."""
    from repro.search import costs

    calls = {}

    def counting(cls):
        estimate = cls.estimate

        def wrapped(self, genotype):
            key = (id(self), self.name, genotype.to_index())
            calls[key] = calls.get(key, 0) + 1
            return estimate(self, genotype)

        monkeypatch.setattr(cls, "estimate", wrapped)

    for cls in (costs.LatencyCostModel, costs.EnergyCostModel,
                costs.PeakMemoryCostModel, costs.FlopsCostModel):
        counting(cls)
    harness = RunHarness(RuntimeConfig(samples=64, seed=3, fast=True,
                                       devices=DEVICES,
                                       objectives=OBJECTIVES))
    report = harness.run_matrix()
    assert report.unique_canonical < report.samples
    assert calls and max(calls.values()) == 1
    priced = Counter(key[:2] for key in calls)
    # Latency and energy are priced on each board.  Peak memory does not
    # depend on the board, so the second board reads the first board's
    # rows.  FLOPs are priced once, by the engine's model, for the
    # trainless table (pool workers compute proxies only).
    assert sorted(name for _, name in priced) == \
        ["energy", "energy", "flops", "latency", "latency", "peak-mem"]
    assert set(priced.values()) == {report.unique_canonical}
