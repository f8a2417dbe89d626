"""Device-matrix runs: one trainless pass shared across every cell."""

import pytest

from repro.errors import SearchError
from repro.runtime import DeviceMatrixReport, RuntimeConfig, run_matrix

pytestmark = pytest.mark.hw

DEVICES = ("nucleo-f746zg", "nucleo-l432kc")


def _matrix_config(**overrides):
    defaults = dict(samples=8, seed=3, fast=True,
                    devices=DEVICES,
                    objectives=("latency", "energy,peak-mem"))
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


class TestConfigValidation:
    def test_unknown_matrix_device_rejected(self):
        from repro.runtime import RunHarness

        with pytest.raises(SearchError, match="unknown matrix device"):
            RunHarness(_matrix_config(devices=("nucleo-f746zg",
                                               "rpi-pico")))

    def test_unknown_cost_axis_rejected(self):
        from repro.runtime import RunHarness

        with pytest.raises(SearchError, match="unknown cost axis"):
            RunHarness(_matrix_config(objectives=("latency", "carbon")))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_non_positive_samples_rejected(self, samples):
        from repro.runtime import RunHarness

        with pytest.raises(SearchError, match="samples must be >= 1"):
            RunHarness(_matrix_config(samples=samples,
                                      devices=("nucleo-f746zg",)))

    def test_objective_sets_parse_comma_joined(self):
        config = _matrix_config()
        assert config.objective_sets() == (("latency",),
                                           ("energy", "peak-mem"))
        assert config.cost_axes() == ("energy", "latency", "peak-mem")

    def test_run_matrix_requires_devices(self):
        with pytest.raises(SearchError, match="devices"):
            run_matrix(_matrix_config(devices=()))


class TestMatrixRun:
    @pytest.fixture(scope="class")
    def report(self):
        return run_matrix(_matrix_config())

    def test_one_cell_per_device_objective_pair(self, report):
        assert isinstance(report, DeviceMatrixReport)
        assert len(report.cells) == 4
        coords = {(c.device, tuple(c.objectives)) for c in report.cells}
        assert coords == {(d, o) for d in DEVICES
                          for o in (("latency",), ("energy", "peak-mem"))}

    def test_every_cell_has_a_front_and_knee(self, report):
        for cell in report.cells:
            assert cell.front
            assert cell.num_fronts >= 1
            assert cell.knee in cell.front
            for axis in cell.objectives:
                assert all(row[axis] >= 0.0 for row in cell.front)
            ordering = [row[cell.objectives[0]] for row in cell.front]
            assert ordering == sorted(ordering)

    def test_trainless_rows_computed_exactly_once(self, report):
        """The exactly-once invariant: one population pass computes every
        unique row; the 4 cells re-price without touching the proxies."""
        assert report.samples == 8
        assert 0 < report.unique_canonical <= report.samples
        # Three trainless entries (ntk / linear_regions / flops) per
        # unique canonical genotype, for the whole 4-cell matrix.
        assert (report.trainless_evals["rows_computed"]
                == 3 * report.unique_canonical)

    def test_cell_lookup(self, report):
        cell = report.cell("nucleo-l432kc", ("energy", "peak-mem"))
        assert cell.device == "nucleo-l432kc"
        with pytest.raises(SearchError, match="no matrix cell"):
            report.cell("nucleo-l432kc", ("flops",))

    def test_cells_share_one_trainless_pass(self, report):
        """Latency-only and energy cells rank the same archs by quality:
        the quality column is priced once, not per cell."""
        for device in DEVICES:
            a = report.cell(device, ("latency",))
            b = report.cell(device, ("energy", "peak-mem"))
            quality = {row["arch_index"]: row["quality_rank"]
                       for row in a.front}
            for row in b.front:
                if row["arch_index"] in quality:
                    assert row["quality_rank"] == quality[row["arch_index"]]

    def test_report_round_trips_json(self, report, tmp_path):
        import json

        path = tmp_path / "matrix.json"
        report.save_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["status"] == "completed"
        assert len(payload["cells"]) == 4
        assert payload["trainless_evals"]["rows_computed"] == \
            3 * report.unique_canonical
        # The run-level fields RunReport carries, from the shared lifecycle.
        assert payload["pool"]["tasks"] > 0
        assert payload["telemetry"] is None  # not armed by default
        assert payload["config"]["devices"] == list(DEVICES)


class TestStoreMediatedWarmStart:
    def test_second_run_computes_zero_rows(self, tmp_path):
        store = str(tmp_path / "matrix_store")
        cold = run_matrix(_matrix_config(store_dir=store))
        assert cold.trainless_evals["rows_computed"] == \
            3 * cold.unique_canonical
        # The executor's workers computed one κ and one LR per unique
        # canonical cell, and the ledger says so.
        assert cold.trainless_evals["ntk"] == cold.unique_canonical
        assert cold.trainless_evals["linear_regions"] == \
            cold.unique_canonical
        assert cold.store["cache_saved"] > 0

        warm = run_matrix(_matrix_config(store_dir=store))
        assert warm.trainless_evals["rows_computed"] == 0
        assert warm.trainless_evals["ntk"] == 0
        assert warm.trainless_evals["linear_regions"] == 0
        assert warm.trainless_evals["rows_hit"] > 0
        # Same fronts either way: the store round-trip is lossless.
        for cell in cold.cells:
            twin = warm.cell(cell.device, tuple(cell.objectives))
            assert [r["arch_index"] for r in twin.front] == \
                [r["arch_index"] for r in cell.front]

    def test_objective_sets_never_alias_in_the_store(self, tmp_path):
        """Cost axes fold into the store fingerprint: a latency-only
        matrix and an extra-axis matrix must not read each other's rows
        (non-aliasing beats reuse across objective sets by design)."""
        store = str(tmp_path / "matrix_store")
        first = run_matrix(_matrix_config(store_dir=store,
                                          objectives=("latency",)))
        assert first.trainless_evals["rows_computed"] > 0
        second = run_matrix(_matrix_config(store_dir=store,
                                           objectives=("latency",
                                                       "energy,peak-mem")))
        # Different fingerprint, so a full recompute — never a silent
        # cross-objective-set cache hit.
        assert second.trainless_evals["rows_computed"] == \
            3 * second.unique_canonical
        # ...while the *same* objective set warm-starts completely.
        third = run_matrix(_matrix_config(store_dir=store,
                                          objectives=("latency",
                                                      "energy,peak-mem")))
        assert third.trainless_evals["rows_computed"] == 0
