"""SearchResult records and JSON round-trips."""

import pytest

from repro.search.result import SearchResult
from repro.searchspace.genotype import Genotype
from repro.utils.timing import CostLedger


@pytest.fixture()
def result(heavy_genotype):
    ledger = CostLedger()
    ledger.add("ntk_eval", seconds=1.5, count=3)
    ledger.add("ntk_cache_hit", count=5)
    ledger.add("pruning_candidates", count=3)
    return SearchResult(
        genotype=heavy_genotype,
        algorithm="micronas",
        indicators={"ntk": 12.5, "flops": 1e8},
        history=[{"round": 1, "removed": {"0": "none"}}],
        ledger=ledger,
        wall_seconds=2.0,
        simulated_gpu_seconds=100.0,
        weights_used={"ntk": 1.0, "latency": 0.5},
    )


class TestAccounting:
    def test_gpu_hours_sums_wall_and_simulated(self, result):
        assert result.search_gpu_hours == pytest.approx(102.0 / 3600.0)

    def test_num_evaluations(self, result):
        """Scored candidates only: proxy evaluations and cache hits are
        ledger counts but not candidates."""
        assert result.num_evaluations == 3

    def test_summary_contains_essentials(self, result):
        text = result.summary()
        assert "micronas" in text and "3 evals" in text


class TestSerialisation:
    def test_to_dict_fields(self, result):
        payload = result.to_dict()
        assert payload["arch_index"] == result.genotype.to_index()
        assert payload["indicators"]["ntk"] == 12.5
        assert payload["ledger"]["counts"]["ntk_eval"] == 3

    def test_json_roundtrip(self, result, tmp_path):
        path = str(tmp_path / "result.json")
        result.save_json(path)
        loaded = SearchResult.load_json(path)
        assert loaded.genotype == result.genotype
        assert loaded.algorithm == result.algorithm
        assert loaded.indicators == result.indicators
        assert loaded.wall_seconds == result.wall_seconds
        assert loaded.simulated_gpu_seconds == result.simulated_gpu_seconds
        assert loaded.ledger.counts == result.ledger.counts
        assert loaded.search_gpu_hours == pytest.approx(result.search_gpu_hours)

    def test_roundtrip_of_minimal_result(self, tmp_path):
        minimal = SearchResult(genotype=Genotype(("none",) * 6), algorithm="x")
        path = str(tmp_path / "minimal.json")
        minimal.save_json(path)
        loaded = SearchResult.load_json(path)
        assert loaded.genotype == minimal.genotype
        assert loaded.search_gpu_hours == 0.0
