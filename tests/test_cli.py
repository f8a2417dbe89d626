"""CLI subcommands (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.algorithm == "micronas"
        assert args.latency_weight == 0.5

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--algorithm", "darts"])


class TestQuery(object):
    def test_query_by_index(self, capsys):
        assert main(["query", "11468"]) == 0
        out = capsys.readouterr().out
        assert "accuracy (cifar10)" in out
        assert "nor_conv_3x3" in out

    def test_query_by_arch_string(self, capsys, heavy_genotype):
        assert main(["query", heavy_genotype.to_arch_str()]) == 0
        assert "FLOPs" in capsys.readouterr().out

    def test_bad_arch_string(self):
        from repro.errors import GenotypeError
        with pytest.raises(GenotypeError):
            main(["query", "not-an-arch"])


class TestProxies:
    def test_all_proxies_listed(self, capsys, light_genotype):
        assert main(["proxies", str(light_genotype.to_index()), "--fast"]) == 0
        out = capsys.readouterr().out
        for name in ("ntk", "linear_regions", "synflow", "naswot"):
            assert name in out


@pytest.mark.store
class TestStoreMaintenance:
    def test_inventory_empty_store(self, capsys, tmp_path):
        assert main(["store", "inventory",
                     "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "inventory" in out
        assert "(empty)" in out

    def test_inventory_lists_caches_and_luts(self, capsys, tmp_path,
                                             tiny_macro_config):
        from repro.engine.cache import IndicatorCache
        from repro.hardware.device import NUCLEO_F746ZG
        from repro.hardware.latency import LatencyEstimator
        from repro.proxies.base import ProxyConfig
        from repro.runtime.store import (
            STORE_FORMAT,
            RuntimeStore,
            cache_fingerprint,
        )
        from repro.searchspace.network import MacroConfig

        store_dir = str(tmp_path / "store")
        store = RuntimeStore(store_dir)
        cache = IndicatorCache()
        cache.put(("flops", 1, (4,)), 1.0)
        fingerprint = cache_fingerprint(ProxyConfig(), MacroConfig.full())
        store.save_cache(cache, fingerprint)
        LatencyEstimator(NUCLEO_F746ZG, config=tiny_macro_config,
                         lut_store=store)
        assert main(["store", "inventory", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert f"format {STORE_FORMAT}" in out
        assert "lut nucleo-f746zg" in out

        assert main(["store", "compact", "--store", store_dir]) == 0
        assert "segments folded" in capsys.readouterr().out

        assert main(["store", "gc", "--store", store_dir]) == 0
        assert "store gc" in capsys.readouterr().out

    def test_store_dir_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "inventory"])


class TestPareto:
    def test_prints_front(self, capsys):
        assert main(["pareto", "--samples", "8", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "knee ->" in out


class TestSpaceStats:
    def test_census_printed(self, capsys):
        assert main(["space-stats"]) == 0
        out = capsys.readouterr().out
        assert "15,625" in out
        assert "redundancy" in out


class TestDevices:
    def test_lists_all_boards(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("nucleo-f746zg", "nucleo-f411re", "nucleo-h743zi",
                     "nucleo-l432kc", "rp2040-pico"):
            assert name in out
        assert "cyc/MAC int8" in out


class TestDeploy:
    def test_deployable_arch(self, capsys, light_genotype):
        assert main(["deploy", str(light_genotype.to_index())]) == 0
        out = capsys.readouterr().out
        assert "DEPLOYABLE" in out
        assert "int8 speedup" in out

    def test_too_big_for_l432(self, capsys, heavy_genotype):
        """64 KB SRAM / 256 KB flash cannot hold the full heavy network."""
        code = main(["deploy", str(heavy_genotype.to_index()),
                     "--device", "nucleo-l432kc"])
        assert code == 1
        assert "DOES NOT FIT" in capsys.readouterr().out


class TestMacroSearch:
    def test_fits_skeleton(self, capsys, light_genotype):
        assert main(["macro-search", str(light_genotype.to_index()),
                     "--int8"]) == 0
        out = capsys.readouterr().out
        assert "skeleton" in out
        assert "grid points" in out

    def test_impossible_budget_fails_cleanly(self, capsys, heavy_genotype):
        code = main(["macro-search", str(heavy_genotype.to_index()),
                     "--max-latency-ms", "0.001"])
        assert code == 1
        assert "macro search failed" in capsys.readouterr().out


class TestMemplan:
    def test_prints_strategies(self, capsys, heavy_genotype):
        assert main(["memplan", str(heavy_genotype.to_index())]) == 0
        out = capsys.readouterr().out
        for strategy in ("no_reuse", "first_fit", "greedy_by_size"):
            assert strategy in out

    def test_layout_flag(self, capsys, light_genotype):
        assert main(["memplan", str(light_genotype.to_index()),
                     "--int8", "--layout", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "greedy layout" in out
        assert "offset" in out


class TestHardwareCommands:
    def test_profile_prints_lut(self, capsys):
        assert main(["profile", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "network overhead" in out
        assert "conv" in out

    def test_validate_latency_passes(self, capsys):
        assert main(["validate-latency", "--samples", "5"]) == 0
        assert "mean abs rel error" in capsys.readouterr().out

    def test_unknown_device(self):
        with pytest.raises(SystemExit):
            main(["profile", "--device", "esp32"])


def _row(out, label):
    """The value cell of one ``| label | value |`` table row."""
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] == label:
            return cells[1]
    raise AssertionError(f"no {label!r} row in:\n{out}")


class TestSearchCommand:
    def test_random_search_fast(self, capsys):
        code = main(["search", "--algorithm", "random", "--samples", "4",
                     "--fast", "--latency-weight", "0.0",
                     "--flops-weight", "0.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "architecture" in out
        assert "surrogate CIFAR-10 acc" in out

    def test_micronas_fast(self, capsys):
        assert main(["search", "--fast"]) == 0
        out = capsys.readouterr().out
        assert _row(out, "index") == "7811"
        assert _row(out, "est. latency") == "165.2 ms"
        assert _row(out, "candidates scored") == "84"  # pruned states

    def test_tenas_fast(self, capsys):
        assert main(["search", "--algorithm", "tenas", "--fast"]) == 0
        out = capsys.readouterr().out
        assert _row(out, "index") == "11712"
        assert "est. latency" not in out

    def test_random_matches_zero_shot_random_search(self, capsys):
        from repro.eval.benchconfig import reduced_proxy_config
        from repro.search.objective import HybridObjective, ObjectiveWeights
        from repro.search.random_search import ZeroShotRandomSearch

        assert main(["search", "--algorithm", "random", "--samples", "4",
                     "--fast", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        expected = ZeroShotRandomSearch(
            HybridObjective(proxy_config=reduced_proxy_config(seed=3),
                            weights=ObjectiveWeights(latency=0.5)),
            num_samples=4, seed=3).search()
        assert _row(out, "index") == str(expected.genotype.to_index())
        assert _row(out, "candidates scored") == "4"

    def test_unknown_device_exits(self):
        with pytest.raises(SystemExit):
            main(["search", "--algorithm", "random", "--samples", "2",
                  "--fast", "--device", "esp32"])

    def test_builds_no_search_itself(self):
        """``cmd_search`` describes its run as a ``RuntimeConfig``: it
        imports no search, objective or estimator class."""
        import ast
        import inspect

        from repro.cli import cmd_search

        tree = ast.parse(inspect.getsource(cmd_search))
        modules = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        assert modules == {"repro.benchdata.api", "repro.runtime"}


class TestRuntime:
    def test_runtime_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = ["runtime", "--algorithm", "random", "--samples", "6",
                "--workers", "2", "--store", store, "--seed", "3"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "parallel-runtime search run" in cold
        assert "cache warm-start          | 0 entries" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache hits / misses" in warm  # table actually rendered
        assert "cache warm-start          | 0 entries" not in warm

    def test_runtime_report_written(self, tmp_path):
        report = tmp_path / "run.json"
        assert main(["runtime", "--algorithm", "random", "--samples", "4",
                     "--report", str(report)]) == 0
        import json
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["config"]["algorithm"] == "random"

    def test_runtime_device_matrix_writes_trace_and_report(
            self, capsys, tmp_path):
        trace, report = tmp_path / "trace.json", tmp_path / "matrix.json"
        assert main(["runtime", "--device-matrix",
                     "nucleo-f746zg,nucleo-l432kc", "--samples", "8",
                     "--seed", "3", "--trace", str(trace),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "device-matrix run" in out
        assert "| trace " in out and str(trace) in out
        import json
        assert json.loads(trace.read_text())["otherData"]["interrupted"] \
            is False
        assert json.loads(report.read_text())["status"] == "completed"

    def test_runtime_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["runtime", "--algorithm", "quantum"])

    def test_every_flag_reaches_a_config_field(self, monkeypatch, tmp_path):
        """Every ``RuntimeConfig`` field but the API-only ``sample_size``
        has a ``micronas runtime`` flag: set them all off their defaults
        and every field must move."""
        import dataclasses

        import repro.runtime
        from repro.errors import SearchError
        from repro.runtime import RuntimeConfig

        captured = []

        class Capture:
            def __init__(self, config):
                captured.append(config)
                raise SearchError("captured")

        monkeypatch.setattr(repro.runtime, "RunHarness", Capture)
        with pytest.raises(SystemExit):
            main(["runtime", "--algorithm", "pruning", "--workers", "2",
                  "--chunk-size", "3", "--store", str(tmp_path / "store"),
                  "--device", "nucleo-l432kc", "--samples", "9",
                  "--population", "7", "--cycles", "11",
                  "--latency-weight", "0.5", "--flops-weight", "0.25",
                  "--arch", "1462", "--seed", "4", "--full-scale",
                  "--precision", "float32", "--chunk-timeout", "30",
                  "--max-retries", "5", "--report", str(tmp_path / "r.json"),
                  "--trace", str(tmp_path / "t.json"), "--heartbeat", "2",
                  "--fleet-bind", "127.0.0.1:0", "--fleet-workers", "2",
                  "--fleet-token", "t", "--objective", "energy",
                  "--device-matrix", "nucleo-f746zg"])
        (config,) = captured
        defaults = RuntimeConfig()
        api_only = {"sample_size"}
        unmoved = {f.name for f in dataclasses.fields(RuntimeConfig)
                   if getattr(config, f.name) == getattr(defaults, f.name)}
        assert unmoved == api_only

    @pytest.mark.parametrize("flag", ["--fleet-lease", "--parent-selection"])
    def test_removed_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runtime", flag, "1"])

    def test_help_documents_runtime_examples(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "parallel evaluation runtime examples" in out
        assert "--store" in out
