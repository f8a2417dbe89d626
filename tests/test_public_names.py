"""Package re-exports stay public while they load lazily.

The packages below serve their public names through a PEP 562 module
``__getattr__`` (``repro._lazy``), importing a submodule on first access.
Every name the eager ``__init__`` files exported must still resolve, to
the same object its defining module holds, through ``getattr``, ``from
pkg import name``, ``from pkg import *`` and ``dir(pkg)``; an unknown
name must raise ``AttributeError``; and no name may resolve back through
its own package (which recurses until ``RecursionError``).  The checks run
in a fresh interpreter, where nothing has been resolved yet.  The names
moved out of the module tree keep their old import paths too.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: The public names each package exported when its ``__init__`` imported
#: every submodule.
PUBLIC_NAMES = {
    "repro.autograd": [
        "FLOAT32", "FLOAT64", "POLICIES", "PrecisionPolicy", "Tensor", "add",
        "avg_pool2d", "concatenate", "conv2d", "cross_entropy",
        "default_dtype", "exp", "functional", "get_precision",
        "global_avg_pool2d", "gradcheck", "is_grad_enabled", "log",
        "log_softmax", "matmul", "max_reduce", "maximum", "mean", "mul",
        "no_grad", "pad2d", "precision", "relu", "reshape", "resolve_policy",
        "sigmoid", "softmax", "tanh", "tensor_sum", "transpose"],
    "repro.searchspace": [
        "CANDIDATE_OPS", "Cell", "EdgeSpec", "Genotype", "MacroConfig",
        "NUM_EDGES", "NUM_NODES", "NasBench201Network", "NasBench201Space",
        "OP_INDEX", "SpaceStatistics", "SuperCell", "TopologyFeatures",
        "build_network", "build_op", "canonical_census", "class_of",
        "extract_features", "op_histogram", "op_is_parametric",
        "space_statistics", "unique_sample"],
    "repro.proxies": [
        "BatchSizeSweep", "ConditionNumberSweep", "NtkResult", "ProxyConfig",
        "batch_size_sweep", "combine_ranks", "compute_ntk_gram",
        "condition_number_sweep", "condition_numbers", "count_flops",
        "count_linear_regions", "count_params", "ntk_condition_number",
        "rank_array"],
    "repro.engine": [
        "CacheStats", "Engine", "INDICATOR_NAMES", "IndicatorCache",
        "IndicatorTable", "batched_condition_numbers",
        "batched_count_line_regions", "batched_eigvalsh",
        "batched_line_patterns", "batched_ntk_jacobian",
        "supernet_state_key"],
    "repro.search": [
        "ConstrainedEvolutionarySearch", "CostModel", "DEPLOY_PRECISIONS",
        "DeployPrecision", "DeploymentPlan", "EvolutionConfig",
        "FLOAT32_DEPLOY", "HardwareConstraints", "HybridObjective",
        "INT8_DEPLOY", "MacroCandidate", "MacroSearchSpace",
        "MacroStageSearch", "MicroNASSearch", "ObjectiveWeights",
        "ParetoPoint", "ParetoResult", "ParetoZeroShotSearch",
        "SearchResult", "SteadyStateEvolutionarySearch", "TENASSearch",
        "TrainlessEvolutionarySearch", "ZeroShotRandomSearch",
        "build_cost_model", "crowding_distance", "device_constraints",
        "dominates", "non_dominated_sort", "plan_deployment",
        "register_cost_model", "registered_cost_models",
        "resolve_deploy_precision"],
    "repro.hardware": [
        "ActivationObserver", "ArenaReport", "BufferLifetime",
        "CycleCostModel", "DeploymentReport", "EnergyEstimator",
        "EnergyReport", "FlopsProportionalModel", "Int8InferenceReport",
        "LUTModel", "LatencyEstimator", "LatencyLUT", "LayerOp",
        "LinearFeatureModel", "MCUDevice", "MemoryEstimator", "MemoryPlan",
        "MemoryReport", "ModelAccuracy", "NUCLEO_F411RE", "NUCLEO_F746ZG",
        "NUCLEO_H743ZI", "NUCLEO_L432KC", "OnDeviceProfiler",
        "OptimizationStats", "PowerProfile", "RP2040_PICO",
        "StaticQuantizedModel", "arena_report", "calibrate",
        "compare_models", "deployment_report", "get_device",
        "int8_inference_report", "known_devices", "liveness_lower_bound",
        "measure_ground_truth_ms", "network_layers", "optimization_stats",
        "optimized_network_layers", "plan_memory", "power_profile",
        "register_device", "simulate_int8_inference", "tensor_lifetimes"],
    "repro.benchdata": [
        "ArchRecord", "OracleTable", "SurrogateBenchmarkAPI",
        "SurrogateModel", "TrainingCostModel", "accuracy_of",
        "build_oracle_table"],
    "repro.eval": [
        "ExperimentRecord", "agreement_summary", "front_hypervolume",
        "hypervolume_2d", "hypervolume_ratio", "kendall_tau", "pearson",
        "render_markdown", "spearman_rho", "within_factor"],
    "repro.utils": [
        "RngMixin", "Timer", "format_table", "new_rng", "spawn_rng"],
}

#: Exported names that are submodules (``dir`` lists them as modules).
SUBMODULE_EXPORTS = {"functional"}

#: Runs in a fresh interpreter; prints one JSON report for ``package``.
_PROBE = """
import importlib, inspect, json, sys

package = importlib.import_module(sys.argv[1])
names = sys.argv[2:]
report = {"all": sorted(package.__all__), "unresolved": [], "mismatched": []}
for name in names:
    try:
        value = getattr(package, name)
    except (AttributeError, RecursionError) as exc:
        report["unresolved"].append(f"{name}: {type(exc).__name__}")
        continue
    home = getattr(value, "__module__", None)
    if inspect.ismodule(value):
        defined = sys.modules.get(f"{sys.argv[1]}.{name}")
    elif (inspect.isclass(value) or inspect.isfunction(value)) and home:
        # By the defining name: an alias (``tensor_sum``) has another.
        defined = getattr(importlib.import_module(home), value.__name__,
                          None)
    else:
        # Constants and instances: some submodule must bind this object.
        defined = next((getattr(module, name) for key, module
                        in list(sys.modules.items())
                        if key.startswith(sys.argv[1] + ".")
                        and getattr(module, name, None) is value), None)
    if defined is not value:
        report["mismatched"].append(name)
star = {}
exec(f"from {sys.argv[1]} import *", star)
report["star"] = sorted(k for k in star if k != "__builtins__")
report["dir"] = sorted(
    n for n in dir(package)
    if not n.startswith("_") and not inspect.ismodule(getattr(package, n)))
try:
    package.no_such_name
    report["unknown"] = "resolved"
except AttributeError:
    report["unknown"] = "AttributeError"
print(json.dumps(report))
"""


def _probe(package, names):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, package, *names], env=env,
        capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_lazy_package_keeps_its_public_names(package):
    names = PUBLIC_NAMES[package]
    report = _probe(package, names)
    assert report["all"] == sorted(names)
    assert report["unresolved"] == []
    assert report["mismatched"] == []
    assert report["star"] == sorted(names)
    assert report["dir"] == sorted(set(names) - SUBMODULE_EXPORTS)
    assert report["unknown"] == "AttributeError"


def test_runtime_fleet_names_resolve_lazily():
    report = _probe("repro.runtime", ["FleetPool", "run_worker"])
    assert report["unresolved"] == []
    assert report["mismatched"] == []
    assert set(report["star"]) == set(report["all"])
    assert report["unknown"] == "AttributeError"


def test_moved_names_keep_their_old_import_paths():
    from repro.autograd import arrays, functional, init as weight_init
    from repro.engine import kernels, plan
    from repro.nn import init as nn_init
    from repro.nn.layers import norm
    from repro.proxies import linear_regions
    from repro.searchspace import cell, network, ops, specs
    from repro.searchspace.cell import EdgeSpec
    from repro.searchspace.network import MacroConfig
    from repro.searchspace.ops import Identity, Zero, build_op

    assert build_op is cell.build_op
    assert (Zero, Identity) == (cell.Zero, cell.Identity)
    assert EdgeSpec is specs.EdgeSpec
    assert MacroConfig is specs.MacroConfig is network.MacroConfig
    assert linear_regions.LinearRegionNetwork is network.LinearRegionNetwork
    assert nn_init.kaiming_normal is weight_init.kaiming_normal
    assert norm.DEFAULT_EPS == arrays.DEFAULT_EPS
    assert functional._im2col is arrays._im2col
    assert kernels.line_points is plan.line_points
    assert kernels.count_regions_per_line is plan.count_regions_per_line
    with pytest.raises(AttributeError):
        ops.no_such_name
    with pytest.raises(AttributeError):
        linear_regions.no_such_name
