"""Engine-path vs pre-PR per-candidate objective evaluation.

Times a 64-candidate ``HybridObjective`` population evaluation two ways:

* **old path** — the seed implementation's shape: every candidate pays an
  inline reference-mode evaluation (one backward per NTK sample, one
  forward per probe line), no canonical deduplication, no cache.
* **engine path** — ``HybridObjective.score_genotypes``, i.e. the batched
  evaluation engine: vectorized kernels + canonicalization-aware cache.

Also validates the vectorization: batched proxies must match the
reference-mode values within 1e-6 relative tolerance on the whole
population.

A second section times the NTK of the 84 supernet states a reduced
pruning search scores, as the median of alternating passes: through
compiled plans over one weight bank (:mod:`repro.engine.plan`, what the
search runs) and through ``build_supernet`` + ``batched_ntk_jacobian``
(the module-tree oracle), and checks that both give the same Jacobians
and κ as float hex.

Results land in ``BENCH_engine.json`` at the repo root, where the perf
trajectory is tracked from one change to the next.

Run directly (``python benchmarks/bench_engine_speedup.py``) or via pytest
(``pytest benchmarks/bench_engine_speedup.py``).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.autograd.precision import precision
from repro.engine import Engine
from repro.engine.kernels import batched_ntk_jacobian
from repro.engine.plan import NtkPlan, supernet_ntk_bank
from repro.eval.benchconfig import (
    bench_scale,
    reduced_proxy_config,
    search_proxy_config,
)
from repro.eval.correlation import kendall_tau
from repro.proxies.flops import count_flops
from repro.proxies.linear_regions import count_line_regions
from repro.proxies.ntk import NtkResult, _eigvalsh_desc, ntk_condition_number
from repro.runtime.async_pool import AsyncPopulationExecutor
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.search.pruning import MicroNASSearch
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig, build_supernet
from repro.searchspace.space import NasBench201Space
from repro.utils.rng import new_rng, stable_seed
from repro.utils.timing import Timer, format_duration

POPULATION_SIZE = 64
#: Alternating passes per supernet timing (the median is recorded).
SUPERNET_PASSES = 5
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _old_path_rows(population: List[Genotype], proxy_config,
                   macro_config: MacroConfig) -> List[Dict[str, float]]:
    """The seed code's per-candidate loop: inline, uncached, reference-mode."""
    reference = proxy_config.reference()
    rows = []
    for genotype in population:
        rows.append({
            "ntk": ntk_condition_number(genotype, reference),
            "linear_regions": count_line_regions(genotype, reference),
            "flops": float(count_flops(genotype, macro_config)),
            "latency": 0.0,
        })
    return rows


class _StateRecorder(AsyncPopulationExecutor):
    """A serial executor that also records the supernet states scored."""

    def __init__(self) -> None:
        super().__init__(n_workers=1)
        self.states: List = []

    def warm_supernets(self, engine, spec_lists) -> int:
        self.states.extend(spec_lists)
        return super().warm_supernets(engine, spec_lists)


def _pruning_states(proxy_config) -> List:
    """The supernet states one reduced pruning search scores, in order."""
    recorder = _StateRecorder()
    engine = Engine(proxy_config=proxy_config,
                    macro_config=MacroConfig.full(), executor=recorder)
    objective = HybridObjective(weights=ObjectiveWeights(flops=0.5),
                                engine=engine)
    MicroNASSearch(objective).search()
    return recorder.states


def run_supernet_section() -> Dict:
    """Plan vs module-tree NTK over a reduced pruning search's states."""
    config = reduced_proxy_config()
    macro = config.macro_config()
    states = _pruning_states(config)
    bank = supernet_ntk_bank(config, 0)

    def plan(specs):
        return NtkPlan([spec.alive_ops for spec in specs], macro,
                       supercell=True).jacobian(bank)

    def autograd(specs):
        generator = new_rng(stable_seed("ntk-super", config.seed, 0))
        images = generator.normal(size=(config.ntk_batch_size, 3,
                                        config.input_size, config.input_size))
        network = build_supernet(specs, macro, rng=generator)
        return batched_ntk_jacobian(network, images)

    def kappa(jacobian) -> str:
        gram = jacobian @ jacobian.T
        return NtkResult(_eigvalsh_desc(gram), gram.shape[0]).k(1).hex()

    seconds = {plan: [], autograd: []}
    with precision(config.precision_policy()):
        for _ in range(SUPERNET_PASSES):
            for path in (plan, autograd):
                start = time.perf_counter()
                for specs in states:
                    path(specs)
                seconds[path].append(time.perf_counter() - start)
        identical = True
        for specs in states:
            a, b = plan(specs), autograd(specs)
            identical &= (a.dtype == b.dtype and a.shape == b.shape
                          and a.tobytes() == b.tobytes()
                          and kappa(a) == kappa(b))
    return {
        "supernet_states": len(states),
        "supernet_passes": SUPERNET_PASSES,
        "supernet_plan_seconds": statistics.median(seconds[plan]),
        "supernet_autograd_seconds": statistics.median(seconds[autograd]),
        "supernet_rows_bit_identical": bool(identical),
    }


def run_engine_speedup() -> Dict:
    proxy_config = search_proxy_config()
    macro_config = MacroConfig.full()
    weights = ObjectiveWeights(flops=0.5)
    population = NasBench201Space().sample(POPULATION_SIZE, rng=42)

    objective = HybridObjective(proxy_config=proxy_config, weights=weights,
                                macro_config=macro_config)

    with Timer() as old_timer:
        old_rows = _old_path_rows(population, proxy_config, macro_config)
        old_scores = objective.combined_ranks(old_rows)

    with Timer() as engine_timer:
        engine_scores = objective.score_genotypes(population)

    # Warm repeat: a search loop revisiting the same population (mutation
    # neighbourhoods, outer constraint rounds) pays only cache lookups.
    with Timer() as warm_timer:
        objective.score_genotypes(population)

    # Vectorization equivalence on the full population.  The engine seeds
    # proxies from the *canonical* index, so compare like for like: batched
    # vs reference values of each canonical form.
    table = objective.evaluate_population(population)
    max_ntk_rel = 0.0
    ntk_nonfinite_agree = True
    lr_exact = True
    reference_engine = HybridObjective(proxy_config=proxy_config.reference(),
                                       weights=weights,
                                       macro_config=macro_config)
    reference_table = reference_engine.evaluate_population(population)
    for batched, reference in zip(table.rows(), reference_table.rows()):
        ref_k, bat_k = reference["ntk"], batched["ntk"]
        if np.isfinite(ref_k) and ref_k != 0.0:
            max_ntk_rel = max(max_ntk_rel, abs(bat_k - ref_k) / abs(ref_k))
        else:
            ntk_nonfinite_agree &= (ref_k == bat_k)
        lr_exact &= (batched["linear_regions"] == reference["linear_regions"])

    stats = objective.engine.cache.stats
    result = {
        "bench_scale": bench_scale(),
        "population_size": POPULATION_SIZE,
        "unique_canonical": table.unique_canonical,
        "old_path_seconds": old_timer.elapsed,
        "engine_seconds": engine_timer.elapsed,
        "warm_engine_seconds": warm_timer.elapsed,
        "speedup": old_timer.elapsed / engine_timer.elapsed,
        "warm_speedup": old_timer.elapsed / max(warm_timer.elapsed, 1e-9),
        "max_ntk_rel_err": max_ntk_rel,
        "ntk_nonfinite_agree": bool(ntk_nonfinite_agree),
        "lr_bit_identical": bool(lr_exact),
        # Engine values are canonical-seeded, so old/engine scores differ
        # for non-canonical genotypes; ranks must still correlate strongly.
        "score_kendall_tau": float(kendall_tau(old_scores, engine_scores)),
        "cache": {"hits": stats.hits, "misses": stats.misses,
                  "entries": stats.entries},
    }
    result.update(run_supernet_section())
    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n",
                           encoding="utf-8")
    return result


def test_engine_speedup(benchmark):
    result = benchmark.pedantic(run_engine_speedup, rounds=1, iterations=1)
    _report(result)
    assert result["speedup"] >= 2.0
    assert result["max_ntk_rel_err"] < 1e-6
    assert result["ntk_nonfinite_agree"]
    assert result["lr_bit_identical"]
    assert result["supernet_states"] == 84
    assert result["supernet_rows_bit_identical"]
    assert result["supernet_plan_seconds"] < result["supernet_autograd_seconds"]


def _report(result: Dict) -> None:
    print()
    print(f"population            : {result['population_size']} "
          f"({result['unique_canonical']} unique canonical)")
    print(f"old path (per-candidate): "
          f"{format_duration(result['old_path_seconds'])}")
    print(f"engine path (cold)    : {format_duration(result['engine_seconds'])}"
          f"  -> {result['speedup']:.2f}x")
    print(f"engine path (warm)    : "
          f"{format_duration(result['warm_engine_seconds'])}"
          f"  -> {result['warm_speedup']:.0f}x")
    print(f"max NTK rel error     : {result['max_ntk_rel_err']:.2e}")
    print(f"LR bit-identical      : {result['lr_bit_identical']}")
    print(f"supernet NTK, {result['supernet_states']} states "
          f"(median of {result['supernet_passes']}): plan "
          f"{format_duration(result['supernet_plan_seconds'])}, module tree "
          f"{format_duration(result['supernet_autograd_seconds'])}, "
          f"bit-identical {result['supernet_rows_bit_identical']}")
    print(f"written               : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_engine_speedup())
