"""One search process of the benchmark: set up, search once, check, report.

``run.py`` starts one fresh interpreter per repetition, so every
repetition pays the set-up a ``micronas`` invocation pays and no Python
cache survives from one search to the next::

    python3 perfbench/rep.py --workload prune --mode timed --out rep.json

Modes: ``timed`` (tracing off), ``traced`` (the outside-in tracer of
``tracer.py`` installed before the harness is built) and ``fill`` (build a
workload's warm store; nothing is measured).  The record written to
``--out`` holds the end-to-end values, the returned architecture, the
output-check failures and, when traced, the per-layer values.
"""

import os

# One BLAS thread per process, set before numpy loads: the installed
# OpenBLAS is multithreaded, and two fork workers each running BLAS
# threads would oversubscribe a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from workloads import QUALITY_DEVICE, SEARCH_SEED, WORKLOADS  # noqa: E402

#: Relative tolerance between batched and reference proxy kernels.
REL_TOL = 1e-14


def make_config(workload, store_dir, **override):
    from repro.runtime.harness import RuntimeConfig

    fields = dict(WORKLOADS[workload]["config"], **override)
    return RuntimeConfig(seed=SEARCH_SEED, store_dir=store_dir, **fields)


def cpu_and_peak_rss():
    """CPU seconds and peak RSS (MB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def host_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def layer_metrics(tracer, before, harness, report, search_s):
    """Per-layer values of one traced repetition.

    Self time and calls sum this process and every pool worker.  Coverage
    counts this process's search-phase self time only: while workers
    compute, its ``runtime.dispatch`` self time is the wait.
    """
    from tracer import TIMER_NAMES

    own_totals, workers = tracer.snapshot(), tracer.worker_totals()
    metrics = {}
    for name in TIMER_NAMES:
        own = own_totals.get(name, [0.0, 0, 0.0])
        far = workers.get(name, [0.0, 0, 0.0])
        metrics[name + ".self_s"] = own[0] + far[0]
        metrics[name + ".calls"] = own[1] + far[1]
    search_self = sum(entry[0] - before.get(name, [0.0])[0]
                      for name, entry in own_totals.items())
    metrics["trace.coverage"] = search_self / search_s
    dispatch_s = own_totals.get("runtime.dispatch", [0.0, 0, 0.0])[2]
    busy = getattr(harness.executor.stats, "worker_seconds", 0.0)
    metrics["runtime.pool_busy_frac"] = (
        busy / (harness.config.n_workers * dispatch_s) if dispatch_s else 0.0)
    hits, misses = report.cache["hits"], report.cache["misses"]
    metrics["engine.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["engine.rows_computed"] = misses
    return metrics


# ----------------------------------------------------------------------
# Output checks: each returns a list of failure messages.
# ----------------------------------------------------------------------
def check_reference(harness, report):
    """The winner's proxies recomputed on the reference kernels."""
    from repro.proxies.linear_regions import count_line_regions
    from repro.proxies.ntk import ntk_condition_number
    from repro.searchspace.canonical import canonicalize
    from repro.searchspace.genotype import Genotype

    canon = canonicalize(Genotype.from_index(report.arch_index))
    reference = harness.proxy_config.reference()
    failures = []
    for name, value in (("ntk", ntk_condition_number(canon, reference)),
                        ("linear_regions", count_line_regions(canon, reference))):
        got = report.indicators[name]
        if not math.isclose(got, value, rel_tol=REL_TOL, abs_tol=0.0):
            failures.append(f"{name} {got!r} differs from reference {value!r}")
    return failures


def check_store_rows(harness, report):
    """A fresh store holds one row per trainless indicator per cell."""
    from collections import Counter

    from repro.engine.cache import IndicatorCache
    from repro.runtime.store import RuntimeStore

    cache = IndicatorCache()
    loaded = RuntimeStore(report.config.store_dir).load_cache_into(
        cache, harness.fingerprint)
    rows = Counter(key[0] for key, _ in cache.items())
    cells = {key[1] for key, _ in cache.items() if key[0] == "ntk"}
    failures = []
    for kind in ("ntk", "linear_regions", "flops"):
        if rows[kind] != len(cells):
            failures.append(f"store holds {rows[kind]} {kind} rows for "
                            f"{len(cells)} canonical cells")
    if loaded != report.store["cache_saved"]:
        failures.append(f"store holds {loaded} rows, the run saved "
                        f"{report.store['cache_saved']}")
    return failures


def check_matrix(harness, report):
    """Warm restart computes nothing; every front is exactly the
    non-dominated set, by an independent vectorised dominance check."""
    import numpy as np

    from repro.hardware.device import get_device
    from repro.search.objective import HybridObjective, ObjectiveWeights
    from repro.searchspace.space import NasBench201Space

    failures = []
    if report.trainless_evals["rows_computed"] != 0:
        failures.append(f"warm restart computed "
                        f"{report.trainless_evals['rows_computed']} rows")
    if report.store["cache_saved"] != 0:
        failures.append(f"warm restart saved {report.store['cache_saved']} rows")
    config = harness.config
    genotypes = NasBench201Space().sample(config.samples, rng=config.seed)
    objective = HybridObjective(weights=ObjectiveWeights(), engine=harness.engine)
    quality = np.asarray(objective.combined_ranks(
        objective.evaluate_population(genotypes).rows()), dtype=float)
    indices = [g.to_index() for g in genotypes]
    for cell in report.cells:
        engine = harness.engine.for_device(get_device(cell.device))
        points = np.column_stack(
            [quality] + [[engine.cost(g, axis) for g in genotypes]
                         for axis in cell.objectives])
        no_worse = (points[:, None, :] <= points[None, :, :]).all(axis=2)
        better = (points[:, None, :] < points[None, :, :]).any(axis=2)
        dominated = (no_worse & better).any(axis=0)
        expected = {indices[i]: points[i] for i in np.flatnonzero(~dominated)}
        where = f"cell ({cell.device}, {','.join(cell.objectives)})"
        reported = {row["arch_index"]: row for row in cell.front}
        if set(reported) != set(expected):
            failures.append(f"{where}: front {sorted(reported)} is not the "
                            f"non-dominated set {sorted(expected)}")
            continue
        for index, row in reported.items():
            vector = [row["quality_rank"]] + [row[a] for a in cell.objectives]
            if not np.array_equal(vector, expected[index]):
                failures.append(f"{where}: front row {index} reports "
                                f"{vector}, recomputed {expected[index].tolist()}")
        if cell.knee is None or cell.knee["arch_index"] not in reported:
            failures.append(f"{where}: knee is not on the front")
    return failures


def quality_and_checks(workload, harness, report):
    """(arch index, surrogate accuracy, LUT latency ms, check failures)."""
    from repro.benchdata import SurrogateBenchmarkAPI
    from repro.hardware.device import get_device
    from repro.searchspace.genotype import Genotype

    if WORKLOADS[workload].get("matrix"):
        knee = report.cell(QUALITY_DEVICE, ("latency",)).knee
        index, latency = knee["arch_index"], knee["latency"]
        failures = check_matrix(harness, report)
    else:
        index = report.arch_index
        latency = harness.engine.for_device(
            get_device(QUALITY_DEVICE)).latency_ms(Genotype.from_index(index))
        failures = check_reference(harness, report)
        if WORKLOADS[workload]["store"] == "fresh":
            failures += check_store_rows(harness, report)
    if report.status != "completed":
        failures.append(f"run status {report.status!r}")
    accuracy = SurrogateBenchmarkAPI().accuracy(index, "cifar10")
    return index, accuracy, latency, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "fill"))
    parser.add_argument("--store", default=None, help="store directory")
    parser.add_argument("--out", help="where to write the JSON record")
    parser.add_argument("--flush-dir", help="worker trace flush directory")
    args = parser.parse_args()

    if args.mode == "fill":
        # Two workers fill faster; rows are bit-identical whatever the
        # executor, and the worker count is not part of the fingerprint.
        from repro.runtime.harness import RunHarness

        RunHarness(make_config(args.workload, args.store, n_workers=2)).run_matrix()
        return

    start = time.perf_counter()
    import repro.runtime.harness as harness_module

    import_s = time.perf_counter() - start
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(args.flush_dir)
        tracer.install()
    start = time.perf_counter()
    harness = harness_module.RunHarness(make_config(args.workload, args.store))
    harness.engine.latency_estimator  # the lazy LUT build every run pays
    harness_s = time.perf_counter() - start

    before = {}
    if tracer is not None:
        tracer.watch_executor(harness.executor)
        before = tracer.snapshot()
    cpu_before, _ = cpu_and_peak_rss()
    start = time.perf_counter()
    if WORKLOADS[args.workload].get("matrix"):
        report = harness.run_matrix()
    else:
        report = harness.run()
    search_s = time.perf_counter() - start
    cpu_after, peak_rss_mb = cpu_and_peak_rss()

    record = {
        "setup_s": import_s + harness_s,
        "search_s": search_s,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, before, harness, report, search_s)
        layers["setup.import_s"] = import_s
        layers["setup.harness_s"] = harness_s
        record["layers"] = layers
    index, accuracy, latency, failures = quality_and_checks(
        args.workload, harness, report)
    record.update(arch_index=index, arch_acc=accuracy,
                  arch_latency_ms=latency, failures=failures,
                  host=host_record())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
