"""Command-line interface: ``micronas <subcommand>``.

Subcommands
-----------
search
    Run a NAS algorithm (micronas / tenas / random) and print the result.
runtime
    Run any registered algorithm on the parallel evaluation runtime
    (process-pool workers + persistent indicator/LUT store), or with
    ``--device-matrix`` one population priced per (board, objective-set)
    cell; both print the same run rows (status, cache, store, trace).
store
    Inspect and maintain a runtime store directory: ``inventory`` lists
    persisted caches/LUTs, ``compact`` folds append-only segments into
    each cache's base file, ``gc`` sweeps stale sidecar files.
trace
    Summarize a telemetry trace written by ``runtime --trace``: wall
    clock, span coverage, and a per-phase time breakdown.
pareto
    Zero-shot quality/latency Pareto front over a sampled population.
profile
    Profile a device's latency LUT and print its entries.
validate-latency
    Compare the LUT estimator against on-board ground truth.
query
    Look up an architecture in the surrogate benchmark.
proxies
    Evaluate every registered zero-cost proxy for one architecture.
devices
    List the registered MCU boards.
deploy
    Full deployment assessment (latency, arena, flash, quantization).
macro-search
    Secondary stage: fit a cell onto a board (cells/channels grid).
memplan
    Plan the static tensor arena for one architecture.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.hardware.device import known_devices
from repro.proxies.base import ProxyConfig
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig

# Each subcommand imports what it runs, so ``micronas runtime`` loads the
# run harness's modules and no more.


def format_table(*args, **kwargs) -> str:
    """:func:`repro.utils.tabulate.format_table`, imported on first use."""
    from repro.utils.tabulate import format_table as render

    return render(*args, **kwargs)


def _proxy_config(args: argparse.Namespace) -> ProxyConfig:
    precision = getattr(args, "precision", "float64")
    if args.fast:
        from repro.eval.benchconfig import reduced_proxy_config

        return reduced_proxy_config(seed=args.seed, precision=precision)
    return ProxyConfig(seed=args.seed, precision=precision)


def _device(name: str):
    devices = known_devices()
    if name not in devices:
        raise SystemExit(f"unknown device {name!r}; known: {sorted(devices)}")
    return devices[name]


def _run(config):
    """Run ``config`` through the harness (its device matrix, if set)."""
    from repro.errors import ReproError
    from repro.runtime import RunHarness

    try:
        harness = RunHarness(config)
        return harness.run_matrix() if config.devices else harness.run()
    except ReproError as exc:
        # Config-level errors (unknown algorithm/device, missing --arch
        # for macro) are user mistakes, not tracebacks.
        raise SystemExit(str(exc))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_search(args: argparse.Namespace) -> int:
    """One paper search through the harness: MicroNAS is ``pruning``,
    TE-NAS the same with the hardware indicators unweighted."""
    from repro.benchdata.api import SurrogateBenchmarkAPI
    from repro.runtime import RuntimeConfig

    hardware = args.algorithm != "tenas"
    config = RuntimeConfig(
        algorithm="random" if args.algorithm == "random" else "pruning",
        n_workers=1,
        device=args.device,
        samples=args.samples,
        latency_weight=args.latency_weight if hardware else 0.0,
        flops_weight=args.flops_weight if hardware else 0.0,
        seed=args.seed,
        fast=args.fast,
        precision=args.precision,
    )
    report = _run(config)
    record = SurrogateBenchmarkAPI(datasets=["cifar10"]).query(
        report.arch_index)
    rows = [
        ["architecture", report.arch_str],
        ["index", record.index],
        ["surrogate CIFAR-10 acc", f"{record.accuracy('cifar10'):.2f} %"],
        ["FLOPs", f"{record.flops / 1e6:.2f} M"],
        ["params", f"{record.params / 1e6:.3f} M"],
        ["candidates scored", report.num_evaluations],
        ["search wall time", f"{report.wall_seconds:.1f} s"],
    ]
    if config.latency_weight > 0:
        rows.insert(5, ["est. latency",
                        f"{report.indicators['latency']:.1f} ms"])
    print(format_table(rows, title=f"{args.algorithm} search result"))
    return 0


def cmd_runtime(args: argparse.Namespace) -> int:
    """Run a search on the parallel evaluation runtime (pool + store)."""
    from repro.runtime import RuntimeConfig

    config = RuntimeConfig(
        algorithm=args.algorithm,
        n_workers=args.workers,
        chunk_size=args.chunk_size,
        store_dir=args.store,
        device=args.device,
        samples=args.samples,
        population_size=args.population,
        cycles=args.cycles,
        latency_weight=args.latency_weight,
        flops_weight=args.flops_weight,
        arch=args.arch,
        seed=args.seed,
        fast=not args.full_scale,
        precision=args.precision,
        chunk_timeout=args.chunk_timeout,
        max_retries=args.max_retries,
        trace_path=args.trace,
        heartbeat=args.heartbeat,
        fleet_bind=args.fleet_bind,
        fleet_workers=args.fleet_workers,
        fleet_token=args.fleet_token,
        objectives=tuple(args.objective or ()),
        devices=tuple(
            d.strip() for d in (args.device_matrix or "").split(",")
            if d.strip()),
    )
    report = _run(config)
    if config.devices:
        _print_device_matrix(report)
    else:
        _print_search_run(report)
    if args.report:
        report.save_json(args.report)
        print(f"run report written to {args.report}")
    return 0


def _run_rows(report, rows: List[List[str]]) -> List[List[str]]:
    """``rows`` (one mode's own) between the rows every runtime run
    shares: run id first; status, cache, store, wall time, trace after."""
    config = report.config
    rows = [["run id", report.run_id]] + rows
    if report.status != "completed":
        rows.append(["status", report.status])
    rows.append(["cache hits / misses", f"{report.cache['hits']} / "
                                        f"{report.cache['misses']}"])
    rows.append(["store", config.store_dir or "(none: in-memory only)"])
    if config.store_dir:
        rows.append(["cache persisted",
                     f"{report.store['cache_saved']} entries"])
        rows.append(["LUTs in store (all runs)",
                     str(len(report.store["luts"]))])
    rows.append(["wall time", f"{report.wall_seconds:.2f} s"])
    if config.trace_path:
        rows.append(["trace", config.trace_path])
    return rows


def _print_search_run(report) -> None:
    """One algorithm run: pool, faults and the chosen architecture."""
    config = report.config
    pool = report.pool
    idle = pool["idle_fraction"]
    faults = [f"{pool[key]} {key}"
              for key in ("retries", "timeouts", "respawns", "quarantined")
              if pool[key]]
    rows = [
        ["algorithm", report.algorithm],
        ["architecture", report.arch_str],
        ["precision", config.precision],
        ["workers (mode)", f"{pool['n_workers']} ({pool['mode']})"],
        ["pool tasks / chunks", f"{pool['tasks']} / {pool['chunks']}"],
        ["worker idle fraction", "n/a" if idle is None else f"{idle:.1%}"],
        ["faults recovered", ", ".join(faults) or "none"],
    ]
    if config.fleet_bind or config.fleet_workers:
        rows.append(["fleet", f"{config.fleet_workers} local workers"
                             f" ({pool['mode']} transport)"])
    rows.append(["cache warm-start",
                 f"{report.cache['warm_start_entries']} entries"])
    rows = _run_rows(report, rows)
    for name, value in sorted(report.indicators.items()):
        rows.append([f"indicator: {name}", f"{value:.6g}"])
    print(format_table(rows, title="parallel-runtime search run"))


def _print_device_matrix(report) -> None:
    """Device-matrix mode: one Pareto front per (device, objective-set)."""
    config = report.config
    evals = report.trainless_evals
    rows = _run_rows(report, [
        ["devices", ", ".join(config.devices)],
        ["objective sets",
         "; ".join("+".join(cell) for cell in config.objective_sets())
         or "latency"],
        ["samples (unique canonical)",
         f"{report.samples} ({report.unique_canonical})"],
        ["trainless rows computed / hit",
         f"{evals['rows_computed']} / {evals['rows_hit']}"],
    ])
    print(format_table(rows, title="device-matrix run"))
    cell_rows = []
    for cell in report.cells:
        knee = cell.knee or {}
        cell_rows.append([
            cell.device,
            "+".join(cell.objectives),
            str(len(cell.front)),
            str(cell.num_fronts),
            str(knee.get("arch_index", "-")),
            " ".join(f"{axis}={knee[axis]:.4g}" for axis in cell.objectives
                     if axis in knee),
        ])
    print(format_table(
        cell_rows,
        headers=["device", "objectives", "front", "fronts", "knee arch",
                 "knee costs"],
        title="Pareto front per (device, objective-set) cell",
    ))


def cmd_fleet_worker(args: argparse.Namespace) -> int:
    """Join a fleet as one worker: lease, evaluate, report, repeat."""
    from repro.errors import ReproError
    from repro.runtime.fleet import run_worker

    try:
        stats = run_worker(args.connect, store_dir=args.store,
                           token=args.token, poll_seconds=args.poll,
                           max_chunks=args.max_chunks)
    except ReproError as exc:
        raise SystemExit(str(exc))
    except (ConnectionError, OSError, EOFError) as exc:
        # The broker went away (driver finished or died): for an elastic
        # worker that is a normal way to retire, not a stack trace.
        print(f"fleet worker: broker at {args.connect} gone ({exc})")
        return 0
    rows = [
        ["worker id", str(stats.worker_id)],
        ["chunks evaluated", str(stats.chunks)],
        ["rows returned", str(stats.rows)],
        ["rows from store (warm)", str(stats.store_rows_loaded)],
        ["rows flushed to store", str(stats.store_rows_flushed)],
        ["worker errors reported", str(stats.errors)],
        ["busy", f"{stats.busy_seconds:.2f} s"],
        ["exit", "drained" if stats.drained else "left"],
    ]
    print(format_table(rows, title="fleet worker session"))
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect/maintain a persistent runtime store directory."""
    from repro.runtime.store import RuntimeStore

    store = RuntimeStore(args.store)
    if args.action == "inventory":
        rows = []
        for entry in store.cache_inventory():
            rows.append([
                f"cache {entry['digest']}", f"format {entry['format']}",
                entry["precision"] or "?",
                f"{entry['base_rows']} rows + {entry['segments']} segments"
                + (f" + {entry['quarantined']} quarantined"
                   if entry.get("quarantined") else ""),
                f"{entry['bytes'] / 1024:.1f} KB",
            ])
        for meta in store.lut_keys():
            rows.append([f"lut {meta.get('device', '?')}",
                         f"format {meta.get('format', '?')}",
                         meta.get("precision", "?"), "-", "-"])
        if not rows:
            rows.append(["(empty)", "-", "-", "-", "-"])
        print(format_table(
            rows,
            headers=["entry", "format", "precision", "contents", "size"],
            title=f"runtime store inventory: {args.store}",
        ))
        return 0
    if args.action == "quarantine":
        entries = store.quarantine_entries()
        if not entries:
            print(f"no quarantined candidates in {args.store}")
            return 0
        print(format_table(
            [[e["digest"], e["kind"], str(e["identity"]),
              str(e["attempts"]), e["reason"]] for e in entries],
            headers=["cache digest", "kind", "identity", "attempts",
                     "reason"],
            title=f"quarantined candidates: {args.store}",
        ))
        return 0
    if args.action == "compact":
        results = store.compact_all()
        if not results:
            print(f"nothing to compact in {args.store}")
            return 0
        print(format_table(
            [[r["digest"], r["segments_folded"], r["entries"]]
             for r in results],
            headers=["cache digest", "segments folded", "rows in base"],
            title=f"store compaction: {args.store}",
        ))
        return 0
    # gc: sweep stale .tmp staging files / .lock sidecars
    removed = store.gc(max_age_seconds=args.max_age)
    print(f"store gc: removed {removed['tmp']} stale .tmp and "
          f"{removed['lock']} stale .lock files from {args.store}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a Chrome-trace JSON written by ``runtime --trace``."""
    from repro.runtime.telemetry import load_trace, summarize_trace

    try:
        payload = load_trace(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {args.path!r}: {exc}")
    summary = summarize_trace(payload)
    rows = [
        ["run id", summary["run_id"] or "?"],
        ["spans", summary["n_spans"]],
        ["wall clock", f"{summary['wall_seconds']:.3f} s"],
        ["span coverage", f"{summary['coverage']:.1%}"],
    ]
    print(format_table(rows, title=f"trace summary: {args.path}"))
    if summary["phases"]:
        print()
        print(format_table(
            [[p["name"], p["count"], f"{p['seconds']:.3f}",
              f"{p['share']:.1%}"] for p in summary["phases"]],
            headers=["phase", "spans", "seconds", "share of traced time"],
            title="time by phase (span category)",
        ))
    if summary["spans"]:
        print()
        print(format_table(
            [[s["name"], s["count"], f"{s['seconds']:.3f}",
              f"{s['share']:.1%}"] for s in summary["spans"]],
            headers=["span", "count", "seconds", "share of traced time"],
            title="time by span name",
        ))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.hardware.latency import LatencyEstimator

    estimator = LatencyEstimator(_device(args.device), config=MacroConfig.full())
    entries = sorted(estimator.lut.entries.items(), key=lambda kv: -kv[1])
    rows = [[str(key), f"{ms:.4f}"] for key, ms in entries[: args.top]]
    rows.append(["network overhead", f"{estimator.lut.network_overhead_ms:.4f}"])
    print(format_table(
        rows,
        headers=["layer (kind, cin, cout, h, w, k, s)", "latency (ms)"],
        title=f"latency LUT for {args.device} ({len(entries)} entries)",
    ))
    return 0


def cmd_validate_latency(args: argparse.Namespace) -> int:
    from repro.hardware.latency import LatencyEstimator
    from repro.searchspace.space import NasBench201Space

    estimator = LatencyEstimator(_device(args.device), config=MacroConfig.full())
    archs = NasBench201Space().sample(args.samples, rng=args.seed)
    errors = []
    for genotype in archs:
        estimate = estimator.estimate_ms(genotype)
        truth = estimator.ground_truth_ms(genotype)
        errors.append(abs(estimate - truth) / truth)
    errors = np.array(errors)
    print(format_table(
        [
            ["architectures", len(archs)],
            ["mean abs rel error", f"{errors.mean() * 100:.2f} %"],
            ["max abs rel error", f"{errors.max() * 100:.2f} %"],
        ],
        title=f"latency estimator validation on {args.device}",
    ))
    return 0 if errors.max() < 0.10 else 1


def cmd_query(args: argparse.Namespace) -> int:
    from repro.benchdata.api import SurrogateBenchmarkAPI
    from repro.searchspace.render import render_cell

    genotype = Genotype.resolve(args.arch)
    api = SurrogateBenchmarkAPI()
    record = api.query(genotype)
    rows = [["architecture", record.arch_str], ["index", record.index],
            ["FLOPs", f"{record.flops / 1e6:.2f} M"],
            ["params", f"{record.params / 1e6:.3f} M"],
            ["training cost", f"{record.training_seconds / 3600:.2f} GPU-h"]]
    for dataset, acc in record.accuracies.items():
        rows.append([f"accuracy ({dataset})", f"{acc:.2f} %"])
    print(format_table(rows, title="surrogate benchmark record"))
    print()
    print(render_cell(genotype))
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    from repro.hardware.latency import LatencyEstimator
    from repro.search.objective import HybridObjective, ObjectiveWeights
    from repro.search.pareto import ParetoZeroShotSearch

    estimator = LatencyEstimator(_device(args.device), config=MacroConfig.full())
    objective = HybridObjective(
        proxy_config=_proxy_config(args),
        weights=ObjectiveWeights(latency=0.5),
        latency_estimator=estimator,
    )
    search = ParetoZeroShotSearch(objective, num_samples=args.samples,
                                  seed=args.seed)
    result = search.search()
    knee = result.knee_point()
    print(format_table(
        [[("knee -> " if p is knee else "") + p.genotype.to_arch_str()[:44],
          f"{p.latency_ms:.0f}", f"{p.quality_rank:.1f}"]
         for p in result.front],
        headers=["architecture", "latency ms", "quality rank (low=good)"],
        title=f"quality/latency Pareto front on {args.device} "
              f"({len(result.front)} of {args.samples} sampled)",
    ))
    return 0


def cmd_space_stats(args: argparse.Namespace) -> int:
    from repro.searchspace.stats import space_statistics

    stats = space_statistics()
    print(format_table(
        [
            ["architecture strings", f"{stats.total_arch_strings:,}"],
            ["functionally unique (canonical classes)",
             f"{stats.canonical_classes:,}"],
            ["redundancy", f"{stats.redundancy * 100:.1f} %"],
            ["fully disconnected strings",
             f"{stats.disconnected_arch_strings:,}"],
            ["largest duplicate class", f"{stats.largest_class_size:,}"],
            ["singleton classes", f"{stats.singleton_classes:,}"],
        ],
        title="NAS-Bench-201 functional-redundancy census",
    ))
    return 0


def cmd_devices(args: argparse.Namespace) -> int:
    rows = []
    for name, d in sorted(known_devices().items()):
        rows.append([
            name, d.core, f"{d.clock_hz / 1e6:.0f} MHz",
            f"{d.sram_bytes // 1024} KB", f"{d.flash_bytes // 1024} KB",
            f"{d.cycles_per_mac:.2f}", f"{d.mac_cycles('int8'):.2f}",
        ])
    print(format_table(
        rows,
        headers=["device", "core", "clock", "SRAM", "flash",
                 "cyc/MAC f32", "cyc/MAC int8"],
        title="registered MCU boards",
    ))
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    from repro.hardware.deploy import deployment_report

    genotype = Genotype.resolve(args.arch)
    device = _device(args.device)
    report = deployment_report(genotype, device, config=MacroConfig.full())
    print(format_table(
        [
            ["architecture", report.arch_str],
            ["device", report.device_name],
            ["latency (float32)", f"{report.latency_float32_ms:.1f} ms"],
            ["latency (int8)", f"{report.latency_int8_ms:.1f} ms"],
            ["int8 speedup", f"{report.int8_speedup:.2f}x"],
            ["arena (int8)", f"{report.arena_int8_bytes / 1024:.0f} KB "
                             f"of {report.sram_bytes // 1024} KB SRAM"],
            ["flash (int8)", f"{report.flash_int8_bytes / 1024:.0f} KB "
                             f"of {report.flash_bytes // 1024} KB"],
            ["weight SQNR", f"{report.weight_sqnr_db:.1f} dB"],
            ["verdict", "DEPLOYABLE" if report.deployable else "DOES NOT FIT"],
        ],
        title="deployment assessment",
    ))
    return 0 if report.deployable else 1


def cmd_macro_search(args: argparse.Namespace) -> int:
    from repro.search.macro import (
        MacroSearchSpace,
        MacroStageSearch,
        device_constraints,
    )

    genotype = Genotype.resolve(args.arch)
    device = _device(args.device)
    search = MacroStageSearch(
        genotype, device=device, space=MacroSearchSpace(),
        element_bytes=1 if args.int8 else 4,
    )
    constraints = device_constraints(
        device, max_latency_ms=args.max_latency_ms,
        memory_margin=args.memory_margin,
    )
    try:
        plan = search.select(constraints)
    except Exception as exc:  # SearchError: nothing fits
        print(f"macro search failed: {exc}")
        return 1
    cand = plan.candidate
    print(format_table(
        [
            ["architecture", plan.genotype.to_arch_str()],
            ["device", plan.device_name],
            ["skeleton", f"C={cand.config.init_channels} "
                         f"N={cand.config.cells_per_stage}"],
            ["latency", f"{cand.latency_ms:.1f} ms"],
            ["FLOPs", f"{cand.flops / 1e6:.2f} M"],
            ["params", f"{cand.params / 1e3:.1f} k"],
            ["peak SRAM", f"{cand.peak_sram_bytes / 1024:.0f} KB"],
            ["flash", f"{cand.flash_bytes / 1024:.0f} KB"],
            ["grid points", plan.alternatives_considered],
        ],
        title="secondary-stage (macro) search result",
    ))
    return 0


def cmd_memplan(args: argparse.Namespace) -> int:
    from repro.hardware.memplan import (
        liveness_lower_bound,
        plan_memory,
        tensor_lifetimes,
    )

    genotype = Genotype.resolve(args.arch)
    lifetimes = tensor_lifetimes(
        genotype, MacroConfig.full(), element_bytes=1 if args.int8 else 4
    )
    bound = liveness_lower_bound(lifetimes)
    rows = []
    for strategy in ("no_reuse", "first_fit", "greedy_by_size"):
        plan = plan_memory(lifetimes, strategy)
        rows.append([strategy, f"{plan.arena_bytes / 1024:.1f} KB",
                     f"{plan.arena_bytes / max(bound, 1):.2f}x bound"])
    print(format_table(
        rows,
        headers=["strategy", "arena", "vs liveness bound"],
        title=f"tensor arena for {genotype.to_arch_str()} "
              f"({len(lifetimes)} buffers, bound {bound / 1024:.1f} KB)",
    ))
    if args.layout:
        plan = plan_memory(lifetimes, "greedy_by_size")
        layout = sorted(lifetimes, key=lambda b: plan.offsets[b.name])[: args.top]
        print()
        print(format_table(
            [[b.name, f"{plan.offsets[b.name]}", f"{b.size_bytes}",
              f"[{b.start}, {b.end}]"] for b in layout],
            headers=["buffer", "offset", "bytes", "live steps"],
            title=f"greedy layout (first {args.top} buffers by offset)",
        ))
    return 0


def cmd_proxies(args: argparse.Namespace) -> int:
    from repro.proxies.zerocost import PROXY_REGISTRY

    genotype = Genotype.resolve(args.arch)
    config = _proxy_config(args)
    rows = []
    for name, spec in PROXY_REGISTRY.items():
        value = spec.fn(genotype, config)
        direction = "higher" if spec.higher_is_better else "lower"
        rows.append([name, f"{value:.4g}", f"{direction} is better"])
    print(format_table(rows, headers=["proxy", "value", "direction"],
                       title=f"zero-cost proxies for {genotype.to_arch_str()}"))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
_RUNTIME_EXAMPLES = """\
parallel evaluation runtime examples:
  # fan population evaluation out over 8 worker processes; chunks
  # merge into the cache as they land
  micronas runtime --algorithm random --samples 256 --workers 8

  # persist the indicator cache + latency LUTs; re-runs warm-start
  micronas runtime --algorithm pruning --latency-weight 0.5 \\
      --store ~/.cache/micronas

  # multi-board secondary stage against the same store: each device's
  # LUT is profiled once, ever
  micronas runtime --algorithm macro --arch 1462 \\
      --device nucleo-l432kc --store ~/.cache/micronas
  micronas runtime --algorithm macro --arch 1462 \\
      --device rp2040-pico --store ~/.cache/micronas

  # steady-state asynchronous evolution: 4 candidates stay in flight,
  # children are mutated from the Pareto set as each future resolves
  micronas runtime --algorithm steady-state --workers 4 \\
      --population 20 --cycles 100 --store ~/.cache/micronas

  # float32 proxy substrate: ~2x kernel throughput, rank-preserving
  # (Spearman >= 0.99 vs float64 — see BENCH_precision.json); cached
  # rows are precision-keyed, so both policies warm-start side by side
  micronas runtime --algorithm random --samples 256 --precision float32 \\
      --store ~/.cache/micronas
  micronas search --algorithm micronas --fast --precision float32

  # fault-tolerant run: 30s per-chunk deadline, 3 retries for
  # transient failures; poison candidates are quarantined in the store
  # (inspect with 'micronas store quarantine')
  micronas runtime --algorithm steady-state --workers 4 \\
      --chunk-timeout 30 --max-retries 3 --store ~/.cache/micronas

  # distributed fleet: the driver binds a broker and forks 4 local
  # workers; more workers (local or remote) join and leave freely with
  # 'micronas fleet worker' and warm-start from the shared store
  micronas runtime --algorithm steady-state \\
      --fleet-bind 127.0.0.1:7707 --fleet-workers 4 --chunk-timeout 30 \\
      --store ~/.cache/micronas
  micronas fleet worker --connect 127.0.0.1:7707 \\
      --store ~/.cache/micronas

  # device matrix: trainless indicators once, one Pareto front per
  # (device, objective-set) cell; cost axes (energy, peak-mem,
  # int8-latency, ...) are priced per board via the shared LUT store
  micronas runtime --samples 128 \\
      --objective latency --objective energy,peak-mem \\
      --device-matrix nucleo-f746zg,nucleo-l432kc \\
      --store ~/.cache/micronas
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micronas",
        description="MicroNAS: zero-shot hardware-aware NAS for MCUs",
        epilog=_RUNTIME_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run an architecture search")
    p_search.add_argument("--algorithm", choices=("micronas", "tenas", "random"),
                          default="micronas")
    p_search.add_argument("--latency-weight", type=float, default=0.5)
    p_search.add_argument("--flops-weight", type=float, default=0.0)
    p_search.add_argument("--device", default="nucleo-f746zg")
    p_search.add_argument("--samples", type=int, default=64,
                          help="sample count for random search")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--fast", action="store_true",
                          help="reduced proxy scale (quick demo)")
    p_search.add_argument("--precision", choices=("float32", "float64"),
                          default="float64",
                          help="proxy compute precision (float32: ~2x "
                               "faster kernels, rank-preserving)")
    p_search.set_defaults(fn=cmd_search)

    p_runtime = sub.add_parser(
        "runtime",
        help="run a search on the parallel evaluation runtime",
        description="Run any registered search algorithm through the "
                    "parallel evaluation runtime: unique candidates fan "
                    "out over worker processes, and a --store directory "
                    "persists the indicator cache and per-device latency "
                    "LUTs so repeated runs warm-start.",
        epilog=_RUNTIME_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_runtime.add_argument("--algorithm", default="random",
                           help="registered algorithm: random, "
                                "trainless-evolutionary, steady-state "
                                "(event-driven evolution), "
                                "pruning, macro, or evolutionary "
                                "(train-based surrogate baseline; ignores "
                                "indicator weights and the pool)")
    p_runtime.add_argument("--workers", type=int, default=1,
                           help="worker processes (1 = serial)")
    p_runtime.add_argument("--chunk-size", type=int, default=8,
                           help="most candidates per worker task (tasks "
                                "shrink towards the end of a dispatch)")
    p_runtime.add_argument("--store", default=None,
                           help="directory for the persistent indicator/LUT "
                                "store (created if missing); a run "
                                "warm-starts by replaying it once")
    p_runtime.add_argument("--device", default="nucleo-f746zg")
    p_runtime.add_argument("--samples", type=int, default=64,
                           help="population for random search")
    p_runtime.add_argument("--population", type=int, default=20,
                           help="population for evolutionary search")
    p_runtime.add_argument("--cycles", type=int, default=100,
                           help="cycles for evolutionary search")
    p_runtime.add_argument("--latency-weight", type=float, default=0.0)
    p_runtime.add_argument("--flops-weight", type=float, default=0.0)
    p_runtime.add_argument("--arch", default=None,
                           help="cell for --algorithm macro "
                                "(arch string or index)")
    p_runtime.add_argument("--seed", type=int, default=0)
    p_runtime.add_argument("--full-scale", action="store_true",
                           help="paper-scale proxies (default: fast/reduced)")
    p_runtime.add_argument("--precision", choices=("float32", "float64"),
                           default="float64",
                           help="proxy compute precision; precision-keyed "
                                "cache/store rows never cross-contaminate")
    p_runtime.add_argument("--chunk-timeout", type=float, default=None,
                           help="per-chunk deadline in seconds "
                                "— a chunk running longer is abandoned, "
                                "counted as a timeout, and retried under "
                                "--max-retries; on a fleet run it is each "
                                "chunk's lease (default: no deadline)")
    p_runtime.add_argument("--max-retries", type=int, default=2,
                           help="retry budget for transient "
                                "chunk failures (timeouts, I/O errors); "
                                "deterministic-poison candidates are "
                                "bisected out and quarantined in the store "
                                "instead of retried")
    p_runtime.add_argument("--report", default=None,
                           help="also write the structured run report "
                                "(JSON) to this path")
    p_runtime.add_argument("--trace", default=None,
                           help="arm run telemetry and write a Chrome "
                                "trace_event JSON (load in Perfetto / "
                                "chrome://tracing, or inspect with "
                                "'micronas trace summarize PATH')")
    p_runtime.add_argument("--heartbeat", type=float, default=None,
                           metavar="SECS",
                           help="print a one-line progress heartbeat to "
                                "stderr every SECS seconds (evals/s, "
                                "in-flight, idle %%, retries, store rows)")
    p_runtime.add_argument("--fleet-bind", dest="fleet_bind", default=None,
                           metavar="HOST:PORT",
                           help="bind a fleet broker here and "
                                "evaluate chunks on fleet workers instead "
                                "of the fork pool (port 0 picks a free "
                                "port; workers join with 'micronas fleet "
                                "worker --connect').  Trusted networks "
                                "only: the wire format is pickle")
    p_runtime.add_argument("--fleet-workers", dest="fleet_workers",
                           type=int, default=0,
                           help="fork this many local fleet "
                                "workers against the broker at start "
                                "(implies a broker on 127.0.0.1 when "
                                "--fleet-bind is not given)")
    p_runtime.add_argument("--fleet-token", dest="fleet_token", default="",
                           help="shared fleet token workers must present "
                                "(identity check against cross-talk, not "
                                "authentication)")
    p_runtime.add_argument("--objective", action="append", default=None,
                           metavar="AXES",
                           help="one objective set: comma-joined registered "
                                "cost axes (latency, flops, energy, "
                                "peak-mem, int8-latency).  Repeat the flag "
                                "for multiple sets; with --device-matrix "
                                "each set becomes a matrix column, without "
                                "it the axes fold into the hybrid "
                                "objective's weights")
    p_runtime.add_argument("--device-matrix", dest="device_matrix",
                           default=None, metavar="DEV1,DEV2",
                           help="device-matrix mode: evaluate trainless "
                                "indicators once, then emit one Pareto "
                                "front per (device, objective-set) cell — "
                                "cost axes are priced per device via the "
                                "shared cache/store LUT seam")
    p_runtime.set_defaults(fn=cmd_runtime)

    p_fleet = sub.add_parser(
        "fleet",
        help="join a distributed evaluation fleet as a worker",
        description="Fleet worker client: connect to a broker started by "
                    "'micronas runtime --fleet-bind HOST:PORT', "
                    "lease evaluation chunks, compute them, and report "
                    "back — warm-starting from (and flushing results "
                    "into) the shared --store directory when given. "
                    "Workers may join and leave at any time; chunks a "
                    "lost worker held fail as transient and the driver "
                    "retries them.",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_cmd", required=True)
    p_fleet_worker = fleet_sub.add_parser(
        "worker", help="run one worker loop against a fleet broker")
    p_fleet_worker.add_argument("--connect", required=True,
                                metavar="HOST:PORT",
                                help="the broker's address (printed by the "
                                     "driver / chosen via --fleet-bind)")
    p_fleet_worker.add_argument("--store", default=None,
                                help="shared store directory: the worker "
                                     "follows its segment log (before each "
                                     "chunk it reads only the files it has "
                                     "not read yet), serves rows already "
                                     "persisted instead of recomputing "
                                     "them, and flushes freshly computed "
                                     "rows back immediately")
    p_fleet_worker.add_argument("--token", default="",
                                help="shared fleet token (must match the "
                                     "broker's --fleet-token)")
    p_fleet_worker.add_argument("--poll", type=float, default=0.2,
                                metavar="SECS",
                                help="sleep between lease attempts while "
                                     "the broker has no work (default 0.2)")
    p_fleet_worker.add_argument("--max-chunks", dest="max_chunks",
                                type=int, default=None,
                                help="leave gracefully after this many "
                                     "chunks (default: stay until drain)")
    p_fleet_worker.set_defaults(fn=cmd_fleet_worker)

    p_trace = sub.add_parser(
        "trace",
        help="inspect a telemetry trace written by 'runtime --trace'",
        description="Offline analysis of a Chrome trace_event JSON "
                    "written by 'micronas runtime --trace PATH': "
                    "'summarize' prints wall clock, span coverage, and "
                    "a phase-by-phase time breakdown.",
    )
    p_trace.add_argument("action", choices=("summarize",))
    p_trace.add_argument("path", help="trace JSON path")
    p_trace.set_defaults(fn=cmd_trace)

    p_store = sub.add_parser(
        "store",
        help="inspect and maintain a persistent runtime store",
        description="Maintenance for a --store directory: 'inventory' "
                    "lists persisted indicator caches (format, precision, "
                    "rows, pending segments) and device LUTs; 'compact' "
                    "folds each current-format cache's append-only "
                    "segments into its base file; 'gc' sweeps stale "
                    ".tmp/.lock sidecars that crashed writers left "
                    "behind; 'quarantine' lists "
                    "poison candidates the fault-tolerant runtime "
                    "quarantined (never re-shipped by later runs).",
    )
    p_store.add_argument("action",
                         choices=("inventory", "compact", "gc",
                                  "quarantine"))
    p_store.add_argument("--store", required=True,
                         help="store directory (as passed to "
                              "'micronas runtime --store')")
    p_store.add_argument("--max-age", type=float, default=3600.0,
                         help="gc: sidecars untouched for this many "
                              "seconds are considered stale")
    p_store.set_defaults(fn=cmd_store)

    p_profile = sub.add_parser("profile", help="build and print a latency LUT")
    p_profile.add_argument("--device", default="nucleo-f746zg")
    p_profile.add_argument("--top", type=int, default=10)
    p_profile.set_defaults(fn=cmd_profile)

    p_val = sub.add_parser("validate-latency",
                           help="check the LUT estimator vs ground truth")
    p_val.add_argument("--device", default="nucleo-f746zg")
    p_val.add_argument("--samples", type=int, default=10)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(fn=cmd_validate_latency)

    p_query = sub.add_parser("query", help="look up an architecture")
    p_query.add_argument("arch", help="architecture string or integer index")
    p_query.set_defaults(fn=cmd_query)

    p_prox = sub.add_parser("proxies", help="evaluate all zero-cost proxies")
    p_prox.add_argument("arch", help="architecture string or integer index")
    p_prox.add_argument("--seed", type=int, default=0)
    p_prox.add_argument("--fast", action="store_true")
    p_prox.add_argument("--precision", choices=("float32", "float64"),
                        default="float64",
                        help="proxy compute precision")
    p_prox.set_defaults(fn=cmd_proxies)

    p_pareto = sub.add_parser("pareto",
                              help="zero-shot quality/latency Pareto front")
    p_pareto.add_argument("--device", default="nucleo-f746zg")
    p_pareto.add_argument("--samples", type=int, default=32)
    p_pareto.add_argument("--seed", type=int, default=0)
    p_pareto.add_argument("--fast", action="store_true")
    p_pareto.set_defaults(fn=cmd_pareto)

    p_stats = sub.add_parser("space-stats",
                             help="functional-redundancy census of the space")
    p_stats.set_defaults(fn=cmd_space_stats)

    p_dev = sub.add_parser("devices", help="list registered MCU boards")
    p_dev.set_defaults(fn=cmd_devices)

    p_deploy = sub.add_parser("deploy",
                              help="full deployment assessment for one arch")
    p_deploy.add_argument("arch", help="architecture string or integer index")
    p_deploy.add_argument("--device", default="nucleo-f746zg")
    p_deploy.set_defaults(fn=cmd_deploy)

    p_macro = sub.add_parser("macro-search",
                             help="secondary stage: fit a cell onto a board")
    p_macro.add_argument("arch", help="architecture string or integer index")
    p_macro.add_argument("--device", default="nucleo-f746zg")
    p_macro.add_argument("--max-latency-ms", type=float, default=None)
    p_macro.add_argument("--memory-margin", type=float, default=1.0)
    p_macro.add_argument("--int8", action="store_true",
                         help="plan an int8 deployment (default float32)")
    p_macro.set_defaults(fn=cmd_macro_search)

    p_plan = sub.add_parser("memplan", help="plan the static tensor arena")
    p_plan.add_argument("arch", help="architecture string or integer index")
    p_plan.add_argument("--int8", action="store_true")
    p_plan.add_argument("--layout", action="store_true",
                        help="also print the buffer layout")
    p_plan.add_argument("--top", type=int, default=12)
    p_plan.set_defaults(fn=cmd_memplan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
