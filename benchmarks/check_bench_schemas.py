"""Validate every ``BENCH_*.json`` artifact against its minimal schema.

The repo's benchmark scripts persist their headline numbers as
``BENCH_<name>.json`` at the repo root; downstream readers (the ROADMAP
acceptance bars, plotting, CI dashboards) parse them by key.  A bench
refactor that silently renames or drops a key breaks those readers long
after the offending commit — so this checker pins, per artifact, the
top-level keys that must exist, and runs as a tier-1 test
(``tests/test_bench_schemas.py``).

Rules:

* every known artifact that exists must carry its required keys
  (extra keys are fine — schemas are floors, not ceilings);
* every value must be strict JSON: ``NaN``/``Infinity`` are rejected
  (they round-trip through Python's ``json`` but are not JSON, and
  silently break stricter parsers);
* an *unknown* ``BENCH_*.json`` at the repo root is a failure — new
  benches must register their schema here;
* a known artifact that has not been generated yet is skipped (benches
  run on demand, not in CI).

Run standalone: ``python benchmarks/check_bench_schemas.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Required top-level keys per artifact.  Floors: benches may add keys
#: freely, but removing/renaming one of these breaks a reader somewhere.
SCHEMAS: Dict[str, List[str]] = {
    "BENCH_async.json": [
        "bench_scale", "n_workers", "executor_workload",
        "executor_barrier", "executor_steady_state", "executor_speedup",
        "search_budget", "search_barrier", "search_steady_state",
        "search_speedup", "async_bit_identical",
    ],
    "BENCH_engine.json": [
        "bench_scale", "population_size", "unique_canonical",
        "old_path_seconds", "engine_seconds", "warm_engine_seconds",
        "speedup", "warm_speedup", "max_ntk_rel_err",
        "ntk_nonfinite_agree", "lr_bit_identical", "score_kendall_tau",
        "cache", "supernet_plan_seconds", "supernet_autograd_seconds",
        "supernet_rows_bit_identical",
    ],
    "BENCH_faults.json": ["bench_scale", "overhead", "faulted"],
    "BENCH_parallel.json": [
        "bench_scale", "population_size", "unique_canonical", "n_workers",
        "cpu_count", "pool_mode", "serial_cold_seconds",
        "pool_cold_seconds", "store_load_seconds", "warm_eval_seconds",
        "warm_total_seconds", "pool_speedup", "warm_speedup",
        "pool_bit_identical", "warm_bit_identical",
        "store_entries_persisted", "store_entries_loaded",
        "stale_store_entries_loaded", "pool",
    ],
    "BENCH_precision.json": [
        "bench_scale", "kernel", "population", "rank_agreement",
    ],
    "BENCH_scenarios.json": [
        "bench_scale", "devices", "objective_sets", "cells", "samples",
        "unique_canonical", "rows_computed_cold", "rows_computed_warm",
        "trainless_exactly_once", "store_rows_persisted", "lut_warm_reuse",
        "int8_vs_float32_spearman", "default_bit_identical",
    ],
    "BENCH_store.json": [
        "store_sizes", "delta_rows", "points", "append_flatness_ratio",
        # Read side, against a store holding the whole space: a full
        # replay, which must return every saved row bit for bit.
        "space_rows", "full_replay_seconds", "read_paths_bit_identical",
    ],
    "BENCH_telemetry.json": [
        "bench_scale", "overhead", "traced",
    ],
}


def _reject_constant(token: str):
    raise ValueError(f"non-JSON constant {token!r} (NaN/Infinity) "
                     "is not allowed in BENCH artifacts")


def _load_strict(path: Path) -> Dict:
    payload = json.loads(path.read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    if not isinstance(payload, dict):
        raise ValueError("top level must be a JSON object")
    return payload


def check_bench_schemas(root: Path = REPO_ROOT) -> List[str]:
    """Every schema violation found, as human-readable strings."""
    problems: List[str] = []
    present = {path.name: path for path in sorted(root.glob("BENCH_*.json"))}
    for name in sorted(set(present) - set(SCHEMAS)):
        problems.append(
            f"{name}: unknown BENCH artifact — register its schema in "
            f"benchmarks/check_bench_schemas.py")
    for name, required in sorted(SCHEMAS.items()):
        path = present.get(name)
        if path is None:
            continue  # not generated yet: benches run on demand
        try:
            payload = _load_strict(path)
        except (ValueError, json.JSONDecodeError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        missing = [key for key in required if key not in payload]
        if missing:
            problems.append(f"{name}: missing required keys {missing}")
    return problems


def main() -> int:
    problems = check_bench_schemas()
    known = [name for name in sorted(SCHEMAS)
             if (REPO_ROOT / name).exists()]
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    print(f"ok: {len(known)} BENCH artifacts validated "
          f"({len(SCHEMAS) - len(known)} not generated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
