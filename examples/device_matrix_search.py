#!/usr/bin/env python
"""Device-matrix search: one trainless pass, a grid of Pareto fronts.

Hardware-aware NAS usually re-runs the whole search per deployment
scenario.  The device-matrix mode inverts that: the trainless indicators
(NTK conditioning, linear regions, FLOPs) are evaluated exactly once per
candidate, and each (device, objective-set) cell only re-prices the cheap
LUT-backed cost axes — latency, energy, int8 latency, peak SRAM.  This
example runs a 2-board x 2-objective-set matrix and prints each cell's
knee-point pick, showing how the balanced choice shifts when the board or
the cost axes change while the quality column stays bit-identical.

Runtime: a few seconds (reduced proxy scale).
"""

from __future__ import annotations

from repro.runtime import RuntimeConfig, run_matrix
from repro.utils import format_table

DEVICES = ("nucleo-f746zg", "nucleo-l432kc")
OBJECTIVE_SETS = ("latency", "energy,peak-mem")
SAMPLES = 32


def main() -> None:
    config = RuntimeConfig(
        samples=SAMPLES,
        seed=7,
        fast=True,
        devices=DEVICES,
        objectives=OBJECTIVE_SETS,
    )
    report = run_matrix(config)

    print(f"population: {report.samples} sampled, "
          f"{report.unique_canonical} unique canonical cells")
    print(f"trainless rows computed once: "
          f"{report.trainless_evals['rows_computed']} "
          f"(= 3 indicators x {report.unique_canonical} archs, "
          f"shared by all {len(report.cells)} cells)")
    print(f"wall time: {report.wall_seconds:.2f} s\n")

    rows = []
    for cell in report.cells:
        knee = cell.knee or {}
        costs = ", ".join(
            f"{axis}={knee.get(axis, float('nan')):.3g}"
            for axis in cell.objectives)
        rows.append([
            cell.device,
            "+".join(cell.objectives),
            str(len(cell.front)),
            str(cell.num_fronts),
            str(knee.get("arch_index", "-")),
            costs,
        ])
    print(format_table(
        rows,
        headers=["device", "objectives", "front", "fronts", "knee arch",
                 "knee costs"],
    ))

    print(
        "\nReading the table: each cell prices the front for its own board\n"
        "and objective axes, but every cell ranked the *same*\n"
        "quality column -- re-pricing a scenario costs LUT lookups, not\n"
        "proxy re-evaluation.  Add --device-matrix to `micronas runtime`\n"
        "for the CLI equivalent."
    )


if __name__ == "__main__":
    main()
