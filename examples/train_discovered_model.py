#!/usr/bin/env python
"""Full pipeline: search → train → quantize → deploy check.

The end of the paper's Fig. 1 workflow: after the zero-shot search picks a
cell, the deployment model is trained (here at reduced scale on synthetic
data — the NumPy substrate's "GPU"), quantized to int8 for flash, and
checked against the board's budgets.

Runtime: a few minutes (training dominates).
"""

from __future__ import annotations

from repro.data.synthetic import DatasetSpec, SyntheticImageDataset
from repro.hardware import LatencyEstimator, MemoryEstimator, NUCLEO_F746ZG
from repro.hardware.quantize import (
    QuantizedModule,
    quantization_report,
    quantized_logit_error,
)
from repro.proxies import ProxyConfig
from repro.search import HybridObjective, MicroNASSearch, ObjectiveWeights
from repro.searchspace.network import MacroConfig, build_network
from repro.train import (
    Augmenter,
    BestCheckpoint,
    EarlyStopping,
    Trainer,
    TrainerConfig,
)
from repro.utils import format_table

#: Reduced deployment config so CPU training finishes in minutes.
TRAIN_MACRO = MacroConfig(init_channels=8, cells_per_stage=1, num_classes=4,
                          image_size=16)


def main() -> None:
    # --- 1. zero-shot search -------------------------------------------
    print("searching (latency-guided MicroNAS)...")
    objective = HybridObjective(
        proxy_config=ProxyConfig(init_channels=4, cells_per_stage=1,
                                 input_size=8, ntk_batch_size=16,
                                 lr_num_samples=64, lr_input_size=4,
                                 lr_channels=3, seed=0),
        weights=ObjectiveWeights(latency=0.5),
        latency_estimator=LatencyEstimator(NUCLEO_F746ZG, config=MacroConfig.full()),
    )
    found = MicroNASSearch(objective).search()
    print(f"  discovered: {found.arch_str}")

    # --- 2. final training ---------------------------------------------
    print("training the discovered cell on a synthetic 4-class task...")
    dataset = SyntheticImageDataset(DatasetSpec("toy4", 4, 16),
                                    noise_sigma=0.35, seed=1)
    model = build_network(found.genotype, TRAIN_MACRO, rng=0)
    trainer = Trainer(
        model, dataset,
        TrainerConfig(epochs=6, batch_size=24,
                      batches_per_epoch=10, lr=0.08, seed=0),
        augmenter=Augmenter(crop_padding=2, flip_probability=0.5, seed=0),
    )
    checkpoint = BestCheckpoint(model)
    history = trainer.fit(
        evaluate_every=2,
        early_stopping=EarlyStopping(patience=2),
        checkpoint=checkpoint,  # best weights are restored at the end
    )
    for stats in history:
        eval_part = (f"  eval acc {stats.eval_accuracy:.3f}"
                     if stats.eval_accuracy is not None else "")
        print(f"  epoch {stats.epoch}: lr {stats.lr:.4f}  "
              f"loss {stats.train_loss:.3f}  "
              f"train acc {stats.train_accuracy:.3f}{eval_part}")
    float_accuracy = trainer.evaluate(num_batches=6)

    # --- 3. int8 quantization ------------------------------------------
    print("quantizing weights to int8...")
    report = quantization_report(model)
    images, _ = dataset.batch(32, rng=99)
    deployed = build_network(found.genotype, TRAIN_MACRO, rng=0)
    deployed.load_state_dict(model.state_dict())
    quantized = QuantizedModule(deployed)
    logit_err = quantized_logit_error(model, quantized, images)
    quant_trainer = Trainer(quantized, dataset,
                            TrainerConfig(epochs=1, batch_size=24,
                                          batches_per_epoch=1, seed=0))
    int8_accuracy = quant_trainer.evaluate(num_batches=6)

    # --- 4. deployment check -------------------------------------------
    memory = MemoryEstimator(TRAIN_MACRO, element_bytes=1)
    mem_report = memory.report(found.genotype)
    print()
    print(format_table(
        [
            ["float32 eval accuracy", f"{float_accuracy:.3f}"],
            ["int8-weight eval accuracy", f"{int8_accuracy:.3f}"],
            ["mean |logit error| after quantization", f"{logit_err:.4f}"],
            ["weight SQNR", f"{report.mean_sqnr_db:.1f} dB"],
            ["flash int8 vs float32",
             f"{report.flash_bytes_int8 / 1024:.0f} KB vs "
             f"{report.flash_bytes_float32 / 1024:.0f} KB "
             f"({report.compression:.1f}x smaller)"],
            ["peak SRAM (int8 activations)",
             f"{mem_report.peak_sram_bytes / 1024:.0f} KB "
             f"(budget {NUCLEO_F746ZG.sram_bytes // 1024} KB)"],
        ],
        title="Search -> train -> quantize -> deploy",
    ))


if __name__ == "__main__":
    main()
