"""Static post-training int8 inference simulation (activations included).

:mod:`repro.hardware.quantize` quantizes *weights* only — the memory
story.  Real MCU runtimes (CMSIS-NN, TFLite-Micro) also quantize the
*activations*: each conv/linear output is requantized to int8 using a
scale fixed offline from calibration data.  This module simulates those
numerics faithfully:

1. :class:`ActivationObserver` — runs calibration batches through the
   float network and records the max-|activation| at every conv/linear
   output (the standard min/max observer, symmetric variant),
2. :class:`StaticQuantizedModel` — weights round-tripped through the int8
   codec, and every observed activation faked through
   ``clip(round(x / s), -127, 127) * s`` at inference time, so the forward
   pass produces exactly the values an int8 runtime's dequantized outputs
   would take,
3. :func:`int8_inference_report` — end-to-end damage assessment:
   float-vs-int8 prediction agreement, logit error, activation SQNR.

The simulation covers per-tensor symmetric quantization — what CMSIS-NN
supports on every Cortex-M — rather than per-channel scales.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.errors import HardwareModelError
from repro.hardware.quantize import INT8_LEVELS, dequantize_array, quantize_array
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.module import Module

#: Module types whose outputs are observation/requantization points.
QUANTIZED_LEAF_TYPES = (Conv2d, Linear)


def fake_quantize(array: np.ndarray, scale: float) -> np.ndarray:
    """Round-trip an activation tensor through the int8 codec."""
    if scale <= 0:
        raise HardwareModelError("activation scale must be positive")
    codes = np.clip(np.round(array / scale), -INT8_LEVELS, INT8_LEVELS)
    return codes * scale


def _leaf_points(model: Module) -> List[Tuple[str, Module]]:
    """Every conv/linear in the tree, with its qualified name."""
    return [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, QUANTIZED_LEAF_TYPES)
    ]


class ActivationObserver:
    """Records per-layer max-|activation| over calibration batches.

    Use as a context manager so the wrapped forwards are always restored::

        observer = ActivationObserver(model)
        with observer:
            model(Tensor(calibration_images))
        scales = observer.scales()
    """

    def __init__(self, model: Module) -> None:
        self.model = model
        self.points = _leaf_points(model)
        if not self.points:
            raise HardwareModelError(
                "model has no conv/linear layers to observe"
            )
        self.peaks: Dict[str, float] = {name: 0.0 for name, _ in self.points}
        self._originals: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def __enter__(self) -> "ActivationObserver":
        for name, module in self.points:
            original = module.forward
            self._originals[name] = original

            def observed(mod_self, x, _original=original, _name=name):
                out = _original(x)
                peak = float(np.abs(out.data).max())
                if peak > self.peaks[_name]:
                    self.peaks[_name] = peak
                return out

            module.forward = types.MethodType(observed, module)
        return self

    def __exit__(self, *exc_info) -> None:
        for name, module in self.points:
            module.forward = self._originals.pop(name)

    # ------------------------------------------------------------------
    def observe(self, images: np.ndarray) -> None:
        """Run one calibration batch through the instrumented model."""
        if not self._originals:
            raise HardwareModelError(
                "observer not armed; use it as a context manager"
            )
        self.model.train(False)
        with no_grad():
            self.model(Tensor(images))

    def scales(self) -> Dict[str, float]:
        """Symmetric per-layer activation scales from the recorded peaks."""
        missing = [name for name, peak in self.peaks.items() if peak == 0.0]
        if missing:
            raise HardwareModelError(
                f"layers never activated during calibration: {missing[:3]}"
            )
        return {name: peak / INT8_LEVELS for name, peak in self.peaks.items()}


def calibrate(model: Module, images: np.ndarray,
              batch_size: int = 32) -> Dict[str, float]:
    """One-call calibration: observe activation ranges, return scales."""
    observer = ActivationObserver(model)
    with observer:
        for start in range(0, len(images), batch_size):
            observer.observe(images[start:start + batch_size])
    return observer.scales()


class StaticQuantizedModel(Module):
    """A float model executing with full static-int8 numerics.

    Weights are round-tripped through the int8 codec at construction;
    every conv/linear output is fake-quantized with its calibrated scale
    during forward.  The input is quantized with a scale derived from the
    calibration images, mirroring the runtime's input tensor scale.
    """

    def __init__(self, model: Module, activation_scales: Dict[str, float],
                 input_scale: float) -> None:
        super().__init__()
        if input_scale <= 0:
            raise HardwareModelError("input scale must be positive")
        self.model = model
        self.input_scale = input_scale
        self.weight_scales: Dict[str, float] = {}
        for name, param in model.named_parameters():
            codes, scale = quantize_array(param.data)
            param.data = dequantize_array(codes, scale)
            self.weight_scales[name] = scale
        self.activation_scales = dict(activation_scales)
        points = _leaf_points(model)
        missing = [name for name, _ in points
                   if name not in self.activation_scales]
        if missing:
            raise HardwareModelError(
                f"no activation scale for layers: {missing[:3]}"
            )
        for name, module in points:
            original = module.forward
            scale = self.activation_scales[name]

            def quantized(mod_self, x, _original=original, _scale=scale):
                out = _original(x)
                return Tensor(fake_quantize(out.data, _scale))

            module.forward = types.MethodType(quantized, module)

    def forward(self, x: Tensor) -> Tensor:
        quant_in = Tensor(fake_quantize(x.data, self.input_scale))
        return self.model(quant_in)


@dataclass(frozen=True)
class Int8InferenceReport:
    """Float-vs-int8 numerics over an evaluation set."""

    num_images: int
    prediction_agreement: float
    mean_abs_logit_error: float
    logit_sqnr_db: float
    num_quantized_layers: int

    def summary(self) -> str:
        return (
            f"int8 simulation over {self.num_images} images: "
            f"{self.prediction_agreement * 100:.1f} % prediction agreement, "
            f"logit SQNR {self.logit_sqnr_db:.1f} dB "
            f"({self.num_quantized_layers} quantized layers)"
        )


def int8_inference_report(
    float_model: Module,
    quantized_model: StaticQuantizedModel,
    images: np.ndarray,
    batch_size: int = 32,
) -> Int8InferenceReport:
    """Compare float and static-int8 inference on the same inputs."""
    float_model.train(False)
    quantized_model.train(False)
    float_logits: List[np.ndarray] = []
    quant_logits: List[np.ndarray] = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start:start + batch_size]
            float_logits.append(float_model(Tensor(batch)).data)
            quant_logits.append(quantized_model(Tensor(batch)).data)
    ref = np.concatenate(float_logits)
    quant = np.concatenate(quant_logits)
    agreement = float(np.mean(ref.argmax(axis=1) == quant.argmax(axis=1)))
    noise = float(((quant - ref) ** 2).mean())
    signal = float((ref**2).mean())
    sqnr = 10.0 * np.log10(signal / noise) if noise > 0 else float("inf")
    return Int8InferenceReport(
        num_images=len(images),
        prediction_agreement=agreement,
        mean_abs_logit_error=float(np.abs(quant - ref).mean()),
        logit_sqnr_db=float(sqnr),
        num_quantized_layers=len(quantized_model.activation_scales),
    )


def simulate_int8_inference(
    model_factory,
    calibration_images: np.ndarray,
    eval_images: np.ndarray,
    batch_size: int = 32,
) -> Tuple[Int8InferenceReport, StaticQuantizedModel]:
    """End-to-end static quantization of a freshly built model.

    ``model_factory`` must return a *new* float model per call (the float
    reference and the quantized copy need independent weights — they are
    built with the same factory so the weights match before quantization).
    """
    reference = model_factory()
    victim = model_factory()
    scales = calibrate(victim, calibration_images, batch_size=batch_size)
    input_scale = float(np.abs(calibration_images).max()) / INT8_LEVELS
    quantized = StaticQuantizedModel(victim, scales, input_scale)
    report = int8_inference_report(reference, quantized, eval_images,
                                   batch_size=batch_size)
    return report, quantized
